"""Unit tests for the simulation kernel: clock, events, run modes."""

import pytest

from repro.sim import AllOf, AnyOf, Simulator
from repro.sim.errors import (
    EventAlreadyTriggered,
    SimulationError,
)


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_starts_at_custom_time():
    assert Simulator(start_time=42.0).now == 42.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(3.5)
        return sim.now

    assert sim.run_process(proc()) == 3.5


def test_zero_delay_timeout_is_allowed():
    sim = Simulator()

    def proc():
        yield sim.timeout(0)
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10)
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert fired == []
    sim.run()
    assert fired == [10.0]


def test_run_until_time_does_not_process_boundary_events():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(5)
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run(until=5.0)
    assert fired == []


def test_run_until_past_raises():
    sim = Simulator(start_time=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_events_at_same_time_run_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_carries_value():
    sim = Simulator()
    event = sim.event()

    def producer():
        yield sim.timeout(2)
        event.succeed("payload")

    def consumer():
        value = yield event
        return (sim.now, value)

    sim.spawn(producer())
    assert sim.run_process(consumer()) == (2.0, "payload")


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    event = sim.event()

    def producer():
        yield sim.timeout(1)
        event.fail(RuntimeError("boom"))

    def consumer():
        yield event

    sim.spawn(producer())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run_process(consumer())


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        event.succeed(2)
    with pytest.raises(EventAlreadyTriggered):
        event.fail(RuntimeError())


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_timeout_cannot_be_triggered_manually():
    sim = Simulator()
    timeout = sim.timeout(1)
    with pytest.raises(EventAlreadyTriggered):
        timeout.succeed()


def test_waiting_on_already_processed_event_resumes_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed("early")
    sim.run()  # process the event fully

    def late_waiter():
        value = yield event
        return (sim.now, value)

    assert sim.run_process(late_waiter()) == (0.0, "early")


def test_all_of_collects_all_values():
    sim = Simulator()
    timeouts = [sim.timeout(t, value=t) for t in (3, 1, 2)]

    def proc():
        values = yield AllOf(sim, timeouts)
        return (sim.now, sorted(values.values()))

    assert sim.run_process(proc()) == (3.0, [1, 2, 3])


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()

    def proc():
        yield AllOf(sim, [])
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_all_of_fails_on_first_child_failure():
    sim = Simulator()
    bad = sim.event()

    def failer():
        yield sim.timeout(1)
        bad.fail(ValueError("child failed"))

    def proc():
        yield AllOf(sim, [sim.timeout(5), bad])

    sim.spawn(failer())
    with pytest.raises(ValueError, match="child failed"):
        sim.run_process(proc())


def test_any_of_returns_first_value():
    sim = Simulator()
    fast = sim.timeout(1, value="fast")
    slow = sim.timeout(9, value="slow")

    def proc():
        result = yield AnyOf(sim, [fast, slow])
        return (sim.now, result)

    when, result = sim.run_process(proc())
    assert when == 1.0
    assert result == {fast: "fast"}


def test_any_of_fails_only_when_all_fail():
    sim = Simulator()
    first = sim.event()
    second = sim.event()

    def failer():
        yield sim.timeout(1)
        first.fail(ValueError("first"))
        yield sim.timeout(1)
        second.fail(ValueError("second"))

    def proc():
        yield AnyOf(sim, [first, second])

    sim.spawn(failer())
    with pytest.raises(ValueError, match="second"):
        sim.run_process(proc())


def test_run_until_event_returns_value():
    sim = Simulator()
    event = sim.event()

    def producer():
        yield sim.timeout(4)
        event.succeed("done")

    sim.spawn(producer())
    assert sim.run(until=event) == "done"
    assert sim.now == 4.0


def test_run_until_event_starved_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=event)


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_processed_events_counter_increases():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)

    sim.spawn(proc())
    sim.run()
    assert sim.processed_events > 0


# ----------------------------------------------------------------------
# Scheduler: daemon accounting, same-instant ordering, cancellation
# ----------------------------------------------------------------------


def test_nondaemon_accounting_survives_run_until_time():
    """run(until=time) may leave unprocessed non-daemon entries behind;
    the pending-count bookkeeping must stay exact so a later unbounded
    run() still knows when to stop."""
    sim = Simulator()
    fired = []

    def proc(delay):
        yield sim.timeout(delay)
        fired.append(sim.now)

    for delay in (1.0, 5.0, 9.0):
        sim.spawn(proc(delay))
    sim.run(until=3.0)
    assert fired == [1.0]
    # Two sleeping processes remain, each one non-daemon timeout entry.
    assert sim._scheduler.nondaemon_pending == 2
    assert sim.pending == 2
    sim.run()
    assert fired == [1.0, 5.0, 9.0]
    assert sim._scheduler.nondaemon_pending == 0
    assert sim.pending == 0


def test_daemon_entries_do_not_keep_run_alive_after_until():
    sim = Simulator()
    fired = []

    def poller():
        while True:
            yield sim.timeout(1.0, daemon=True)
            fired.append(sim.now)

    sim.spawn(poller())
    # The spawn kick-off itself is non-daemon; let it run, then make
    # sure the pure-daemon remainder never keeps an unbounded run alive.
    sim.run(until=2.5)
    assert fired == [1.0, 2.0]
    sim.run()
    assert fired == [1.0, 2.0]


def test_same_instant_order_matches_between_schedulers():
    """The calendar queue must reproduce the heap's (time, seq) order
    exactly — chaos seeds depend on same-instant tie-breaks."""
    from repro.sim import CalendarScheduler, HeapScheduler

    def workload(sim, log):
        def leaf(tag):
            yield sim.timeout(0)
            log.append((sim.now, tag))

        def burst(tag, delay):
            yield sim.timeout(delay)
            log.append((sim.now, tag))
            for child in range(3):
                sim.spawn(leaf(f"{tag}.{child}"))

        # Several bursts landing on the same instants, interleaved with
        # zero-delay cascades — the tie-break-heavy shape.
        for index, delay in enumerate((2.0, 1.0, 2.0, 0.0, 1.0, 0.0)):
            sim.spawn(burst(f"b{index}", delay))

    logs = []
    for scheduler in (CalendarScheduler(), HeapScheduler()):
        sim = Simulator(scheduler=scheduler)
        log = []
        workload(sim, log)
        sim.run()
        logs.append(log)
    assert logs[0] == logs[1]
    assert len(logs[0]) == 24  # 6 bursts + 18 leaves


def test_cancelled_timeout_never_fires_and_releases_run():
    sim = Simulator()
    fired = []
    timeout = sim.timeout(5.0)
    timeout.add_callback(lambda event: fired.append(sim.now))
    assert sim.pending == 1
    assert timeout.cancel() is True
    assert sim.pending == 0
    sim.run()  # returns immediately: nothing non-daemon remains
    assert sim.now == 0.0
    assert fired == []


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    timeout = sim.timeout(1.0)
    sim.run()
    assert sim.now == 1.0
    assert timeout.cancel() is False
    assert timeout.cancel() is False


def test_cancelled_entries_are_skipped_not_processed():
    sim = Simulator()
    sim.timeout(1.0).cancel()
    keeper = sim.timeout(1.0, value="kept")

    def waiter():
        value = yield keeper
        return (sim.now, value)

    assert sim.run_process(waiter()) == (1.0, "kept")
    # The cancelled entry was skipped silently: processed counts the
    # keeper's trigger and the waiter's machinery, not the dead entry.
    processed_with_cancel = sim.processed_events

    fresh = Simulator()
    fresh_keeper = fresh.timeout(1.0, value="kept")

    def fresh_waiter():
        value = yield fresh_keeper
        return (fresh.now, value)

    assert fresh.run_process(fresh_waiter()) == (1.0, "kept")
    assert processed_with_cancel == fresh.processed_events


def test_run_until_time_ignores_cancelled_head():
    sim = Simulator()
    sim.timeout(1.0).cancel()
    fired = []

    def proc():
        yield sim.timeout(4.0)
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run(until=2.0)
    assert sim.now == 2.0
    assert fired == []
    sim.run()
    assert fired == [4.0]


def test_heap_scheduler_simulator_end_to_end():
    from repro.sim import HeapScheduler

    sim = Simulator(scheduler=HeapScheduler())
    order = []

    def proc(tag, delay):
        yield sim.timeout(delay)
        order.append((sim.now, tag))

    sim.spawn(proc("late", 2.0))
    sim.spawn(proc("early", 1.0))
    sim.spawn(proc("tied", 2.0))
    sim.run()
    assert order == [(1.0, "early"), (2.0, "late"), (2.0, "tied")]


def test_an_action_that_raises_leaves_the_rest_of_its_instant_queued():
    sim = Simulator()
    order = []

    def record(event):
        order.append(event.value)

    def boom(event):
        raise RuntimeError("boom")

    for tag in ("a", "b", "c"):
        sim.timeout(1.0, value=tag).add_callback(boom if tag == "b" else record)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert (order, sim.now, sim.pending) == (["a"], 1.0, 1)
    # The instant's unrun entry still precedes what is scheduled now.
    sim._schedule_call(lambda: order.append("now"))
    sim.run()
    assert order == ["a", "c", "now"]
