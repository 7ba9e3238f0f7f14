"""Property test: the calendar kernel runs entries in (time, seq) order.

Random programs of up to six processes mix timers at equal and at
distinct instants (delay 0, and a tiny delay that float addition
absorbs once the clock has moved), bare zero-delay calls, cooperative
yields, events triggered before, at and after their first waiter
registers, failures, cancellations (``Timeout(0)`` too), daemon sleeps,
interrupts and joins.  The test stops the run at instants that have
queued entries, single-steps, spawns a process at the stop instant,
and ends with ``run(until=process)`` and ``run()``.

The action trace under :class:`CalendarScheduler` (the lane for the
current instant plus the calendar) must equal the trace under
:class:`HeapScheduler`, which runs every entry through one heap in
plain (time, sequence) order.  A trigger with no waiter must take no
entry: it leaves ``pending`` unchanged, and a program run without its
orphan triggers processes as many entries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CalendarScheduler, HeapScheduler, Interrupt, Simulator
from repro.sim.errors import SimulationError

#: Absorbed by float addition at any clock reading of 0.25 or more.
TINY = 1e-17
DELAYS = (0.0, TINY, 0.25, 0.5, 1.0)
EVENTS = 3
PROCESSES = 6

delays = st.sampled_from(DELAYS)
events = st.integers(0, EVENTS - 1)
processes = st.integers(0, PROCESSES - 1)

#: Ops any process may run.
common_ops = st.one_of(
    st.tuples(st.just("sleep"), delays),
    st.tuples(st.just("daemon_sleep"), delays),
    st.tuples(st.just("call"), delays),
    st.just(("uncall",)),
    st.tuples(st.just("succeed"), events),
    st.tuples(st.just("fail"), events),
    st.tuples(st.just("wait"), events),
    st.tuples(st.just("cancel"), delays),
    st.tuples(st.just("interrupt"), processes),
    st.tuples(st.just("join"), processes),
    st.just(("orphan",)),
)
#: Odd processes also yield cooperatively.  Even ones never do, and only
#: they are interrupted, always while suspended on an event: an
#: interrupt never meets a process that is already queued to resume.
yielding_ops = st.one_of(common_ops, st.just(("yield",)))

programs = st.tuples(
    st.lists(
        st.lists(common_ops, max_size=8),
        min_size=PROCESSES // 2,
        max_size=PROCESSES // 2,
    ),
    st.lists(
        st.lists(yielding_ops, max_size=8),
        min_size=PROCESSES // 2,
        max_size=PROCESSES // 2,
    ),
    # Each stop: (run until this instant, then this many single steps).
    st.lists(
        st.tuples(st.sampled_from((0.25, 0.5, 1.0, 1.5)), st.integers(0, 3)),
        max_size=3,
    ).map(sorted),
)


def run_program(scheduler, program, orphans=True):
    """Run ``program``; returns (action trace, processed entries)."""
    evens, odds, stops = program
    scripts = [ops for pair in zip(evens, odds) for ops in pair]
    sim = Simulator(scheduler=scheduler)
    log = []
    shared = [sim.event() for __ in range(EVENTS)]
    procs = []

    def note(*what):
        log.append((sim.now,) + what)

    def called(pid, index):
        return lambda: note(pid, index, "called")

    def do(pid, index, op, handles):
        kind = op[0]
        if kind in ("sleep", "daemon_sleep"):
            value = yield sim.timeout(op[1], value=index, daemon=kind == "daemon_sleep")
            note(pid, index, kind, value)
        elif kind == "yield":
            yield
            note(pid, index, kind)
        elif kind == "call":
            handles.append(sim._schedule_call(called(pid, index), op[1]))
        elif kind == "uncall":
            if handles:
                note(pid, index, kind, sim._cancel_entry(handles.pop()))
        elif kind in ("succeed", "fail"):
            event = shared[op[1]]
            if not event.triggered:
                if kind == "succeed":
                    event.succeed((pid, index))
                else:
                    event.fail(ValueError(pid, index))
                note(pid, index, kind, op[1])
        elif kind == "wait":
            value = yield shared[op[1]]
            note(pid, index, kind, value)
        elif kind == "cancel":
            timeout = sim.timeout(op[1])
            timeout.add_callback(lambda event: note(pid, index, "cancelled timer fired"))
            note(pid, index, kind, timeout.cancel())
        elif kind == "interrupt":
            target = procs[op[1]] if op[1] < len(procs) else None
            if (
                target is not None
                and op[1] % 2 == 0
                and target.is_alive
                and target.waiting_on is not None
            ):
                target.interrupt((pid, index))
                note(pid, index, kind, op[1])
        elif kind == "join":
            value = yield procs[op[1]]
            note(pid, index, kind, value)
        elif kind == "orphan":
            if orphans:
                pending = sim.pending
                sim.event().succeed(index)
                assert sim.pending == pending
        else:
            raise AssertionError(op)

    def body(pid, ops):
        handles = []
        for index, op in enumerate(ops):
            try:
                yield from do(pid, index, op, handles)
            except (Interrupt, ValueError) as error:
                note(pid, index, type(error).__name__, error.args)
        return pid

    for pid, ops in enumerate(scripts):
        procs.append(sim.spawn(body(pid, ops)))
    for stop, steps in stops:
        if stop >= sim.now:
            sim.run(until=stop)
        for __ in range(steps):
            log.append(("step", sim.step()))
        log.append(("stop", sim.now, sim.pending))
        # Its start goes behind every entry already queued at this instant.
        sim.spawn(body(len(procs), [("yield",), ("sleep", 0.0), ("sleep", TINY)]))
    try:
        log.append(("until", sim.run(until=procs[0])))
    except SimulationError as error:
        log.append(("until", str(error)))
    sim.run()
    log.append(("end", sim.now, sim.pending))
    return log, sim.processed_events


@settings(max_examples=250, deadline=None)
@given(programs)
def test_calendar_and_heap_run_every_program_in_the_same_order(program):
    calendar, processed = run_program(CalendarScheduler(), program)
    heap, heap_processed = run_program(HeapScheduler(), program)
    assert calendar == heap
    assert processed == heap_processed
    # Orphan triggers took no entry.
    assert run_program(CalendarScheduler(), program, orphans=False) == (calendar, processed)
