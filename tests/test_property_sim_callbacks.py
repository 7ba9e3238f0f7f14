"""Property tests for the kernel's callback semantics.

One event gets 1-4 waiters, processes and plain callbacks mixed, some
registered before the event is processed and some after.  Whatever
the mix: callbacks run in registration order; a late one runs at the
same instant, through a zero-delay call, never inside ``add_callback``;
a cancelled timeout runs none and holds none.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

#: Each waiter: (is a process, registered after the event is processed).
waiters = st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=4)
outcomes = st.sampled_from(["succeed", "fail", "timeout", "cancelled"])

DELAY = 2.5


class Boom(Exception):
    pass


def run_case(outcome, specs):
    sim = Simulator()
    log = []

    def plain(index):
        def callback(event):
            log.append((index, sim.now, event.ok, event.value))

        return callback

    def waiter(index, event):
        try:
            value = yield event
        except Boom as error:
            log.append((index, sim.now, False, error))
        else:
            log.append((index, sim.now, True, value))

    if outcome in ("timeout", "cancelled"):
        event = sim.timeout(DELAY, value="timed")
    else:
        event = sim.event()
    error = Boom("failed")
    processes = []

    def register(index, is_process):
        if is_process:
            processes.append(sim.spawn(waiter(index, event)))
            # Let the process run up to its yield, which registers it.
            yield sim.timeout(0)
        else:
            event.add_callback(plain(index))
            # Never run inside add_callback, even when late.
            assert all(entry[0] != index for entry in log)

    def scenario():
        for index, (is_process, late) in enumerate(specs):
            if not late:
                yield from register(index, is_process)
        if outcome == "succeed":
            event.succeed("value")
        elif outcome == "fail":
            event.fail(error)
        elif outcome == "cancelled":
            assert event.cancel()
        # Past the trigger instant: the event has been processed (or,
        # if cancelled, would have been).
        yield sim.timeout(DELAY if outcome in ("timeout", "cancelled") else 0)
        for index, (is_process, late) in enumerate(specs):
            if late:
                yield from register(index, is_process)

    sim.run_process(scenario())
    sim.run()
    return event, log, processes, error


@settings(max_examples=150, deadline=None)
@given(outcomes, waiters)
def test_callbacks_run_in_registration_order_at_the_trigger_instant(outcome, specs):
    event, log, processes, error = run_case(outcome, specs)
    if outcome == "cancelled":
        assert log == []
        assert not any(process.triggered for process in processes)
        # The timeout holds no callback, early or late: none inline and
        # none in a list.
        for held in gc.get_referents(event):
            if held is not type(event):
                assert not callable(held) and not (type(held) is list and held), held
        return
    early = [index for index, (__, late) in enumerate(specs) if not late]
    late = [index for index, (__, late) in enumerate(specs) if late]
    assert [entry[0] for entry in log] == early + late
    trigger_at = DELAY if outcome == "timeout" else 0.0
    assert all(entry[1] == trigger_at for entry in log)
    if outcome == "fail":
        assert all(entry[2] is False and entry[3] is error for entry in log)
    else:
        expected = "timed" if outcome == "timeout" else "value"
        assert all(entry[2] is True and entry[3] == expected for entry in log)
