"""Shrink a failing chaos schedule to the faults its failure needs.

A sweep's scenario takes a seed and a :class:`ChaosSchedule`.  Given a
schedule on which the scenario fails, :func:`shrink` drops one fault
at a time for as long as the *same* assertion still fails, and prints
what remains as a literal fault list: paste it into a regression test
as ``ChaosSchedule([...])``.

From the repository root::

    PYTHONPATH=src:. python -m tests.shrink \\
        tests.test_chaos_failover:run_failover \\
        tests.test_chaos_failover:failover_schedule 6

The second argument may instead be a file holding a fault-list literal
(``[Fault(...), ...]``), e.g. a schedule captured from another
revision.
"""

import importlib
import sys
import traceback

from repro.cluster.chaos import ChaosSchedule, Fault

from tests.conftest import REPLAY_CHECK_EVERY
from tests.invariants import replay_sampling


def failure(scenario, faults):
    """How ``scenario`` fails on ``faults``, or None if it passes.

    A failure is identified by its exception type and the file and line
    that raised it, so two runs fail "the same way" when the same
    assertion fires.  The journal is folded at sampled records, as in
    the test suite; a mismatch there is a failure of its own.
    """
    with replay_sampling(REPLAY_CHECK_EVERY) as mismatches:
        try:
            scenario(ChaosSchedule(faults))
        except Exception as error:  # noqa: BLE001 - any failure is a finding
            frame = traceback.extract_tb(error.__traceback__)[-1]
            return type(error).__name__, frame.filename, frame.lineno
    return ("shadow replay", None, None) if mismatches else None


def shrink(scenario, faults):
    """The smallest fault list found on which ``scenario`` still fails
    as it does on ``faults``: no single fault can be dropped from it."""
    target = failure(scenario, faults)
    if target is None:
        raise ValueError("the scenario passes on this schedule")
    faults = list(faults)
    index = 0
    while index < len(faults):
        trial = faults[:index] + faults[index + 1 :]
        if failure(scenario, trial) == target:
            faults, index = trial, 0
        else:
            index += 1
    return faults


def format_faults(faults):
    """A fault list as a literal a test can paste."""
    return "[\n" + "".join(f"    {fault!r},\n" for fault in faults) + "]"


def _resolve(spec):
    module, __, name = spec.partition(":")
    return getattr(importlib.import_module(module), name)


def main(argv):
    scenario_spec, schedule_spec, seed = argv
    seed = int(seed)
    if ":" in schedule_spec:
        faults = _resolve(schedule_spec)(seed).faults
    else:
        with open(schedule_spec) as source:
            faults = eval(source.read(), {"Fault": Fault})
    run = _resolve(scenario_spec)
    minimal = shrink(lambda schedule: run(seed, schedule), faults)
    print(f"# {failure(lambda schedule: run(seed, schedule), minimal)}")
    print(format_faults(minimal))


if __name__ == "__main__":
    main(sys.argv[1:])
