"""The chaos harness itself: per-kind schedules, shrinking, replay.

- Every fault kind draws from its own seeded stream, so a kind's faults
  are the same with every other kind on or off, the same for the same
  seed, and different for another seed.
- The shrinker drops exactly the faults a failure does not need.
- A seed replays bit for bit: one sweep seed run in two fresh
  interpreters publishes the same event record.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cluster.chaos import (
    CRASH_KINDS,
    FAULT_KINDS,
    ChaosSchedule,
    Fault,
)

from tests.conftest import lan_host_names
from tests.shrink import failure, format_faults, shrink

HOSTS = lan_host_names(6)
POOLS = dict(
    protect=("host04",),
    ico_hosts=("host05",),
    relay_hosts=("host01", "host02", "host03"),
    manager_hosts=("host00", "host02", "host03"),
    instance_hosts=("host01", "host02", "host03"),
)


def kinds_on(seed, *kinds):
    """A schedule with exactly ``kinds`` on, two faults each at most."""
    counts = dict.fromkeys(FAULT_KINDS, 0)
    counts.update(dict.fromkeys(kinds, 2))
    return ChaosSchedule.generate(seed, HOSTS, counts=counts, **POOLS)


def hosts_of(faults):
    return {fault.params["host"] for fault in faults}


@pytest.mark.parametrize("kind", list(FAULT_KINDS))
def test_each_kind_draws_from_its_own_stream(kind):
    # Partitions and drops may draw none; take the first seed that does.
    seed = next(seed for seed in range(5, 50) if kinds_on(seed, kind).faults)
    alone = kinds_on(seed, kind).faults
    assert all(fault.kind == kind for fault in alone)
    assert kinds_on(seed, kind).faults == alone
    assert kinds_on(seed + 1, kind).faults != alone
    crash_kinds = list(CRASH_KINDS)
    for other in FAULT_KINDS:
        if other == kind:
            continue
        together = kinds_on(seed, kind, other).faults_of(kind)
        if (
            kind in crash_kinds
            and other in crash_kinds
            and crash_kinds.index(other) < crash_kinds.index(kind)
        ):
            # A crash kind skips the hosts an earlier crash kind took.
            taken = hosts_of(kinds_on(seed, other).faults)
            assert not hosts_of(together) & taken, (kind, other)
        else:
            assert together == alone, (kind, other)


def test_default_mix_is_crashes_partitions_drops():
    schedule = ChaosSchedule.generate(3, HOSTS)
    assert {fault.kind for fault in schedule.faults} <= {
        "crashes",
        "partitions",
        "drops",
    }
    assert schedule.faults_of("crashes")
    assert schedule.heal_time == max(fault.end for fault in schedule.faults)
    with pytest.raises(ValueError):
        ChaosSchedule.generate(3, HOSTS, counts={"meteors": 1})


def test_ico_partitions_isolate_the_ico_hosts():
    for seed in range(10):
        for fault in kinds_on(seed, "ico_partitions").faults:
            assert fault.params["a"] == ("host05",)
            assert set(fault.params["b"]) == set(HOSTS) - {"host05"}


def test_failover_crashes_hit_manager_hosts_chained_in_time():
    for seed in range(10):
        faults = kinds_on(seed, "failovers").faults
        assert 1 <= len(faults) <= 2
        assert hosts_of(faults) <= {"host00", "host02", "host03"}
        starts = [fault.start for fault in faults]
        assert starts == sorted(starts)
        for earlier, later in zip(faults, faults[1:]):
            assert later.start >= earlier.start + 8.0


def test_failover_sweep_seed_6_check_value():
    """Pins the stream derivation: ``random.Random(f"{seed}:{kind}")``."""
    schedule = ChaosSchedule.generate(
        6,
        HOSTS,
        counts={"drops": 0, "manager_partitions": 1, "failovers": 1},
        protect=("host04", "host05"),
        manager_hosts=("host00", "host02", "host03"),
    )
    crashes = {
        fault.params["host"]: round(fault.start, 2)
        for fault in schedule.faults_of(*CRASH_KINDS)
    }
    assert crashes == {"host00": 40.67, "host03": 38.15, "host02": 1.2}


def test_first_outage_is_the_earliest_crash_or_partition():
    schedule = ChaosSchedule(
        [
            Fault("drops", 0.5, 3.0, {"count": 1}),
            Fault("crashes", 7.0, 20.0, {"host": "host01"}),
            Fault("partitions", 4.0, 9.0, {"a": ("host00",), "b": ("host01",)}),
        ]
    )
    assert schedule.first_outage == 4.0
    assert ChaosSchedule([]).first_outage is None


def test_shrink_keeps_only_the_faults_the_failure_needs():
    faults = [
        Fault("crashes", 1.0, 9.0, {"host": "host01"}),
        Fault("drops", 2.0, 5.0, {"count": 1}),
        Fault("crashes", 3.0, 9.0, {"host": "host02"}),
        Fault("limps", 4.0, 8.0, {"host": "host03", "factor": 2.0}),
    ]

    def scenario(schedule):
        hosts = {fault.params.get("host") for fault in schedule.faults}
        assert not {"host01", "host02"} <= hosts, "both crashed"
        assert len(schedule.faults) < 4, "a different assertion"

    assert shrink(scenario, faults) == [faults[0], faults[2]]
    assert failure(scenario, faults[:1]) is None
    literal = format_faults([faults[0]])
    assert eval(literal, {"Fault": Fault}) == [faults[0]]
    with pytest.raises(ValueError):
        shrink(scenario, faults[:1])


REPLAY_SCRIPT = """
import hashlib
from repro.obs.bus import EventBus

digest = hashlib.sha256()
publish = EventBus.publish

def recording_publish(self, topic, subject=None, **details):
    event = publish(self, topic, subject, **details)
    digest.update(str(event).encode() + b"\\n")
    return event

EventBus.publish = recording_publish
from tests.test_chaos_gray import gray_schedule, run_gray
run_gray(0, gray_schedule(0))
print(digest.hexdigest())
"""


def test_a_seed_replays_bit_for_bit_in_fresh_interpreters():
    """Fresh interpreters reset the process-global counters (LOIDs,
    binding incarnations, detector and link ids) that make reruns in
    one process differ in names; different hash seeds show the run
    depends on no set or dict ordering of strings."""
    root = pathlib.Path(__file__).resolve().parent.parent
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
            PYTHONHASHSEED=hash_seed,
        )
        run = subprocess.run(
            [sys.executable, "-c", REPLAY_SCRIPT],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.append(run.stdout.split()[-1])
    assert digests[0] == digests[1]
    assert len(digests[0]) == len(hashlib.sha256().hexdigest())
