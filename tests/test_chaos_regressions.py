"""Regression tests: chaos schedules shrunk from failing sweep seeds.

Each test replays one sweep scenario on a fixed fault list that the
shrinker (``tests/shrink.py``) cut down from a seed that failed, so the
defect it exposed stays fixed whatever the seeded streams draw.

- A rebuild racing a promotion: a half-built incarnation took a
  delivery (half-applied), a promotion relinked a half-built
  incarnation as live (never configured), a replaced manager rebuilt
  over the authority's rebuild (two incarnations).  Only the authority
  rebuilds, a DCDO without a version refuses configuration diffs, and
  relinking counts only configured incarnations.
- A cold promotion shared its journal with the predecessor it replaced,
  which kept appending to it.
- A rebuilt instance's binding stayed out of the manager's own cache,
  so every delivery to it walked the whole timeout schedule first.
- A duplicate delivery acked a wave a checkpoint had already dropped,
  leaving an entry no fold could apply.
- A crash in the middle of a demote left the demoted wave aborting
  for good: a wave whose abort began after it completed was never
  resumed.
- A designation the crash beat to the standby was never retried, so
  the fleet ended split against its own table.
"""

from repro.cluster.chaos import ChaosSchedule, Fault

from tests.test_chaos_controller import run_controller
from tests.test_chaos_failover import run_failover
from tests.test_chaos_gray import run_gray
from tests.test_chaos_transactions import run_transactions
from tests.test_journal_compaction import run_compaction


def test_delivery_never_reaches_a_half_built_incarnation():
    """Failover seed 6: the second promotion lands while the replaced
    manager rebuilds an instance, and its delivery added v2's
    ``compare-desc`` before the v1 bootstrap finished."""
    schedule = ChaosSchedule(
        [
        Fault(
            "partitions",
            26.747542294389884,
            51.068946346099594,
            {"a": ("host02", "host03", "host00"), "b": ("host05", "host04", "host01")},
        ),
        Fault(
            "manager_partitions",
            0.9099606849846343,
            23.08412660112838,
            {"a": ("host00",), "b": ("host01", "host02", "host03", "host04", "host05")},
        ),
        Fault("failovers", 1.1974209518123968, 14.389360315818337, {"host": "host02"}),
        ]
    )
    run_failover(6, schedule)


def test_promotion_never_relinks_an_unconfigured_incarnation():
    """Gray seed 43: a promotion relinked a half-built incarnation as
    live; its rebuild then failed, and the replaced manager rebuilt the
    instance again, leaving the authority's record on the dead one."""
    schedule = ChaosSchedule(
        [
        Fault("crashes", 24.732330633746614, 64.44179705744031, {"host": "host03"}),
        Fault(
            "partitions",
            49.497916148369335,
            84.38606127660324,
            {"a": ("host02",), "b": ("host04", "host01", "host05", "host03", "host00")},
        ),
        Fault("failovers", 1.5911013306149338, 21.433974335915227, {"host": "host00"}),
        ]
    )
    run_gray(43, schedule)


def test_a_dead_manager_never_rebuilds_over_the_authority():
    """Transactions seed 10: the crashed term-1 manager's recovery loop
    rebuilt an instance over the term-2 manager's own rebuild of it."""
    schedule = ChaosSchedule(
        [
        Fault("crashes", 42.37819271969604, 75.1287677231359, {"host": "host00"}),
        Fault("crashes", 13.344041904696798, 19.857007171007876, {"host": "host02"}),
        Fault("drops", 3.911220849190106, 23.144185770498062, {"count": 2}),
        Fault("drops", 37.4627476783086, 43.15585079101085, {"count": 1}),
        Fault(
            "mid_apply_crashes",
            1.8646906594395816,
            41.39051355055133,
            {"host": "host04"},
        ),
        ]
    )
    run_transactions(10, schedule)


def test_cold_promotion_owns_its_journal():
    """Failover seed 69 of the previous schedules: both promotions are
    cold, and the partitioned term-1 primary and the term-2 promotee
    kept appending to the journal the term-3 promotee recovered from."""
    schedule = ChaosSchedule(
        [
        Fault("crashes", 2.778752551032575, 17.48945930858265, {"host": "host02"}),
        Fault("crashes", 12.487976207899944, 32.41010135929548, {"host": "host03"}),
        Fault(
            "partitions",
            26.25891424593918,
            52.15333681264343,
            {"a": ("host00", "host05", "host01", "host03", "host04"), "b": ("host02",)},
        ),
        Fault(
            "partitions",
            10.186657893277351,
            30.302836423110215,
            {"a": ("host00",), "b": ("host01", "host02", "host03", "host04", "host05")},
        ),
        ]
    )
    run_failover(69, schedule)


def test_rebuilt_instance_binding_is_cached_for_the_next_wave():
    """Controller seed 14 of the previous schedules: host01's rebuilt
    instances got the demote wave only after each delivery walked the
    60/120/600 s timeout schedule against the dead incarnation (903.7 s
    simulated); with the binding cached the run ends by 46.4 s."""
    schedule = ChaosSchedule(
        [
        Fault("crashes", 10.48903292961131, 23.418073846035526, {"host": "host01"}),
        Fault("drops", 24.286043005893752, 38.286472439355904, {"count": 4}),
        Fault("drops", 21.420376831782754, 27.427189100591654, {"count": 1}),
        Fault(
            "bad_deploys",
            10.308849670023625,
            10.308849670023625,
            {"added_latency_s": 0.843, "error_every": 0},
        ),
        ]
    )
    assert run_controller(14, schedule) < 100.0


def test_late_ack_of_a_compacted_wave_changes_nothing():
    """Compaction seed 6: a duplicate delivery acked v2 after the
    compactor had settled and dropped the wave; the journal then held
    an ack no fold could apply."""
    schedule = ChaosSchedule(
        [
        Fault("crashes", 40.672918164119096, 68.30336142673279, {"host": "host00"}),
        Fault("crashes", 38.14741309283857, 74.26199335384288, {"host": "host03"}),
        Fault(
            "partitions",
            26.747542294389884,
            51.068946346099594,
            {"a": ("host02", "host03", "host00"), "b": ("host05", "host04", "host01")},
        ),
        Fault(
            "manager_partitions",
            0.9099606849846343,
            23.08412660112838,
            {"a": ("host00",), "b": ("host01", "host02", "host03", "host04", "host05")},
        ),
        Fault("failovers", 1.1974209518123968, 14.389360315818337, {"host": "host02"}),
        ]
    )
    run_compaction(6, schedule)


def test_a_demote_the_crash_interrupted_is_finished():
    """Controller seed 42: host02 dies with the term-2 primary in the
    middle of the demote's rollback, after v2's wave had completed.
    The promotee must finish that journaled abort; skipping it left an
    instance rebuilt at 1.1 that no later wave rolled back."""
    schedule = ChaosSchedule(
        [
        Fault("crashes", 32.65162015277311, 40.71581541387017, {"host": "host02"}),
        Fault(
            "manager_partitions",
            0.9236308152062749,
            16.65709761768336,
            {"a": ("host00",), "b": ("host01", "host02", "host03", "host04", "host05")},
        ),
        Fault(
            "bad_deploys",
            25.692941593689344,
            25.692941593689344,
            {"added_latency_s": 0.461, "error_every": 0},
        ),
        ]
    )
    run_controller(42, schedule)


def test_a_designation_the_crash_beat_to_the_standby_is_retried():
    """Compaction seed 32: the primary crashes 30 ms after designating
    v2, before the entry ships.  The promotee acks the instances that
    already run 1.1 at its own current version 1, so their table rows
    say 1; the client must retry the designation it never saw
    acknowledged, and the table must agree with every instance."""
    schedule = ChaosSchedule(
        [
        Fault("crashes", 38.01199299186328, 64.89316236663406, {"host": "host02"}),
        Fault("drops", 2.705664434552313, 14.839534176212615, {"count": 1}),
        Fault("failovers", 5.940650243055615, 17.48848554244465, {"host": "host00"}),
        ]
    )
    run_compaction(32, schedule)
