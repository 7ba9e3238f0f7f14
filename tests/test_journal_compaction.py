"""Journal compaction: one manager's replay bound, under faults too.

``write_checkpoint()`` drops settled waves (complete, every delivery
acked, outside an open canary) and records each instance as one entry, so a cold recovery replays about one entry per live
instance no matter how many waves the fleet has seen.  This is the
recovery-scope property a sharded plane used to buy by splitting the
journal N ways; here one manager gets it by forgetting history.

The seeded sweep crashes and partitions the supervised manager while a
wave is in flight and a compactor checkpoints every few seconds, so
checkpoints interleave with acks, shipping, and promotions.  Per seed:
the fleet converges, the shared checker holds at heal and at the end,
and the promoted authority's journal compacts back to the bound and
replays into an identical DCDO table.  ``CHAOS_EXTRA_SEEDS`` (env)
widens it.
"""

import pytest

from repro.cluster import Supervisor, build_lan
from repro.cluster.chaos import ChaosCoordinator, ChaosSchedule, crash_host
from repro.core import ManagerJournal, recover_manager
from repro.core.policies import ReliableUpdatePolicy
from repro.legion import LegionRuntime

from tests.conftest import (
    FAST_RETRY,
    create_dcdo,
    derive_v2,
    lan_host_names,
    make_sorter_manager,
)
from tests.invariants import (
    assert_instance_invariants,
    assert_invariants,
    assert_replay_matches,
    chaos_seeds,
)
from tests.test_chaos_failover import wave_offset

#: Checkpoint entries allowed beyond one per instance: term, components,
#: versions, current version, and any unsettled wave.
SLACK = 16


def build_fleet(hosts=4, instances=6, sim_seed=7, **manager_kwargs):
    runtime = LegionRuntime(build_lan(hosts, seed=sim_seed))
    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(
        runtime,
        journal=journal,
        propagation_retry_policy=FAST_RETRY,
        **manager_kwargs,
    )
    loids = [
        create_dcdo(runtime, manager, host_name=f"host{1 + index % (hosts - 1):02d}")[0]
        for index in range(instances)
    ]
    return runtime, manager, journal, loids


def next_version(manager):
    """An instantiable child of the current version, made current."""
    version = manager.derive_version(manager.current_version)
    manager.mark_instantiable(version)
    manager.set_current_version(version)
    return version


def run_wave(runtime, manager, version):
    tracker = runtime.sim.run_process(manager.propagate_version(version))
    assert tracker.complete and tracker.all_acked, tracker.summary()
    return tracker


def dcdo_table(manager):
    return {
        str(loid): str(manager.instance_version(loid))
        for loid in manager.instance_loids()
    }


def test_checkpoint_drops_settled_waves():
    runtime, manager, journal, loids = build_fleet()
    v2 = derive_v2(manager)
    manager.set_current_version(v2)
    run_wave(runtime, manager, v2)
    assert manager.propagation(v2) is not None
    manager.write_checkpoint()
    assert manager.propagation(v2) is None
    kinds = [entry.kind for entry in journal.replay()]
    assert not any(kind.startswith("propagation") for kind in kinds)
    assert kinds.count("instance") == len(loids)
    assert "instance-version" not in kinds  # one entry per instance


def test_compacted_replay_does_not_grow_with_waves():
    runtime, manager, journal, loids = build_fleet()
    sizes = []
    for __ in range(3):
        run_wave(runtime, manager, next_version(manager))
        sizes.append(manager.write_checkpoint())
    # Only the new version id costs an entry per wave; the uncompacted
    # journal grew by two entries per instance per wave.
    assert sizes[1] - sizes[0] == sizes[2] - sizes[1] == 1
    assert sizes[-1] <= len(loids) + SLACK
    assert journal.appends > sizes[-1] + 3 * len(loids)


def test_compaction_keeps_waves_recovery_still_needs():
    runtime, manager, journal, loids = build_fleet()
    v2 = derive_v2(manager)
    manager.set_current_version(v2)
    tracker = run_wave(runtime, manager, v2)
    # A delivery given up on waits for a re-propagation to re-arm it.
    tracker.fail(loids[0])
    manager.write_checkpoint()
    assert manager.propagation(v2) is tracker
    # An open canary keeps its (complete, all-acked) stage wave: a
    # breach must still roll the admitted instances back.
    v3 = next_version(manager)
    manager.begin_canary(v3, stages=(0.5, 1.0), bake_s=1.0)
    manager.admit_canary_stage(v3, loids[:1])
    stage = runtime.sim.run_process(manager.propagate_version(v3, loids=loids[:1]))
    assert stage.complete and stage.all_acked
    manager.write_checkpoint()
    assert manager.propagation(v3) is stage


def test_recovery_from_compacted_journal_roundtrips():
    runtime, manager, journal, loids = build_fleet()
    for __ in range(2):
        run_wave(runtime, manager, next_version(manager))
    manager.write_checkpoint()
    before = dcdo_table(manager)
    replayed = len(journal)
    crash_host(runtime, manager.host)
    recovered = runtime.sim.run_process(
        recover_manager(runtime, journal, host_name="host02")
    )
    assert dcdo_table(recovered) == before
    assert replayed <= len(loids) + SLACK
    # The recovered manager keeps evolving the fleet, exactly once.
    version = next_version(recovered)
    run_wave(runtime, recovered, version)
    for loid in loids:
        obj = recovered.record(loid).obj
        assert obj.version == version
        assert all(count == 1 for count in obj.applications_by_version.values())


def test_standby_promotes_from_compacted_checkpoint():
    runtime, manager, journal, loids = build_fleet(hosts=6)
    supervisor = Supervisor(
        runtime,
        "Sorter",
        standby_hosts=("host04",),
        detector_host_name="host05",
        retry_policy=FAST_RETRY,
    ).start()
    run_wave(runtime, manager, next_version(manager))
    manager.write_checkpoint()
    runtime.sim.run(until=runtime.sim.now + 2.0)
    standby = supervisor.link.replica
    assert standby.checkpoints_applied >= 2  # bootstrap + the compaction
    assert len(standby.journal) == len(journal)
    before = dcdo_table(manager)
    crash_host(runtime, manager.host)
    runtime.sim.run(until=runtime.sim.now + 30.0)
    supervisor.stop()
    assert supervisor.promotions == 1
    assert runtime.network.count_value("supervisor.cold_promotions") == 0
    assert dcdo_table(supervisor.manager) == before


def compaction_schedule(seed):
    """Crash (and on some seeds partition) the manager hosts in turn."""
    return ChaosSchedule.generate(
        seed,
        lan_host_names(6),
        duration_s=120.0,
        counts={
            "drops": 1 if seed % 4 == 0 else 0,
            "manager_partitions": 1 if seed % 3 == 0 else 0,
            "failovers": 1 + seed % 2,
        },
        protect=("host04", "host05"),
        manager_hosts=("host00", "host02", "host03"),
    )


def run_compaction(seed, schedule):
    """Evolve a supervised, compacting fleet under ``schedule``, then
    check it and its compacted recovery."""
    runtime, manager, journal, loids = build_fleet(
        hosts=6,
        instances=4,
        sim_seed=3100 + seed,
        component_hosts={
            "sorter": "host00",
            "compare-asc": "host00",
            "compare-desc": "host05",
        },
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
    )
    supervisor = Supervisor(
        runtime,
        "Sorter",
        standby_hosts=("host02", "host03"),
        detector_host_name="host04",
        retry_policy=FAST_RETRY,
    ).start()
    coordinator = ChaosCoordinator(runtime, journals={})
    schedule.install(runtime, coordinator)
    wave_at = schedule.installed_at + wave_offset(schedule)
    v2 = derive_v2(manager)
    heal = schedule.heal_time + 1.0
    period = 1.0 + (seed % 3)
    compactions = []

    def compactor():
        while runtime.sim.now < heal:
            yield runtime.sim.timeout(period)
            current = supervisor.manager
            if current.is_active and not current.deposed:
                compactions.append(current.write_checkpoint())

    def scenario():
        if runtime.sim.now < wave_at:
            yield runtime.sim.timeout(wave_at - runtime.sim.now)
        manager.set_current_version_async(v2)
        if runtime.sim.now < heal:
            yield runtime.sim.timeout(heal - runtime.sim.now)
        assert_instance_invariants(runtime, "Sorter", f"seed {seed} at heal")
        deadline = runtime.sim.now + 420.0
        while runtime.sim.now < deadline:
            current = supervisor.manager
            if current.is_active and not current.deposed:
                if current.current_version != v2:
                    # The crash beat the journal ship of the
                    # designation: the client retries its
                    # never-acknowledged request, as in the gray sweep.
                    current.set_current_version_async(v2)
                elif all(
                    current.record(loid).active
                    and current.record(loid).obj.version == v2
                    for loid in loids
                ):
                    break
            yield runtime.sim.timeout(5.0)
        supervisor.stop()

    runtime.sim.spawn(compactor(), name="compactor")
    runtime.sim.run_process(scenario())
    runtime.sim.run()

    current = supervisor.manager
    assert supervisor.promotions >= 1, f"seed {seed}: supervisor never promoted"
    assert compactions, f"seed {seed}: the compactor never ran"
    assert_invariants(runtime, "Sorter", f"seed {seed}")
    for loid in loids:
        obj = current.record(loid).obj
        assert obj.version == v2, f"seed {seed}: {loid} stuck at {obj.version}"
    entries = current.write_checkpoint()
    assert entries <= len(loids) + SLACK, f"seed {seed}: {entries} entries"
    before = dcdo_table(current)
    crash_host(runtime, current.host)
    recovered = runtime.sim.run_process(
        recover_manager(runtime, current.journal, host_name="host04")
    )
    assert dcdo_table(recovered) == before, f"seed {seed}: replay diverged"
    assert_replay_matches(recovered)


@pytest.mark.parametrize("seed", chaos_seeds(20))
def test_chaos_compaction_invariants_hold(seed):
    """Manager crashes and partitions mid-wave while a compactor keeps
    checkpointing: the supervised fleet converges exactly-once, and the
    surviving journal compacts to the bound and replays identically."""
    run_compaction(seed, compaction_schedule(seed))
