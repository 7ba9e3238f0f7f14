"""Journal compaction: one manager's replay bound, under faults too.

``write_checkpoint()`` drops settled waves (complete, every delivery
acked, outside an open canary) and records each instance as one entry, so a cold recovery replays about one entry per live
instance no matter how many waves the fleet has seen.  This is the
recovery-scope property a sharded plane used to buy by splitting the
journal N ways; here one manager gets it by forgetting history.

The live path checkpoints too: before each new wave once the journal's
tail outgrows the DCDO table, and before a replication link ships a
standby's bootstrap.  The live-path tests pin the journal's bound, the
bootstrap's size and time-to-hot, and the waves those checkpoints must
keep: one a failover interrupted, and one a demote is aborting.

The seeded sweep crashes and partitions the supervised manager while a
wave is in flight and a compactor checkpoints every few seconds, so
checkpoints interleave with acks, shipping, and promotions.  Per seed:
the fleet converges, the shared checker holds at heal and at the end,
and the promoted authority's journal compacts back to the bound and
replays into an identical DCDO table.  ``CHAOS_EXTRA_SEEDS`` (env)
widens it.
"""

import pytest

from repro.bench.experiments.p8_compaction import REPLAY_SLACK
from repro.cluster import Supervisor, build_lan
from repro.cluster.chaos import ChaosCoordinator, ChaosSchedule, crash_host
from repro.core import (
    DeliveryStatus,
    ManagerJournal,
    ReplicationLink,
    recover_manager,
)
from repro.core.policies import ReliableUpdatePolicy
from repro.core.recovery import REPLAY_ENTRY_S
from repro.legion import LegionRuntime
from repro.obs import Tracer

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


# ----------------------------------------------------------------------
# The live path: a checkpoint before each new wave, a compacted bootstrap
# ----------------------------------------------------------------------


def test_live_journal_checkpoints_once_per_wave_and_stays_bounded():
    """No explicit checkpoint: each new wave folds the journal first,
    so it holds the checkpoint plus at most one wave's tail (two
    entries per instance).  Every registered version also keeps one
    entry, hence a handful of waves."""
    runtime, manager, journal, loids = build_fleet(instances=32)
    table = len(loids)
    for wave in range(1, 11):
        run_wave(runtime, manager, next_version(manager))
        assert journal.checkpoints == wave
        assert len(journal) <= 3 * table + REPLAY_SLACK, (wave, len(journal))


def test_standby_bootstraps_from_the_snapshot_not_the_history():
    runtime, manager, journal, loids = build_fleet(instances=32)
    for __ in range(10):
        run_wave(runtime, manager, next_version(manager))
    table = len(loids)
    link = ReplicationLink(runtime, manager, "host02")
    runtime.sim.run()
    network = runtime.network
    assert link.lag == 0
    assert network.count_value("repl.checkpoints_shipped") == 1
    assert network.count_value("repl.entries_shipped") == 0
    assert len(link.replica.journal) <= table + REPLAY_SLACK
    # Hot once the one ship's reply is back: the replay of the snapshot
    # plus the transfer there and back.
    ship = network.metrics.timer("repl.ship_latency_s")
    assert ship.count == 1
    transfer_s = network.transfer_time(
        network.count_value("repl.bytes_shipped")
    ) + network.transfer_time(0)
    assert ship.max() <= (table + REPLAY_SLACK) * REPLAY_ENTRY_S + transfer_s


def test_promotee_keeps_the_interrupted_wave_through_its_bootstrap():
    """A failover interrupts a wave.  The promotee checkpoints before it
    ships its own standby's bootstrap; that checkpoint keeps the open
    wave, so the converge re-push re-arms it and acks no one twice."""
    runtime, manager, journal, loids = build_fleet(
        hosts=6,
        instances=8,
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
    )
    supervisor = Supervisor(
        runtime,
        "Sorter",
        standby_hosts=("host02", "host03"),
        detector_host_name="host04",
        retry_policy=FAST_RETRY,
    ).start()
    tracer = Tracer(runtime.network.bus)
    v2 = derive_v2(manager)
    checkpoints = []

    def on_write(event, payload):
        if event == "checkpoint":
            checkpoints.append(payload)

    # The standby's journal copy becomes the promotee's journal.
    supervisor.link.replica.journal.subscribe(on_write)

    def scenario():
        yield runtime.sim.timeout(0.5)
        manager.set_current_version_async(v2)
        yield runtime.sim.timeout(0.1)  # 3 of 8 acked
        tracker = manager.propagation(v2)
        assert 0 < tracker.count(DeliveryStatus.ACKED) < len(loids)
        crash_host(runtime, manager.host)

    runtime.sim.run_process(scenario())
    runtime.sim.run(until=runtime.sim.now + 60.0)
    supervisor.stop()

    promoted = supervisor.manager
    assert supervisor.promotions == 1 and promoted is not manager
    # The promotee's first checkpoint (its term leads it) is the one
    # its standby's bootstrap shipped, and it still holds the wave.
    bootstrap = next(
        entries
        for entries in checkpoints
        if entries[0].kind == "term" and entries[0].data["number"] > 1
    )
    assert ("propagation-started", v2) in [
        (entry.kind, entry.data.get("version")) for entry in bootstrap
    ]
    # One wave, re-armed by the promotee; each instance acked once over
    # both managers.
    waves = [event for event in tracer.events if event.details.get("version") == v2]
    kinds = [event.topic for event in waves]
    assert kinds.count("propagation-started") == 1
    assert "propagation-rearmed" in kinds
    acked = [str(e.details["loid"]) for e in waves if e.topic == "propagation-ack"]
    assert sorted(acked) == sorted(map(str, loids))
    for loid in loids:
        obj = promoted.record(loid).obj
        assert obj.version == v2
        assert obj.applications_by_version.get(v2) == 1
    assert_invariants(runtime, "Sorter", "after the failover")


def test_demote_finds_its_wave_although_the_redesignation_checkpoints():
    """The demote re-designates the prior version (whose wave starts,
    and checkpoints, as soon as the demote yields) and then aborts the
    demoted wave.  ``_finish_abort`` journals ``wave-aborting`` before
    its first yield, so that checkpoint keeps the now-unsettled wave
    and the abort rolls every instance back."""
    runtime, manager, journal, loids = build_fleet(
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
    )
    v1, v2 = manager.current_version, derive_v2(manager)
    runtime.sim.run(until=manager.set_current_version_async(v2))
    tracker = manager.propagation(v2)
    assert tracker.complete and tracker.all_acked  # settled
    writes = []
    journal.subscribe(
        lambda event, payload: writes.append(
            payload.kind if event == "append" else event
        )
    )
    checkpoints = journal.checkpoints

    def demote():
        manager.set_current_version_async(v1)
        yield from manager.abort_wave(v2, reason="controller-demote")

    runtime.sim.run_process(demote())
    runtime.sim.run()
    assert writes[:4] == [
        "current-version", "wave-aborting", "checkpoint", "propagation-started",
    ]
    assert journal.checkpoints == checkpoints + 1
    assert manager.propagation(v2) is tracker and tracker.aborted
    assert tracker.count(DeliveryStatus.ROLLED_BACK) == len(loids)
    for loid in loids:
        obj = manager.record(loid).obj
        assert obj.version == v1 and manager.instance_version(loid) == v1
        assert obj.applications_by_version.get(v2) == 1
    assert_replay_matches(manager)


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
