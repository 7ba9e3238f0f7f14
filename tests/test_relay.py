"""Host relays: announcement waves, roster-range trees, recovery.

The scale-out claim under test: with relays deployed, a propagation
wave costs the manager one RPC per roster range (per host with
``fanout_k=0``) instead of one per instance, while every transactional
delivery guarantee — tracker/journal bookkeeping, terminal failures,
retry-then-FAILED — survives unchanged because anything a relay cannot
positively confirm is re-announced and then delivered directly.
"""

import pytest

from repro.cluster import build_lan, deploy_relays, restore_relays
from repro.cluster.chaos import crash_host
from repro.cluster.relay import HostRelay, seed_announce_roster
from repro.core import DeliveryStatus, ManagerJournal
from repro.legion import LegionRuntime
from repro.legion.loid import mint_loid
from repro.net import RetryPolicy

from tests.conftest import create_dcdo, make_sorter_manager

ONE_SHOT = RetryPolicy(base_s=1.0, max_attempts=1)
TWO_ROUNDS = RetryPolicy(base_s=1.0, max_attempts=2)


def build_relay_fleet(hosts=4, instances_per_host=2, journal=None):
    """Runtime + sorter manager + instances spread over host01..N."""
    runtime = LegionRuntime(build_lan(hosts + 1, seed=11))
    manager = make_sorter_manager(runtime, journal=journal)
    loids = []
    for host_index in range(1, hosts + 1):
        for __ in range(instances_per_host):
            loid, ___ = create_dcdo(
                runtime, manager, host_name=f"host{host_index:02d}"
            )
            loids.append(loid)
    return runtime, manager, loids


def derive_v2(manager):
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "compare-desc")
    manager.descriptor_of(version).enable(
        "compare", "compare-desc", replace_current=True
    )
    manager.mark_instantiable(version)
    manager.set_current_version(version)
    return version


# ----------------------------------------------------------------------
# Deployment and directory management
# ----------------------------------------------------------------------


def test_deploy_relays_one_per_up_host_and_idempotent():
    runtime = LegionRuntime(build_lan(4, seed=3))
    crash_host(runtime, runtime.host("host03"))
    directory = deploy_relays(runtime)
    assert sorted(directory) == ["host00", "host01", "host02"]
    for host_name, loid in directory.items():
        relay = runtime.live_object(loid)
        assert relay.is_active
        assert relay.host.name == host_name
        assert runtime.context_space.lookup(f"/relays/{host_name}") == loid
    # Redeploying reuses the live relays instead of minting new ones.
    again = deploy_relays(runtime)
    assert again == directory


def test_restore_relays_after_host_restart():
    runtime = LegionRuntime(build_lan(3, seed=3))
    directory = deploy_relays(runtime)
    crash_host(runtime, runtime.host("host02"))
    assert not runtime.live_object(directory["host02"]).is_active
    # Down host: skipped, nothing restored yet.
    assert runtime.sim.run_process(restore_relays(runtime, directory)) == []
    runtime.host("host02").restart()
    restored = runtime.sim.run_process(restore_relays(runtime, directory))
    assert restored == ["host02"]
    assert runtime.live_object(directory["host02"]).is_active
    # Live relays are left alone on a second pass.
    assert runtime.sim.run_process(restore_relays(runtime, directory)) == []


# ----------------------------------------------------------------------
# Per-host announcements (fanout_k=0)
# ----------------------------------------------------------------------


def test_relay_wave_acks_all_with_host_granular_rpcs():
    journal = ManagerJournal(name="Sorter")
    runtime, manager, loids = build_relay_fleet(
        hosts=4, instances_per_host=3, journal=journal
    )
    manager.use_relays(deploy_relays(runtime))
    v2 = derive_v2(manager)
    manager.invoker.stats.reset()
    tracker = runtime.sim.run_process(manager.propagate_version(v2))
    assert tracker.all_acked and tracker.complete
    for loid in loids:
        assert manager.record(loid).obj.version == v2
        assert manager.instance_version(loid) == v2
    # One announcement per host, not one RPC per instance.
    assert runtime.network.count_value("relay.batches") == 4
    assert runtime.network.count_value("relay.batch_instances") == 12
    assert manager.invoker.stats.invocations == 4
    # The journal records the same per-instance bookkeeping as direct
    # delivery: an instance-version line then a propagation ack, each.
    kinds = [entry.kind for entry in journal.entries]
    assert kinds.count("instance-version") >= 12
    assert kinds.count("propagation-ack") == 12


def test_relay_wave_acks_already_current_instances_without_rpc():
    runtime, manager, __ = build_relay_fleet(hosts=2, instances_per_host=1)
    directory = deploy_relays(runtime)
    manager.use_relays(directory)
    v2 = derive_v2(manager)
    runtime.sim.run_process(manager.propagate_version(v2))
    # A newcomer builds at v2; re-driving the wave must ack it without
    # shipping any new batch.
    newcomer, obj = create_dcdo(runtime, manager, host_name="host01")
    assert obj.version == v2
    before = runtime.network.count_value("relay.batches")
    tracker = runtime.sim.run_process(
        manager.propagate_version(v2, loids=[newcomer])
    )
    assert tracker.delivery(newcomer).status is DeliveryStatus.ACKED
    assert runtime.network.count_value("relay.batches") == before


def test_relay_wave_and_evolve_never_share_an_instance_lock(monkeypatch):
    """An idle management lock is dropped on release, so the wave must
    look each lock up as it acquires it.  Here the wave waits on its
    first target's lock while another target's lock is released
    (dropped) and re-created by an evolution of that target; the wave
    must then queue behind the evolution, not take the dropped lock."""
    import repro.sim
    from repro.sim import Semaphore

    holders = {}

    class TrackedLock(Semaphore):
        """Counts the holders of every lock of one name."""

        __slots__ = ()

        def acquire(self):
            if self.available:
                holders[self._name] = holders.get(self._name, 0) + 1
                assert holders[self._name] == 1, f"two holders of {self._name}"
            return super().acquire()

        def release(self):
            if not self._waiters:
                holders[self._name] -= 1
            super().release()

    monkeypatch.setattr(repro.sim, "Semaphore", TrackedLock)
    runtime, manager, loids = build_relay_fleet(hosts=2, instances_per_host=2)
    manager.use_relays(deploy_relays(runtime))
    v2 = derive_v2(manager)
    sim = runtime.sim
    first, *__, later = sorted(loids, key=str)
    evolved = []

    def hold(loid, until):
        yield manager.management_lock(loid).acquire()
        yield sim.timeout(until - sim.now)
        manager.release_management_lock(loid)

    def evolve_later(at):
        yield sim.timeout(at - sim.now)
        evolved.append((yield from manager.evolve_instance(later, v2)))

    start = sim.now
    sim.spawn(hold(first, start + 1.0))
    sim.spawn(hold(later, start + 0.5))
    sim.spawn(evolve_later(start + 0.999))
    tracker = sim.run_process(manager.propagate_version(v2))
    sim.run()
    assert evolved == [v2]
    assert tracker.all_acked and tracker.complete
    assert all(manager.record(loid).obj.version == v2 for loid in loids)
    assert len(holders) == len(loids) and not any(holders.values())
    # Every lock was idle once the wave settled, so none is left.
    assert manager._management_locks == {}


def test_dead_relay_falls_back_to_direct_delivery():
    runtime, manager, loids = build_relay_fleet(hosts=2, instances_per_host=2)
    directory = deploy_relays(runtime)
    # Point host02's entry at a relay that never existed: every batch
    # to it fails, so its instances must arrive via the direct path.
    directory["host02"] = mint_loid(runtime.domain, "HostRelay")
    manager.use_relays(directory)
    v2 = derive_v2(manager)
    tracker = runtime.sim.run_process(
        manager.propagate_version(v2, retry_policy=ONE_SHOT)
    )
    assert tracker.all_acked and tracker.complete
    for loid in loids:
        assert manager.record(loid).obj.version == v2
    assert runtime.network.count_value("relay.batch_failures") >= 1
    assert runtime.network.count_value("relay.fallback_instances") == 2
    # host01's batch still went through a relay.
    assert runtime.network.count_value("relay.batches") == 1


# ----------------------------------------------------------------------
# Roster-range trees (fanout_k >= 2)
# ----------------------------------------------------------------------


def test_tree_wave_single_manager_rpc():
    runtime, manager, loids = build_relay_fleet(hosts=4, instances_per_host=2)
    manager.use_relays(deploy_relays(runtime), fanout_k=2)
    v2 = derive_v2(manager)
    manager.invoker.stats.reset()
    tracker = runtime.sim.run_process(manager.propagate_version(v2))
    assert tracker.all_acked and tracker.complete
    for loid in loids:
        assert manager.record(loid).obj.version == v2
    # The manager sent exactly one RPC: the root bundle.
    assert manager.invoker.stats.invocations == 1
    assert runtime.network.count_value("relay.announce_waves") == 1
    assert runtime.network.count_value("relay.batches") == 4


def test_tree_subtree_failure_reports_and_falls_back():
    runtime, manager, loids = build_relay_fleet(hosts=3, instances_per_host=2)
    directory = deploy_relays(runtime)
    directory["host03"] = mint_loid(runtime.domain, "HostRelay")
    # Relays route by their shared roster, so poison it too, as a real
    # relay death would.
    seed_announce_roster(runtime, directory)
    manager.use_relays(directory, fanout_k=2)
    v2 = derive_v2(manager)
    tracker = runtime.sim.run_process(
        manager.propagate_version(v2, retry_policy=ONE_SHOT)
    )
    assert tracker.all_acked and tracker.complete
    for loid in loids:
        assert manager.record(loid).obj.version == v2
    assert runtime.network.count_value("relay.subtree_failures") >= 1
    assert runtime.network.count_value("relay.fallback_instances") == 2


def test_use_relays_validation_and_disable():
    runtime, manager, __ = build_relay_fleet(hosts=2, instances_per_host=1)
    directory = deploy_relays(runtime)
    with pytest.raises(ValueError):
        manager.use_relays(directory, fanout_k=1)
    manager.use_relays(directory)
    manager.use_relays(None)
    v2 = derive_v2(manager)
    before = runtime.network.count_value("relay.batches")
    tracker = runtime.sim.run_process(manager.propagate_version(v2))
    assert tracker.all_acked
    assert runtime.network.count_value("relay.batches") == before


# ----------------------------------------------------------------------
# Announcement contents: digests, runs, partial acks
# ----------------------------------------------------------------------


def test_set_digest_is_order_independent():
    from repro.cluster.relay import set_digest

    a = mint_loid("legion", "Sorter")
    b = mint_loid("legion", "Sorter")
    assert set_digest([a, b]) == set_digest([b, a])
    assert set_digest([a]) != set_digest([a, b])
    assert set_digest([]) == 0


def test_instance_runs_compact_creation_order():
    from repro.cluster.relay import instance_runs

    loids = [mint_loid("legion", "RunsProbe") for __ in range(6)]
    first = loids[0].instance
    assert instance_runs(loids) == [(first, first + 6)]
    # Order-free; gaps split runs.
    picked = [loids[4], loids[0], loids[1], loids[5]]
    assert instance_runs(picked) == [(first, first + 2), (first + 4, first + 6)]
    assert instance_runs([]) == []


def test_announce_wave_acks_all_with_one_rpc_and_local_binds():
    journal = ManagerJournal(name="Sorter")
    runtime, manager, loids = build_relay_fleet(
        hosts=4, instances_per_host=3, journal=journal
    )
    manager.use_relays(deploy_relays(runtime), fanout_k=2)
    v2 = derive_v2(manager)
    manager.invoker.stats.reset()
    resolves_before = runtime.binding_agent.resolutions_served
    tracker = runtime.sim.run_process(manager.propagate_version(v2))
    assert tracker.all_acked and tracker.complete
    for loid in loids:
        assert manager.record(loid).obj.version == v2
        assert manager.instance_version(loid) == v2
    # One announcement bundle from the manager; constant-size payloads
    # carried the wave, and every instance bound host-locally.
    assert manager.invoker.stats.invocations == 1
    assert runtime.network.count_value("relay.announce_waves") == 1
    assert runtime.network.count_value("relay.local_binds") == 12
    assert runtime.network.count_value("relay.fallback_instances") == 0
    # Binding-agent lookups during the wave are roster-relay forwards
    # (at most one per up host) plus one ICO resolve per host's first
    # blob fetch — bounded by hosts, never one per instance (those
    # bind host-locally).
    up_hosts = len(runtime.hosts)
    assert (
        runtime.binding_agent.resolutions_served - resolves_before
        <= 2 * up_hosts
    )
    kinds = [entry.kind for entry in journal.entries]
    assert kinds.count("propagation-ack") == 12


def test_announce_wave_dead_interior_relay_falls_back_alone():
    """A dead interior relay: its span comes back in ``missing``, every
    other host commits in the first round, the re-announcement routes
    around it, and only its own instances fall back to direct delivery."""
    runtime, manager, loids = build_relay_fleet(hosts=6, instances_per_host=2)
    directory = deploy_relays(runtime)
    # Roster host00..host06; the range over host01..host06 roots at
    # host01, whose two child spans are headed by host02 (interior:
    # host03 and host04 hang below it) and host05.
    directory["host02"] = mint_loid(runtime.domain, "HostRelay")
    seed_announce_roster(runtime, directory)
    root = runtime.live_object(directory["host01"])
    root_acks = []

    def spy(ctx, bundle):
        ack = yield from HostRelay._m_announce_fleet(root, ctx, bundle)
        root_acks.append(ack)
        return ack

    root.register_method("announceFleet", spy)
    manager.use_relays(directory, fanout_k=2)
    v2 = derive_v2(manager)
    tracker = runtime.sim.run_process(
        manager.propagate_version(v2, retry_policy=TWO_ROUNDS)
    )
    assert tracker.all_acked and tracker.complete
    for loid in loids:
        assert manager.record(loid).obj.version == v2
        assert manager.record(loid).obj.applications_by_version[v2] == 1
    assert root_acks[0]["missing"] == [(2, 5)]
    assert root_acks[0]["hosts"] == 3
    # host01, host05 and host06 committed in the first round.
    for loid in loids[:2] + loids[8:]:
        assert tracker.delivery(loid).attempts == 1
    # host03 and host04 committed in the second round, without host02.
    assert runtime.network.count_value("relay.announced_instances") == 10
    assert runtime.network.count_value("relay.fallback_instances") == 2


def test_announce_wave_commits_around_a_failed_instance():
    """A per-instance apply failure rides back in the ack: every other
    target commits in the first round, and only the failed instance is
    re-announced."""
    runtime, manager, loids = build_relay_fleet(hosts=3, instances_per_host=2)
    manager.use_relays(deploy_relays(runtime), fanout_k=2)
    flaky = manager.record(loids[2]).obj
    apply = flaky._lookup("applyConfiguration")
    failed = []

    def fail_once(ctx, diff):
        if not failed:
            failed.append(diff)
            raise RuntimeError("transient apply failure")
        return (yield from apply(ctx, diff))

    flaky.register_method("applyConfiguration", fail_once)
    v2 = derive_v2(manager)
    tracker = runtime.sim.run_process(
        manager.propagate_version(v2, retry_policy=TWO_ROUNDS)
    )
    assert tracker.all_acked and tracker.complete
    assert failed
    for loid in loids:
        assert tracker.delivery(loid).attempts == (2 if loid == loids[2] else 1)
        assert manager.record(loid).obj.applications_by_version[v2] == 1
    assert runtime.network.count_value("relay.announced_instances") == 6
    assert runtime.network.count_value("relay.fallback_instances") == 0


def test_chunk_spans_partition_contiguously():
    from repro.cluster.relay import chunk_spans

    assert chunk_spans(1, 1, 4) == []
    spans = chunk_spans(1, 10, 4)
    assert len(spans) <= 4
    flat = [i for lo, hi in spans for i in range(lo, hi)]
    assert flat == list(range(1, 10))
    assert chunk_spans(0, 3, 8) == [(0, 1), (1, 2), (2, 3)]


def test_deploy_relays_seeds_shared_roster():
    runtime, __, ___ = build_relay_fleet(hosts=2, instances_per_host=1)
    directory = deploy_relays(runtime)
    rosters = {
        runtime.live_object(loid).announce_roster
        for loid in directory.values()
    }
    assert len(rosters) == 1  # every relay holds the same (shared) roster
    roster = rosters.pop()
    assert [(host, loid) for host, loid, __ in roster] == sorted(
        directory.items()
    )
    # The roster ships each relay's current binding, membership-list
    # style, so fleet forwards never round-trip the central agent.
    for host, loid, binding in roster:
        assert binding is not None and binding.loid == loid


def test_canary_stage_announces_and_leaves_unadmitted_instances_alone():
    """A canary stage is a subset wave, and it announces too: its
    admitted prefix is one run of instance numbers, and no relay
    applies to an instance outside it — not even one sharing a host
    with admitted instances."""
    runtime, manager, loids = build_relay_fleet(hosts=3, instances_per_host=2)
    manager.use_relays(deploy_relays(runtime), fanout_k=2)
    v1 = manager.current_version
    v2 = derive_v2(manager)
    manager.begin_canary(v2, stages=(0.5, 1.0), bake_s=1.0)
    admitted = loids[:3]  # host01's pair and the first of host02's
    manager.admit_canary_stage(v2, admitted)
    manager.invoker.stats.reset()
    tracker = runtime.sim.run_process(
        manager.propagate_version(v2, loids=admitted)
    )
    assert tracker.all_acked and tracker.complete
    assert manager.invoker.stats.invocations == 1
    assert runtime.network.count_value("relay.announce_waves") == 1
    assert runtime.network.count_value("relay.announced_instances") == 3
    for loid in admitted:
        assert manager.record(loid).obj.version == v2
    for loid in loids[3:]:
        obj = manager.record(loid).obj
        assert obj.version == v1 and manager.instance_version(loid) == v1
        assert obj.applications_by_version.get(v2, 0) == 0
    # The next stage announces the rest; every instance applied once.
    manager.admit_canary_stage(v2, loids[3:])
    tracker = runtime.sim.run_process(manager.propagate_version(v2, loids=loids))
    assert tracker.all_acked
    assert runtime.network.count_value("relay.announced_instances") == 6
    assert runtime.network.count_value("relay.fallback_instances") == 0
    for loid in loids:
        assert manager.record(loid).obj.applications_by_version[v2] == 1


# ----------------------------------------------------------------------
# Per-host object index
# ----------------------------------------------------------------------


def test_objects_on_host_index_tracks_attach_and_migration():
    runtime, manager, loids = build_relay_fleet(hosts=2, instances_per_host=2)
    on_host01 = {
        obj.loid for obj in runtime.objects_on_host("host01")
    }
    assert {loid for loid in loids[:2]} <= on_host01
    # Migration rebases the index entry along with the object.
    moved = runtime.find_object(loids[0])
    moved.moved_to(runtime.host("host02"))
    assert moved.loid not in {
        obj.loid for obj in runtime.objects_on_host("host01")
    }
    assert moved.loid in {
        obj.loid for obj in runtime.objects_on_host("host02")
    }
    # Unknown hosts simply have no objects.
    assert runtime.objects_on_host("no-such-host") == []
