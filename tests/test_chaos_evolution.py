"""Chaos tests: evolution propagation under randomized fault schedules.

The acceptance invariant, checked across many seeded scenarios: after
all faults heal and the convergence loop runs, every surviving DCDO
reflects the latest instantiable version, with each configuration
applied exactly once per live object (at-least-once delivery, idempotent
application → exactly-once effect).  Every seed runs the shared
checker (``tests/invariants.py``) at heal and at the end.  A dedicated
test crashes the manager mid-propagation and shows journal recovery
finishing the wave without re-deriving the version or double-applying.

``CHAOS_EXTRA_SEEDS`` (env) widens the seed sweeps.
"""

import pytest

from repro.cluster import build_lan
from repro.cluster.chaos import (
    ChaosCoordinator,
    ChaosSchedule,
    crash_host,
    drive_to_convergence,
)
from repro.core import DeliveryStatus, ManagerJournal, recover_manager
from repro.core.policies import ReliableUpdatePolicy
from repro.legion import LegionRuntime
from repro.net import PrefixPartition

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
    chaos_seeds,
)

HOSTS = lan_host_names(5)


def build_fleet(sim_seed=7, hosts=5, instances=4, **manager_kwargs):
    """A LAN runtime + journaled sorter manager + instances spread out.

    The manager lives on host00 (the default), so schedules that crash
    host00 exercise manager recovery; instances land one per host.
    """
    runtime = LegionRuntime(build_lan(hosts, seed=sim_seed))
    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(
        runtime,
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
        journal=journal,
        propagation_retry_policy=FAST_RETRY,
        **manager_kwargs,
    )
    host_names = list(runtime.hosts)
    loids = []
    for index in range(instances):
        loid, __ = create_dcdo(
            runtime, manager, host_name=host_names[index % len(host_names)]
        )
        loids.append(loid)
    return runtime, manager, journal, loids


def evolution_schedule(seed):
    """The default fault mix: crashes, partitions and drops anywhere."""
    return ChaosSchedule.generate(seed, HOSTS, duration_s=120.0)


def run_evolution(seed, schedule):
    """Evolve a fleet under ``schedule``, heal, converge, and check."""
    runtime, manager, journal, loids = build_fleet(sim_seed=100 + seed)
    original_objs = {loid: manager.record(loid).obj for loid in loids}
    coordinator = ChaosCoordinator(runtime, journals={"Sorter": journal})
    schedule.install(runtime, coordinator)
    v2 = derive_v2(manager)

    def scenario():
        # New current version lands just before the first fault can
        # fire (crashes are scheduled at t >= 1.0).
        yield runtime.sim.timeout(0.5)
        manager.set_current_version_async(v2)
        heal = schedule.heal_time + 1.0
        if runtime.sim.now < heal:
            yield runtime.sim.timeout(heal - runtime.sim.now)
        assert_instance_invariants(runtime, "Sorter", f"seed {seed} at heal")
        tracker = yield from drive_to_convergence(
            runtime, "Sorter", journal=journal, retry_policy=FAST_RETRY
        )
        return tracker

    tracker = runtime.sim.run_process(scenario())
    runtime.sim.run()

    assert tracker is not None and tracker.all_acked, (
        f"seed {seed}: propagation did not converge: {tracker.summary()}"
    )
    assert_invariants(runtime, "Sorter", f"seed {seed}")
    manager_now = runtime.class_of("Sorter")
    assert manager_now.current_version == v2
    for loid in loids:
        assert manager_now.instance_version(loid) == v2, (
            f"seed {seed}: {loid} not at latest version in the DCDO table"
        )
        record = manager_now.record(loid)
        assert record.active, f"seed {seed}: {loid} not recovered"
        obj = record.obj
        assert obj.version == v2, f"seed {seed}: {loid} object at {obj.version}"
        # A rebuilt (crash-recovered) object may legitimately have been
        # *built* at v2 rather than evolved to it; a survivor evolved.
        if obj is original_objs[loid]:
            applied = obj.applications_by_version.get(v2, 0)
            assert applied == 1, (
                f"seed {seed}: surviving {loid} applied v2 {applied} times"
            )


@pytest.mark.parametrize("seed", chaos_seeds(20))
def test_chaos_schedule_converges_exactly_once(seed):
    """Across seeded fault schedules: all survivors converge to the
    latest version and no object applies it more than once."""
    run_evolution(seed, evolution_schedule(seed))


def derive_v2_removing_sort(manager):
    """Derive a version that drops ``sort`` (and its component) entirely."""
    version = manager.derive_version(manager.current_version)
    descriptor = manager.descriptor_of(version)
    descriptor.disable("sort", "sorter")
    descriptor.remove_component("sorter")
    manager.mark_instantiable(version)
    return version


def run_lease_stub(seed, schedule):
    """Remove ``sort`` under ``schedule`` while stubs call it; check."""
    from repro.core.dcdo import RemovePolicy
    from repro.core.stub import DCDOStub

    runtime, manager, journal, loids = build_fleet(
        sim_seed=300 + seed, remove_policy=RemovePolicy.delay()
    )
    coordinator = ChaosCoordinator(runtime, journals={"Sorter": journal})
    schedule.install(runtime, coordinator)
    v2 = derive_v2_removing_sort(manager)

    outcomes = []  # (ok, payload) per completed sort attempt
    stubs = []
    stop = {"flag": False}

    def traffic(client_host, loid):
        client = runtime.make_client(client_host)
        stub = DCDOStub(
            client, loid, retry_on_disappearance=True, lease_ttl_s=5.0
        )
        stubs.append(stub)
        values = [3, 1, 2]
        while not stop["flag"]:
            try:
                result = yield from stub.call("sort", values, check_first=True)
            except Exception as error:  # noqa: BLE001 - chaos traffic
                outcomes.append((False, error))
                if client.endpoint.is_closed:
                    return  # our own host crashed: this caller is gone
            else:
                outcomes.append((True, result))
            yield runtime.sim.timeout(0.5)

    def scenario():
        host_names = list(runtime.hosts)
        for index, loid in enumerate(loids[:3]):
            runtime.sim.spawn(
                traffic(host_names[(index + 1) % len(host_names)], loid),
                name=f"traffic:{loid}",
            )
        yield runtime.sim.timeout(0.5)
        manager.set_current_version_async(v2)
        heal = schedule.heal_time + 1.0
        if runtime.sim.now < heal:
            yield runtime.sim.timeout(heal - runtime.sim.now)
        assert_instance_invariants(runtime, "Sorter", f"seed {seed} at heal")
        tracker = yield from drive_to_convergence(
            runtime, "Sorter", journal=journal, retry_policy=FAST_RETRY
        )
        stop["flag"] = True
        return tracker

    tracker = runtime.sim.run_process(scenario())
    runtime.sim.run()

    assert tracker is not None and tracker.all_acked, (
        f"seed {seed}: propagation did not converge: {tracker.summary()}"
    )
    assert_invariants(runtime, "Sorter", f"seed {seed}")
    manager_now = runtime.class_of("Sorter")
    for loid in loids:
        assert manager_now.instance_version(loid) == v2
        obj = manager_now.record(loid).obj
        assert "sort" not in obj.dfm.exported_interface()
    # Every call that *succeeded* produced the correct pre-evolution
    # answer; once sort was removed, stale leases surface as errors,
    # never as bogus successes.
    successes = [payload for ok, payload in outcomes if ok]
    assert all(result == [1, 2, 3] for result in successes), successes
    assert successes, f"seed {seed}: traffic never got through"
    # The lease fast path was genuinely exercised.
    assert sum(stub.lease_hits for stub in stubs) > 0


@pytest.mark.parametrize("seed", chaos_seeds(6))
def test_chaos_lease_stub_never_succeeds_on_removed_function(seed):
    """Lease-caching stubs under chaos: epoch leases may go stale, but
    no call against the removed ``sort`` function ever *succeeds* —
    stale leases only ever cost a MethodNotFound plus a re-query, never
    a wrong answer (§3.1 preserved through the fast path)."""
    run_lease_stub(seed, evolution_schedule(seed))


def test_manager_crash_mid_propagation_resumes_from_journal():
    """Crash the manager with one delivery still pending; the journal
    recovery must finish that delivery only — same version ids, no
    re-derivation, no double application."""
    runtime, manager, journal, loids = build_fleet()
    class_loid = manager.loid
    v1 = manager.current_version
    v2 = derive_v2(manager)
    all_versions = set(manager.versions())
    # Cut the manager's host off from host03 so that instance's
    # delivery cannot ack before the crash.
    runtime.network.faults.add_partition(
        PrefixPartition(["host00/"], ["host03/"], start=0.0, end=200.0)
    )
    blocked_loid = loids[3]

    def scenario():
        yield runtime.sim.timeout(1.0)
        manager.set_current_version_async(v2)
        # Wait for the three reachable deliveries (host00-02) to ack.
        for __ in range(120):
            tracker = manager.propagation(v2)
            if tracker and tracker.count(DeliveryStatus.ACKED) >= 3:
                break
            yield runtime.sim.timeout(1.0)
        tracker = manager.propagation(v2)
        assert tracker.count(DeliveryStatus.ACKED) == 3
        assert tracker.delivery(blocked_loid).status is DeliveryStatus.PENDING
        acked_before = {
            d.loid
            for d in tracker.deliveries()
            if d.status is DeliveryStatus.ACKED
        }
        crash_host(runtime, runtime.host("host00"))
        # Restart well after the partition heals, then recover from
        # the journal (recovery resumes open propagations itself).
        yield runtime.sim.timeout(300.0 - runtime.sim.now)
        runtime.host("host00").restart()
        recovered = yield from recover_manager(runtime, journal)
        return recovered, acked_before

    recovered, acked_before = runtime.sim.run_process(scenario())
    runtime.sim.run()

    # Same identity, same version tree: nothing was re-derived.
    assert recovered is runtime.class_of("Sorter")
    assert recovered.loid == class_loid
    assert set(recovered.versions()) == all_versions
    assert recovered.current_version == v2
    tracker = recovered.propagation(v2)
    assert tracker.complete and tracker.all_acked
    # The blocked instance got exactly one application, post-recovery.
    blocked_obj = recovered.record(blocked_loid).obj
    assert blocked_obj.version == v2
    assert blocked_obj.applications_by_version.get(v2) == 1
    assert blocked_obj.duplicate_deliveries == 0
    # Already-acked survivors (host01/02) were not re-delivered.
    for loid in loids[1:3]:
        assert loid in acked_before
        obj = recovered.record(loid).obj
        assert obj.applications_by_version.get(v2) == 1
        assert obj.duplicate_deliveries == 0
    # The co-located instance died with the manager's host; recovering
    # it rebuilds straight at its journaled version — no re-application.
    runtime.sim.run_process(recovered.recover_instance(loids[0]))
    obj0 = recovered.record(loids[0]).obj
    assert obj0.version == v2
    assert obj0.applications_by_version.get(v2, 0) == 0
    assert recovered.instance_version(loids[0]) == v2
    # Recovery is visible in the fleet metrics.
    snapshot = runtime.network.metrics.snapshot()
    assert snapshot.get("manager.recoveries") == 1
    assert snapshot.get("host.crashes") == 1
    assert snapshot.get("host.restarts") == 1


def test_coordinator_auto_recovers_manager_and_instances():
    """A scheduled outage of the manager's host heals hands-free: the
    coordinator recovers the manager from its journal and rebuilds the
    co-located instance on restart."""
    runtime, manager, journal, loids = build_fleet(instances=3)
    coordinator = ChaosCoordinator(runtime, journals={"Sorter": journal})
    coordinator.crash_plan.schedule_outage(
        runtime.host("host00"), crash_at=5.0, restart_at=40.0
    )
    runtime.sim.run(until=100.0)

    recovered = runtime.class_of("Sorter")
    assert recovered is not manager  # a fresh object, same identity
    assert recovered.loid == manager.loid
    assert recovered.is_active
    kinds = [(kind, what) for __, kind, what in coordinator.recovery_log]
    assert ("manager", "Sorter") in kinds
    assert ("instance", loids[0]) in kinds
    assert coordinator.crash_log and coordinator.crash_log[0][1] == "host00"
    record = recovered.record(loids[0])
    assert record.active and record.obj.version == manager.current_version
