"""Crash faults and recovery: hosts, CrashPlan, journal, manager rebuild."""

import pytest

from repro.cluster import CrashPlan, HostDown, build_lan
from repro.cluster.chaos import crash_host
from repro.core import (
    DeliveryStatus,
    ManagerJournal,
    UnknownVersion,
    WaveAborted,
    WavePolicy,
    recover_manager,
)
from repro.core.policies import ReliableUpdatePolicy
from repro.legion import LegionRuntime
from repro.net import Endpoint, PrefixPartition, RetryPolicy
from repro.sim.errors import SimulationError

from tests.conftest import create_dcdo, make_counter_class, make_sorter_manager

RETRY = RetryPolicy(base_s=0.5, multiplier=2.0, max_backoff_s=10.0, max_attempts=6)


# ----------------------------------------------------------------------
# Host crash / restart semantics
# ----------------------------------------------------------------------


def test_crash_kills_processes_and_closes_endpoints(runtime):
    make_counter_class(runtime)
    class_object = runtime.class_of("Counter")
    loid = runtime.sim.run_process(
        class_object.create_instance(host_name="host01")
    )
    host = runtime.host("host01")
    record = class_object.record(loid)
    process = record.process
    endpoint = Endpoint(runtime.network, "host01/extra")
    address = record.obj.address
    assert host.is_up and process.alive

    host.crash()
    assert not host.is_up
    assert not process.alive
    assert host.processes == {}
    assert endpoint.is_closed
    assert not runtime.network.knows(address)
    assert runtime.network.count_value("host.crashes") == 1


def test_crash_is_idempotent_while_down(runtime):
    host = runtime.host("host02")
    host.crash()
    host.crash()
    assert host.crash_count == 1
    assert runtime.network.count_value("host.crashes") == 1


def test_spawn_process_refuses_on_down_host(runtime):
    host = runtime.host("host02")
    host.crash()
    with pytest.raises(HostDown):
        runtime.sim.run_process(host.spawn_process("some-loid"))


def test_restart_bumps_incarnation_and_requires_down(runtime):
    host = runtime.host("host03")
    assert host.incarnation == 1
    with pytest.raises(SimulationError):
        host.restart()
    host.crash()
    assert host.restart() == 2
    assert host.is_up
    assert host.processes == {}
    with pytest.raises(SimulationError):
        host.restart()


def test_crash_plan_validates_schedule(runtime):
    plan = CrashPlan(runtime.sim)
    host = runtime.host("host00")
    runtime.sim.run(until=5.0)
    with pytest.raises(ValueError):
        plan.schedule_crash(host, 4.0)
    with pytest.raises(ValueError):
        plan.schedule_outage(host, crash_at=10.0, restart_at=10.0)


def test_crash_plan_fires_and_drives_generator_hooks(runtime):
    events = []

    def on_crash(host):
        events.append(("crash", host.name, runtime.sim.now))

    def on_restart(host):
        yield runtime.sim.timeout(1.0)  # recovery work takes time
        events.append(("restart", host.name, runtime.sim.now))

    plan = CrashPlan(runtime.sim, on_crash=on_crash, on_restart=on_restart)
    plan.schedule_outage(runtime.host("host01"), crash_at=2.0, restart_at=5.0)
    runtime.sim.run(until=10.0)
    assert plan.crashes_fired == 1 and plan.restarts_fired == 1
    assert events == [("crash", "host01", 2.0), ("restart", "host01", 6.0)]
    assert runtime.host("host01").is_up


# ----------------------------------------------------------------------
# The journal itself
# ----------------------------------------------------------------------


def test_journal_append_replay_and_checkpoint():
    journal = ManagerJournal(name="T")
    journal.append("a", x=1)
    journal.append("b", x=2)
    assert [e.kind for e in journal.replay()] == ["a", "b"]
    assert len(journal) == 2

    journal.write_checkpoint(journal.replay()[1:])
    journal.append("c", x=3)
    assert [e.kind for e in journal.replay()] == ["b", "c"]
    assert journal.entries[0].kind == "c"  # tail restarted
    assert journal.appends == 3 and journal.checkpoints == 1


def test_recover_manager_requires_metadata(runtime):
    with pytest.raises(ValueError):
        runtime.sim.run_process(recover_manager(runtime, ManagerJournal()))


# ----------------------------------------------------------------------
# Manager recovery from the journal
# ----------------------------------------------------------------------


def evolve_fleet_to_v2(runtime, manager):
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "compare-desc")
    manager.descriptor_of(version).enable(
        "compare", "compare-desc", replace_current=True
    )
    manager.mark_instantiable(version)
    process = manager.set_current_version_async(version)
    if process is not None:
        runtime.sim.run(until=process)
    return version


def recovered_roundtrip(runtime, journal, manager, loids):
    """Crash the manager's host, restart it, recover, and compare."""
    before = {
        "versions": set(map(str, manager.versions())),
        "current": str(manager.current_version),
        "table": {str(l): str(manager.instance_version(l)) for l in loids},
        "components": set(manager.registered_components()),
    }
    crash_host(runtime, runtime.host("host00"))
    assert not manager.is_active
    runtime.host("host00").restart()
    recovered = runtime.sim.run_process(recover_manager(runtime, journal))
    assert recovered is not manager
    assert recovered.loid == manager.loid  # deterministic identity
    assert set(map(str, recovered.versions())) == before["versions"]
    assert str(recovered.current_version) == before["current"]
    assert {
        str(l): str(recovered.instance_version(l)) for l in loids
    } == before["table"]
    assert set(recovered.registered_components()) == before["components"]
    assert runtime.class_of(manager.type_name) is recovered
    return recovered


def build_sorter_fleet(runtime):
    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(
        runtime,
        update_policy=ReliableUpdatePolicy(retry_policy=RETRY),
        journal=journal,
        propagation_retry_policy=RETRY,
    )
    loids = [
        create_dcdo(runtime, manager, host_name=name)[0]
        for name in ("host01", "host02")
    ]
    return journal, manager, loids


def test_recover_manager_replays_versions_and_table(runtime):
    journal, manager, loids = build_sorter_fleet(runtime)
    evolve_fleet_to_v2(runtime, manager)
    recovered = recovered_roundtrip(runtime, journal, manager, loids)
    # The surviving instances are re-linked, not rebuilt.
    for loid in loids:
        assert recovered.record(loid).active
        assert recovered.record(loid).obj is manager.record(loid).obj
    # And the recovered manager keeps serving evolutions: derive v3.
    v3 = recovered.derive_version(recovered.current_version)
    recovered.descriptor_of(v3).set_exported("compare", "compare-desc", False)
    recovered.mark_instantiable(v3)
    process = recovered.set_current_version_async(v3)
    runtime.sim.run(until=process)
    assert recovered.instance_version(loids[0]) == v3


def test_recovered_manager_never_reissues_version_ids(runtime):
    journal, manager, __ = build_sorter_fleet(runtime)
    v2 = evolve_fleet_to_v2(runtime, manager)
    configurable = manager.derive_version(v2)  # journaled id, lost body
    crash_host(runtime, runtime.host("host00"))
    runtime.host("host00").restart()
    recovered = runtime.sim.run_process(recover_manager(runtime, journal))
    # The configurable version's descriptor died with the manager (by
    # design), but its *identifier* is never reused.
    with pytest.raises(UnknownVersion):
        recovered.descriptor_of(configurable)
    fresh = recovered.derive_version(v2)
    assert fresh != configurable
    assert recovered.new_version() not in (configurable, fresh)


def test_recover_after_checkpoint_compacts_and_roundtrips(runtime):
    journal, manager, loids = build_sorter_fleet(runtime)
    evolve_fleet_to_v2(runtime, manager)
    # The v2 wave's start already checkpointed; its own tail follows.
    size_before = len(journal)
    checkpoints_before = journal.checkpoints
    manager.write_checkpoint()
    assert journal.checkpoints == checkpoints_before + 1
    assert journal.entries == []  # tail truncated
    assert len(journal) < size_before  # compaction actually compacted
    recovered_roundtrip(runtime, journal, manager, loids)


def test_recovery_skips_acked_deliveries(runtime):
    journal, manager, loids = build_sorter_fleet(runtime)
    v2 = evolve_fleet_to_v2(runtime, manager)
    tracker = manager.propagation(v2)
    assert tracker.all_acked and tracker.complete
    crash_host(runtime, runtime.host("host00"))
    runtime.host("host00").restart()
    recovered = runtime.sim.run_process(recover_manager(runtime, journal))
    restored = recovered.propagation(v2)
    assert restored.complete
    assert restored.count(DeliveryStatus.ACKED) == len(loids)
    # No re-delivery happened: each instance applied v2 exactly once.
    for loid in loids:
        obj = recovered.record(loid).obj
        assert obj.applications_by_version.get(v2) == 1
        assert obj.duplicate_deliveries == 0


def test_recover_manager_on_explicit_up_host(runtime):
    journal, manager, loids = build_sorter_fleet(runtime)
    crash_host(runtime, runtime.host("host00"))
    # host00 stays down; recover elsewhere.
    recovered = runtime.sim.run_process(
        recover_manager(runtime, journal, host_name="host03")
    )
    assert recovered.host.name == "host03"
    assert recovered.is_active
    assert recovered.instance_version(loids[0]) == manager.current_version


# ----------------------------------------------------------------------
# Instance recovery (crash-lost DCDOs and plain objects)
# ----------------------------------------------------------------------


def test_recover_instance_rebuilds_at_version_without_opr(runtime):
    journal, manager, loids = build_sorter_fleet(runtime)
    v2 = evolve_fleet_to_v2(runtime, manager)
    victim = loids[0]  # lives on host01
    crash_host(runtime, runtime.host("host01"))
    record = manager.record(victim)
    assert not record.active
    runtime.host("host01").restart()
    runtime.sim.run_process(manager.recover_instance(victim))
    record = manager.record(victim)
    assert record.active and record.obj.version == v2
    assert record.obj.is_active
    # Rebuilt from the implementation, not evolved: no application.
    assert record.obj.applications_by_version.get(v2, 0) == 0
    assert runtime.network.count_value("instance.recoveries") == 1
    # The rebuilt instance serves calls with v2 behaviour (descending).
    client = runtime.make_client("host02")
    assert client.call_sync(victim, "sort", [2, 1, 3]) == [3, 2, 1]


def test_recover_instance_restores_state_from_opr_when_present(runtime):
    make_counter_class(runtime)
    class_object = runtime.class_of("Counter")
    loid = runtime.sim.run_process(
        class_object.create_instance(host_name="host01")
    )
    client = runtime.make_client("host02")
    assert client.call_sync(loid, "inc", 3) == 3
    # A clean deactivation persisted the OPR before the crash.
    runtime.sim.run_process(class_object.deactivate_instance(loid))
    host = runtime.host("host01")
    host.crash()
    host.restart()
    runtime.sim.run_process(class_object.recover_instance(loid))
    assert client.call_sync(loid, "get") == 3  # state survived via OPR


def test_recover_instance_rejects_active_instance(runtime):
    make_counter_class(runtime)
    class_object = runtime.class_of("Counter")
    loid = runtime.sim.run_process(class_object.create_instance())
    with pytest.raises(ValueError):
        runtime.sim.run_process(class_object.recover_instance(loid))


# ----------------------------------------------------------------------
# A re-armed wave survives a manager crash
# ----------------------------------------------------------------------

#: One delivery attempt per instance, so a cut-off instance fails fast.
ONE_SHOT = RetryPolicy(base_s=1.0, max_attempts=1)


def build_ico_pinned_fleet(hosts, instances):
    """A journaled sorter fleet with every ICO on the manager's host00
    and one instance per host from host01 on."""
    runtime = LegionRuntime(build_lan(hosts, seed=7))
    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(
        runtime,
        component_hosts={
            "sorter": "host00",
            "compare-asc": "host00",
            "compare-desc": "host00",
        },
        journal=journal,
    )
    loids = [
        create_dcdo(runtime, manager, host_name=f"host{index + 1:02d}")[0]
        for index in range(instances)
    ]
    return runtime, manager, journal, loids


def adopt_desc_version(manager):
    """Derive, freeze and designate v2; the explicit update policy
    leaves every delivery to the test."""
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "compare-desc")
    manager.descriptor_of(version).enable(
        "compare", "compare-desc", replace_current=True
    )
    manager.mark_instantiable(version)
    manager.set_current_version(version)
    return version


def crash_and_recover_manager(runtime, journal):
    """Crash host00, recover the manager there, and run to quiescence,
    so any apply still in flight at the crash has landed."""
    crash_host(runtime, runtime.host("host00"))
    runtime.host("host00").restart()
    recovered = runtime.sim.run_process(recover_manager(runtime, journal))
    runtime.sim.run()
    return recovered


def test_recovered_table_matches_an_instance_a_rearmed_wave_reached():
    """A re-arm re-opens a FAILED delivery; the manager crashes while
    that delivery's apply is in flight, and the apply still lands.  The
    recovered wave must hold the delivery open, so the table ends on
    the version the instance really runs."""
    runtime, manager, journal, loids = build_ico_pinned_fleet(4, 3)
    victim = loids[1]  # on host02
    v2 = adopt_desc_version(manager)
    runtime.network.faults.add_partition(
        PrefixPartition(["host00/"], ["host02/"], start=0.0, end=1_000.0)
    )
    tracker = runtime.sim.run_process(
        manager.propagate_version(v2, retry_policy=ONE_SHOT)
    )
    assert tracker.complete
    assert tracker.delivery(victim).status is DeliveryStatus.FAILED
    runtime.sim.run(until=1_000.0)
    runtime.sim.spawn(manager.propagate_version(v2), name="rearm")
    runtime.sim.run(until=runtime.sim.now + 0.05)
    recovered = crash_and_recover_manager(runtime, journal)
    running = recovered.record(victim).obj.version
    assert running == v2
    assert recovered.instance_version(victim) == running


def test_recovery_aborts_a_rearmed_transactional_wave():
    """An abort-after-0 wave re-armed to admit more instances must keep
    them across a crash: the cut-off one fails on the recovered
    manager and the whole wave rolls back, not half of it."""
    runtime, manager, journal, loids = build_ico_pinned_fleet(5, 4)
    a, b, c, d = loids
    v1, v2 = manager.current_version, adopt_desc_version(manager)
    runtime.sim.run_process(
        manager.propagate_version(
            v2, loids=[a], retry_policy=ONE_SHOT, wave_policy=WavePolicy.abort_after(0)
        )
    )
    assert manager.instance_version(a) == v2
    runtime.network.faults.add_partition(
        PrefixPartition(["host00/"], ["host04/"], start=0.0, end=50_000.0)
    )

    def rearm():
        try:
            yield from manager.propagate_version(
                v2, loids=[a, c, d], retry_policy=ONE_SHOT
            )
        except WaveAborted:
            pass

    runtime.sim.spawn(rearm(), name="rearm")
    runtime.sim.run(until=runtime.sim.now + 10.0)
    assert manager.instance_version(c) == v2
    recovered = crash_and_recover_manager(runtime, journal)
    tracker = recovered.propagation(v2)
    assert tracker.aborted
    assert d in tracker
    for loid in (a, b, c, d):
        assert recovered.record(loid).obj.version == v1
        assert recovered.instance_version(loid) == v1
