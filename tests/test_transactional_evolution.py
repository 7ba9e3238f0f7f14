"""Transactional evolution: two-phase apply, rollback, breaker, wave abort.

The tentpole invariant under test: ``applyConfiguration`` is all-or-
nothing.  A prepare failure (unreachable ICO) or a commit failure
(busy component under the ERROR policy) leaves the instance *exactly*
on its old version — same components, same entry states, same
restrictions — and the per-version application counters never show a
partial application.  On top of that sit the circuit breaker guarding
ICO fetches and the wave-abort policy that rolls a whole fleet back.
"""

import pytest

from repro.cluster import build_lan
from repro.cluster.chaos import crash_host
from repro.core import (
    ComponentBuilder,
    ComponentBusy,
    DeliveryStatus,
    EvolutionPhase,
    ManagerJournal,
    WaveAborted,
    WavePolicy,
    define_dcdo_type,
    diff_descriptors,
    recover_manager,
)
from repro.core.policies import ReliableUpdatePolicy
from repro.legion import LegionRuntime
from repro.legion.errors import ObjectUnreachable
from repro.net import CircuitOpen, PrefixPartition, RetryPolicy
from repro.obs import Tracer

from tests.conftest import create_dcdo, make_sorter_manager

#: One-attempt delivery policy: chaos-free tests that want a FAILED
#: delivery quickly, without walking a retry ladder.
ONE_SHOT = RetryPolicy(base_s=1.0, max_attempts=1)


def build_sorter_fleet(hosts=5, instances=2, ico_host="host03", **manager_kwargs):
    """Runtime + journaled sorter manager with compare-desc's ICO pinned.

    The v1 components (sorter, compare-asc) stay on the manager's host
    (host00); ``compare-desc`` — the component every v2 evolution must
    fetch — is served from ``ico_host``, so tests can partition or
    crash exactly the prepare-phase dependency.  Instances land on
    host01, host02, ...
    """
    runtime = LegionRuntime(build_lan(hosts, seed=7))
    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(
        runtime,
        component_hosts={
            "sorter": "host00",
            "compare-asc": "host00",
            "compare-desc": ico_host,
        },
        journal=journal,
        **manager_kwargs,
    )
    loids = []
    for index in range(instances):
        loid, __ = create_dcdo(runtime, manager, host_name=f"host{index + 1:02d}")
        loids.append(loid)
    return runtime, manager, journal, loids


def derive_v2(manager):
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "compare-desc")
    manager.descriptor_of(version).enable(
        "compare", "compare-desc", replace_current=True
    )
    manager.mark_instantiable(version)
    return version


def make_diff(manager, from_version, to_version):
    """The ConfigurationDiff evolve_instance would ship, built directly
    so tests can drive DCDO.apply_configuration without the manager RPC."""
    diff = diff_descriptors(
        manager.version_record(from_version).descriptor,
        manager.version_record(to_version).descriptor,
    )
    diff.target_version = to_version
    return diff


def assert_fully_on_v1(obj, v1, v2):
    """The never-half-applied invariant, spelled out."""
    assert obj.version == v1
    assert obj.dfm.component_ids == {"sorter", "compare-asc"}
    assert obj.dfm.enabled_components_of("compare") == {"compare-asc"}
    assert obj.dfm.enabled_components_of("sort") == {"sorter"}
    assert sorted(obj.dfm.exported_interface()) == ["compare", "sort"]
    assert v2 not in obj.applications_by_version
    assert obj.evolution_phase is EvolutionPhase.IDLE


# ----------------------------------------------------------------------
# Prepare failure: unreachable ICO → compensating rollback
# ----------------------------------------------------------------------


def test_prepare_failure_rolls_back_to_old_version():
    runtime, manager, __, loids = build_sorter_fleet(instances=1)
    tracer = Tracer(runtime.network.bus)
    loid = loids[0]
    obj = manager.record(loid).obj
    v1 = manager.current_version
    v2 = derive_v2(manager)
    # Cut the instance off from compare-desc's ICO only; the manager
    # and the rest of the world stay reachable.
    runtime.network.faults.add_partition(
        PrefixPartition(["host03/"], ["host01/"], start=0.0, end=10_000.0)
    )
    diff = make_diff(manager, v1, v2)
    with pytest.raises(ObjectUnreachable):
        runtime.sim.run_process(obj.apply_configuration(diff))
    assert_fully_on_v1(obj, v1, v2)
    assert obj.rollbacks == 1
    assert runtime.network.count_value("dcdo.prepares") == 1
    assert runtime.network.count_value("dcdo.rollbacks") == 1
    assert runtime.network.count_value("dcdo.commits") == 0
    # A rollback is visible in the trace, stamped with its cause.
    events = [
        event
        for event in tracer.events
        if event.topic == "evolution-rolled-back"
    ]
    assert events and events[0].details["cause"] == "ObjectUnreachable"

    # After the partition heals, the same diff applies cleanly.
    def heal_then_apply():
        yield runtime.sim.timeout(10_001.0 - runtime.sim.now)
        result = yield from obj.apply_configuration(make_diff(manager, v1, v2))
        return result

    result = runtime.sim.run_process(heal_then_apply())
    assert result == str(v2)
    assert obj.version == v2
    assert obj.applications_by_version.get(v2) == 1
    assert obj.rollbacks == 1  # no further rollbacks


# ----------------------------------------------------------------------
# Commit failure: busy component under ERROR policy → full undo
# ----------------------------------------------------------------------


def work_v1_body(ctx, seconds):
    yield ctx.work(seconds)
    return "v1"


def work_v2_body(ctx, seconds):
    return "v2"
    yield  # pragma: no cover - uniform generator shape


def build_worker_fleet():
    """A one-function DCDO type whose v2 swaps the implementing
    component — the §3.1 disappearing-component hazard on a platter."""
    runtime = LegionRuntime(build_lan(4, seed=7))
    manager = define_dcdo_type(runtime, "Worker")
    worker_v1 = (
        ComponentBuilder("worker-v1")
        .function("work", work_v1_body, signature="String work(Float)")
        .variant(size_bytes=64_000)
        .build()
    )
    worker_v2 = (
        ComponentBuilder("worker-v2")
        .function("work", work_v2_body, signature="String work(Float)")
        .variant(size_bytes=64_000)
        .build()
    )
    manager.register_component(worker_v1, host_name="host00")
    manager.register_component(worker_v2, host_name="host00")
    v1 = manager.new_version()
    manager.incorporate_into(v1, "worker-v1")
    manager.descriptor_of(v1).enable("work", "worker-v1")
    manager.mark_instantiable(v1)
    manager.set_current_version(v1)
    loid, obj = create_dcdo(runtime, manager, host_name="host01")
    v2 = manager.derive_version(v1)
    manager.incorporate_into(v2, "worker-v2")
    descriptor = manager.descriptor_of(v2)
    descriptor.enable("work", "worker-v2", replace_current=True)
    descriptor.remove_component("worker-v1")
    manager.mark_instantiable(v2)
    # Explicit update policy: making v2 current does not auto-propagate,
    # but it lets the (single-version) evolution policy admit v2.
    manager.set_current_version(v2)
    return runtime, manager, loid, obj, v1, v2


def test_commit_failure_fully_undoes_entry_flips_and_adds():
    """ComponentBusy strikes *after* the entry states flipped and the
    new component mapped in; the rollback must unwind both."""
    runtime, manager, loid, obj, v1, v2 = build_worker_fleet()
    client = runtime.make_client("host02")
    results = {}

    def long_call():
        results["work"] = yield from client.invoke(
            loid, "work", 30.0, timeout_schedule=(60.0,)
        )

    def scenario():
        runtime.sim.spawn(long_call(), name="busy-caller")
        yield runtime.sim.timeout(1.0)  # the work thread is now active
        try:
            yield from manager.evolve_instance(loid, v2)
        except ComponentBusy as error:
            return error
        return None

    error = runtime.sim.run_process(scenario())
    assert error is not None and error.component_id == "worker-v1"
    # Fully back on v1: old implementation enabled, new component gone.
    assert obj.version == v1
    assert obj.dfm.component_ids == {"worker-v1"}
    assert obj.dfm.enabled_components_of("work") == {"worker-v1"}
    assert v2 not in obj.applications_by_version
    assert obj.rollbacks == 1
    assert manager.instance_version(loid) == v1
    # The in-flight call keeps running on the old implementation and
    # completes; afterwards the evolution goes through.
    runtime.sim.run()
    assert results["work"] == "v1"
    version = runtime.sim.run_process(manager.evolve_instance(loid, v2))
    assert version == v2
    assert obj.dfm.component_ids == {"worker-v2"}
    assert obj.applications_by_version.get(v2) == 1


# ----------------------------------------------------------------------
# Duplicate delivery racing a FAILED first application
# ----------------------------------------------------------------------


def test_duplicate_after_failed_apply_becomes_the_applier():
    """A waiter parked on the applying-gate must re-check when the gate
    fires on *failure* and take over the application itself."""
    runtime, manager, __, loids = build_sorter_fleet(instances=1)
    obj = manager.record(loids[0]).obj
    v1, v2 = manager.current_version, derive_v2(manager)
    # ICO unreachable long enough to fail the first application (it
    # exhausts its fetch schedule at ~132 s), healed in time for the
    # second — the duplicate turned applier — to succeed on a retry.
    runtime.network.faults.add_partition(
        PrefixPartition(["host03/"], ["host01/"], start=0.0, end=150.0)
    )
    outcomes = []

    def attempt(tag, delay):
        yield runtime.sim.timeout(delay)
        try:
            result = yield from obj.apply_configuration(make_diff(manager, v1, v2))
        except Exception as error:  # noqa: BLE001 - recorded for assertions
            outcomes.append((tag, "error", error))
        else:
            outcomes.append((tag, "ok", result))

    runtime.sim.spawn(attempt("first", 0.0), name="apply-first")
    runtime.sim.spawn(attempt("second", 1.0), name="apply-second")
    runtime.sim.run()

    assert dict((tag, kind) for tag, kind, __ in outcomes) == {
        "first": "error",
        "second": "ok",
    }
    first_error = next(payload for tag, __, payload in outcomes if tag == "first")
    assert isinstance(first_error, ObjectUnreachable)
    # The duplicate waited on the gate (counted), then applied itself.
    assert obj.duplicate_deliveries == 1
    assert obj.rollbacks == 1
    assert obj.version == v2
    assert obj.applications_by_version.get(v2) == 1


# ----------------------------------------------------------------------
# _await_functions_idle wakes on the LAST thread exit
# ----------------------------------------------------------------------


def test_await_functions_idle_wakes_only_when_all_threads_exit():
    runtime, manager, loid, obj, v1, v2 = build_worker_fleet()
    short_client = runtime.make_client("host02")
    long_client = runtime.make_client("host03")
    runtime.sim.spawn(
        short_client.invoke(loid, "work", 3.0, timeout_schedule=(60.0,)),
        name="short-worker",
    )
    runtime.sim.spawn(
        long_client.invoke(loid, "work", 7.0, timeout_schedule=(60.0,)),
        name="long-worker",
    )

    def waiter():
        yield runtime.sim.timeout(0.5)
        assert obj.dfm.active_threads_in("worker-v1") == 2
        yield from obj._await_functions_idle(["work"])
        return runtime.sim.now

    released_at = runtime.sim.run_process(waiter())
    # The first exit (~t=4) fires the signal; the waiter must re-check
    # and keep waiting until the second thread leaves (~t=8, including
    # RPC latency before the work starts).
    assert 6.9 < released_at < 9.0
    assert obj.dfm.active_threads_in("worker-v1") == 0


# ----------------------------------------------------------------------
# Circuit breaker: a dead ICO fails fast after the breaker opens
# ----------------------------------------------------------------------


def test_breaker_fast_fails_repeat_fetches_from_dead_ico():
    runtime, manager, __, loids = build_sorter_fleet(instances=1)
    obj = manager.record(loids[0]).obj
    v1, v2 = manager.current_version, derive_v2(manager)
    crash_host(runtime, runtime.host("host03"))  # compare-desc's ICO dies

    durations = []
    errors = []

    def attempts():
        for __ in range(4):
            started = runtime.sim.now
            try:
                yield from obj.apply_configuration(make_diff(manager, v1, v2))
            except Exception as error:  # noqa: BLE001 - recorded
                errors.append(error)
            durations.append(runtime.sim.now - started)

    runtime.sim.run_process(attempts())
    assert len(errors) == 4
    # The first three walk the full fetch timeout schedule (minutes);
    # the fourth is short-circuited by the open breaker (microseconds).
    assert all(duration > 60.0 for duration in durations[:3])
    assert durations[3] < 1.0
    assert isinstance(errors[3], CircuitOpen)
    snapshot = runtime.network.breakers_snapshot()
    # Creation-time fetches registered (healthy) breakers for the other
    # ICOs; exactly the dead component's breaker is open.
    open_keys = [key for key, state in snapshot.items() if state["state"] == "open"]
    (key,) = open_keys
    assert key.startswith("ico:")
    assert snapshot[key]["times_opened"] == 1
    assert snapshot[key]["short_circuits"] >= 1
    assert runtime.network.count_value("breaker.opened") == 1
    # Every failed attempt rolled back; the object never left v1.
    assert obj.rollbacks == 4
    assert_fully_on_v1(obj, v1, v2)


def test_restore_components_revives_dead_ico():
    """A crashed component host leaves its ICO dead even after reboot
    (restart wipes memory); the live manager re-serves it so evolutions
    whose hosts never cached the blob can fetch again."""
    runtime, manager, __, loids = build_sorter_fleet(instances=1)
    obj = manager.record(loids[0]).obj
    v1, v2 = manager.current_version, derive_v2(manager)
    ico_loid = manager.component_ico("compare-desc")
    crash_host(runtime, runtime.host("host03"))
    assert not runtime.live_object(ico_loid).is_active

    def revive():
        yield runtime.sim.timeout(1.0)
        runtime.host("host03").restart()
        restored = yield from manager.restore_components()
        return restored

    restored = runtime.sim.run_process(revive())
    assert restored == ["compare-desc"]
    revived = runtime.live_object(ico_loid)
    assert revived.is_active and revived.host.name == "host03"
    assert runtime.network.bus.counts().get("ico-restored", 0) == 1
    # The prepare-phase fetch works again: evolution goes through.
    result = runtime.sim.run_process(
        obj.apply_configuration(make_diff(manager, v1, v2))
    )
    assert result == str(v2) and obj.version == v2


def test_half_open_probe_rebinds_to_restored_ico():
    """The first probe after the cooldown drops its cached binding and
    re-resolves before sending: a restored ICO lives at a new address
    (new host incarnation), and probing the old one would cost a full
    stale-binding timeout walk before rebinding."""
    runtime, manager, __, loids = build_sorter_fleet(instances=1)
    obj = manager.record(loids[0]).obj
    v1, v2 = manager.current_version, derive_v2(manager)
    crash_host(runtime, runtime.host("host03"))

    def trip_then_recover():
        # Three failed prepare-phase fetches trip the breaker open.
        for __ in range(3):
            with pytest.raises(ObjectUnreachable):
                yield from obj.apply_configuration(make_diff(manager, v1, v2))
        runtime.host("host03").restart()
        yield from manager.restore_components()
        yield runtime.sim.timeout(31.0)  # past the breaker cooldown
        started = runtime.sim.now
        result = yield from obj.apply_configuration(make_diff(manager, v1, v2))
        return result, runtime.sim.now - started

    result, elapsed = runtime.sim.run_process(trip_then_recover())
    assert result == str(v2) and obj.version == v2
    # One resolve round trip plus the fetch — not a ~2-minute walk.
    assert elapsed < 1.0
    assert runtime.network.count_value("breaker.probe_rebinds") == 1


# ----------------------------------------------------------------------
# Wave abort: roll committed instances back, journal, recover
# ----------------------------------------------------------------------


def test_wave_abort_rolls_back_committed_instances_then_rearms():
    runtime, manager, journal, loids = build_sorter_fleet(
        hosts=6, instances=4, ico_host="host05"
    )
    v1, v2 = manager.current_version, derive_v2(manager)
    manager.set_current_version(v2)  # explicit policy: no auto-propagation
    # host03/host04's instances are unreachable from the manager: their
    # deliveries fail; host01/host02 commit and must be rolled back.
    runtime.network.faults.add_partition(
        PrefixPartition(["host00/"], ["host03/", "host04/"], start=0.0, end=2_500.0)
    )

    def wave():
        try:
            yield from manager.propagate_version(
                v2, retry_policy=ONE_SHOT, wave_policy=WavePolicy.abort_after(1)
            )
        except WaveAborted as error:
            return error
        return None

    error = runtime.sim.run_process(wave())
    assert error is not None
    assert error.failed == 2 and error.threshold == 1
    tracker = manager.propagation(v2)
    assert tracker.aborted and tracker.complete
    summary = tracker.summary()
    assert summary["failed"] == 2 and summary["rolled_back"] == 2
    for loid in loids[:2]:
        obj = manager.record(loid).obj
        # Committed v2, then compensated back: both applications count.
        assert obj.applications_by_version.get(v2) == 1
        assert obj.applications_by_version.get(v1) == 1
        assert obj.version == v1
        assert manager.instance_version(loid) == v1
    for loid in loids[2:]:
        assert manager.record(loid).obj.version == v1
    kinds = [entry.kind for entry in journal.replay()]
    assert "wave-aborting" in kinds
    assert kinds.count("wave-rollback") == 2
    assert "wave-aborted" in kinds
    assert runtime.network.bus.counts().get("wave-aborting", 0) == 1
    assert runtime.network.bus.counts().get("wave-rollback", 0) == 2

    # After the partition heals, re-propagating re-arms the aborted
    # wave (rolled-back + failed deliveries reopen) and converges.
    def retry_wave():
        yield runtime.sim.timeout(2_501.0 - runtime.sim.now)
        tracker = yield from manager.propagate_version(v2)
        return tracker

    tracker = runtime.sim.run_process(retry_wave())
    assert tracker.complete and tracker.all_acked and not tracker.aborted
    for loid in loids:
        assert manager.record(loid).obj.version == v2
        assert manager.instance_version(loid) == v2


def test_manager_crash_mid_abort_recovery_completes_the_abort():
    """The acceptance scenario: a wave aborts, one committed instance
    is unreachable for rollback, the manager crashes — recovery must
    resume and *complete* the abort, not the delivery."""
    runtime, manager, journal, loids = build_sorter_fleet(
        hosts=6, instances=4, ico_host="host05"
    )
    v1, v2 = manager.current_version, derive_v2(manager)
    manager.set_current_version(v2)  # explicit policy: no auto-propagation
    instance_c, instance_d = loids[2], loids[3]
    # D's host is unreachable from the manager: its delivery fails and
    # trips the abort (threshold 0).
    runtime.network.faults.add_partition(
        PrefixPartition(["host00/"], ["host04/"], start=0.0, end=50_000.0)
    )

    def scenario():
        def wave():
            try:
                yield from manager.propagate_version(
                    v2, retry_policy=ONE_SHOT, wave_policy=WavePolicy.abort_after(0)
                )
            except WaveAborted:
                pass

        handle = runtime.sim.spawn(wave(), name="wave")
        # Let A/B/C commit, then crash C's host: C is ACKED but cannot
        # be rolled back when the abort fires.
        yield runtime.sim.timeout(100.0)
        tracker = manager.propagation(v2)
        assert tracker.delivery(instance_c).status is DeliveryStatus.ACKED
        crash_host(runtime, runtime.host("host03"))
        yield handle
        return manager.propagation(v2)

    tracker = runtime.sim.run_process(scenario())
    # The abort ran but could not finish: C stays ACKED, wave ABORTING.
    assert tracker.aborting and not tracker.aborted and not tracker.complete
    assert tracker.delivery(instance_c).status is DeliveryStatus.ACKED
    assert tracker.count(DeliveryStatus.ROLLED_BACK) == 2

    # Now the manager dies too.  Restart both hosts and recover.
    crash_host(runtime, runtime.host("host00"))

    def recovery():
        yield runtime.sim.timeout(10.0)
        runtime.host("host00").restart()
        runtime.host("host03").restart()
        recovered = yield from recover_manager(runtime, journal, resume=False)
        # C died with its host; rebuild it (at its journaled version,
        # v2 — exactly the state the abort still has to undo).
        yield from recovered.recover_instance(instance_c)
        assert recovered.record(instance_c).obj.version == v2
        yield from recovered.resume_propagations()
        return recovered

    recovered = runtime.sim.run_process(recovery())
    tracker = recovered.propagation(v2)
    # Journal replay restored the abort state; resume completed it.
    assert tracker.aborted and tracker.complete
    assert tracker.delivery(instance_c).status is DeliveryStatus.ROLLED_BACK
    assert tracker.count(DeliveryStatus.ROLLED_BACK) == 3
    assert recovered.record(instance_c).obj.version == v1
    assert recovered.instance_version(instance_c) == v1
    for loid in loids[:2]:
        assert recovered.instance_version(loid) == v1
    # D never committed; it simply stays where it was.
    assert recovered.instance_version(instance_d) == v1
    kinds = [entry.kind for entry in journal.replay()]
    assert "wave-aborted" in kinds
    # Checkpointing preserves the terminal abort state.
    recovered.write_checkpoint()
    kinds = [entry.kind for entry in journal.replay()]
    assert "wave-aborting" in kinds and "wave-aborted" in kinds
    assert kinds.count("wave-rollback") == 3


# ----------------------------------------------------------------------
# WavePolicy.abort_after boundary regressions
# ----------------------------------------------------------------------


def test_abort_after_zero_tolerates_no_failures():
    """The zero boundary, both sides: with every delivery acked the
    wave completes (0 failures is not "more than 0"); with exactly one
    failure it aborts."""
    runtime, manager, journal, loids = build_sorter_fleet(
        hosts=6, instances=3, ico_host="host05"
    )
    v1, v2 = manager.current_version, derive_v2(manager)
    manager.set_current_version(v2)  # explicit policy: no auto-propagation
    tracker = runtime.sim.run_process(
        manager.propagate_version(
            v2, retry_policy=ONE_SHOT, wave_policy=WavePolicy.abort_after(0)
        )
    )
    assert tracker.complete and tracker.all_acked and not tracker.aborted
    for loid in loids:
        assert manager.instance_version(loid) == v2

    # Second fleet, one unreachable instance: exactly one failure must
    # trip the threshold-0 abort.
    runtime, manager, journal, loids = build_sorter_fleet(
        hosts=6, instances=3, ico_host="host05"
    )
    v1, v2 = manager.current_version, derive_v2(manager)
    manager.set_current_version(v2)
    runtime.network.faults.add_partition(
        PrefixPartition(["host00/"], ["host03/"], start=0.0, end=10_000.0)
    )

    def wave():
        try:
            yield from manager.propagate_version(
                v2, retry_policy=ONE_SHOT, wave_policy=WavePolicy.abort_after(0)
            )
        except WaveAborted as error:
            return error
        return None

    error = runtime.sim.run_process(wave())
    assert error is not None and error.failed == 1 and error.threshold == 0
    tracker = manager.propagation(v2)
    assert tracker.aborted
    for loid in loids:
        assert manager.instance_version(loid) == v1


def test_abort_after_final_ack_rolls_back_completed_wave():
    """An abort requested *after* the final ack (nothing failed, the
    wave is complete) still rolls every acked instance back — the
    SLO-breach case, where delivery succeeded but the version is bad."""
    runtime, manager, journal, loids = build_sorter_fleet(
        hosts=6, instances=3, ico_host="host05"
    )
    v1, v2 = manager.current_version, derive_v2(manager)
    manager.set_current_version(v2)
    tracker = runtime.sim.run_process(
        manager.propagate_version(
            v2, retry_policy=ONE_SHOT, wave_policy=WavePolicy.abort_after(0)
        )
    )
    assert tracker.complete and tracker.all_acked

    aborted = runtime.sim.run_process(manager.abort_wave(v2, reason="slo-breach"))
    assert aborted is tracker
    assert tracker.aborted and tracker.complete
    assert tracker.count(DeliveryStatus.ROLLED_BACK) == len(loids)
    for loid in loids:
        obj = manager.record(loid).obj
        assert obj.version == v1
        assert manager.instance_version(loid) == v1
        # Committed once, compensated once — never more.
        assert obj.applications_by_version.get(v2) == 1
    kinds = [entry.kind for entry in journal.replay()]
    assert "wave-aborting" in kinds and "wave-aborted" in kinds
    assert kinds.count("wave-rollback") == len(loids)


def test_abort_never_rolls_an_instance_forward_to_the_aborted_version():
    """A wave that starts while its instances already run its version
    records that version as their prior (here: a re-push after a
    checkpoint dropped the settled wave).  When that wave is demoted,
    the re-designation's wave moves them off it; the abort has nothing
    to undo and must not evolve them back onto the aborted build."""
    runtime, manager, journal, loids = build_sorter_fleet(
        hosts=6,
        instances=3,
        ico_host="host05",
        update_policy=ReliableUpdatePolicy(retry_policy=ONE_SHOT),
    )
    v1, v2 = manager.current_version, derive_v2(manager)
    runtime.sim.run(until=manager.set_current_version_async(v2))
    manager.write_checkpoint()
    assert manager.propagation(v2) is None
    runtime.sim.run_process(manager.propagate_version(v2))
    tracker = manager.propagation(v2)
    assert tracker.prior_versions == {loid: v2 for loid in loids}

    def demote():
        # The controller's demote: re-designate, then abort the wave.
        manager.set_current_version_async(v1)
        yield from manager.abort_wave(v2, reason="controller-demote")

    runtime.sim.run_process(demote())
    runtime.sim.run()
    assert tracker.aborted
    assert tracker.count(DeliveryStatus.ROLLED_BACK) == len(loids)
    assert manager.current_version == v1
    for loid in loids:
        obj = manager.record(loid).obj
        assert obj.applications_by_version.get(v2) == 1
        assert obj.version == v1
        assert manager.instance_version(loid) == v1


def test_wave_abort_during_relay_phase_rolls_back_batches():
    """Abort tripped while the wave runs through per-host relays: the
    committed relay batches roll back exactly like direct deliveries."""
    from repro.cluster import deploy_relays

    runtime, manager, journal, loids = build_sorter_fleet(
        hosts=6, instances=4, ico_host="host05"
    )
    v1, v2 = manager.current_version, derive_v2(manager)
    manager.set_current_version(v2)
    relays = deploy_relays(runtime)
    manager.use_relays(relays)
    # host03/host04's instances (and their relays) are unreachable:
    # those batches fail while host01/host02's commit.
    runtime.network.faults.add_partition(
        PrefixPartition(["host00/"], ["host03/", "host04/"], start=0.0, end=10_000.0)
    )

    def wave():
        try:
            yield from manager.propagate_version(
                v2, retry_policy=ONE_SHOT, wave_policy=WavePolicy.abort_after(1)
            )
        except WaveAborted as error:
            return error
        return None

    error = runtime.sim.run_process(wave())
    assert error is not None and error.failed == 2
    tracker = manager.propagation(v2)
    assert tracker.aborted and tracker.count(DeliveryStatus.ROLLED_BACK) == 2
    for loid in loids[:2]:
        obj = manager.record(loid).obj
        assert obj.version == v1
        assert obj.applications_by_version.get(v2) == 1
        assert manager.instance_version(loid) == v1
    for loid in loids[2:]:
        assert manager.record(loid).obj.version == v1
    assert runtime.network.bus.counts().get("wave-rollback", 0) == 2
