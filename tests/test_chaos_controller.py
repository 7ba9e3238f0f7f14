"""Chaos sweep: the self-healing controller under seeded faults.

Every seed rolls an unguarded bad deploy (the schedule's
``bad_deploys`` kind — no canary gate watching) while the schedule
limps instance hosts (``flaky_limps``), crashes hosts, partitions the
network, and on some seeds kills the manager so a supervisor promotes
a standby mid-remediation.  The :class:`ReactiveController` runs the
whole time with its default sense→decide→act loop; no test code ever
rolls back or migrates by hand.

Acceptance invariants, every seed:

- the controller's rollback *converges*: the fleet ends on the prior
  version, current-version designation included;
- the shared checker holds at heal and at the end: never-half-applied,
  exactly-once, term fencing, single ownership (no supervisor fight:
  the shared convergence guard records zero violations — denials are
  the races *avoided*), replay;
- journal hygiene: every controller intent on the surviving authority
  is closed (done, failed, or orphaned by GC) — nothing dangles.

``CHAOS_EXTRA_SEEDS`` (env) widens the sweep in CI.  Unit coverage for
the controller pieces lives in ``tests/test_controller.py``.
"""

import pytest

from repro.cluster import ReactiveController, Supervisor, build_lan
from repro.cluster.chaos import ChaosCoordinator, ChaosSchedule
from repro.core import ManagerJournal, RemovePolicy
from repro.core.policies import (
    DemoteDegradedVersion,
    MigrateOffFlakyHost,
    PrewarmBlobCaches,
    ReliableUpdatePolicy,
)
from repro.legion import LegionRuntime
from repro.obs import SLO
from repro.workloads import (
    OpenLoopLoad,
    PoissonArrivals,
    build_degraded_version,
    make_noop_manager,
)

from tests.conftest import FAST_RETRY, lan_host_names
from tests.invariants import (
    assert_instance_invariants,
    assert_invariants,
    chaos_seeds,
)

MANAGER_HOST = "host00"
STANDBY_HOSTS = ("host02", "host03")
DETECTOR_HOST = "host04"
CLIENT_HOST = "host05"
INSTANCE_HOSTS = ("host01", "host02", "host03")
HOSTS = lan_host_names(6)

INSTANCES = 6

#: Controller rollbacks and migrations per seed, checked in aggregate:
#: the sweep must actually exercise the remediation paths it certifies.
ROLLBACKS = {}
MIGRATIONS = {}


def build_fleet(sim_seed):
    runtime = LegionRuntime(build_lan(6, seed=sim_seed))
    journal = ManagerJournal(name="Svc")
    manager, __ = make_noop_manager(
        runtime,
        "Svc",
        2,
        3,
        journal=journal,
        host_name=MANAGER_HOST,
        propagation_retry_policy=FAST_RETRY,
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
        remove_policy=RemovePolicy.timeout(2.0),
    )
    loids = [
        runtime.sim.run_process(
            manager.create_instance(
                host_name=f"host{(index % 3) + 1:02d}"
            )
        )
        for index in range(INSTANCES)
    ]
    return runtime, manager, journal, loids


def controller_schedule(seed):
    """A bad deploy plus, by seed, flaky limps, crashes, partitions and
    manager faults; the detector and client hosts are protected."""
    return ChaosSchedule.generate(
        seed,
        HOSTS,
        duration_s=90.0,
        counts={
            "crashes": 1 if seed % 4 == 2 else 0,
            "partitions": 1 if seed % 5 == 3 else 0,
            "manager_partitions": 1 if seed % 3 == 0 else 0,
            "failovers": seed % 2,
            "bad_deploys": 1,
            "flaky_limps": 1 if seed % 2 == 1 else 0,
        },
        protect=(DETECTOR_HOST, CLIENT_HOST),
        manager_hosts=(MANAGER_HOST,) + STANDBY_HOSTS,
        instance_hosts=INSTANCE_HOSTS,
    )


def run_controller(seed, schedule):
    """Adopt the schedule's bad deploy under ``schedule``, let the
    controller remediate, and check; returns the simulated end time."""
    runtime, manager, journal, loids = build_fleet(sim_seed=3100 + seed)
    sim = runtime.sim
    v1 = manager.current_version
    runtime.network.enable_health()
    if seed % 2 == 0:
        manager.invoker.enable_adaptive_timeouts()
        manager.invoker.enable_hedging()

    supervisor = Supervisor(
        runtime,
        "Svc",
        standby_hosts=STANDBY_HOSTS,
        detector_host_name=DETECTOR_HOST,
        retry_policy=FAST_RETRY,
    ).start()
    controller = ReactiveController(
        runtime,
        "Svc",
        supervisor=supervisor,
        policies=[
            MigrateOffFlakyHost(),
            DemoteDegradedVersion(),
            PrewarmBlobCaches(),
        ],
        interval_s=1.0,
        retry_policy=FAST_RETRY,
    ).start()

    coordinator = ChaosCoordinator(runtime, journals={})
    bad_deploys = schedule.faults_of("bad_deploys")
    assert bad_deploys, "every seed must stage a bad deploy"
    v2 = build_degraded_version(manager, **bad_deploys[0].params)
    schedule.install(runtime, coordinator)

    slo = SLO(
        name="svc",
        latency_targets={0.99: 0.050},
        max_error_rate=0.02,
        min_samples=20,
    )
    monitor = runtime.network.slo_monitor("svc", slo=slo, window_s=6.0)
    load = OpenLoopLoad(
        runtime.make_client(host_name=CLIENT_HOST),
        loids,
        PoissonArrivals(30.0),
        runtime.rng.stream("traffic"),
        monitor=monitor,
        duration_s=800.0,
    )
    load.start()

    deploy_abs = schedule.installed_at + bad_deploys[0].start

    def rollback_done():
        return any(
            entry["policy"] == "demote-degraded-version"
            and entry["outcome"] == "done"
            for entry in controller.remediation_log
        )

    def scenario():
        # The unguarded adoption: an operator pushes the bad build with
        # no canary watching.  Only the controller can save the fleet.
        if sim.now < deploy_abs:
            yield sim.timeout(deploy_abs - sim.now)
        current = supervisor.manager
        if current.is_active and not current.deposed:
            current.set_current_version_async(v2)
        heal = schedule.heal_time + 1.0
        if sim.now < heal:
            yield sim.timeout(heal - sim.now)
        assert_instance_invariants(runtime, "Svc", f"seed {seed} at heal")
        deadline = sim.now + 420.0
        while sim.now < deadline:
            current = supervisor.manager
            if current.is_active and not current.deposed:
                if (
                    current.current_version == v1
                    and current.propagation(v2) is None
                ):
                    # The crash beat the sync journal ship: the promoted
                    # authority recovered with no record of the bad
                    # designation, so the operator's never-acknowledged
                    # push retries against it — the controller must
                    # still catch and demote it.  An authority holding
                    # v2's wave heard the push (a demote puts the
                    # designation back at the parent by design), and a
                    # retry would re-deliver the bad build behind it.
                    current.set_current_version_async(v2)
                elif (
                    rollback_done()
                    and current.current_version == v1
                    and all(
                        current.record(loid).active
                        and current.record(loid).obj.version == v1
                        for loid in loids
                    )
                ):
                    break
            yield sim.timeout(5.0)
        load.stop()
        controller.stop()
        supervisor.stop()

    sim.run_process(scenario())
    sim.run()

    # No supervisor fight: the guard's discipline held everywhere.
    assert_invariants(runtime, "Svc", f"seed {seed} converged ({schedule!r})")
    current = supervisor.manager

    # The controller-originated rollback converged: official version
    # and every instance back on v1.
    assert current.current_version == v1, (
        f"seed {seed}: fleet still designated {current.current_version} "
        f"(controller log: {controller.remediation_log})"
    )
    for loid in loids:
        record = current.record(loid)
        assert record.active, f"seed {seed}: {loid} never recovered"
        obj = record.obj
        assert obj.version == v1, (
            f"seed {seed}: {loid} stuck at {obj.version} "
            f"(controller log: {controller.remediation_log})"
        )

    # Journal hygiene: nothing the controller started dangles open on
    # the surviving authority (done, failed, or orphaned — all closed).
    open_now = current.open_remediations()
    assert open_now == [], (
        f"seed {seed}: dangling remediation intents {open_now}"
    )

    rollbacks = [
        entry
        for entry in controller.remediation_log
        if entry["policy"] == "demote-degraded-version"
        and entry["outcome"] == "done"
    ]
    assert rollbacks, (
        f"seed {seed}: controller never completed a rollback "
        f"(log: {controller.remediation_log})"
    )
    ROLLBACKS[seed] = runtime.network.count_value("controller.rollbacks")
    MIGRATIONS[seed] = runtime.network.count_value("controller.migrations")
    return sim.now


@pytest.mark.parametrize("seed", chaos_seeds(20))
def test_chaos_controller_selfheals(seed):
    """Seeded bad deploy + flaky hosts + crashes + failover: the
    controller must detect, decide, and remediate on its own, with the
    full invariant set intact on whichever manager survives."""
    run_controller(seed, controller_schedule(seed))


def test_controller_paths_exercised_across_sweep():
    """Aggregate sanity: the sweep must have driven real remediations —
    a rollback on every seed, and at least one quarantine-driven
    migration somewhere (else the flaky-limp kind proved nothing)."""
    assert ROLLBACKS, "sweep did not run before the aggregate check"
    assert all(count >= 1 for count in ROLLBACKS.values()), (
        f"some seed converged without a controller rollback: {ROLLBACKS}"
    )
