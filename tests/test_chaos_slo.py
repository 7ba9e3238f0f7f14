"""Chaos sweep: SLO-gated canary waves under crashes and failover.

Every seed stages a *degraded* build — a version that installs
perfectly and then ruins the service (seeded added latency or error
injection, drawn from the schedule's ``degradations``) — and rolls it
out through an SLO-gated canary while the same schedule crashes hosts,
partitions the network, and (on some seeds) kills the manager so a
supervisor must promote a standby mid-rollout.

Acceptance invariants, every seed:

- the gate breaches and the breach-triggered abort *completes* — on
  the original manager or on whichever standby was promoted — with the
  whole fleet back on the prior version;
- the shared checker holds at heal and at the end (never-half-applied,
  exactly-once, term fencing, single ownership, replay);
- blast radius stays within the stages the gate admitted (canary +
  first ramp) — the unvetted version never reaches the full fleet.

``CHAOS_EXTRA_SEEDS`` (env) widens the sweep in CI.
"""

import pytest

from repro.cluster import Supervisor, build_lan
from repro.cluster.chaos import ChaosCoordinator, ChaosSchedule
from repro.core import ManagerJournal, RemovePolicy
from repro.core.policies import (
    CanaryWavePolicy,
    IncreasingVersionPolicy,
    run_canary_wave,
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
#: The traffic client's host: protected, so the SLO gate always has a
#: vantage point (a blinded gate is a different experiment).
CLIENT_HOST = "host05"
HOSTS = lan_host_names(6)

INSTANCES = 8
RAMP = CanaryWavePolicy(
    stages=(0.125, 0.5, 1.0), bake_s=8.0, check_interval_s=1.0
)
#: Largest subset the gate may touch before a breach can possibly land:
#: the canary (1 of 8) plus the first ramp (4 of 8).
MAX_BLAST = 5

#: Supervisor promotions per seed, checked in aggregate after the sweep.
PROMOTIONS = {}


def build_fleet(sim_seed):
    runtime = LegionRuntime(build_lan(6, seed=sim_seed))
    journal = ManagerJournal(name="Svc")
    manager, __ = make_noop_manager(
        runtime,
        "Svc",
        2,
        3,
        evolution_policy=IncreasingVersionPolicy(),
        remove_policy=RemovePolicy.timeout(2.0),
        journal=journal,
        host_name=MANAGER_HOST,
        propagation_retry_policy=FAST_RETRY,
    )
    loids = [
        runtime.sim.run_process(
            manager.create_instance(host_name=f"host{(index % 4) + 1:02d}")
        )
        for index in range(INSTANCES)
    ]
    return runtime, manager, journal, loids


def slo_schedule(seed):
    """A degraded build plus, by seed, crashes, partitions, drops and
    manager faults; the detector and client hosts are protected."""
    return ChaosSchedule.generate(
        seed,
        HOSTS,
        duration_s=90.0,
        counts={
            "crashes": 1 if seed % 4 == 2 else 0,
            "partitions": 1 if seed % 5 == 3 else 0,
            "drops": 1 if seed % 4 == 0 else 0,
            "manager_partitions": 1 if seed % 3 == 0 else 0,
            "failovers": seed % 2,
            "degradations": 1,
        },
        protect=(DETECTOR_HOST, CLIENT_HOST),
        manager_hosts=(MANAGER_HOST,) + STANDBY_HOSTS,
    )


def run_slo(seed, schedule):
    """Roll the schedule's degraded build out through a gated canary
    under ``schedule`` and check; returns the supervisor's promotions."""
    runtime, manager, journal, loids = build_fleet(sim_seed=2300 + seed)
    v1 = manager.current_version
    sim = runtime.sim

    supervisor = Supervisor(
        runtime,
        "Svc",
        standby_hosts=STANDBY_HOSTS,
        detector_host_name=DETECTOR_HOST,
        retry_policy=FAST_RETRY,
    ).start()
    coordinator = ChaosCoordinator(runtime, journals={})
    degradations = schedule.faults_of("degradations")
    assert degradations, "every seed must roll a degraded build"
    v2 = build_degraded_version(manager, **degradations[0].params)
    schedule.install(runtime, coordinator)

    slo = SLO(
        name="svc",
        latency_targets={0.99: 0.050},
        max_error_rate=0.02,
        min_samples=30,
    )
    monitor = runtime.network.slo_monitor("svc", slo=slo, window_s=6.0)
    load = OpenLoopLoad(
        runtime.make_client(host_name=CLIENT_HOST),
        loids,
        PoissonArrivals(30.0),
        runtime.rng.stream("traffic"),
        monitor=monitor,
        duration_s=600.0,
    )
    load.start()

    result = {}

    def runner():
        yield sim.timeout(3.0)
        result["outcome"] = yield from run_canary_wave(
            runtime,
            "Svc",
            v2,
            RAMP,
            monitor=monitor,
            retry_policy=FAST_RETRY,
            deadline_s=400.0,
        )
        # The rollout is decided; let chaos heal and recovery settle.
        heal = schedule.heal_time + 1.0
        if sim.now < heal:
            yield sim.timeout(heal - sim.now)
        assert_instance_invariants(runtime, "Svc", f"seed {seed} at heal")
        deadline = sim.now + 200.0
        while sim.now < deadline:
            current = supervisor.manager
            if (
                current.is_active
                and not current.deposed
                and all(
                    current.record(loid).active
                    and current.instance_version(loid) == v1
                    for loid in loids
                )
            ):
                break
            yield sim.timeout(5.0)
        load.stop()
        supervisor.stop()

    sim.run_process(runner())
    sim.run()

    outcome = result["outcome"]
    assert_invariants(runtime, "Svc", f"seed {seed} converged ({schedule!r})")
    current = supervisor.manager

    # The gate caught the regression and the abort completed — possibly
    # on a promoted standby — leaving the fleet on the prior version.
    assert outcome.breached and not outcome.completed, (
        f"seed {seed}: degraded build survived the gate ({outcome})"
    )
    assert not outcome.stalled, f"seed {seed}: runner stalled ({outcome})"
    tracker = current.propagation(v2)
    assert tracker is not None and tracker.aborted, (
        f"seed {seed}: breach-abort never completed "
        f"({tracker and tracker.summary()})"
    )
    assert current.current_version == v1

    # Blast radius: the unvetted version never spread past the stages
    # the gate explicitly admitted.
    assert len(tracker.admitted) <= MAX_BLAST, (
        f"seed {seed}: blast radius {len(tracker.admitted)}/{INSTANCES}"
    )

    for loid in loids:
        record = current.record(loid)
        assert record.active, f"seed {seed}: {loid} never recovered"
        assert current.instance_version(loid) == v1, (
            f"seed {seed}: {loid} left at "
            f"{current.instance_version(loid)} after rollback"
        )
        obj = record.obj
        assert obj.version == v1, f"seed {seed}: {loid} serving {obj.version}"
    assert len(monitor.breach_log) >= 1, f"seed {seed}: gate never fired"
    return supervisor.promotions


@pytest.mark.parametrize("seed", chaos_seeds(20))
def test_chaos_slo_gated_canary(seed):
    """Seeded degraded rollout + seeded chaos: the gate must catch the
    regression, bound the blast radius, and finish the rollback no
    matter which manager ends up holding the journal."""
    PROMOTIONS[seed] = run_slo(seed, slo_schedule(seed))


def test_failover_observed_somewhere_in_sweep():
    """The sweep must actually exercise the failover-during-rollout
    path: at least one seed's supervisor promoted a standby."""
    assert PROMOTIONS, "sweep did not run before the aggregate check"
    assert any(count > 0 for count in PROMOTIONS.values()), (
        f"no seed promoted a standby mid-rollout: {PROMOTIONS}"
    )
