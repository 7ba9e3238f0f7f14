"""Chaos tests for supervised manager failover: no operator in the loop.

Seeded schedules crash and partition the *manager* — the authority
itself — while a fleet evolves.  Unlike the PR 3 chaos suite, no test
code ever calls :func:`~repro.cluster.chaos.drive_to_convergence` or
:func:`~repro.core.recovery.recover_manager`: a
:class:`~repro.cluster.supervisor.Supervisor` must detect the failure
via heartbeats, promote the hot standby with a bumped fencing term,
and converge the fleet entirely on its own.

Acceptance invariants, every seed:

- the fleet ends fully on v2;
- the shared checker holds at heal and at the end (never-half-applied,
  exactly-once, term fencing, single ownership, replay);
- the supervisor promoted at least once with no help;
- across the sweep, at least one seed observes the fencing mechanism
  in action (``manager.stale_term_rejections`` > 0), and the relay
  seeds' announcement rounds commit instances.

``CHAOS_EXTRA_SEEDS`` (env) widens the seed sweep in CI.
"""

import pytest

from repro.cluster import Supervisor, build_lan, deploy_relays
from repro.cluster.chaos import ChaosCoordinator, ChaosSchedule
from repro.core import ManagerJournal
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
    chaos_seeds,
)

#: The host serving the component every v1→v2 evolution must fetch.
ICO_HOST = "host05"
MANAGER_HOST = "host00"
STANDBY_HOSTS = ("host02", "host03")
DETECTOR_HOST = "host04"
HOSTS = lan_host_names(6)

#: Stale-term rejections observed per seed, checked in aggregate by
#: :func:`test_stale_term_rejections_observed` after the sweep.
STALE_REJECTIONS = {}
#: Instances committed by announcement rounds per seed, checked in
#: aggregate after the sweep.
ANNOUNCED = {}


def build_fleet(sim_seed=7, hosts=6, instances=4, **manager_kwargs):
    """Runtime + journaled, supervised sorter fleet.

    Primary on host00, standbys preferred on host02/host03, failure
    detector on host04 (never crashed by schedules here), evolution
    ICO on host05.  Instances land on host01..host04.
    """
    runtime = LegionRuntime(build_lan(hosts, seed=sim_seed))
    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(
        runtime,
        component_hosts={
            "sorter": MANAGER_HOST,
            "compare-asc": MANAGER_HOST,
            "compare-desc": ICO_HOST,
        },
        journal=journal,
        propagation_retry_policy=FAST_RETRY,
        **manager_kwargs,
    )
    loids = []
    for index in range(instances):
        loid, __ = create_dcdo(runtime, manager, host_name=f"host{index + 1:02d}")
        loids.append(loid)
    return runtime, manager, journal, loids


def failover_schedule(seed):
    """Crash (and on some seeds partition) the manager hosts in turn."""
    return ChaosSchedule.generate(
        seed,
        HOSTS,
        duration_s=120.0,
        counts={
            "drops": 1 if seed % 4 == 0 else 0,
            "manager_partitions": 1 if seed % 3 == 0 else 0,
            "failovers": 1 + seed % 2,
        },
        protect=(DETECTOR_HOST, ICO_HOST),
        manager_hosts=(MANAGER_HOST,) + STANDBY_HOSTS,
    )


def wave_offset(schedule):
    """Fire the wave just before the first manager fault lands, so the
    crash/partition catches deliveries in flight (acks pending) but the
    standby already holds the wave's journal prefix."""
    first = schedule.first_outage
    return 0.5 if first is None else max(0.1, first - 0.03)


def run_failover(seed, schedule):
    """Evolve a supervised fleet under ``schedule``, wait for the
    supervisor to converge it, and check; returns the stale-term
    rejections and announced instances."""
    use_relays = seed % 5 == 0
    runtime, manager, journal, loids = build_fleet(
        sim_seed=1100 + seed,
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
    )
    relays = deploy_relays(runtime) if use_relays else None
    if use_relays:
        manager.use_relays(relays, fanout_k=2)
    supervisor = Supervisor(
        runtime,
        "Sorter",
        standby_hosts=STANDBY_HOSTS,
        detector_host_name=DETECTOR_HOST,
        relays=relays,
        relay_fanout_k=2 if use_relays else 0,
        retry_policy=FAST_RETRY,
    ).start()
    # The coordinator auto-recovers relays/ICOs/instances when hosts
    # restart, but with no journals it NEVER recovers the manager:
    # only the supervisor can bring the authority back.
    coordinator = ChaosCoordinator(runtime, journals={}, relays=relays)
    schedule.install(runtime, coordinator)
    wave_at = schedule.installed_at + wave_offset(schedule)
    v2 = derive_v2(manager)

    def scenario():
        if runtime.sim.now < wave_at:
            yield runtime.sim.timeout(wave_at - runtime.sim.now)
        manager.set_current_version_async(v2)
        heal = schedule.heal_time + 1.0
        if runtime.sim.now < heal:
            yield runtime.sim.timeout(heal - runtime.sim.now)
        # The supervisor may be mid-convergence at the heal instant;
        # the instance checks skip what is not settled yet.
        assert_instance_invariants(runtime, "Sorter", f"seed {seed} at heal")
        # No operator call: just wait for the supervisor to converge.
        deadline = runtime.sim.now + 420.0
        while runtime.sim.now < deadline:
            current = supervisor.manager
            if current.is_active and not current.deposed and all(
                current.record(loid).active
                and current.record(loid).obj.version == v2
                for loid in loids
            ):
                break
            yield runtime.sim.timeout(5.0)
        supervisor.stop()

    runtime.sim.run_process(scenario())
    runtime.sim.run()

    manager_now = supervisor.manager
    assert supervisor.promotions >= 1, (
        f"seed {seed}: supervisor never promoted ({schedule!r})"
    )
    assert_invariants(runtime, "Sorter", f"seed {seed} converged")
    assert manager_now.term >= 1 + supervisor.promotions
    for loid in loids:
        record = manager_now.record(loid)
        assert record.active, f"seed {seed}: {loid} never recovered"
        assert manager_now.instance_version(loid) == v2, (
            f"seed {seed}: manager thinks {loid} is at "
            f"{manager_now.instance_version(loid)}"
        )
        obj = record.obj
        assert obj.version == v2, f"seed {seed}: {loid} stuck at {obj.version}"
    return (
        runtime.network.count_value("manager.stale_term_rejections"),
        runtime.network.count_value("relay.announced_instances"),
    )


@pytest.mark.parametrize("seed", chaos_seeds(20))
def test_chaos_supervised_failover(seed):
    """Crash or partition the manager mid-wave across seeded schedules:
    the supervisor alone converges the fleet, exactly-once, with a
    properly fenced succession of terms."""
    STALE_REJECTIONS[seed], ANNOUNCED[seed] = run_failover(
        seed, failover_schedule(seed)
    )


def test_stale_term_rejections_observed():
    """Across the sweep, fencing must actually fire somewhere: at least
    one seed's partitioned zombie had a stale-term RPC rejected."""
    assert STALE_REJECTIONS, "sweep did not run before the aggregate check"
    assert any(count > 0 for count in STALE_REJECTIONS.values()), (
        f"no seed observed a stale-term rejection: {STALE_REJECTIONS}"
    )


def test_announcements_committed_instances_across_sweep():
    """Across the sweep, the relay seeds' announcement rounds must
    actually have committed instances through failovers — otherwise
    the invariants above only proved something about direct delivery."""
    assert ANNOUNCED, "sweep did not run before the aggregate check"
    assert sum(ANNOUNCED.values()) > 0, f"no announced commits: {ANNOUNCED}"
