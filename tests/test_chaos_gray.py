"""Gray-chaos sweep: transactional invariants under limping faults.

Seeded schedules mix the PR 8 gray fault kinds — one-way partitions,
link flaps, slow links, fabric-level duplication, bounded reordering,
limping hosts — with the legacy crash/partition/failover kinds, while
a supervised fleet evolves.  Slow is not dead, lost replies are not
lost requests, and duplicated wire messages are not duplicated
invocations; the invariants that held under fail-stop chaos must hold
unchanged when every fault is partial:

- the shared checker at heal and at convergence: never-half-applied,
  exactly-once application per instance (fabric duplication and
  hedged backups included), term fencing (no instance ever observes a
  term above the live authority's), single ownership, replay;
- a promoted succession of terms.

The supervisor runs its detector in phi-accrual mode and no test code
ever recovers the manager by hand.  ``CHAOS_EXTRA_SEEDS`` (env) widens
the sweep in CI.  Unit coverage for the fault kinds themselves lives
in ``tests/test_gray_faults.py``.
"""

import pytest

from repro.cluster import Supervisor, deploy_relays
from repro.cluster.chaos import ChaosCoordinator, ChaosSchedule
from repro.core.policies import ReliableUpdatePolicy

from tests.conftest import FAST_RETRY, derive_v2
from tests.invariants import (
    assert_instance_invariants,
    assert_invariants,
    chaos_seeds,
)
from tests.test_chaos_failover import (
    DETECTOR_HOST,
    HOSTS,
    ICO_HOST,
    MANAGER_HOST,
    STANDBY_HOSTS,
    build_fleet,
    wave_offset,
)

#: Fabric-duplicated requests absorbed per seed, checked in aggregate
#: after the sweep: the dedupe table must actually be exercised.
DUPLICATES_ABSORBED = {}
#: Instances committed by announcement rounds per seed, checked in
#: aggregate after the sweep.
ANNOUNCED = {}


def gray_schedule(seed):
    """Every gray kind plus one manager crash (and on some seeds a
    manager partition, a one-way partition or a flap)."""
    return ChaosSchedule.generate(
        seed,
        HOSTS,
        duration_s=120.0,
        counts={
            "manager_partitions": 1 if seed % 3 == 0 else 0,
            "failovers": 1,
            "one_way": 1 if seed % 2 == 0 else 0,
            "flaps": 1 if seed % 4 == 1 else 0,
            "slow_links": 1,
            "duplicates": 1,
            "reorders": 1,
            "limps": 1,
        },
        protect=(DETECTOR_HOST, ICO_HOST),
        manager_hosts=(MANAGER_HOST,) + STANDBY_HOSTS,
    )


def run_gray(seed, schedule):
    """Evolve a phi-supervised fleet under ``schedule`` and check;
    returns the duplicates absorbed and instances announced."""
    use_relays = seed % 5 == 0
    runtime, manager, journal, loids = build_fleet(
        sim_seed=1900 + seed,
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
    )
    # Gray hardening under test: per-peer health everywhere, and on
    # even seeds the manager's invoker runs adaptive timeouts + hedged
    # idempotent calls on top.
    runtime.network.enable_health()
    if seed % 2 == 0:
        manager.invoker.enable_adaptive_timeouts()
        manager.invoker.enable_hedging()
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
        detector_mode="phi",
        retry_policy=FAST_RETRY,
    ).start()
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
        # Mid-run observation at heal: settled instances only; the
        # converged check below is strict.
        assert_instance_invariants(runtime, "Sorter", f"seed {seed} at heal")
        deadline = runtime.sim.now + 420.0
        while runtime.sim.now < deadline:
            current = supervisor.manager
            if current.is_active and not current.deposed:
                if current.current_version != v2:
                    # The crash beat the sync journal ship: the promoted
                    # authority recovered with no record of the wave, so
                    # the designation was a never-acknowledged client
                    # request.  The client retries it against the new
                    # authority; instance-side idempotence keyed by the
                    # version id keeps the effect exactly-once even for
                    # instances the dead primary already reached.
                    current.set_current_version_async(v2)
                elif all(
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
        f"seed {seed}: phi supervisor never promoted for a real crash "
        f"({schedule!r})"
    )
    # Exactly-once under duplication, hedging, and retries alike; term
    # fencing: nobody ever observed a term from the future.
    assert_invariants(runtime, "Sorter", f"seed {seed} converged")
    # An unbroken promoted succession of terms.
    assert manager_now.term >= 1 + supervisor.promotions
    for loid in loids:
        record = manager_now.record(loid)
        assert record.active, f"seed {seed}: {loid} never recovered"
        assert manager_now.instance_version(loid) == v2
        obj = record.obj
        assert obj.version == v2, f"seed {seed}: {loid} stuck at {obj.version}"
    return (
        runtime.network.count_value("transport.duplicate_requests"),
        runtime.network.count_value("relay.announced_instances"),
    )


@pytest.mark.parametrize("seed", chaos_seeds(20))
def test_chaos_gray_invariants_hold(seed):
    """Gray faults plus a real manager failover, across seeded
    schedules: the phi-supervised fleet converges on its own with the
    full invariant set intact."""
    DUPLICATES_ABSORBED[seed], ANNOUNCED[seed] = run_gray(seed, gray_schedule(seed))


def test_fabric_duplication_exercised_dedupe_across_sweep():
    """Across the sweep, fabric-minted duplicates must actually have
    hit the transport's at-most-once table — otherwise the exactly-once
    assertions above proved nothing about duplication."""
    assert DUPLICATES_ABSORBED, "sweep did not run before the aggregate check"
    assert any(count > 0 for count in DUPLICATES_ABSORBED.values()), (
        f"no seed absorbed a fabric duplicate: {DUPLICATES_ABSORBED}"
    )


def test_announcements_committed_instances_across_sweep():
    """Across the sweep, the relay seeds' announcement rounds must
    actually have committed instances under gray faults — otherwise
    the invariants above only proved something about direct delivery."""
    assert ANNOUNCED, "sweep did not run before the aggregate check"
    assert sum(ANNOUNCED.values()) > 0, f"no announced commits: {ANNOUNCED}"
