"""Chaos tests for relay waves: crashes mid-announcement, no half-applies.

Seeded schedules crash relay hosts while a per-host announcement wave
is in flight.  A dying relay takes its colocated instances with
it; the acceptance invariants are PR 3's, unchanged by the relay
layer: no live settled instance is ever half-applied, batch re-sends
never double-apply (idempotence keyed by target version), abortive
waves roll committed instances all the way back, and the fleet still
converges once faults heal — with relays restored and back in use.
Every seed runs the shared checker at heal and at the end.

``CHAOS_EXTRA_SEEDS`` (env) widens the seed sweeps.
"""

import pytest

from repro.cluster import build_lan, deploy_relays
from repro.cluster.chaos import (
    ChaosCoordinator,
    ChaosSchedule,
    drive_to_convergence,
)
from repro.core import ManagerJournal, WaveAborted, WavePolicy
from repro.legion import LegionRuntime
from repro.net import RetryPolicy

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

ONE_SHOT = RetryPolicy(base_s=1.0, max_attempts=1)
HOSTS = lan_host_names(6)

#: Instances committed by announcement rounds, per (sweep, seed);
#: checked in aggregate after both sweeps.
ANNOUNCED = {}

ICO_HOST = "host05"
INSTANCE_HOSTS = ("host01", "host02", "host03", "host04")


def build_relay_fleet(sim_seed, instances_per_host=2, **manager_kwargs):
    """Journaled sorter fleet with relays on every host.

    Manager and v1 components on host00, the evolution-critical
    ``compare-desc`` ICO on host05, instances spread over
    host01..host04 — so relay-host crashes hit batches, not the
    manager or the component server.
    """
    runtime = LegionRuntime(build_lan(6, seed=sim_seed))
    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(
        runtime,
        component_hosts={
            "sorter": "host00",
            "compare-asc": "host00",
            "compare-desc": ICO_HOST,
        },
        journal=journal,
        propagation_retry_policy=FAST_RETRY,
        **manager_kwargs,
    )
    loids = []
    for host_name in INSTANCE_HOSTS:
        for __ in range(instances_per_host):
            loid, __obj = create_dcdo(runtime, manager, host_name=host_name)
            loids.append(loid)
    directory = deploy_relays(runtime)
    manager.use_relays(directory)
    return runtime, manager, journal, loids, directory


def relay_schedule(seed, drops):
    """Crash two relay hosts early; the manager and ICO are protected."""
    return ChaosSchedule.generate(
        seed,
        HOSTS,
        duration_s=120.0,
        counts={"crashes": 0, "partitions": 0, "drops": drops, "relay_crashes": 2},
        protect=("host00", ICO_HOST),
        relay_hosts=INSTANCE_HOSTS,
    )


def run_relay_crash(seed, schedule):
    """Run a relay wave under ``schedule``, heal, converge, and check."""
    runtime, manager, journal, loids, directory = build_relay_fleet(
        sim_seed=1100 + seed
    )
    coordinator = ChaosCoordinator(
        runtime, journals={"Sorter": journal}, relays=directory
    )
    schedule.install(runtime, coordinator)
    assert schedule.faults_of("relay_crashes"), "schedule must crash relay hosts"
    v2 = derive_v2(manager)
    manager.set_current_version(v2)

    def scenario():
        yield runtime.sim.timeout(0.5)
        # Kick the batched wave off while the relay crashes are armed.
        yield from manager.propagate_version(v2, retry_policy=FAST_RETRY)
        assert_instance_invariants(runtime, "Sorter", f"seed {seed} post-wave")
        heal = schedule.heal_time + 1.0
        if runtime.sim.now < heal:
            yield runtime.sim.timeout(heal - runtime.sim.now)
        assert_instance_invariants(runtime, "Sorter", f"seed {seed} at heal")
        tracker = yield from drive_to_convergence(
            runtime,
            "Sorter",
            journal=journal,
            retry_policy=FAST_RETRY,
            relays=directory,
        )
        return tracker

    tracker = runtime.sim.run_process(scenario())
    runtime.sim.run()

    assert tracker is not None and tracker.all_acked, (
        f"seed {seed}: fleet did not converge: {tracker and tracker.summary()}"
    )
    # At-least-once batches, exactly-once application.
    assert_invariants(runtime, "Sorter", f"seed {seed} converged")
    manager_now = runtime.class_of("Sorter")
    for loid in loids:
        assert manager_now.instance_version(loid) == v2
        assert manager_now.record(loid).obj.version == v2
    # Crashed relays came back and the wave kept flowing through them.
    assert runtime.network.count_value("relay.recoveries") >= 1
    assert runtime.network.count_value("relay.batches") >= 1
    return runtime.network.count_value("relay.announced_instances")


@pytest.mark.parametrize("seed", chaos_seeds(8))
def test_chaos_relay_crash_mid_batch_never_half_applied(seed):
    """Crash relay hosts while batches are mid-flight: instances die
    with their relay, nothing is half-applied, batch re-sends never
    double-apply, and the fleet converges through restored relays."""
    ANNOUNCED["crash", seed] = run_relay_crash(seed, relay_schedule(seed, drops=1))


def run_relay_abort(seed, schedule):
    """Run an abortive relay wave under ``schedule``, heal, converge,
    and check."""
    runtime, manager, journal, loids, directory = build_relay_fleet(
        sim_seed=1300 + seed
    )
    coordinator = ChaosCoordinator(
        runtime, journals={"Sorter": journal}, relays=directory
    )
    schedule.install(runtime, coordinator)
    v2 = derive_v2(manager)
    manager.set_current_version(v2)

    def scenario():
        yield runtime.sim.timeout(0.5)
        aborted = False
        try:
            yield from manager.propagate_version(
                v2, retry_policy=ONE_SHOT, wave_policy=WavePolicy.abort_after(0)
            )
        except WaveAborted:
            aborted = True
        # Converging re-drives the aborted wave: v2 may apply twice.
        assert_instance_invariants(
            runtime, "Sorter", f"seed {seed} post-wave", max_applications=2
        )
        heal = schedule.heal_time + 1.0
        if runtime.sim.now < heal:
            yield runtime.sim.timeout(heal - runtime.sim.now)
        assert_instance_invariants(
            runtime, "Sorter", f"seed {seed} at heal", max_applications=2
        )
        tracker = yield from drive_to_convergence(
            runtime,
            "Sorter",
            journal=journal,
            retry_policy=FAST_RETRY,
            relays=directory,
        )
        return aborted, tracker

    aborted, tracker = runtime.sim.run_process(scenario())
    runtime.sim.run()

    if aborted:
        kinds = [entry.kind for entry in journal.replay()]
        assert "wave-aborted" in kinds
        # Every rollback of a relay-committed instance is journaled.
        assert runtime.network.bus.counts().get("wave-aborting", 0) >= 1
    assert tracker is not None and tracker.all_acked, (
        f"seed {seed}: fleet did not converge: {tracker and tracker.summary()}"
    )
    assert_invariants(
        runtime, "Sorter", f"seed {seed} converged", max_applications=2
    )
    manager_now = runtime.class_of("Sorter")
    for loid in loids:
        assert manager_now.record(loid).obj.version == v2
    return runtime.network.count_value("relay.announced_instances")


@pytest.mark.parametrize("seed", chaos_seeds(6))
def test_chaos_abortive_relay_wave_rolls_back(seed):
    """An abort-on-first-failure wave delivered through relays: the
    rollback undoes relay-committed instances exactly as it undoes
    directly-committed ones, and convergence still lands on v2."""
    ANNOUNCED["abort", seed] = run_relay_abort(seed, relay_schedule(seed, drops=0))


def test_announcements_committed_instances_across_sweeps():
    """Across both sweeps, announcement rounds must actually have
    committed instances — otherwise the invariants above only proved
    something about the direct fallback."""
    assert ANNOUNCED, "sweeps did not run before the aggregate check"
    assert sum(ANNOUNCED.values()) > 0, f"no announced commits: {ANNOUNCED}"
