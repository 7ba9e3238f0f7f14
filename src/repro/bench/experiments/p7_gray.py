"""P7 — gray-failure tolerance: hedging + health-scored quarantine.

The paper's failure model is fail-stop: a host is up or it is crashed,
and every recovery mechanism in §4 keys off that binary.  PR 8 adds
the *gray* middle — hosts that limp instead of dying — and this
experiment measures what the hardening buys when the limper sits in
the worst possible place: the lexicographically-first instance host,
which roster order makes the **root** of the announcement tree that
every evolution wave routes through.

- **Healthy baseline** — a 185-instance fleet over 24 instance hosts
  runs one v1->v2 announcement wave through the relay tree;
  per-instance latency is ``acked_at - wave_start`` from the
  propagation tracker.
- **Unhardened under gray** — the root relay's host limps (CPU and
  NIC) behind a slow, jittery link.  The announcement crosses it
  twice, so the whole wave inherits the gray host's latency: p99 blows
  up by >= 5x even though not a single host is down.
- **Hardened under gray** — peer health is armed, the manager's
  invoker hedges idempotent calls with adaptive timeouts, and a
  failure detector probes the limping relay; its timed-out probes
  score the host down until it is quarantined.  The announcement then
  spans only the healthy hosts (``relay.quarantine_skips``), the
  limper's single instance falls back to direct delivery, and fleet
  p99 lands within 2x of healthy.
- **Phi vs fixed detection** — a separate supervised fleet's manager
  sits behind a gray link (slow, not dead).  The fixed-threshold
  detector misses probes and the supervisor flap-fails-over a
  perfectly live authority; the phi-accrual detector adapts its
  expectation to the observed arrival distribution and keeps it in
  office: false-positive failovers must be zero.
"""

from repro.bench.harness import ExperimentResult, millis
from repro.cluster import Supervisor, build_lan, deploy_relays
from repro.cluster.failure_detector import HeartbeatFailureDetector
from repro.core import ComponentBuilder, ManagerJournal
from repro.legion import LegionRuntime
from repro.net.faults import SlowLink
from repro.workloads import make_noop_manager

MANAGER_HOST = "host00"
#: Sorts first among the instance hosts, so unless it is quarantined it
#: roots the announcement tree.
LIMPING_HOST = "host01"
INSTANCE_HOSTS = 24
INSTANCES_PER_HOST = 8
TREE_FANOUT = 4
WINDOW = 8
UPGRADE_BYTES = 64_000
#: Gray severity: CPU/NIC multiplier plus a slow, jittery link.
LIMP_FACTOR = 6.0
GRAY_EXTRA_S = 0.5
GRAY_JITTER_S = 0.05
#: The hardened run's relay probe: times out against the gray link.
PROBE_INTERVAL_S = 0.5
PROBE_TIMEOUT_S = 0.3
WARMUP_S = 6.0
#: Acceptance ratios (mirrored by ``check_regression.py --gray``).
UNHARDENED_FLOOR = 5.0
HARDENED_CEILING = 2.0


def _noop_body(ctx):
    return None


def _percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _build_fleet(seed, type_name):
    """Manager + 185 v1 instances; the limping host holds exactly one.

    One instance on the gray host keeps its direct-delivery latency a
    sub-1% tail (excluded from p99 by construction), so the hardened
    run's p99 measures the *fleet's* exposure to the limper — the tree
    routing — not the limper's own unavoidable slowness.
    """
    runtime = LegionRuntime(build_lan(1 + INSTANCE_HOSTS, seed=seed))
    manager, components = make_noop_manager(
        runtime,
        type_name,
        component_count=2,
        functions_per_component=2,
        host_name=MANAGER_HOST,
    )
    # Pre-seed the v1 blobs so build-out is cheap and the wave measures
    # the upgrade traffic alone (as in P3).
    for host in runtime.hosts.values():
        for component in components:
            variant = component.variant_for_host(host)
            host.cache.insert(variant.blob_id, variant.size_bytes)
    loids = []
    for name in sorted(runtime.hosts):
        if name == MANAGER_HOST:
            continue
        count = 1 if name == LIMPING_HOST else INSTANCES_PER_HOST
        for __ in range(count):
            loids.append(
                runtime.sim.run_process(manager.create_instance(host_name=name))
            )
    builder = ComponentBuilder("upgrade")
    builder.function("upgrade_fn", _noop_body)
    builder.variant(size_bytes=UPGRADE_BYTES)
    upgrade = builder.build()
    manager.register_component(upgrade)
    v2 = manager.derive_version(manager.current_version)
    manager.incorporate_into(v2, "upgrade")
    manager.descriptor_of(v2).enable("upgrade_fn", "upgrade")
    manager.mark_instantiable(v2)
    manager.set_current_version(v2)
    return runtime, manager, loids, v2


def _run_wave(seed, mode):
    """One tree announce v1->v2 wave; returns per-instance latency stats.

    ``mode`` is ``"healthy"`` (no faults), ``"unhardened"`` (gray
    limper, no hardening), or ``"hardened"`` (gray limper + health,
    adaptive timeouts, hedging, and a probing detector).
    """
    runtime, manager, loids, v2 = _build_fleet(seed, f"P7{mode.capitalize()}")
    directory = deploy_relays(runtime)
    manager.use_relays(directory, fanout_k=TREE_FANOUT)
    if mode != "healthy":
        runtime.host(LIMPING_HOST).set_limp(LIMP_FACTOR, slow_nic=True)
        others = sorted(
            f"{name}/" for name in runtime.hosts if name != LIMPING_HOST
        )
        runtime.network.faults.add_delay_rule(
            SlowLink(
                [f"{LIMPING_HOST}/"],
                others,
                extra_s=GRAY_EXTRA_S,
                jitter_s=GRAY_JITTER_S,
                seed=seed + 17,
                label="gray-limper-link",
            )
        )
    detector = None
    if mode == "hardened":
        runtime.network.enable_health()
        manager.invoker.enable_adaptive_timeouts()
        manager.invoker.enable_hedging()
        relay_loid = directory[LIMPING_HOST]
        detector = HeartbeatFailureDetector(
            runtime,
            runtime.host(MANAGER_HOST),
            interval_s=PROBE_INTERVAL_S,
            timeout_s=PROBE_TIMEOUT_S,
            suspicion_threshold=3,
        )
        detector.watch(
            "limping-relay",
            lambda: runtime.binding_agent.current_address(relay_loid),
            lambda key: None,
        )

        def warmup():
            # Probe timeouts against the gray link feed the health
            # registry until the limper crosses the quarantine floor.
            yield runtime.sim.timeout(WARMUP_S)

        runtime.sim.run_process(warmup())
    started = runtime.sim.now
    tracker = runtime.sim.run_process(manager.propagate_version(v2, window=WINDOW))
    elapsed = runtime.sim.now - started
    if detector is not None:
        detector.stop()
    assert tracker.complete and tracker.all_acked, tracker.summary()
    latencies = []
    duplicates = 0
    for loid in loids:
        entry = tracker.delivery(loid)
        latencies.append(entry.acked_at - started)
        applied = manager.record(loid).obj.applications_by_version.get(v2, 0)
        duplicates += max(0, applied - 1)
    health = runtime.network.health_snapshot().get(LIMPING_HOST, {})
    return {
        "instances": len(loids),
        "wave_s": elapsed,
        "p50_s": _percentile(latencies, 0.50),
        "p99_s": _percentile(latencies, 0.99),
        "max_s": max(latencies),
        "duplicate_applications": duplicates,
        "quarantine_skips": runtime.network.count_value("relay.quarantine_skips"),
        "hedges": runtime.network.count_value("transport.hedges"),
        "hedge_wins": runtime.network.count_value("transport.hedge_wins"),
        "limper_quarantined": bool(health.get("quarantined")),
        "limper_score": health.get("score"),
    }


def _run_supervised(seed, detector_mode):
    """A supervised manager behind a gray link; count the failovers."""
    runtime = LegionRuntime(build_lan(6, seed=seed + 31))
    type_name = f"P7Sup{detector_mode.capitalize()}"
    journal = ManagerJournal(name=type_name)
    manager, __ = make_noop_manager(
        runtime,
        type_name,
        component_count=2,
        functions_per_component=2,
        journal=journal,
        host_name=MANAGER_HOST,
    )
    for index in range(2):
        runtime.sim.run_process(
            manager.create_instance(host_name=f"host{index + 1:02d}")
        )
    supervisor = Supervisor(
        runtime,
        type_name,
        standby_hosts=("host02", "host03"),
        detector_host_name="host04",
        detector_mode=detector_mode,
    ).start()
    base = runtime.sim.now
    runtime.network.faults.add_delay_rule(
        SlowLink(
            ["host04/"],
            ["host00/"],
            extra_s=0.3,
            jitter_s=0.03,
            seed=seed + 7,
            start=base + 2.0,
            end=base + 25.0,
            label="gray-manager-link",
        )
    )

    runtime.sim.run(until=base + 45.0)
    runtime.sim.run()
    promotions = supervisor.promotions
    supervisor.stop()
    return {
        "promotions": promotions,
        "suspicions": runtime.network.count_value("detector.suspicions"),
        "false_positives": runtime.network.count_value(
            "detector.false_positives"
        ),
        "authority_term": supervisor.manager.term,
        "authority_host": supervisor.manager.host.name,
    }


def run_p7(seed=0):
    """Run P7; returns an :class:`ExperimentResult`."""
    result = ExperimentResult(
        experiment_id="P7",
        title="Gray-failure tolerance: hedging + health-scored quarantine",
    )
    healthy = _run_wave(seed, "healthy")
    unhardened = _run_wave(seed, "unhardened")
    hardened = _run_wave(seed, "hardened")
    unhardened_ratio = unhardened["p99_s"] / healthy["p99_s"]
    hardened_ratio = hardened["p99_s"] / healthy["p99_s"]
    result.add(
        "healthy wave p99",
        "tree-routed wave, no faults",
        millis(healthy["p99_s"]),
        "ms",
        ok=True,
    )
    result.add(
        "unhardened wave p99, limping root relay",
        f">= {UNHARDENED_FLOOR:.0f}x healthy (gray damage is real)",
        millis(unhardened["p99_s"]),
        "ms",
        ok=unhardened_ratio >= UNHARDENED_FLOOR,
    )
    result.add(
        "hardened wave p99, limping root relay",
        f"<= {HARDENED_CEILING:.0f}x healthy (routed around)",
        millis(hardened["p99_s"]),
        "ms",
        ok=hardened_ratio <= HARDENED_CEILING,
    )
    result.add(
        "limping relay quarantined and skipped",
        "quarantine_skips >= 1",
        f"{hardened['quarantine_skips']}",
        "skip",
        ok=hardened["limper_quarantined"]
        and hardened["quarantine_skips"] >= 1,
    )
    duplicates = (
        healthy["duplicate_applications"]
        + unhardened["duplicate_applications"]
        + hardened["duplicate_applications"]
    )
    result.add(
        "duplicate applications across all waves",
        "0 (exactly-once under gray faults)",
        f"{duplicates}",
        "",
        ok=duplicates == 0,
    )
    fixed = _run_supervised(seed, "threshold")
    phi = _run_supervised(seed, "phi")
    result.add(
        "fixed-threshold detector: failovers of a live manager",
        ">= 1 (slow mistaken for dead)",
        f"{fixed['promotions']}",
        "failover",
        ok=fixed["promotions"] >= 1,
    )
    result.add(
        "phi-accrual detector: failovers of a live manager",
        "0 (slow is not dead)",
        f"{phi['promotions']}",
        "failover",
        ok=phi["promotions"] == 0 and phi["false_positives"] == 0,
    )
    result.extra = {
        "limp_factor": LIMP_FACTOR,
        "gray_extra_s": GRAY_EXTRA_S,
        "unhardened_floor": UNHARDENED_FLOOR,
        "hardened_ceiling": HARDENED_CEILING,
        "healthy": healthy,
        "unhardened": unhardened,
        "hardened": hardened,
        "unhardened_ratio": unhardened_ratio,
        "hardened_ratio": hardened_ratio,
        "fixed_detector": fixed,
        "phi_detector": phi,
    }
    return result
