"""P3 — scale-out evolution: relay fan-out and per-host blob caching.

The scale question §4's 16-host testbed could not ask: what happens to
an evolution wave at 64, 256, 1024 instances?  Two mechanisms keep the
cost curves host-shaped instead of instance-shaped:

- **Per-host relays** — the manager announces the wave to every
  host's relay (*flat announce*: one ``announceFleet`` RPC per host, or
  *tree announce*: one RPC whose roster range fans out as a k-ary
  tree) instead of sending one management RPC per instance, so
  manager-side wave cost is O(hosts) or less and the per-instance
  applies run with per-host parallelism.
- **Content-addressed blob caching** — an upgrade component's bytes
  cross the network once per host: the first colocated incorporation
  fills the host's cache (concurrent ones coalesce onto a single
  fill), the rest hit.  ICO bytes served scale with host count, not
  instance count, and the per-host hit rate is (iph-1)/iph for iph
  instances per host.

Workload: fleets of 64/256/1024 instances spread over the 16-host
Centurion testbed, all evolving v1 -> v2 where v2 adds one 64 KB
component that no host has cached.  v1 blobs are pre-seeded so the
wave measures exactly the upgrade's fan-out + fetch traffic.
"""

from repro.bench.harness import ExperimentResult, millis
from repro.cluster import build_centurion, deploy_relays
from repro.core import ComponentBuilder
from repro.legion import LegionRuntime
from repro.workloads import make_noop_manager

SCALES = (64, 256, 1024)
WINDOW = 8
TREE_FANOUT = 4
UPGRADE_BYTES = 64_000


def _noop_body(ctx):
    return None


def _build_fleet(seed, scale, type_name):
    """A manager with ``scale`` v1 instances and an uncached v2 upgrade."""
    runtime = LegionRuntime(build_centurion(seed=seed))
    manager, components = make_noop_manager(
        runtime, type_name, component_count=2, functions_per_component=2
    )
    host_names = sorted(runtime.hosts)
    # Pre-seed the v1 blobs so fleet build-out is cheap and the wave's
    # cache traffic is the upgrade component alone.
    for host in runtime.hosts.values():
        for component in components:
            variant = component.variant_for_host(host)
            host.cache.insert(variant.blob_id, variant.size_bytes)
    for index in range(scale):
        runtime.sim.run_process(
            manager.create_instance(host_name=host_names[index % len(host_names)])
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
    return runtime, manager, v2


def _run_wave(seed, scale, mode):
    """Drive one v1->v2 wave; returns the measured numbers.

    ``mode`` is ``"direct"`` (direct windowed delivery), ``"announce"``
    (flat announce: one announcement per host), or ``"tree"`` (tree
    announce: one announcement fanning out as a k-ary relay tree).
    """
    runtime, manager, v2 = _build_fleet(seed, scale, f"P3Fleet{scale}{mode}")
    hosts = len(runtime.hosts)
    if mode != "direct":
        manager.use_relays(
            deploy_relays(runtime),
            fanout_k=TREE_FANOUT if mode == "tree" else 0,
        )
    metrics_before = runtime.network.metrics.snapshot(prefix="cache")
    bytes_before = runtime.network.count_value("ico.bytes_served")
    manager.invoker.stats.reset()
    started = runtime.sim.now
    tracker = runtime.sim.run_process(manager.propagate_version(v2, window=WINDOW))
    elapsed = runtime.sim.now - started
    assert tracker.complete and tracker.all_acked, tracker.summary()
    for loid in manager.instance_loids():
        assert manager.instance_version(loid) == v2
    metrics_after = runtime.network.metrics.snapshot(prefix="cache")
    hits = metrics_after.get("cache.hits", 0) - metrics_before.get("cache.hits", 0)
    misses = (
        metrics_after.get("cache.misses", 0)
        - metrics_before.get("cache.misses", 0)
    )
    return {
        "wave_s": elapsed,
        "hosts": hosts,
        "manager_rpcs": manager.invoker.stats.invocations,
        "ico_bytes": runtime.network.count_value("ico.bytes_served") - bytes_before,
        "cache_hits": hits,
        "cache_misses": misses,
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "relay_batches": runtime.network.count_value("relay.batches"),
    }


def run_p3(seed=0):
    """Run P3; returns an :class:`ExperimentResult`."""
    result = ExperimentResult(
        experiment_id="P3",
        title="Scale-out waves: relay fan-out + content-addressed caching",
    )
    scales = {}
    for scale in SCALES:
        direct = _run_wave(seed, scale, "direct")
        announce = _run_wave(seed, scale, "announce")
        hosts = announce["hosts"]
        iph = scale // hosts
        expected_hit_rate = (iph - 1) / iph
        scales[scale] = {
            "direct": direct,
            "announce": announce,
            "instances_per_host": iph,
        }
        result.add(
            f"{scale} instances: direct wave",
            "grows with instances",
            millis(direct["wave_s"]),
            "ms",
        )
        result.add(
            f"{scale} instances: flat announce wave",
            "< direct" if scale >= 256 else "comparable",
            millis(announce["wave_s"]),
            "ms",
            ok=announce["wave_s"] < direct["wave_s"] if scale >= 256 else True,
        )
        result.add(
            f"{scale} instances: manager RPCs, flat announce wave",
            f"{hosts} (one per host)",
            f"{announce['manager_rpcs']}",
            "rpc",
            ok=announce["manager_rpcs"] == hosts
            and announce["relay_batches"] == hosts,
        )
        result.add(
            f"{scale} instances: upgrade bytes served by ICO",
            f"{hosts * UPGRADE_BYTES} (hosts x blob, not instances x blob)",
            f"{announce['ico_bytes']}",
            "B",
            ok=announce["ico_bytes"] == hosts * UPGRADE_BYTES,
        )
        result.add(
            f"{scale} instances: blob cache hit rate",
            f">= {expected_hit_rate:.3f} ((iph-1)/iph)",
            f"{announce['hit_rate']:.3f}",
            "",
            ok=announce["hit_rate"] >= expected_hit_rate - 1e-9,
        )
    top = max(SCALES)
    tree = _run_wave(seed, top, "tree")
    scales[top]["tree"] = tree
    result.add(
        f"{top} instances: tree announce wave (k={TREE_FANOUT})",
        "< direct, 1 manager RPC",
        millis(tree["wave_s"]),
        "ms",
        ok=tree["wave_s"] < scales[top]["direct"]["wave_s"]
        and tree["manager_rpcs"] == 1,
    )
    speedup = scales[top]["direct"]["wave_s"] / scales[top]["announce"]["wave_s"]
    result.add(
        f"{top}-instance speedup, flat announce vs direct",
        "> 1x, growing with scale",
        f"{speedup:.1f}",
        "x",
        ok=speedup > 1.0,
    )
    result.extra = {
        "window": WINDOW,
        "tree_fanout": TREE_FANOUT,
        "upgrade_bytes": UPGRADE_BYTES,
        "scales": {str(scale): data for scale, data in scales.items()},
    }
    return result
