"""P8 — one announce manager: flat waves and a compacted replay bound.

The sharded manager plane this experiment used to measure was built
against the *direct* windowed delivery path, where one manager's egress
port serializes every per-instance RPC.  Announcement waves removed
that bottleneck: re-measured with relays announcing every wave, a
10,240-instance wave took 40.6 ms from one manager and
43.0 / 42.6 / 45.8 ms from 2 / 4 / 8 shards (EXPERIMENTS.md §P8), so
the plane was deleted.  Its remaining claim was recovery scope: a
crashed shard replays only its own journal.  This experiment measures
what one manager gets from journal compaction instead:

1. *Waves* — one journaled manager drives ``WAVES`` full-fleet
   announcement waves.  Gate: the wave latency stays flat.
2. *Compaction* — after each wave the manager writes a checkpoint
   (``write_checkpoint()``): settled waves are dropped and each
   instance is one entry.  Gate: the checkpoint holds
   at most ``fleet + REPLAY_SLACK`` entries after every wave, so replay
   no longer grows with the number of waves.  The uncompacted journal
   size (every append ever made) is reported next to it.
3. *Cold recovery* — the manager dies and is rebuilt from the
   compacted journal on another host.  Gates: the replay stays within
   the bound, the recovered DCDO table is identical, and one more wave
   from the recovered manager converges with no duplicate application.
"""

import time

from repro.bench.experiments.p6_scale import tree_fanout
from repro.bench.harness import ExperimentResult, millis
from repro.cluster import deploy_relays
from repro.cluster.testbed import build_lan
from repro.core import ComponentBuilder, ManagerJournal, recover_manager
from repro.legion import LegionRuntime
from repro.workloads import make_noop_manager

FLEET = 10_240
INSTANCES_PER_HOST = 64
WINDOW = 32
WAVES = 4
UPGRADE_BYTES = 4_096

#: Non-instance checkpoint entries allowed on top of one per instance
#: (term, components, versions, current version).
REPLAY_SLACK = 64
#: Allowed spread of wave latency across the waves, as a fraction.
FLATNESS_TOLERANCE = 0.10


def _noop_body(ctx):
    return None


def _cache_component(runtime, component):
    for host in runtime.hosts.values():
        variant = component.variant_for_host(host)
        host.cache.insert(variant.blob_id, variant.size_bytes)


def _build_fleet(seed, fleet):
    """One journaled manager with ``fleet`` v1 instances at 64 per host.

    Every blob is pre-seeded into every host cache, so waves measure
    update fan-out rather than ICO fetch traffic (as in P6).
    """
    host_count = fleet // INSTANCES_PER_HOST
    runtime = LegionRuntime(build_lan(host_count, seed=seed))
    journal = ManagerJournal(name="P8Fleet")
    manager, components = make_noop_manager(
        runtime,
        "P8Fleet",
        component_count=2,
        functions_per_component=2,
        size_bytes=UPGRADE_BYTES,
        journal=journal,
    )
    for component in components:
        _cache_component(runtime, component)
    host_names = sorted(runtime.hosts)

    def build_driver():
        for index in range(fleet):
            yield from manager.create_instance(
                host_name=host_names[index % host_count]
            )

    runtime.sim.run_process(build_driver())
    return runtime, manager, journal


def _use_announce_relays(runtime, manager, directory):
    manager.use_relays(directory, fanout_k=tree_fanout(len(runtime.hosts)))


def _stage_upgrade(runtime, manager, tag):
    """Register a fresh pre-cached upgrade and make it current."""
    builder = ComponentBuilder(f"upgrade-{tag}")
    builder.function(f"up_{tag}_fn", _noop_body)
    builder.variant(size_bytes=UPGRADE_BYTES)
    upgrade = builder.build()
    manager.register_component(upgrade)
    _cache_component(runtime, upgrade)
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, upgrade.component_id)
    manager.descriptor_of(version).enable(f"up_{tag}_fn", upgrade.component_id)
    manager.mark_instantiable(version)
    manager.set_current_version(version)
    return version


def _drive_wave(runtime, manager, version):
    """One full-fleet wave; returns its simulated and wall seconds."""
    sim = runtime.sim
    started = sim.now
    wall_started = time.perf_counter()
    tracker = sim.run_process(manager.propagate_version(version, window=WINDOW))
    wall_s = time.perf_counter() - wall_started
    assert tracker.complete and tracker.all_acked, tracker.summary()
    return {"wave_s": sim.now - started, "wall_s": wall_s}


def _duplicate_applications(manager):
    """Instances that applied any version more than once."""
    duplicated = 0
    for loid in manager.instance_loids():
        applied = manager.record(loid).obj.applications_by_version
        if any(count > 1 for count in applied.values()):
            duplicated += 1
    return duplicated


def run_p8(seed=0, fleet=FLEET):
    """Run P8; returns an :class:`ExperimentResult`.

    ``fleet`` lets CI smoke runs measure a reduced fleet (e.g. 2,048
    instances); every gate scales with the fleet it is given.
    """
    if fleet % INSTANCES_PER_HOST:
        raise ValueError(f"fleet must be a multiple of {INSTANCES_PER_HOST}")
    result = ExperimentResult(
        experiment_id="P8",
        title="One announce manager: flat waves, compacted recovery replay",
    )

    build_started = time.perf_counter()
    runtime, manager, journal = _build_fleet(seed, fleet)
    build_wall_s = time.perf_counter() - build_started
    result.add(
        f"{fleet} instances: one-time fleet build",
        "reported separately",
        f"{build_wall_s:.1f}",
        "s",
    )
    directory = deploy_relays(runtime)
    _use_announce_relays(runtime, manager, directory)

    replay_bound = fleet + REPLAY_SLACK
    rounds = []
    for index in range(WAVES):
        version = _stage_upgrade(runtime, manager, f"w{index}")
        wave = _drive_wave(runtime, manager, version)
        wave["checkpoint_entries"] = manager.write_checkpoint()
        wave["uncompacted_entries"] = journal.appends
        rounds.append(wave)
        result.add(
            f"wave {index + 1}: full-fleet announce wave, one manager",
            "flat across waves",
            millis(wave["wave_s"]),
            "ms",
        )
    wave_times = [wave["wave_s"] for wave in rounds]
    spread = max(wave_times) / min(wave_times) - 1.0
    result.add(
        "wave latency spread across waves",
        f"<= {FLATNESS_TOLERANCE:.0%}",
        f"{spread:.1%}",
        "",
        ok=spread <= FLATNESS_TOLERANCE,
    )
    worst_checkpoint = max(wave["checkpoint_entries"] for wave in rounds)
    result.add(
        f"uncompacted journal after {WAVES} waves",
        "grows with every wave (informational)",
        f"{rounds[-1]['uncompacted_entries']}",
        "entries",
    )
    result.add(
        "compacted checkpoint, largest after any wave",
        f"<= {replay_bound} (fleet + {REPLAY_SLACK})",
        f"{worst_checkpoint}",
        "entries",
        ok=worst_checkpoint <= replay_bound,
    )

    sim = runtime.sim
    table_before = sorted(
        (str(loid), str(manager.instance_version(loid)))
        for loid in manager.instance_loids()
    )
    current_before = manager.current_version
    replayed = len(journal)
    recovery_host = sorted(runtime.hosts)[1]
    manager.deactivate()
    started = sim.now
    recovered = sim.run_process(
        recover_manager(runtime, journal, host_name=recovery_host)
    )
    recovery_s = sim.now - started
    table_after = sorted(
        (str(loid), str(recovered.instance_version(loid)))
        for loid in recovered.instance_loids()
    )
    intact = table_after == table_before and (
        recovered.current_version == current_before
    )
    result.add(
        "cold recovery: journal entries replayed",
        f"<= {replay_bound} (fleet + {REPLAY_SLACK})",
        f"{replayed}",
        "entries",
        ok=replayed <= replay_bound,
    )
    result.add(
        "cold recovery time",
        "proportional to the live fleet",
        millis(recovery_s),
        "ms",
    )
    _use_announce_relays(runtime, recovered, directory)
    version = _stage_upgrade(runtime, recovered, "after-recovery")
    after = _drive_wave(runtime, recovered, version)
    duplicated = _duplicate_applications(recovered)
    result.add(
        "recovered DCDO table intact / duplicate applies after one more wave",
        "yes / 0",
        f"{'yes' if intact else 'no'} / {duplicated}",
        "",
        ok=intact and duplicated == 0,
    )

    result.extra = {
        "fleet": fleet,
        "instances_per_host": INSTANCES_PER_HOST,
        "window": WINDOW,
        "waves": rounds,
        "build_wall_s": build_wall_s,
        "flatness_tolerance": FLATNESS_TOLERANCE,
        "wave_spread": spread,
        "replay_bound": replay_bound,
        "recovery": {
            "replayed_entries": replayed,
            "uncompacted_entries": rounds[-1]["uncompacted_entries"],
            "recovery_s": recovery_s,
            "table_intact": intact,
            "wave_after_s": after["wave_s"],
            "duplicated_applies": duplicated,
        },
    }
    return result
