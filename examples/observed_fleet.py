"""Operating an evolving fleet with observability.

A small operations story: a fleet of DCDOs serves traffic across two
WAN sites while the operator cuts two new versions (one proactive, one
picked up lazily), migrates an instance between sites, and finally
reads back the *system report* and the *evolution timeline* — the
operator's answer to "what changed while this system was running?".

Run with::

    python examples/observed_fleet.py
"""

from repro.cluster import build_wan
from repro.core.policies import LazyUpdatePolicy, SingleVersionPolicy
from repro.legion import LegionRuntime
from repro.obs import Tracer, collect_system_report, render_report
from repro.workloads import (
    ClosedLoopClient,
    build_component_version,
    make_noop_manager,
    synthetic_components,
)


def main():
    runtime = LegionRuntime(build_wan(2, 2, seed=17))
    tracer = Tracer(runtime.network.bus)

    manager, __ = make_noop_manager(
        runtime,
        "Service",
        component_count=2,
        functions_per_component=4,
        evolution_policy=SingleVersionPolicy(),
        update_policy=LazyUpdatePolicy(every_k_calls=5),
    )
    loids = [
        runtime.sim.run_process(manager.create_instance(host_name=host))
        for host in ("s0h00", "s0h01", "s1h00")
    ]

    # Continuous traffic from both sites.
    loops = []
    for index, loid in enumerate(loids):
        client = runtime.make_client(f"s{index % 2}h01")
        loop = ClosedLoopClient(
            client, loid, "ping", calls=None, think_time_s=0.1
        )
        loops.append(loop)
        runtime.sim.spawn(loop.run())
    runtime.sim.run(until=runtime.sim.now + 2.0)

    # Version cut 1: a new (pre-cached) component everywhere; the lazy
    # policy picks it up within 5 calls per instance.
    extra = synthetic_components(1, 2, prefix="svc-x")
    for record in manager.active_instances():
        variant = extra[0].variant_for_host(record.host)
        record.host.cache.insert(variant.blob_id, variant.size_bytes)
    version = build_component_version(manager, extra)
    manager.set_current_version(version)
    runtime.sim.run(until=runtime.sim.now + 3.0)

    # Move the site-1 instance next to its clients at site 0.
    runtime.sim.run_process(manager.migrate_instance(loids[2], "s0h01"))
    runtime.sim.run(until=runtime.sim.now + 2.0)

    for loop in loops:
        loop.stop()
    runtime.sim.run()

    print("=== system report ===")
    print(render_report(collect_system_report(runtime)))
    total_calls = sum(loop.completed_calls for loop in loops)
    total_errors = sum(len(loop.errors) for loop in loops)
    print(f"\nclient traffic: {total_calls} calls, {total_errors} errors")

    print("\n=== evolution timeline (configuration plane) ===")
    interesting = (
        "current-version",
        "evolved",
        "instance-migrated",
        "version-instantiable",
    )
    for event in tracer.events:
        if event.topic in interesting:
            print(event)

    lagging = [
        str(loid)
        for loid in loids
        if manager.instance_version(loid) != manager.current_version
    ]
    print(f"\ninstances lagging the current version: {lagging or 'none'}")


if __name__ == "__main__":
    main()
