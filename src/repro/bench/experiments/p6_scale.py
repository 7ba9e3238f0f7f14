"""P6 — simulator-kernel and object-runtime scale: 100k live DCDOs.

This PR's question is about the substrate itself: how many live
objects can one simulated deployment hold, and how fast does the
kernel move events, before the tooling (not the modelled system)
becomes the bottleneck?  Three mechanisms carry the answer:

- **Calendar scheduler** — the kernel's pending-event set is a
  bucketed calendar queue with O(1) common-case push/pop and lazy
  cancellation, replacing the binary heap whose ``O(log n)`` sift
  costs grow with backlog depth.
- **Batch-aware transport** — a message send computes its egress
  serialization and arrival instant arithmetically and joins a shared
  per-instant arrival batch: one kernel event per (arrival time) wave
  instead of one spawned delivery process (plus semaphore round-trip
  and two timers) per message.
- **Announcement waves + host-local binding** — a fleet-wide evolution
  ships constant-size version announcements down a k-ary relay tree;
  each relay enumerates its colocated instances from the runtime's
  per-host index and resolves their bindings host-locally, so no
  per-instance traffic funnels through any central port.

Measured here:

1. *Throughput A/B* — an identical 200k-message storm over 10k ports
   driven once on the pre-PR stack (heap scheduler + per-message
   delivery process, reproduced below) and once on the current stack.
   The gate is >= 5x wall-clock throughput.
2. *Kernel micro A/B* — pure scheduler push/pop churn against a deep
   backlog, heap vs calendar (informational: isolates the scheduler's
   share of the win).
3. *Wave flatness* — fleets of 1k/10k/100k instances at a fixed 64
   instances per host; one v1 -> v2 announcement wave each.  The gate
   is wave latency flat (±20%) from the smallest to the largest fleet.
"""

import time

from repro.bench.harness import ExperimentResult, millis
from repro.cluster import deploy_relays
from repro.cluster.testbed import build_lan
from repro.core import ComponentBuilder
from repro.legion import LegionRuntime
from repro.net import Message, Network
from repro.net.fabric import DEFAULT_BANDWIDTH_BPS, DEFAULT_LATENCY_S
from repro.sim import Semaphore, Simulator
from repro.sim.scheduler import CalendarScheduler, HeapScheduler
from repro.workloads import make_noop_manager

# Storm A/B: 10k endpoints exchange 20 rounds of messages.
STORM_PORTS = 10_000
STORM_ROUNDS = 20
STORM_INTERVAL_S = 0.010
STORM_PAYLOAD_BYTES = 256

# Kernel micro A/B: churn against a standing backlog.
MICRO_BACKLOG = 10_000
MICRO_CHURN = 200_000

# Fleet waves: fixed instances-per-host, so host count scales with the
# fleet and the wave measures per-host work + tree depth, not density.
SCALES = (1_024, 10_240, 102_400)
INSTANCES_PER_HOST = 64
WINDOW = 32
UPGRADE_BYTES = 4_096

SPEEDUP_FLOOR = 5.0
FLATNESS_TOLERANCE = 0.20


def tree_fanout(hosts):
    """Fan-out keeping the announcement tree at constant depth.

    ``k = ceil(sqrt(hosts - 1))`` covers ``k*k`` hosts below the root
    in two levels (k range heads, each fanning to singletons), so the
    tree is depth <= 3 at every ladder scale.  A fleet deployment picks
    its fan-out from its size exactly like this; with per-hop bytes
    already constant (roster-range bundles, aggregated acks), constant
    depth is what makes wave latency measure per-level costs rather
    than fleet size.
    """
    import math

    below = max(hosts - 1, 1)
    k = math.isqrt(below)
    if k * k < below:
        k += 1
    return max(2, k)


def _noop_body(ctx):
    return None


# ----------------------------------------------------------------------
# Part 1: message-storm throughput, pre-PR stack vs current stack
# ----------------------------------------------------------------------


class _LegacyPort:
    """The pre-PR port: egress serialized by holding a semaphore."""

    def __init__(self, sim, address, bandwidth_bps):
        self._sim = sim
        self.address = address
        self._bandwidth_bps = bandwidth_bps
        self._egress = Semaphore(sim, permits=1, name=f"{address}.egress")
        self.messages_received = 0

    def transmit(self, message):
        yield self._egress.acquire()
        try:
            yield self._sim.timeout(message.wire_bytes / self._bandwidth_bps)
        finally:
            self._egress.release()

    def deliver(self, message):
        self.messages_received += 1


class _LegacyFabric:
    """The pre-PR delivery path, reproduced for the A/B measurement.

    Every ``send`` spawns a delivery process that acquires the source
    port's egress semaphore, sleeps the transmission time, sleeps the
    propagation latency, and hands the message over — the per-message
    cost profile the batch-aware transport replaced.
    """

    def __init__(self, sim, latency_s=DEFAULT_LATENCY_S, bandwidth_bps=DEFAULT_BANDWIDTH_BPS):
        self._sim = sim
        self._latency_s = latency_s
        self._bandwidth_bps = bandwidth_bps
        self._ports = {}

    def attach(self, address):
        port = _LegacyPort(self._sim, address, self._bandwidth_bps)
        self._ports[address] = port
        return port

    def send(self, message):
        return self._sim.spawn(
            self._deliver(message), name=f"deliver#{message.message_id}"
        )

    def _deliver(self, message):
        yield from self._ports[message.source].transmit(message)
        yield self._sim.timeout(self._latency_s)
        self._ports[message.destination].deliver(message)


def _storm_peer(port_index, round_index):
    """Deterministic peer choice, identical on both stacks."""
    peer = (port_index * 31 + round_index * 7_919) % STORM_PORTS
    if peer == port_index:
        peer = (peer + 1) % STORM_PORTS
    return peer


def _storm_driver(sim, send):
    for round_index in range(STORM_ROUNDS):
        for port_index in range(STORM_PORTS):
            send(
                Message(
                    source=f"port{port_index}",
                    destination=f"port{_storm_peer(port_index, round_index)}",
                    payload=None,
                    size_bytes=STORM_PAYLOAD_BYTES,
                )
            )
        yield sim.timeout(STORM_INTERVAL_S)


def _run_storm(stack):
    """Drive the identical storm on one stack; returns the numbers.

    ``stack`` is ``"legacy"`` (heap scheduler + per-message delivery
    process) or ``"current"`` (calendar scheduler + batched arrivals).
    """
    if stack == "legacy":
        sim = Simulator(scheduler=HeapScheduler())
        fabric = _LegacyFabric(sim)
        received = lambda: sum(p.messages_received for p in fabric._ports.values())
    else:
        sim = Simulator()
        fabric = Network(sim)
        received = lambda: fabric.stats.messages_delivered
    for port_index in range(STORM_PORTS):
        fabric.attach(f"port{port_index}")
    sim.spawn(_storm_driver(sim, fabric.send))
    started = time.perf_counter()
    sim.run()
    wall_s = time.perf_counter() - started
    messages = STORM_PORTS * STORM_ROUNDS
    assert received() == messages, f"{stack}: {received()} != {messages}"
    return {
        "wall_s": wall_s,
        "events": sim.processed_events,
        "events_per_s": sim.processed_events / wall_s,
        "messages": messages,
        "messages_per_s": messages / wall_s,
    }


# ----------------------------------------------------------------------
# Part 2: pure-kernel scheduler churn, heap vs calendar
# ----------------------------------------------------------------------


def _run_micro(scheduler):
    """Push/pop churn with a deep standing backlog; returns the numbers."""
    sim = Simulator(scheduler=scheduler)
    for index in range(MICRO_BACKLOG):
        # A standing far-future backlog gives the queue real depth.
        sim.timeout(3_600.0 + index, daemon=True)

    def churn():
        for index in range(MICRO_CHURN):
            yield sim.timeout(0.001 if index % 8 else 0.010)

    sim.spawn(churn())
    started = time.perf_counter()
    sim.run(until=3_000.0)
    wall_s = time.perf_counter() - started
    return {
        "wall_s": wall_s,
        "events": sim.processed_events,
        "events_per_s": sim.processed_events / wall_s,
    }


# ----------------------------------------------------------------------
# Part 3: fleet-wide announcement waves at 1k / 10k / 100k instances
# ----------------------------------------------------------------------


def _build_fleet(seed, scale):
    """A manager with ``scale`` v1 instances at 64 per host, v2 staged.

    Both the v1 components and the v2 upgrade blob are pre-seeded into
    every host cache: with instances-per-host fixed, host count grows
    with the fleet, and uncached fetches against one ICO port would
    re-introduce exactly the central O(hosts) serialization this
    experiment exists to rule out.
    """
    host_count = scale // INSTANCES_PER_HOST
    runtime = LegionRuntime(build_lan(host_count, seed=seed))
    manager, components = make_noop_manager(
        runtime, f"P6Fleet{scale}", component_count=2, functions_per_component=2
    )
    host_names = sorted(runtime.hosts)
    for host in runtime.hosts.values():
        for component in components:
            variant = component.variant_for_host(host)
            host.cache.insert(variant.blob_id, variant.size_bytes)
    def build_driver():
        # One driver process creating the whole fleet sequentially:
        # measurably cheaper than one ``run_process`` per instance
        # (each pays kernel start/stop bookkeeping) and cheaper than a
        # concurrency window (whose extra event churn costs more than
        # the contention it avoids — creates serialize on host CPU and
        # ICO ports anyway).
        for index in range(scale):
            yield from manager.create_instance(
                host_name=host_names[index % host_count]
            )

    runtime.sim.run_process(build_driver())
    builder = ComponentBuilder("upgrade")
    builder.function("upgrade_fn", _noop_body)
    builder.variant(size_bytes=UPGRADE_BYTES)
    upgrade = builder.build()
    manager.register_component(upgrade)
    for host in runtime.hosts.values():
        variant = upgrade.variant_for_host(host)
        host.cache.insert(variant.blob_id, variant.size_bytes)
    v2 = manager.derive_version(manager.current_version)
    manager.incorporate_into(v2, "upgrade")
    manager.descriptor_of(v2).enable("upgrade_fn", "upgrade")
    manager.mark_instantiable(v2)
    manager.set_current_version(v2)
    return runtime, manager, v2


def _run_wave(seed, scale):
    """Build the fleet, drive one announcement wave; returns the numbers."""
    build_started = time.perf_counter()
    runtime, manager, v2 = _build_fleet(seed, scale)
    build_wall_s = time.perf_counter() - build_started
    fanout_k = tree_fanout(len(runtime.hosts))
    manager.use_relays(deploy_relays(runtime), fanout_k=fanout_k)
    events_before = runtime.sim.processed_events
    resolves_before = runtime.binding_agent.resolutions_served
    started = runtime.sim.now
    wall_started = time.perf_counter()
    tracker = runtime.sim.run_process(manager.propagate_version(v2, window=WINDOW))
    wall_s = time.perf_counter() - wall_started
    wave_s = runtime.sim.now - started
    assert tracker.complete and tracker.all_acked, tracker.summary()
    for loid in manager.instance_loids():
        assert manager.instance_version(loid) == v2
    events = runtime.sim.processed_events - events_before
    return {
        "instances": scale,
        "hosts": len(runtime.hosts),
        "tree_fanout": fanout_k,
        "wave_s": wave_s,
        "wall_s": wall_s,
        "build_wall_s": build_wall_s,
        "events": events,
        "events_per_s": events / wall_s if wall_s else 0.0,
        "announce_waves": runtime.network.count_value("relay.announce_waves"),
        "local_binds": runtime.network.count_value("relay.local_binds"),
        "fallback_instances": runtime.network.count_value(
            "relay.fallback_instances"
        ),
        "binding_agent_resolves": runtime.binding_agent.resolutions_served
        - resolves_before,
    }


def run_p6(seed=0, scales=SCALES):
    """Run P6; returns an :class:`ExperimentResult`.

    ``scales`` lets CI smoke runs measure a reduced ladder (e.g. 1k
    and 10k only); the regression gate's instance floor is supplied
    separately (see ``benchmarks/check_regression.py --scale-floor``).
    """
    scales = tuple(sorted(scales))
    if not scales:
        raise ValueError("need at least one fleet scale")
    result = ExperimentResult(
        experiment_id="P6",
        title="Kernel + runtime scale: 100k live DCDOs on one host",
    )

    legacy = _run_storm("legacy")
    current = _run_storm("current")
    speedup = legacy["wall_s"] / current["wall_s"]
    result.add(
        f"storm: pre-PR stack, {legacy['messages']} msgs",
        "baseline",
        f"{legacy['messages_per_s']:,.0f}",
        "msg/s",
    )
    result.add(
        f"storm: current stack, {current['messages']} msgs",
        f">= {SPEEDUP_FLOOR:.0f}x baseline",
        f"{current['messages_per_s']:,.0f}",
        "msg/s",
        ok=speedup >= SPEEDUP_FLOOR,
    )
    result.add(
        "storm speedup, identical workload",
        f">= {SPEEDUP_FLOOR:.0f}x",
        f"{speedup:.2f}",
        "x",
        ok=speedup >= SPEEDUP_FLOOR,
    )

    heap = _run_micro(HeapScheduler())
    calendar = _run_micro(CalendarScheduler())
    micro_ratio = calendar["events_per_s"] / heap["events_per_s"]
    result.add(
        "kernel churn: heap vs calendar",
        "> 1x (informational)",
        f"{micro_ratio:.2f}",
        "x",
        ok=micro_ratio > 1.0,
    )

    waves = {}
    for scale in scales:
        wave = _run_wave(seed, scale)
        waves[scale] = wave
        result.add(
            f"{scale} instances / {wave['hosts']} hosts: announce wave",
            "flat across scales",
            millis(wave["wave_s"]),
            "ms",
        )
        # Build cost is harness overhead, not wave cost: report it on
        # its own row so a 60 s fleet build never reads as wave time.
        result.add(
            f"{scale} instances: fleet build (excluded from wave)",
            "reported separately",
            f"{wave['build_wall_s']:.1f}",
            "s",
        )
        result.add(
            f"{scale} instances: binding-agent resolves during wave",
            f"<= {wave['hosts']} hosts (none per instance)",
            f"{wave['binding_agent_resolves']}",
            "rpc",
            ok=wave["binding_agent_resolves"] <= wave["hosts"]
            and wave["fallback_instances"] == 0,
        )
    smallest, largest = scales[0], scales[-1]
    flatness = waves[largest]["wave_s"] / waves[smallest]["wave_s"]
    result.add(
        f"wave flatness, {largest} vs {smallest} instances",
        f"within ±{FLATNESS_TOLERANCE:.0%}",
        f"{flatness:.3f}",
        "x",
        ok=abs(flatness - 1.0) <= FLATNESS_TOLERANCE,
    )
    result.add(
        "live instances, largest fleet",
        "100,000+ at full ladder",
        f"{largest}",
        "objects",
    )
    result.extra = {
        "instances_per_host": INSTANCES_PER_HOST,
        "window": WINDOW,
        "tree_fanout": {
            str(scale): data["tree_fanout"] for scale, data in waves.items()
        },
        "speedup_floor": SPEEDUP_FLOOR,
        "flatness_tolerance": FLATNESS_TOLERANCE,
        "storm": {"legacy": legacy, "current": current, "speedup": speedup},
        "kernel_micro": {"heap": heap, "calendar": calendar, "ratio": micro_ratio},
        "max_instances": largest,
        "wave_flatness": flatness,
        "scales": {str(scale): data for scale, data in waves.items()},
    }
    return result
