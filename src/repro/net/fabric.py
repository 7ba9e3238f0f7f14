"""The network fabric: a switched LAN connecting endpoint ports.

The fabric owns the address → :class:`Port` mapping, applies the fault
plan, and charges each message its egress transmission time plus a
propagation latency.  Defaults match the paper's testbed: 100 Mbps
switched Ethernet with sub-millisecond LAN latency.
"""

from dataclasses import dataclass, field

from repro.net.faults import DROP, FaultPlan
from repro.net.link import Port
from repro.obs.metrics import MetricsRegistry

# 100 Mbps expressed in bytes per second.
DEFAULT_BANDWIDTH_BPS = 100e6 / 8
# One-way propagation + switch latency on the LAN.
DEFAULT_LATENCY_S = 100e-6


class _DeliveryEnvelope:
    """One scheduled arrival instant, shared by all messages landing then.

    Envelopes are pooled by the :class:`Network` and recycled after
    each batch fires, so the per-message delivery path allocates no
    process, no generator, and (at steady state) no envelope either.
    """

    __slots__ = ("network", "time", "messages")

    def __init__(self, network):
        self.network = network
        self.time = 0.0
        self.messages = []

    def fire(self):
        self.network._arrive(self)


@dataclass
class NetworkStats:
    """Aggregate counters for a fabric, used by tests and reports."""

    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_delivered: int = 0
    deliveries_by_kind: dict = field(default_factory=dict)

    def record_delivery(self, message):
        """Account a successful delivery."""
        self.messages_delivered += 1
        self.bytes_delivered += message.wire_bytes
        self.deliveries_by_kind[message.kind] = self.deliveries_by_kind.get(message.kind, 0) + 1

    def record_drop(self):
        """Account a message destroyed by the fault plan."""
        self.messages_dropped += 1


class Network:
    """A switched LAN fabric.

    Parameters
    ----------
    sim:
        The owning simulator.
    latency_s:
        One-way propagation latency between any two ports.
    bandwidth_bps:
        Default per-port egress bandwidth, in bytes per second.
    """

    def __init__(self, sim, latency_s=DEFAULT_LATENCY_S, bandwidth_bps=DEFAULT_BANDWIDTH_BPS):
        if latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {latency_s}")
        self._sim = sim
        self._latency_s = latency_s
        self._default_bandwidth_bps = bandwidth_bps
        self._ports = {}
        # Endpoints register themselves so crash tooling can find and
        # kill everything attached for a given host prefix; the fabric
        # itself never calls into them during delivery.
        self._endpoints = {}
        # Wide-area topology: address prefixes map to sites, and pairs
        # of sites may override the propagation latency.  Everything
        # not assigned lives in the default site (the LAN case).
        self._site_prefixes = []
        self._intersite_latency = {}
        self.faults = FaultPlan()
        self.stats = NetworkStats()
        self.metrics = MetricsRegistry(sim)
        # Circuit breakers keyed by target (e.g. "ico:<loid>"), shared
        # by every client on the fabric: once one caller discovers a
        # dead ICO, the whole fleet fails fast instead of each instance
        # burning its own timeout schedule.
        self._breakers = {}
        # SLO monitors keyed by stream name (e.g. "canary:Sorter"),
        # registered by traffic harnesses and canary gates so system
        # reports can show service health fleet-wide.
        self._slo_monitors = {}
        # Arrival batching: every message landing at the same instant
        # shares one scheduled kernel event; spent envelopes are pooled
        # and reused so steady-state delivery allocates nothing.
        self._pending_arrivals = {}
        self._envelope_pool = []
        # Egress slowdown factors by address prefix (limping NICs);
        # applied to matching ports at attach() so a host's restart
        # endpoints inherit the degradation.
        self._egress_slowdowns = {}
        # Per-peer health registry (gray-failure quarantine).  None
        # until enable_health() arms it, so calibrated runs that never
        # opt in pay a single attribute check on the health hooks.
        self._health = None
        # Shared event bus: health/SLO/supervisor/chaos transitions are
        # published here so reactive consumers (the controller) sense
        # without polling.  Always present — publishing with no
        # subscribers is one dict lookup and a ring append.
        from repro.obs.bus import EventBus

        self.bus = EventBus(sim)

    # ------------------------------------------------------------------
    # Peer health (gray-failure quarantine)
    # ------------------------------------------------------------------

    def enable_health(self, **kwargs):
        """Arm the shared :class:`~repro.obs.health.HealthRegistry`.

        Idempotent; construction keyword arguments apply only on first
        creation.  Until armed, :meth:`health_observe` is a no-op and
        :meth:`health_quarantined` always answers False.
        """
        if self._health is None:
            from repro.obs.health import HealthRegistry

            self._health = HealthRegistry(
                self._sim, metrics=self.metrics, bus=self.bus, **kwargs
            )
        return self._health

    def publish(self, topic, subject=None, **details):
        """Publish one event on the fabric's shared bus."""
        return self.bus.publish(topic, subject, **details)

    @property
    def health(self):
        """The armed health registry, or None."""
        return self._health

    def health_observe(self, address, event):
        """Record a health signal for the host behind ``address``.

        ``event`` is one of ``"success"`` / ``"timeout"`` /
        ``"hedge_win"`` / ``"suspicion"``.  No-op unless armed.
        """
        if self._health is not None:
            self._health.observe(address.split("/", 1)[0], event)

    def health_quarantined(self, host):
        """True if ``host`` is currently quarantined (False when unarmed)."""
        return self._health is not None and self._health.is_quarantined(host)

    def health_snapshot(self):
        """Plain-dict view of peer health, for system reports."""
        return self._health.snapshot() if self._health is not None else {}

    def breaker(self, key, **kwargs):
        """Get-or-create the shared :class:`CircuitBreaker` for ``key``.

        Construction keyword arguments apply only on first creation;
        state transitions are mirrored into the fabric metrics
        (``breaker.opened`` / ``breaker.half_open`` / ``breaker.closed``).
        """
        from repro.net.retry import CircuitBreaker, CircuitState

        breaker = self._breakers.get(key)
        if breaker is None:

            def on_transition(__, state):
                if state is CircuitState.OPEN:
                    self.count("breaker.opened")
                elif state is CircuitState.HALF_OPEN:
                    self.count("breaker.half_open_probes")
                else:
                    self.count("breaker.closed")

            breaker = self._breakers[key] = CircuitBreaker(
                self._sim, name=key, on_transition=on_transition, **kwargs
            )
        return breaker

    def breakers_snapshot(self):
        """Plain-dict view of every breaker, for system reports."""
        return {
            key: {
                "state": breaker.state.value,
                "failures": breaker.failures,
                "successes": breaker.successes,
                "times_opened": breaker.times_opened,
                "short_circuits": breaker.short_circuits,
            }
            for key, breaker in sorted(self._breakers.items())
        }

    def slo_monitor(self, key, slo=None, **kwargs):
        """Get-or-create the shared SLO monitor for ``key``.

        ``slo`` (plus construction keyword arguments) applies only on
        first creation; later callers get the registered monitor.
        """
        from repro.obs.slo import SLOMonitor

        monitor = self._slo_monitors.get(key)
        if monitor is None:
            if slo is None:
                raise ValueError(f"no SLO monitor registered under {key!r}")
            monitor = self._slo_monitors[key] = SLOMonitor(
                self._sim, slo, bus=self.bus, stream=key, **kwargs
            )
        return monitor

    def register_slo_monitor(self, key, monitor):
        """Register an externally built monitor under ``key``.

        The fabric's bus is attached (and the stream named) so breach
        transitions publish even for monitors built elsewhere.
        """
        if getattr(monitor, "bus", None) is None:
            monitor.bus = self.bus
        if getattr(monitor, "stream", None) is None:
            monitor.stream = key
        self._slo_monitors[key] = monitor
        return monitor

    def slo_snapshot(self):
        """Plain-dict view of every registered SLO monitor."""
        return {
            key: monitor.snapshot()
            for key, monitor in sorted(self._slo_monitors.items())
        }

    @property
    def sim(self):
        """The owning simulator."""
        return self._sim

    @property
    def latency_s(self):
        """One-way propagation latency."""
        return self._latency_s

    def attach(self, address, bandwidth_bps=None):
        """Create and register a port for ``address``; returns the port.

        ``bandwidth_bps=None`` means the fabric default; an explicit
        invalid value (e.g. 0) is rejected by the port.
        """
        if address in self._ports:
            raise ValueError(f"address {address!r} already attached")
        if bandwidth_bps is None:
            bandwidth_bps = self._default_bandwidth_bps
        port = Port(self._sim, address, bandwidth_bps)
        for prefix, factor in self._egress_slowdowns.items():
            if address.startswith(prefix):
                port.slowdown = factor
        self._ports[address] = port
        return port

    def set_egress_slowdown(self, prefix, factor):
        """Slow (or restore, with 1.0) egress on every ``prefix`` port.

        Models a limping NIC: serialization time is multiplied by
        ``factor``.  Applies to current ports and to ports attached
        later under the same prefix (restarted endpoints limp too).
        """
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1.0, got {factor}")
        if factor == 1.0:
            self._egress_slowdowns.pop(prefix, None)
        else:
            self._egress_slowdowns[prefix] = factor
        for address, port in self._ports.items():
            if address.startswith(prefix):
                port.slowdown = factor

    def detach(self, address):
        """Remove the port for ``address``; in-flight messages are lost."""
        self._ports.pop(address, None)

    def port(self, address):
        """Return the port registered for ``address``.

        Raises ``KeyError`` for unknown addresses; callers that model
        "host unreachable" should use :meth:`knows` first.
        """
        return self._ports[address]

    def knows(self, address):
        """True if a port is attached at ``address``."""
        return address in self._ports

    def count(self, name, amount=1):
        """Bump the fabric-wide counter ``name`` (metrics convenience)."""
        self.metrics.counter(name).increment(amount)

    def count_value(self, name):
        """Current value of the fabric-wide counter ``name`` (0 if unused)."""
        return self.metrics.counter(name).value

    # ------------------------------------------------------------------
    # Endpoint registry (crash-fault support)
    # ------------------------------------------------------------------

    def register_endpoint(self, endpoint):
        """Track a live endpoint so crash tooling can close it by prefix."""
        self._endpoints[endpoint.address] = endpoint

    def unregister_endpoint(self, endpoint):
        """Forget a closing endpoint (idempotent)."""
        self._endpoints.pop(endpoint.address, None)

    def endpoints_with_prefix(self, prefix):
        """All live endpoints whose address starts with ``prefix``."""
        return [
            endpoint
            for address, endpoint in self._endpoints.items()
            if address.startswith(prefix)
        ]

    def addresses_with_prefix(self, prefix):
        """All attached addresses starting with ``prefix`` (ports, not endpoints)."""
        return [address for address in self._ports if address.startswith(prefix)]

    def close_endpoints_with_prefix(self, prefix):
        """Close every endpoint on ``prefix`` (a crashing host's addresses).

        Returns the closed endpoints.  Bare ports attached without an
        endpoint (rare, test-only) are detached too, so nothing keeps
        receiving on behalf of a dead host.
        """
        closed = self.endpoints_with_prefix(prefix)
        for endpoint in closed:
            endpoint.close()
        for address in self.addresses_with_prefix(prefix):
            self.detach(address)
        return closed

    # ------------------------------------------------------------------
    # Wide-area topology (the paper's setting is a wide-area system;
    # the measured testbed is one LAN site, which remains the default)
    # ------------------------------------------------------------------

    DEFAULT_SITE = "core"

    def assign_site(self, address_prefix, site):
        """Place every address starting with ``address_prefix`` in ``site``."""
        self._site_prefixes.append((address_prefix, site))
        # Longest prefix wins on overlap.
        self._site_prefixes.sort(key=lambda pair: -len(pair[0]))

    def site_of(self, address):
        """The site an address belongs to (DEFAULT_SITE if unassigned)."""
        for prefix, site in self._site_prefixes:
            if address.startswith(prefix):
                return site
        return self.DEFAULT_SITE

    def set_intersite_latency(self, site_a, site_b, latency_s):
        """Set the one-way latency between two sites (symmetric)."""
        if latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {latency_s}")
        self._intersite_latency[frozenset((site_a, site_b))] = latency_s

    def latency_between(self, source, destination):
        """One-way latency for a (source, destination) address pair."""
        if not self._site_prefixes:
            return self._latency_s
        site_a = self.site_of(source)
        site_b = self.site_of(destination)
        if site_a == site_b:
            return self._latency_s
        return self._intersite_latency.get(
            frozenset((site_a, site_b)), self._latency_s
        )

    def send(self, message):
        """Put ``message`` in flight; delivery is fire-and-forget.

        The egress serialization and the propagation delay are computed
        up front (see :meth:`Port.reserve_egress`), so a send costs no
        process and no per-message kernel event: every message arriving
        on the fabric at the same instant shares one scheduled arrival
        batch — broadcast and relay fan-out pay one kernel event per
        (arrival instant) wave, not one per message.
        """
        source_port = self._ports.get(message.source)
        if source_port is None:
            raise ValueError(f"unknown source address {message.source!r}")
        now = self._sim.now
        departure = source_port.reserve_egress(message.wire_bytes, now)
        arrival = departure + self.latency_between(message.source, message.destination)
        envelope = self._pending_arrivals.get(arrival)
        if envelope is None:
            pool = self._envelope_pool
            envelope = pool.pop() if pool else _DeliveryEnvelope(self)
            envelope.time = arrival
            self._pending_arrivals[arrival] = envelope
            self._sim._schedule_call(envelope.fire, delay=arrival - now)
        envelope.messages.append(message)
        return None

    def _arrive(self, envelope):
        """Land every message in one arrival batch (envelope callback)."""
        self._pending_arrivals.pop(envelope.time, None)
        now = self._sim.now
        ports = self._ports
        stats = self.stats
        faults = self.faults if self.faults.is_active else None
        for message in envelope.messages:
            if faults is not None:
                verdict = faults.route(message, now)
                if verdict is DROP:
                    stats.record_drop()
                    continue
                if verdict is not None:
                    # One copy per delay; delayed copies bypass fault
                    # re-evaluation (a slow link charges its toll once,
                    # and a duplicate cannot re-duplicate).
                    for delay in verdict:
                        if delay <= 0.0:
                            self._deliver_direct(message)
                        else:
                            self._sim._schedule_call(
                                self._make_direct_delivery(message), delay=delay
                            )
                    continue
            destination_port = ports.get(message.destination)
            if destination_port is None:
                # Destination vanished (crashed / detached): silent
                # loss, exactly like a frame to a dead NIC.
                stats.record_drop()
                continue
            destination_port.deliver(message)
            stats.record_delivery(message)
        envelope.messages.clear()
        self._envelope_pool.append(envelope)

    def _make_direct_delivery(self, message):
        """Bind ``message`` into a zero-arg callback for _schedule_call."""

        def fire():
            self._deliver_direct(message)

        return fire

    def _deliver_direct(self, message):
        """Deliver ``message`` now, skipping the fault plan.

        Used for delayed and duplicated copies whose fault disposition
        was already decided when they first crossed the fabric.
        """
        destination_port = self._ports.get(message.destination)
        if destination_port is None:
            self.stats.record_drop()
            return
        destination_port.deliver(message)
        self.stats.record_delivery(message)

    def transfer_time(self, size_bytes):
        """Ideal one-way time to move ``size_bytes`` (no contention)."""
        return self._latency_s + size_bytes / self._default_bandwidth_bps

    def __repr__(self):
        return f"<Network ports={len(self._ports)} delivered={self.stats.messages_delivered}>"
