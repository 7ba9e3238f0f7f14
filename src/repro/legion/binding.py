"""Binding agents and binding caches.

A *binding* associates a LOID with the physical address of the
object's current incarnation.  The authoritative map lives in the
:class:`BindingAgent`; every client keeps a :class:`BindingCache` of
bindings it has used.  When an object migrates or is re-created, cached
bindings go stale, and the paper measures (§4) that "it takes objects
approximately 25 to 35 seconds to realize that a local binding
contains a physical address that the object is no longer using" — in
this model, the cumulative timeout schedule the invoker walks through
before asking the binding agent again.
"""

from dataclasses import dataclass

from repro.legion.errors import UnknownObject


@dataclass(frozen=True, slots=True)
class Binding:
    """A LOID -> physical address association.

    ``incarnation`` increments every time the object activates at a new
    address, so bindings can be compared for freshness.
    """

    loid: object
    address: str
    incarnation: int


class StaleBindingStats:
    """Records how long clients took to discover stale bindings."""

    __slots__ = ("_times",)

    def __init__(self):
        # Built by the first discovery.
        self._times = None

    @property
    def discovery_times(self):
        """The recorded discovery times, oldest first."""
        if self._times is None:
            self._times = []
        return self._times

    @property
    def count(self):
        """Number of stale-binding discoveries recorded."""
        return len(self._times) if self._times else 0

    def record(self, elapsed):
        """Record one discovery that took ``elapsed`` seconds."""
        self.discovery_times.append(elapsed)

    def mean(self):
        """Mean discovery time, or None if none recorded."""
        if not self._times:
            return None
        return sum(self._times) / len(self._times)


class BindingAgent:
    """The authoritative LOID -> Binding registry.

    The agent is reachable over the network at its own address, so a
    client rebinding pays a real round trip.  Registrations are made
    directly by the runtime (class objects and the agent are part of
    the trusted core), which keeps the model focused on the measured
    path: client-side resolution.
    """

    ADDRESS = "service/binding-agent"

    def __init__(self, network):
        self._bindings = {}
        self.resolutions_served = 0
        from repro.net import Endpoint

        self._endpoint = Endpoint(
            network,
            self.ADDRESS,
            request_handler=self._handle_request,
        )

    def register(self, loid, address):
        """Record that ``loid`` now lives at ``address``; returns the binding."""
        previous = self._bindings.get(loid)
        incarnation = previous.incarnation + 1 if previous else 1
        binding = Binding(loid, address, incarnation)
        self._bindings[loid] = binding
        return binding

    def unregister(self, loid):
        """Forget ``loid`` entirely (object destroyed)."""
        self._bindings.pop(loid, None)

    def resolve_local(self, loid):
        """Resolve without network cost (runtime-internal use)."""
        binding = self._bindings.get(loid)
        if binding is None:
            raise UnknownObject(f"binding agent knows no object {loid}")
        return binding

    def current_address(self, loid):
        """The registered address, or None."""
        binding = self._bindings.get(loid)
        return binding.address if binding else None

    def _handle_request(self, message):
        payload = message.payload
        if payload.get("op") != "resolve":
            raise ValueError(f"unknown binding-agent op {payload.get('op')!r}")
        self.resolutions_served += 1
        binding = self.resolve_local(payload["loid"])
        return (binding, 0)
        yield  # pragma: no cover - marks this as a generator


class BindingCache:
    """A client-side cache of bindings, with staleness accounting."""

    __slots__ = ("_bindings", "hits", "misses", "stale_stats")

    def __init__(self):
        self._bindings = {}
        self.hits = 0
        self.misses = 0
        self.stale_stats = StaleBindingStats()

    def get(self, loid):
        """Return the cached binding or None."""
        binding = self._bindings.get(loid)
        if binding is not None:
            self.hits += 1
        else:
            self.misses += 1
        return binding

    def put(self, binding):
        """Cache ``binding``, replacing any older incarnation."""
        current = self._bindings.get(binding.loid)
        if current is None or binding.incarnation >= current.incarnation:
            self._bindings[binding.loid] = binding

    def invalidate(self, loid):
        """Drop the cached binding for ``loid``."""
        self._bindings.pop(loid, None)

    def record_stale_discovery(self, elapsed):
        """Account the time spent discovering one stale binding."""
        self.stale_stats.record(elapsed)

    def __contains__(self, loid):
        return loid in self._bindings

    def __len__(self):
        return len(self._bindings)
