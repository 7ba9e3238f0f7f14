"""Active Legion objects.

A :class:`LegionObject` is an active object: a simulated process with
its own network endpoint, a method table, and one simulated thread per
in-flight request.  Member-function bodies are written as generator
functions ``body(ctx, *args)`` receiving a :class:`CallContext` that
lets them charge CPU time, call sibling functions, and invoke remote
objects.

The method table has two tiers: one class-level ``_interface`` maps
each exported name to the method serving it, bound at dispatch, and a
per-instance table, built on the first ``register_method`` or
``unregister_method``, overrides it for that instance.

Subclasses override :meth:`_dispatch_local` to change how intra-object
calls are resolved — the base class dispatches directly (a compiled
call), while DCDOs route through their DFM, which is precisely the one
level of indirection the paper's mechanism adds.
"""

import itertools

from repro.legion.errors import MethodNotFound
from repro.legion.rpc import MethodInvoker

_address_counter = itertools.count(1)


class CallContext:
    """What a member-function body sees while it executes.

    Bodies are generators; every facility here that takes time returns
    something to ``yield`` (or is itself driven by ``yield from``).
    """

    __slots__ = ("_obj", "_method_name", "reply_bytes")

    def __init__(self, obj, method_name):
        self._obj = obj
        self._method_name = method_name
        self.reply_bytes = None

    @property
    def obj(self):
        """The object the function is executing in."""
        return self._obj

    @property
    def sim(self):
        """The simulator (for timeouts and raw events)."""
        return self._obj.sim

    @property
    def method_name(self):
        """Name the function was invoked under."""
        return self._method_name

    @property
    def state(self):
        """The object's mutable state dict."""
        return self._obj.state

    def work(self, seconds):
        """Charge ``seconds`` of CPU on the hosting machine (yield it)."""
        return self._obj.host.cpu_work(seconds)

    def set_reply_size(self, size_bytes):
        """Charge the reply to this call at ``size_bytes`` on the wire.

        Methods serving bulk data (e.g. an ICO's ``fetchVariant``) call
        this so the transfer pays realistic transmission time.
        """
        self.reply_bytes = size_bytes

    def call(self, name, *args):
        """Generator: call another function in the *same* object.

        Dispatch behaviour is the object's: direct for plain Legion
        objects, DFM-mediated for DCDOs.
        """
        return self._obj._dispatch_local(name, args, caller=self._method_name)

    def invoke(self, loid, method, *args, timeout_schedule=None):
        """Generator: invoke a method on a *remote* object (an outcall).

        While the outcall is pending this thread is inactive inside the
        current function — the situation the §3.1 disappearing-function
        problems arise from.
        """
        return self._obj.invoker.invoke(
            loid, method, args, timeout_schedule=timeout_schedule
        )


class LegionObject:
    """An active object: endpoint + method table + request threads.

    Parameters
    ----------
    runtime:
        The :class:`~repro.legion.runtime.LegionRuntime` this object
        lives in.
    loid:
        The object's LOID.
    host:
        The host the object activates on.
    state_bytes:
        Logical size of the object's state, charged by capture/restore.

    The base class carries ``__slots__`` so the per-instance footprint
    of a large fleet stays flat, and builds its state dict on first
    use.  DCDOs declare slots of their own; subclasses with few
    instances (managers, relays) declare none and get a ``__dict__`` for
    their own fields on top of the slotted base.
    """

    #: Exported name -> name of the method serving it, for every instance.
    _interface = {}

    __slots__ = (
        "_runtime",
        "_loid",
        "_host",
        "_methods",
        "_endpoint",
        "_process",
        "_binding",
        "_invoker",
        "_state_dict",
        "state_bytes",
        "active_requests",
        "requests_completed",
        "_terms_seen",
        "__weakref__",
    )

    def __init__(self, runtime, loid, host, state_bytes=0):
        self._runtime = runtime
        self._loid = loid
        self._host = host
        # name -> body overriding the class interface (None: hidden);
        # built on the first override.
        self._methods = None
        self._endpoint = None
        self._process = None
        self._binding = None
        self._invoker = None
        self._state_dict = None
        self.state_bytes = state_bytes
        self.active_requests = 0
        self.requests_completed = 0
        # Highest fencing term number seen per scope; stale-term
        # requests are rejected so a deposed manager cannot disturb
        # state a newer one already owns.
        self._terms_seen = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def runtime(self):
        """The owning runtime."""
        return self._runtime

    @property
    def loid(self):
        """This object's LOID."""
        return self._loid

    @property
    def host(self):
        """The host this object is (or was last) active on."""
        return self._host

    @property
    def sim(self):
        """The simulator."""
        return self._runtime.sim

    @property
    def calibration(self):
        """The cost model in effect."""
        return self._runtime.calibration

    @property
    def state(self):
        """The object's mutable state dict (built on first use)."""
        state = self._state_dict
        if state is None:
            state = self._state_dict = {}
        return state

    @state.setter
    def state(self, value):
        self._state_dict = value

    @property
    def is_active(self):
        """True while the object has a live endpoint."""
        return self._endpoint is not None and not self._endpoint.is_closed

    @property
    def address(self):
        """Current physical address, or None when deactivated."""
        return self._endpoint.address if self.is_active else None

    @property
    def invoker(self):
        """This object's client-side invoker for outcalls."""
        if self._invoker is None:
            raise RuntimeError(f"{self._loid} is not active")
        return self._invoker

    @property
    def method_names(self):
        """Sorted names of registered member functions."""
        names = set(self._interface) | set(self._methods or ())
        return sorted(name for name in names if self.has_method(name))

    # ------------------------------------------------------------------
    # Method table
    # ------------------------------------------------------------------

    def register_method(self, name, body):
        """Register member function ``name`` with generator ``body``.

        ``body(ctx, *args)`` may be a generator function (preferred —
        it can yield simulated time) or a plain function (for pure
        in-memory logic).
        """
        if not callable(body):
            raise TypeError(f"method body for {name!r} must be callable")
        if self._methods is None:
            self._methods = {}
        self._methods[name] = body

    def unregister_method(self, name):
        """Remove member function ``name`` (on this instance only)."""
        if self._methods is None:
            self._methods = {}
        self._methods[name] = None

    def has_method(self, name):
        """True if ``name`` is currently dispatchable."""
        return self._method(name) is not None

    def _method(self, name):
        """The body serving ``name`` on this instance, or None."""
        methods = self._methods
        if methods is not None and name in methods:
            return methods[name]
        attribute = self._interface.get(name)
        return None if attribute is None else getattr(self, attribute)

    # ------------------------------------------------------------------
    # Activation lifecycle
    # ------------------------------------------------------------------

    def activate(self):
        """Process body: bring the object up on its host.

        Creates a fresh endpoint (new physical address), registers the
        binding with the binding agent, and builds the client-side
        invoker.  Does *not* charge process-spawn cost — that belongs
        to whoever is creating the process (the class object), keeping
        creation-cost accounting in one place.
        """
        address = f"{self._host.name}/{self._loid}@{next(_address_counter)}"
        from repro.net import Endpoint

        self._endpoint = Endpoint(
            self._runtime.network,
            address,
            request_handler=self._handle_request,
        )
        from repro.legion.binding import BindingCache

        self._invoker = MethodInvoker(
            self._endpoint,
            BindingCache(),
            self.calibration,
            rng=self._runtime.rng,
        )
        self._binding = self._runtime.binding_agent.register(self._loid, address)
        return self._binding
        yield  # pragma: no cover - uniform generator shape for callers

    def deactivate(self):
        """Tear the endpoint down; the object becomes unreachable.

        Cached bindings elsewhere in the system now point at a dead
        address — the precondition for stale-binding discovery.
        """
        if self._endpoint is not None:
            self._endpoint.close()
        self._endpoint = None
        self._invoker = None

    # ------------------------------------------------------------------
    # State capture / restore (used by migration and baseline evolution)
    # ------------------------------------------------------------------

    def capture_state(self):
        """Return (state, size_bytes) for persisting to an OPR."""
        return dict(self._state_dict or ()), self.state_bytes

    def restore_state(self, state):
        """Install state read back from an OPR."""
        self.state = dict(state)

    def moved_to(self, host):
        """Rebase the object onto ``host`` (migration bookkeeping)."""
        old_host_name = self._host.name
        self._host = host
        self._runtime.reindex_object(self, old_host_name)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _lookup(self, name, caller=None):
        """Resolve ``name`` to a callable body; subclass hook.

        ``caller`` is the name of the in-object function making a local
        call, or None for calls arriving from the network.
        """
        body = self._method(name)
        if body is None:
            raise MethodNotFound(self._loid, name)
        return body

    def _call_overhead(self):
        """Event charging the per-call dispatch overhead; subclass hook."""
        return self.sim.timeout(self.calibration.direct_call_overhead_s)

    def _run_body(self, name, body, args, context=None):
        """Generator: execute a member-function body with a context.

        Returns (result, context) so external dispatch can read the
        reply size the body may have set.
        """
        context = context or CallContext(self, name)
        result = body(context, *args)
        if result is not None and hasattr(result, "__next__"):
            result = yield from result
        else:
            # Plain function: already computed; still yield the clock
            # once so plain and generator bodies behave uniformly.
            yield self.sim.timeout(0)
        return result, context

    def _dispatch_local(self, name, args, caller=None):
        """Generator: an intra-object call (direct; DCDOs override)."""
        body = self._lookup(name, caller=caller)
        yield self._call_overhead()
        result, __ = yield from self._run_body(name, body, args)
        return result

    def _dispatch_external(self, name, args):
        """Generator: a call arriving from the network (DCDOs override).

        Returns (result, reply_bytes).
        """
        body = self._lookup(name, caller=None)
        yield self._call_overhead()
        result, context = yield from self._run_body(name, body, args)
        return result, context.reply_bytes

    def observed_term(self, scope):
        """Highest fencing term number seen for ``scope`` (None if unseen)."""
        return self._terms_seen.get(scope)

    def admit_term(self, term):
        """Fence one term-stamped management action.

        Records ``term`` as seen for its scope, or raises
        :class:`StaleManagerTerm` if a newer term was already seen.
        Every inbound request runs it; so does a colocated relay that
        finds an instance already at an announced version and settles
        it without a request.
        """
        latest = self._terms_seen.get(term.scope)
        if latest is not None and term.number < latest:
            self._runtime.network.count("manager.stale_term_rejections")
            self._runtime.network.bus.publish(
                "stale-term-rejected",
                self._loid,
                scope=term.scope,
                stale=term.number,
                latest=latest,
            )
            from repro.legion.errors import StaleManagerTerm

            raise StaleManagerTerm(term, latest)
        self._terms_seen[term.scope] = term.number

    def _handle_request(self, message):
        """Generator: serve one inbound method invocation."""
        payload = message.payload
        if payload.get("op") != "invoke":
            raise ValueError(f"unknown object op {payload.get('op')!r}")
        if message.term is not None:
            self.admit_term(message.term)
        # Server-side unmarshalling + dispatch cost.
        yield self._host.cpu_work(self.calibration.method_dispatch_s)
        self.active_requests += 1
        try:
            result, reply_bytes = yield from self._dispatch_external(
                payload["method"], payload["args"]
            )
        finally:
            self.active_requests -= 1
        self.requests_completed += 1
        if reply_bytes is None:
            reply_bytes = self.calibration.method_message_bytes
        return (self._reply_value(result), reply_bytes)

    def _reply_value(self, result):
        """What the reply to a served call carries; subclass hook."""
        return result

    def __repr__(self):
        state = "active" if self.is_active else "inactive"
        return f"<{self.__class__.__name__} {self._loid} {state} on {self._host.name}>"
