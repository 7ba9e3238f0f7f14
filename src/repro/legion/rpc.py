"""The Legion method-invocation protocol.

A :class:`MethodInvoker` turns ``invoke(loid, method, args)`` into
request/reply traffic, resolving LOIDs through a binding cache backed
by the binding agent.  Its retry behaviour is where the paper's
stale-binding cost lives: after an object moves, the invoker walks a
timeout schedule against the dead address (cumulatively ~30 s by
default calibration) before concluding the binding is stale, re-
resolving, and retrying at the fresh address.
"""

from dataclasses import dataclass

from repro.legion.binding import BindingAgent
from repro.legion.errors import MethodNotFound, ObjectUnreachable, UnknownObject
from repro.net import (
    CircuitOpen,
    CircuitState,
    RemoteError,
    RequestTimeout,
    run_windowed,
)


class ReplyEnvelope:
    """A reply payload plus the server's configuration epoch.

    DCDOs wrap every external reply in one of these so clients learn —
    for free, on traffic they were sending anyway — whether the object's
    configuration has changed since they last looked.  The invoker
    unwraps the envelope transparently and records the epoch per LOID;
    plain objects keep replying with bare payloads.
    """

    __slots__ = ("value", "epoch")

    def __init__(self, value, epoch):
        self.value = value
        self.epoch = epoch

    def __repr__(self):
        return f"<ReplyEnvelope epoch={self.epoch}>"


@dataclass(slots=True)
class InvokeStats:
    """Per-invoker counters used by tests and benchmarks."""

    invocations: int = 0
    retries: int = 0
    rebinds: int = 0
    #: Invocations that found their target's binding already cached.
    binding_hits: int = 0
    #: Invocations that had to ask the binding agent (resolve miss).
    binding_misses: int = 0
    #: Replies that carried a piggybacked configuration epoch.
    epoch_observations: int = 0

    def reset(self):
        """Zero all counters."""
        self.invocations = 0
        self.retries = 0
        self.rebinds = 0
        self.binding_hits = 0
        self.binding_misses = 0
        self.epoch_observations = 0


class MethodInvoker:
    """Client-side machinery for remote method invocation.

    Parameters
    ----------
    endpoint:
        The transport endpoint invocations are sent from.
    binding_cache:
        This client's binding cache.
    calibration:
        Cost model (timeout schedule, marshalling cost, payload size).
    rng:
        Optional RNG for timeout jitter.
    retry_policy:
        Optional :class:`~repro.net.retry.RetryPolicy`; when set,
        attempts against one address are spaced with the policy's
        backoff instead of being fired back-to-back.  None (the
        default) preserves the calibrated stale-binding timings.

    Every active object owns an invoker, so its per-peer tables (the
    observed epochs, the RTT estimators and their settings) are built
    when they first hold something.
    """

    __slots__ = (
        "_endpoint",
        "_cache",
        "_calibration",
        "_rng",
        "retry_policy",
        "stats",
        "_observed_epochs",
        "_adaptive_timeouts",
        "_estimator_kwargs",
        "_estimators",
        "_hedging",
        "_hedge_delay_s",
        "term_source",
    )

    def __init__(self, endpoint, binding_cache, calibration, rng=None, retry_policy=None):
        self._endpoint = endpoint
        self._cache = binding_cache
        self._calibration = calibration
        self._rng = rng
        self.retry_policy = retry_policy
        self.stats = InvokeStats()
        # loid -> the latest epoch it piggybacked.
        self._observed_epochs = None
        # Gray-failure adaptation, both off by default so the
        # calibrated §4 timings are untouched unless a runtime opts in.
        self._adaptive_timeouts = False
        self._estimator_kwargs = None
        # peer host -> its RTT estimator.
        self._estimators = None
        self._hedging = False
        self._hedge_delay_s = None
        #: Optional zero-arg callable returning the current
        #: :class:`~repro.net.ManagerTerm` to stamp on outgoing
        #: invocations (used by managers to fence their traffic).
        #: None leaves invocations unfenced.
        self.term_source = None

    def observed_epoch(self, loid):
        """The latest configuration epoch piggybacked by ``loid``.

        None until a reply from that object has been seen.  The latest
        observation wins (not the maximum): a crash-recovered object
        restarts its epoch counter, and regressing here is what lets
        lease caches notice the new incarnation and invalidate.
        """
        if self._observed_epochs is None:
            return None
        return self._observed_epochs.get(loid)

    # ------------------------------------------------------------------
    # Gray-failure adaptation (opt-in)
    # ------------------------------------------------------------------

    def enable_adaptive_timeouts(self, **estimator_kwargs):
        """Derive per-attempt timeouts from observed per-peer RTTs.

        Every successful attempt feeds a per-peer-host
        :class:`~repro.net.RttEstimator`; once a peer's estimator has
        samples, invocations without an explicit ``timeout_schedule``
        walk an RTO-derived schedule (same number of attempts as the
        calibrated one) instead of the fixed calibrated values.
        Explicit caller schedules always win — callers passing generous
        schedules (e.g. long-running management calls) know better.
        """
        self._adaptive_timeouts = True
        self._estimator_kwargs = estimator_kwargs
        return self

    def enable_hedging(self, delay_s=None):
        """Allow hedged (backup) requests on opted-in invocations.

        Hedging only fires on calls that pass ``hedge=True`` — marking
        the operation idempotent, since the backup may execute twice.
        ``delay_s`` fixes the hedge delay; None derives it from the
        peer's RTT estimator (around the tail of observed round trips),
        falling back to half the first attempt timeout while cold.
        """
        self._hedging = True
        self._hedge_delay_s = delay_s
        return self

    @property
    def hedging_enabled(self):
        """True once :meth:`enable_hedging` has been called."""
        return self._hedging

    def estimator_for(self, address):
        """Get-or-create the RTT estimator for ``address``'s host."""
        from repro.net import RttEstimator

        host = address.split("/", 1)[0]
        estimators = self._estimators
        if estimators is None:
            estimators = self._estimators = {}
        estimator = estimators.get(host)
        if estimator is None:
            estimator = estimators[host] = RttEstimator(
                **(self._estimator_kwargs or {})
            )
        return estimator

    @property
    def endpoint(self):
        """The transport endpoint invocations are sent from."""
        return self._endpoint

    @property
    def binding_cache(self):
        """This client's binding cache."""
        return self._cache

    def _resolve_remote(self, loid):
        """Generator: ask the binding agent for a fresh binding."""
        try:
            binding = yield from self._endpoint.request(
                BindingAgent.ADDRESS,
                {"op": "resolve", "loid": loid},
                size_bytes=128,
                timeout_s=2.0,
                max_attempts=2,
            )
        except RemoteError as error:
            if isinstance(error.cause, UnknownObject):
                raise error.cause
            raise
        self._cache.put(binding)
        return binding

    def _timeout_schedule(self, override=None, estimator=None):
        if override:
            schedule = override
        elif (
            estimator is not None
            and self._adaptive_timeouts
            and estimator.samples > 0
        ):
            # Adaptive mode: the same number of attempts as the
            # calibrated walk, but each timeout sized to this peer's
            # observed RTT distribution instead of a worst-case fixed
            # value — a healthy peer's stale binding is discovered in
            # milliseconds, not the calibrated ~30 s.
            schedule = estimator.timeout_schedule(
                len(self._calibration.rebind_timeout_schedule_s)
            )
        else:
            schedule = self._calibration.rebind_timeout_schedule_s
        if self._rng is None:
            return tuple(schedule)
        jitter = self._rng.jitter
        return tuple([jitter("rpc-timeouts", t, 0.15) for t in schedule])

    def invoke(
        self,
        loid,
        method,
        args=(),
        payload_bytes=None,
        timeout_schedule=None,
        retry_policy=None,
        breaker=None,
        term=None,
        hedge=False,
    ):
        """Generator: invoke ``method`` on the object named ``loid``.

        Returns the method's result.  Raises:

        - :class:`MethodNotFound` — the target has no such (enabled,
          exported) function; for DCDOs this is the §3.1 disappearing
          exported function problem reaching the client.
        - :class:`ObjectUnreachable` — the object could not be reached
          even after rebinding.
        - :class:`~repro.net.CircuitOpen` — a supplied ``breaker`` is
          open; nothing was sent.
        - any application exception the remote method raised.

        ``timeout_schedule`` overrides the calibrated per-attempt reply
        timeouts; callers invoking operations known to run long (e.g.
        management-plane evolution calls) pass a generous schedule so a
        slow server is not mistaken for a dead one and re-executed.
        ``retry_policy`` overrides the invoker-wide policy for backoff
        spacing between attempts (see the constructor).

        ``breaker`` is an optional :class:`~repro.net.CircuitBreaker`
        guarding the target.  The breaker wraps the *whole* invocation
        — the timeout-schedule walk plus the stale-binding rebind round
        — so once a target is known-dead, callers fail in microseconds
        instead of re-walking ~minutes of timeouts; reachability errors
        feed the breaker, application errors do not (the target is
        alive and answering).  A half-open probe drops the cached
        binding and re-resolves before sending: the binding predates
        the outage, and a target that recovered at a new address would
        otherwise cost the probe a full stale walk.

        ``term`` is an optional fencing token stamped on every attempt;
        when None, :attr:`term_source` (if set) supplies one.  A target
        that has already seen a newer term for the same scope raises
        :class:`~repro.legion.errors.StaleManagerTerm`, which surfaces
        here unchanged — the cue for a deposed sender to stand down.

        ``hedge=True`` marks the operation idempotent and eligible for
        a backup request against a slow peer; it only takes effect once
        :meth:`enable_hedging` has armed the invoker.

        The generator returned is the invocation body itself, or, with
        a ``breaker``, the body wrapped in the breaker's bookkeeping.
        """
        if breaker is not None:
            return self._invoke_guarded(
                breaker, loid, method, args, payload_bytes, timeout_schedule,
                retry_policy, term, hedge,
            )
        return self._invoke_inner(
            loid, method, args, payload_bytes, timeout_schedule, retry_policy,
            term, hedge,
        )

    def _invoke_guarded(self, breaker, loid, *args):
        """Generator: the invocation body behind ``breaker`` (see invoke)."""
        probing = breaker.state is not CircuitState.CLOSED
        if not breaker.allow():
            self._endpoint.network.count("breaker.short_circuits")
            raise CircuitOpen(str(loid), breaker.retry_at)
        if probing:
            # This attempt is the half-open probe: the target was
            # known-dead, so any cached binding predates the outage.
            # Rebind before probing — a target that recovered at a
            # new address (host restart, new incarnation) then
            # answers after one resolve round trip instead of after
            # a full stale-binding timeout walk.
            self._cache.invalidate(loid)
            self._endpoint.network.count("breaker.probe_rebinds")
        try:
            result = yield from self._invoke_inner(loid, *args)
        except (RequestTimeout, ObjectUnreachable, UnknownObject):
            breaker.record_failure()
            raise
        breaker.record_success()
        return result

    def _invoke_inner(
        self,
        loid,
        method,
        args=(),
        payload_bytes=None,
        timeout_schedule=None,
        retry_policy=None,
        term=None,
        hedge=False,
    ):
        """Generator: the breaker-free invocation body (see invoke)."""
        if term is None and self.term_source is not None:
            term = self.term_source()
        retry_policy = retry_policy or self.retry_policy
        payload_bytes = (
            self._calibration.method_message_bytes if payload_bytes is None else payload_bytes
        )
        started = self._endpoint.sim.now
        self.stats.invocations += 1

        # Client-side marshalling / stub dispatch cost.
        yield self._endpoint.sim.timeout(self._calibration.method_dispatch_s)

        binding = self._cache.get(loid)
        if binding is None:
            self.stats.binding_misses += 1
            binding = yield from self._resolve_remote(loid)
        else:
            self.stats.binding_hits += 1

        request = {"op": "invoke", "method": method, "args": tuple(args)}
        for stale_round in range(2):
            try:
                result = yield from self._attempt_at(
                    binding, request, payload_bytes, timeout_schedule,
                    retry_policy, term, hedge,
                )
                return self._unwrap_envelope(loid, result)
            except RequestTimeout:
                elapsed = self._endpoint.sim.now - started
                if stale_round == 1:
                    raise ObjectUnreachable(loid, elapsed)
                # The binding looks stale: every attempt in the schedule
                # timed out.  Record the discovery and rebind.
                self._cache.record_stale_discovery(elapsed)
                self._cache.invalidate(loid)
                self.stats.rebinds += 1
                fresh = yield from self._resolve_remote(loid)
                if fresh.address == binding.address and fresh.incarnation == binding.incarnation:
                    raise ObjectUnreachable(loid, self._endpoint.sim.now - started)
                binding = fresh

    def _attempt_at(
        self,
        binding,
        request,
        payload_bytes,
        timeout_schedule=None,
        retry_policy=None,
        term=None,
        hedge=False,
    ):
        """Generator: walk the timeout schedule against one address."""
        estimator = None
        if self._adaptive_timeouts or self._hedging:
            estimator = self.estimator_for(binding.address)
        schedule = self._timeout_schedule(timeout_schedule, estimator)
        hedge_delay_s = None
        if hedge and self._hedging:
            if self._hedge_delay_s is not None:
                hedge_delay_s = self._hedge_delay_s
            elif estimator is not None and estimator.samples > 0:
                hedge_delay_s = estimator.hedge_delay_s()
            else:
                hedge_delay_s = schedule[0] / 2.0
        last_error = None
        sim = self._endpoint.sim
        # Indexed, so that no list or iterator is held across the yields.
        for index in range(len(schedule)):
            timeout_s = schedule[index]
            if index > 0:
                self.stats.retries += 1
                if retry_policy is not None:
                    backoff = retry_policy.backoff_s(index)
                    if backoff > 0:
                        self._endpoint.network.count("retry.backoff_waits")
                        yield sim.timeout(backoff)
            attempt_started = sim.now
            try:
                reply = yield from self._endpoint.request(
                    binding.address,
                    request,
                    size_bytes=payload_bytes,
                    timeout_s=timeout_s,
                    max_attempts=1,
                    term=term,
                    hedge_delay_s=hedge_delay_s,
                )
            except RequestTimeout as timeout_error:
                last_error = timeout_error
                continue
            except RemoteError as error:
                if estimator is not None:
                    # The peer answered (with an error): a valid RTT.
                    estimator.observe(sim.now - attempt_started)
                raise self._unwrap(error)
            if estimator is not None:
                estimator.observe(sim.now - attempt_started)
            return reply
        raise last_error

    def _unwrap_envelope(self, loid, reply):
        """Peel a piggybacked epoch off a reply, recording it per LOID."""
        if isinstance(reply, ReplyEnvelope):
            epochs = self._observed_epochs
            if epochs is None:
                epochs = self._observed_epochs = {}
            epochs[loid] = reply.epoch
            self.stats.epoch_observations += 1
            return reply.value
        return reply

    def invoke_many(
        self,
        loids,
        method,
        args=(),
        window=8,
        payload_bytes=None,
        timeout_schedule=None,
        retry_policy=None,
    ):
        """Generator: invoke ``method`` on many objects, windowed.

        At most ``window`` invocations are in flight at once, each freed
        slot immediately starting the next.  Returns an ordered mapping
        ``loid -> (ok, value-or-exception)``.
        """
        loids = list(loids)

        def start(loid):
            return self.invoke(
                loid,
                method,
                args,
                payload_bytes=payload_bytes,
                timeout_schedule=timeout_schedule,
                retry_policy=retry_policy,
            )

        outcomes = yield from run_windowed(self._endpoint.sim, loids, window, start)
        return dict(zip(loids, outcomes))

    def invoke_each(
        self,
        loids,
        method,
        args,
        window=8,
        payload_bytes=None,
        timeout_schedule=None,
        retry_policy=None,
        breaker=None,
        term=None,
    ):
        """Generator: one method, windowed, with per-target arguments.

        Unlike :meth:`invoke_many` (the same call fanned to many
        objects), ``args`` is a sequence parallel to ``loids``: target
        ``loids[i]`` gets ``method(*args[i])``.  This is the shape a host
        relay needs to apply per-instance configuration diffs to its
        colocated DCDOs.  Returns ``(ok, value-or-exception)`` pairs in
        input order, at most ``window`` in flight at once.
        """

        def start(index):
            return self.invoke(
                loids[index],
                method,
                args[index],
                payload_bytes=payload_bytes,
                timeout_schedule=timeout_schedule,
                retry_policy=retry_policy,
                breaker=breaker,
                term=term,
            )

        outcomes = yield from run_windowed(
            self._endpoint.sim, range(len(loids)), window, start
        )
        return outcomes

    @staticmethod
    def _unwrap(error):
        """Surface application/Legion errors thrown by the remote side."""
        cause = error.cause
        if isinstance(cause, (MethodNotFound, UnknownObject)):
            return cause
        if isinstance(cause, Exception) and not isinstance(cause, RemoteError):
            return cause
        return error
