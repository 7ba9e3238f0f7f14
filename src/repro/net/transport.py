"""Reliable request/reply transport over the datagram fabric.

An :class:`Endpoint` binds an address on the fabric and offers:

- ``send(...)`` — one-way datagram;
- ``request(...)`` — request/reply with per-attempt timeout and bounded
  retries (a generator to be driven with ``yield from``).

An endpoint has no receive loop.  Its port hands each delivered message
to :meth:`Endpoint._receive`, which schedules one dispatch entry for it;
a message that lands while another is waiting for dispatch queues
behind it and is scheduled once that one has been dispatched.  A
request attempt waits on one event, which its reply, its timer or its
hedge point resolves through a scheduled call, so no composite event
or ``Timeout`` object is built per call.

Request handlers are generators, so servicing a request can itself
perform simulated work and nested calls.  Remote exceptions propagate
back to the caller as :class:`RemoteError`.
"""

from collections import OrderedDict, deque
from functools import partial

from repro.net.message import Message
from repro.net.retry import DEFAULT_REQUEST_RETRY
from repro.sim.errors import SimulationError
from repro.sim.events import Event


def run_windowed(sim, thunks, window):
    """Generator: run generator-thunks with at most ``window`` in flight.

    The shared fan-out engine behind the invoker's windowed calls and
    the manager's windowed evolution waves.  ``thunks`` is a sequence of
    zero-argument callables returning generators; at most ``window`` of
    them execute concurrently, each freed slot immediately pulling the
    next.  Returns a list of ``(ok, value)`` pairs in input order —
    ``(True, result)`` or ``(False, exception)`` — so one slow or
    failing item never hides the others' outcomes.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    thunks = list(thunks)
    results = [None] * len(thunks)
    work = iter(list(enumerate(thunks)))

    def worker():
        for index, thunk in work:
            try:
                value = yield from thunk()
            except Exception as error:  # noqa: BLE001 - reported per item
                results[index] = (False, error)
            else:
                results[index] = (True, value)

    workers = [sim.spawn(worker()) for __ in range(min(window, len(thunks)))]
    if workers:
        from repro.sim.events import AllOf

        yield AllOf(sim, workers)
    return results


class TransportError(SimulationError):
    """Base class for transport-level failures."""


class RequestTimeout(TransportError):
    """No reply arrived within the allotted attempts.

    Carries the destination address and total time spent so callers
    (e.g. the binding layer) can account rebinding cost.
    """

    def __init__(self, destination, attempts, elapsed):
        super().__init__(f"no reply from {destination!r} after {attempts} attempt(s) ({elapsed:.3f}s)")
        self.destination = destination
        self.attempts = attempts
        self.elapsed = elapsed


class RemoteError(TransportError):
    """The remote handler raised; carries the original exception."""

    def __init__(self, destination, cause):
        super().__init__(f"remote error from {destination!r}: {cause!r}")
        self.destination = destination
        self.cause = cause


class CircuitOpen(TransportError):
    """An attempt was short-circuited by an open circuit breaker.

    Raised *before* any traffic is sent: the breaker has seen enough
    consecutive failures against the target that another full timeout
    walk would be wasted.  ``retry_at`` is the simulated time at which
    a half-open probe will next be admitted.
    """

    def __init__(self, target, retry_at=None):
        suffix = f"; probe admitted at t={retry_at:.3f}s" if retry_at is not None else ""
        super().__init__(f"circuit open for {target!r}{suffix}")
        self.target = target
        self.retry_at = retry_at


class _ErrorReply:
    """Wire marker distinguishing an error reply from a value reply."""

    __slots__ = ("cause",)

    def __init__(self, cause):
        self.cause = cause


#: What a request attempt's wait resolves to when no reply won.
_TIMED_OUT = object()
_HEDGE_DUE = object()


class _Attempt(Event):
    """The one event a request attempt waits on.

    A reply, the attempt's timer and its hedge point each resolve it
    from a scheduled call, and the event then resumes the requester:
    two scheduled hops, the same two that a reply event and its
    ``AnyOf`` took.  Whichever resolves it first wins; the hedge point
    re-arms it for the rest of the attempt.
    """

    __slots__ = ()

    def settle(self, outcome):
        """Scheduled call: resolve with a reply or a timer's marker,
        unless resolved already."""
        if self._ok is None:
            self.succeed(outcome)

    def rearm(self):
        """Make the event pending again (after the hedge point)."""
        Event.__init__(self, self._sim)


class Endpoint:
    """A transport endpoint bound to one fabric address.

    Parameters
    ----------
    network:
        The :class:`~repro.net.fabric.Network` to attach to.
    address:
        Unique address string for this endpoint.
    request_handler:
        Optional generator function ``handler(message)`` driven for
        each inbound request; its return value becomes the reply
        payload.  It may return ``(payload, size_bytes)`` to charge a
        reply size.
    default_timeout_s:
        Per-attempt reply timeout for :meth:`request`.
    max_attempts:
        Number of send attempts before :class:`RequestTimeout`.
    retry_policy:
        Spacing between attempts of a multi-attempt :meth:`request`
        (defaults to :data:`~repro.net.retry.DEFAULT_REQUEST_RETRY`);
        its attempt/deadline limits are not consulted — the request's
        own ``max_attempts`` bounds the loop.
    dedupe_ttl_s:
        How long a served request id is remembered for duplicate
        suppression after its reply went out.  Entries are evicted
        lazily so the table stays bounded under heavy traffic.
    """

    #: Hard cap on remembered request ids; beyond it the oldest
    #: completed entries are evicted even if their TTL has not expired.
    SEEN_REQUEST_LIMIT = 4096

    def __init__(
        self,
        network,
        address,
        request_handler=None,
        oneway_handler=None,
        default_timeout_s=5.0,
        max_attempts=1,
        retry_policy=None,
        dedupe_ttl_s=60.0,
    ):
        self._network = network
        self._sim = network.sim
        self._address = address
        self._port = network.attach(address)
        self._port.receiver = self._receive
        self._request_handler = request_handler
        self._oneway_handler = oneway_handler
        self._default_timeout_s = default_timeout_s
        self._max_attempts = max_attempts
        self._retry_policy = retry_policy or DEFAULT_REQUEST_RETRY
        self._dedupe_ttl_s = dedupe_ttl_s
        # Delivered messages not yet dispatched; the head has a dispatch
        # entry scheduled.
        self._backlog = deque()
        # message id -> the attempt waiting for its reply.
        self._pending_replies = {}
        # message_id -> completion time (None while still being served);
        # insertion-ordered so TTL/size eviction walks the oldest first.
        self._seen_requests = OrderedDict()
        self._closed = False
        self.requests_served = 0
        network.register_endpoint(self)

    @property
    def address(self):
        """This endpoint's fabric address."""
        return self._address

    @property
    def network(self):
        """The fabric this endpoint is attached to."""
        return self._network

    @property
    def sim(self):
        """The owning simulator."""
        return self._sim

    @property
    def is_closed(self):
        """True after :meth:`close`."""
        return self._closed

    def set_request_handler(self, handler):
        """Install (or replace) the inbound request handler."""
        self._request_handler = handler

    def set_oneway_handler(self, handler):
        """Install (or replace) the inbound one-way handler."""
        self._oneway_handler = handler

    def close(self):
        """Detach from the fabric; all later traffic to us is lost.

        A message already handed over for dispatch is still dispatched;
        the ones queued behind it are dropped.
        """
        if self._closed:
            return
        self._closed = True
        self._network.unregister_endpoint(self)
        self._network.detach(self._address)
        backlog = self._backlog
        while len(backlog) > 1:
            backlog.pop()
        # Forget callers still waiting on replies: no reply can reach
        # them now, and each attempt still ends at its own timer.
        self._pending_replies = {}

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, destination, payload, size_bytes=0, kind="oneway"):
        """Fire-and-forget datagram.

        Delivery is asynchronous and nothing is returned to wait on
        (datagram semantics).
        """
        if self._closed:
            raise TransportError(f"endpoint {self._address!r} is closed")
        message = Message(
            source=self._address,
            destination=destination,
            payload=payload,
            size_bytes=size_bytes,
            kind=kind,
        )
        return self._network.send(message)

    def request(
        self,
        destination,
        payload,
        size_bytes=0,
        timeout_s=None,
        max_attempts=None,
        retry_policy=None,
        term=None,
        hedge_delay_s=None,
    ):
        """Generator: send a request and wait for its reply.

        Usage from a process::

            reply = yield from endpoint.request("other", {"op": "ping"})

        Retries up to ``max_attempts`` times with a fresh message per
        attempt (the correlation table accepts a reply to any attempt);
        attempts after the first are spaced by the retry policy's
        backoff, so a fleet of timed-out callers does not re-fire in
        lockstep.  Raises :class:`RequestTimeout` when attempts are
        exhausted and :class:`RemoteError` when the remote handler
        raised.

        With ``hedge_delay_s`` set (below the attempt timeout), an
        attempt still unanswered after that delay sends a *backup* copy
        with a fresh message id and races both replies for the rest of
        the timeout — Dean's hedged request.  The backup is a real
        second request, so it only belongs on idempotent operations;
        a fresh id (rather than a dedupe-suppressed duplicate) is
        deliberate, because a gray peer's problem is slowness, not
        loss, and only an independently-executed copy cuts that tail.
        """
        if self._closed:
            raise TransportError(f"endpoint {self._address!r} is closed")
        timeout_s = self._default_timeout_s if timeout_s is None else timeout_s
        max_attempts = self._max_attempts if max_attempts is None else max_attempts
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if hedge_delay_s is not None and hedge_delay_s >= timeout_s:
            hedge_delay_s = None
        policy = retry_policy or self._retry_policy
        network = self._network
        sim = self._sim
        started = sim.now

        for attempt in range(1, max_attempts + 1):
            if self._closed:
                # Closed while backing off (e.g. our host crashed).
                raise TransportError(f"endpoint {self._address!r} is closed")
            message = Message(
                source=self._address,
                destination=destination,
                payload=payload,
                size_bytes=size_bytes,
                kind="request",
                term=term,
            )
            wait = _Attempt(sim)
            self._pending_replies[message.message_id] = wait
            network.send(message)
            backup = None
            if hedge_delay_s is None:
                timer = sim._schedule_call(partial(wait.settle, _TIMED_OUT), timeout_s)
                reply = yield wait
            else:
                timer = sim._schedule_call(
                    partial(wait.settle, _HEDGE_DUE), hedge_delay_s
                )
                reply = yield wait
                if reply is _HEDGE_DUE:
                    # Primary is late: race a backup copy against it for
                    # the remainder of the attempt budget.
                    backup = Message(
                        source=self._address,
                        destination=destination,
                        payload=payload,
                        size_bytes=size_bytes,
                        kind="request",
                        term=term,
                    )
                    wait.rearm()
                    self._pending_replies[backup.message_id] = wait
                    network.send(backup)
                    network.count("transport.hedges")
                    timer = sim._schedule_call(
                        partial(wait.settle, _TIMED_OUT), timeout_s - hedge_delay_s
                    )
                    reply = yield wait
                    self._pending_replies.pop(backup.message_id, None)
            self._pending_replies.pop(message.message_id, None)
            if reply is not _TIMED_OUT:
                # A reply won the race: cancel the timer so it stops
                # occupying the event queue and keeping run() alive.
                sim._cancel_entry(timer)
                if backup is not None and reply.correlation_id == backup.message_id:
                    network.count("transport.hedge_wins")
                    network.health_observe(destination, "hedge_win")
                network.health_observe(destination, "success")
                if isinstance(reply.payload, _ErrorReply):
                    raise RemoteError(destination, reply.payload.cause)
                return reply.payload
            if attempt < max_attempts:
                network.count("retry.request_attempts")
                backoff = policy.backoff_s(attempt)
                if backoff > 0:
                    network.count("retry.backoff_waits")
                    yield sim.timeout(backoff)
        network.health_observe(destination, "timeout")
        raise RequestTimeout(destination, max_attempts, sim.now - started)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def _receive(self, message):
        """Port callback: queue ``message`` and schedule its dispatch.

        Only the backlog's head has a dispatch entry; the next one is
        scheduled once the head has been dispatched, so messages are
        dispatched in delivery order, one scheduler entry each.
        """
        backlog = self._backlog
        backlog.append(message)
        if len(backlog) == 1:
            self._sim._schedule_call(self._dispatch_next)

    def _dispatch_next(self):
        """Scheduled call: dispatch the backlog's head."""
        backlog = self._backlog
        self._dispatch_inbound(backlog[0])
        backlog.popleft()
        if backlog:
            self._sim._schedule_call(self._dispatch_next)

    def _dispatch_inbound(self, message):
        kind = message.kind
        if kind == "reply":
            self._handle_reply(message)
        elif kind == "request":
            self._sim.spawn(self._serve_request(message))
        else:
            self._handle_oneway(message)

    def _handle_reply(self, message):
        wait = self._pending_replies.pop(message.correlation_id, None)
        if wait is not None:
            self._sim._schedule_call(partial(wait.settle, message))
        # Replies to abandoned (timed-out) requests are dropped, which
        # is exactly the at-most-once behaviour the binding layer
        # depends on for its stale-binding timings.

    def _handle_oneway(self, message):
        if self._oneway_handler is None:
            return
        result = self._oneway_handler(message)
        if result is not None and hasattr(result, "__next__"):
            self._sim.spawn(result)

    def _serve_request(self, message):
        if message.message_id in self._seen_requests:
            # Duplicate of a request we served or are still serving (a
            # retry racing our reply); at-most-once execution drops it.
            self._network.count("transport.duplicate_requests")
            return
        self._evict_seen_requests()
        self._seen_requests[message.message_id] = None
        if self._request_handler is None:
            self._reply(message, _ErrorReply(TransportError("no request handler")))
            return
        try:
            result = yield from self._request_handler(message)
        except Exception as exc:  # noqa: BLE001 - marshalled to caller
            self._reply(message, _ErrorReply(exc))
            return
        payload, reply_size = result if isinstance(result, tuple) else (result, 0)
        if self._reply(message, payload, size_bytes=reply_size):
            self.requests_served += 1

    def _reply(self, message, payload, size_bytes=0):
        """Send a reply unless we closed mid-service; True if it went out.

        A crashed/closed endpoint must not keep talking from a detached
        address — the fabric would reject the unknown source.  The
        served-request id stays remembered either way, stamped with the
        completion time so TTL eviction can reclaim it.
        """
        if message.message_id in self._seen_requests:
            self._seen_requests[message.message_id] = self._sim.now
        if self._closed:
            return False
        self._network.send(message.reply_to(payload, size_bytes=size_bytes))
        return True

    def _evict_seen_requests(self):
        """Drop remembered request ids that are expired or over the cap.

        Entries are insertion-ordered and only completed entries (a
        non-``None`` completion time) are evictable; an in-flight entry
        halts the walk since everything after it is newer.
        """
        now = self._sim.now
        while self._seen_requests:
            done = next(iter(self._seen_requests.values()))
            if done is None:
                break
            expired = now - done > self._dedupe_ttl_s
            over_cap = len(self._seen_requests) >= self.SEEN_REQUEST_LIMIT
            if not (expired or over_cap):
                break
            self._seen_requests.popitem(last=False)

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return f"<Endpoint {self._address} {state}>"
