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
or ``Timeout`` object is built per call.  The endpoint itself is the
action of both zero-delay hops (a dispatch, and a reply's settle), so
neither allocates.

Request handlers are generators, so servicing a request can itself
perform simulated work and nested calls.  Remote exceptions propagate
back to the caller as :class:`RemoteError`.

Execution is at most once per request id, by caller horizons rather
than a table of served ids (the scheme of RIFL, Lee et al., SOSP 2015).
Every attempt is a fresh message, and every request carries its
sender's *horizon*: the id of the sender's oldest attempt still waiting
for a reply, or its own id when none older waits.  Message ids only
grow, so the sender has settled every id it used below its horizon.
A server keeps one record per caller: the highest horizon it has seen
and the few ids at or above it that it has served.  It refuses a
request whose id is in the record (a duplicate) or below the horizon
(stale: an attempt whose sender gave up on it, or a late copy of one
it settled), counting ``transport.duplicate_requests`` and
``transport.stale_requests``.  A record is dropped once its caller has
sent nothing for ``dedupe_ttl_s``.

Closing an endpoint fails every request still waiting on it at once:
no reply can reach it, so :meth:`Endpoint.request` raises
:class:`TransportError` at the close instead of waiting out its timer.
"""

import struct
from collections import deque

from repro.net.message import Message, next_message_id
from repro.net.retry import DEFAULT_REQUEST_RETRY
from repro.sim.errors import SimulationError
from repro.sim.events import Event


def run_windowed(sim, items, window, start=None):
    """Generator: run one generator per item with at most ``window`` in flight.

    The shared fan-out engine behind the invoker's windowed calls and
    the manager's windowed evolution waves.  ``items`` is a sequence;
    each item's generator is ``start(item)``, or ``item()`` when
    ``start`` is None (a sequence of zero-argument thunks).  At most
    ``window`` of them execute concurrently, each freed slot
    immediately pulling the next item.  Returns a list of ``(ok,
    value)`` pairs in input order — ``(True, result)`` or ``(False,
    exception)`` — so one slow or failing item never hides the others'
    outcomes.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    # Values and errors are held bare while the window runs; the pairs
    # are built once every item is done.
    values = [None] * len(items)
    errors = {}
    # Workers pull indexes lazily from one shared iterator.
    work = iter(range(len(items)))

    def worker():
        for index in work:
            item = items[index]
            try:
                values[index] = yield from (item() if start is None else start(item))
            except Exception as error:  # noqa: BLE001 - reported per item
                errors[index] = error

    workers = [sim.spawn(worker()) for __ in range(min(window, len(items)))]
    if workers:
        from repro.sim.events import AllOf

        yield AllOf(sim, workers)
    if not errors:
        return [(True, value) for value in values]
    return [
        (False, errors[index]) if index in errors else (True, value)
        for index, value in enumerate(values)
    ]


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


#: A caller's record when it remembers one served id (nearly always):
#: its horizon, the time of its latest request, and that id.  Packed,
#: it is one 57-byte object that the collector does not track.  A
#: record remembering more ids is the tuple ``(horizon, time, *ids)``.
_RECORD = struct.Struct("<qdq")


def _unpack(record):
    """``(horizon, time of the latest request, remembered ids)`` of a
    caller's record."""
    if type(record) is bytes:
        horizon, last, served_id = _RECORD.unpack(record)
        return horizon, last, (served_id,)
    return record[0], record[1], record[2:]


#: What a request attempt's wait resolves to when no reply won.
_TIMED_OUT = object()
_HEDGE_DUE = object()
_CLOSED = object()


class _Attempt(Event):
    """The one event a request attempt waits on.

    A reply, the attempt's timer and its hedge point each resolve it
    from a scheduled call, and the event then resumes the requester:
    two scheduled hops, the same two that a reply event and its
    ``AnyOf`` took.  Whichever resolves it first wins; the hedge point
    re-arms it for the rest of the attempt.  Closing the endpoint
    resolves it at once.

    The attempts an endpoint still waits on form a list in the order
    they were sent (``older``/``newer``), so the oldest, whose
    ``message_id`` is the horizon every request carries, is found in
    O(1), and an attempt leaves the list in O(1) wherever it is.
    """

    __slots__ = ("message_id", "older", "newer")

    def settle(self, outcome):
        """Scheduled call: resolve with a reply or a timer's marker,
        unless resolved already."""
        if self._ok is None:
            self.succeed(outcome)

    def expire(self):
        """Scheduled call: the attempt's timer ran out."""
        self.settle(_TIMED_OUT)

    def hedge(self):
        """Scheduled call: the attempt reached its hedge point."""
        self.settle(_HEDGE_DUE)

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
        How long a caller may stay idle (send nothing) before this
        endpoint, as a server, drops its record.  A copy of a request
        that arrives within the TTL of the first copy is always
        refused; a later one is refused while its caller has not gone
        idle for the TTL since.  It bounds the records a server keeps
        by the callers active within the TTL.

    Every active object owns an endpoint, so its backlog builds no
    container until two messages wait: the head, the one message with a
    dispatch hop scheduled, is a slot (``_head``), and a deque is built
    only for a message that lands while the head is still waiting.  The
    common path (one message at a time) allocates nothing per message.

    As a server it keeps its callers' records in the order of their
    latest requests, so the idle ones lead: a request past
    ``_evict_at`` (when the first record goes idle) drops them, and each
    record is dropped once.  A sender finds its horizon in O(1): its
    waiting attempts are linked in the order they were sent (see
    :class:`_Attempt`).
    """

    __slots__ = (
        "_network",
        "_sim",
        "_address",
        "_port",
        "_request_handler",
        "_oneway_handler",
        "_default_timeout_s",
        "_max_attempts",
        "_retry_policy",
        "_dedupe_ttl_s",
        "_head",
        "_backlog",
        "_settle_wait",
        "_settle_reply",
        "_pending_replies",
        "_oldest",
        "_newest",
        "_callers",
        "_evict_at",
        "_closed",
        "requests_served",
    )

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
        # The delivered message with a dispatch hop scheduled, and the
        # ones delivered behind it (a deque built for the first of them).
        self._head = None
        self._backlog = None
        # The reply waiting for its settle hop, and the attempt it
        # settles; at most one is ever queued (see ``__call__``).
        self._settle_wait = None
        self._settle_reply = None
        # message id -> the attempt waiting for its reply, and the
        # oldest and newest of those attempts.
        self._pending_replies = {}
        self._oldest = None
        self._newest = None
        # caller address -> its record, in the order of the callers'
        # latest requests; and a time no record expires before.
        self._callers = {}
        self._evict_at = dedupe_ttl_s
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
        the ones queued behind it are dropped.  No reply can reach a
        request still waiting here, so each one fails at once: its
        :meth:`request` raises :class:`TransportError` at this instant
        and cancels its timer.
        """
        if self._closed:
            return
        self._closed = True
        self._network.unregister_endpoint(self)
        self._network.detach(self._address)
        self._backlog = None
        attempt = self._oldest
        while attempt is not None:
            attempt.settle(_CLOSED)
            attempt = attempt.newer

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
            message_id = next_message_id()
            wait = _Attempt(sim)
            wait.message_id = message_id
            wait.newer = None
            # Queue the attempt behind the others still waiting; the
            # oldest of them is this request's horizon.
            newest = wait.older = self._newest
            if newest is None:
                self._oldest = wait
            else:
                newest.newer = wait
            self._newest = wait
            message = Message(
                source=self._address,
                destination=destination,
                payload=payload,
                size_bytes=size_bytes,
                kind="request",
                term=term,
                horizon=self._oldest.message_id,
                message_id=message_id,
            )
            pending = self._pending_replies
            pending[message_id] = wait
            backup = None
            try:
                network.send(message)
                if hedge_delay_s is None:
                    timer = sim._schedule_call(wait.expire, timeout_s)
                    reply = yield wait
                else:
                    timer = sim._schedule_call(wait.hedge, hedge_delay_s)
                    reply = yield wait
                    if reply is _HEDGE_DUE and self._closed:
                        reply = _CLOSED
                    elif reply is _HEDGE_DUE:
                        # Primary is late: race a backup copy against it
                        # for the remainder of the attempt budget.
                        backup = Message(
                            source=self._address,
                            destination=destination,
                            payload=payload,
                            size_bytes=size_bytes,
                            kind="request",
                            term=term,
                            horizon=self._oldest.message_id,
                        )
                        wait.rearm()
                        pending[backup.message_id] = wait
                        network.send(backup)
                        network.count("transport.hedges")
                        timer = sim._schedule_call(
                            wait.expire, timeout_s - hedge_delay_s
                        )
                        reply = yield wait
            finally:
                # The attempt waits for nothing now: unqueue it, so the
                # horizon moves past it.
                older = wait.older
                newer = wait.newer
                if older is None:
                    self._oldest = newer
                else:
                    older.newer = newer
                if newer is None:
                    self._newest = older
                else:
                    newer.older = older
                if backup is not None:
                    pending.pop(backup.message_id, None)
                pending.pop(message_id, None)
            if reply is _CLOSED:
                sim._cancel_entry(timer)
                raise TransportError(f"endpoint {self._address!r} is closed")
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

        Only the backlog's head has a dispatch hop; the next one is
        scheduled once the head has been dispatched, so messages are
        dispatched in delivery order, one scheduler entry each.
        """
        if self._head is None:
            self._head = message
            self._sim._lane.append(self)
            return
        backlog = self._backlog
        if backlog is None:
            backlog = self._backlog = deque()
        backlog.append(message)

    def __call__(self):
        """Scheduled hop: settle the oldest reply, or dispatch the
        backlog's head.

        An endpoint is its own zero-delay action for both hops, so
        neither allocates.  A settle hop is scheduled while a dispatch
        runs, when none of this endpoint's dispatches is queued, so it
        runs before the next dispatch is scheduled or run: at most one
        settle is ever queued, and while one is, the hop running is it.
        """
        wait = self._settle_wait
        if wait is not None:
            reply = self._settle_reply
            self._settle_wait = self._settle_reply = None
            wait.settle(reply)
            return
        self._dispatch_inbound(self._head)
        backlog = self._backlog
        if backlog:
            self._head = backlog.popleft()
            self._sim._lane.append(self)
        else:
            self._head = None

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
            self._settle_wait = wait
            self._settle_reply = message
            self._sim._lane.append(self)
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
        now = self._sim.now
        if now > self._evict_at:
            self._evict_idle_callers(now)
        callers = self._callers
        source = message.source
        message_id = message.message_id
        horizon = message.horizon
        served = ()
        if source in callers:
            record = callers[source]
            if type(record) is bytes:
                known, __, served_id = _RECORD.unpack(record)
                served = (served_id,)
            else:
                known = record[0]
                served = record[2:]
            if message_id < known or message_id in served:
                self._refuse(message_id < known)
                return
            if horizon < known:
                horizon = known
            # Forget the ids now below the horizon: the caller settled them.
            if type(record) is bytes:
                if served_id < horizon:
                    served = ()
            else:
                served = tuple(kept for kept in served if kept >= horizon)
            # Move the caller behind the others: its request is the latest.
            del callers[source]
        if served:
            callers[source] = (horizon, now, *served, message_id)
        else:
            callers[source] = _RECORD.pack(horizon, now, message_id)
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
        address — the fabric would reject the unknown source.
        """
        if self._closed:
            return False
        self._network.send(message.reply_to(payload, size_bytes=size_bytes))
        return True

    def _refuse(self, stale):
        """Count a request that must not run: below its caller's horizon
        (``stale``: an attempt the caller gave up on, or a late copy of
        one it settled), or a copy of one served here."""
        self._network.count(
            "transport.stale_requests" if stale else "transport.duplicate_requests"
        )

    def _evict_idle_callers(self, now):
        """Drop the records of callers idle for longer than the TTL.

        Records are in the order of their callers' latest requests, so
        the idle ones lead; ``_evict_at`` becomes the time the first
        one left goes idle.
        """
        callers = self._callers
        ttl = self._dedupe_ttl_s
        self._evict_at = now + ttl
        idle = []
        for caller, record in callers.items():
            last = _unpack(record)[1]
            if now - last <= ttl:
                self._evict_at = last + ttl
                break
            idle.append(caller)
        for caller in idle:
            del callers[caller]

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return f"<Endpoint {self._address} {state}>"
