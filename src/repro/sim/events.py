"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on
by yielding it.  Events carry a value on success or an exception on
failure.  :class:`Timeout` is an event that the kernel triggers after a
fixed delay; :class:`AllOf` and :class:`AnyOf` compose events.

An event is its own scheduler action: triggering it puts the event
itself in the kernel's lane for the current instant, and the kernel
calls it to run its callbacks, so no bound method is made per trigger.
A trigger takes an entry only when someone waits: an event triggered
with no waiter (a finished process nobody joins, a gate nobody waits
on) schedules nothing, and its first waiter schedules it, at the
waiter's own position.  Where nothing was queued at that instant
between the trigger and the registration, that is the position the
trigger had.

Most events have exactly one waiter, so an event holds a lone callback
inline and builds a list only for a second one.  Callbacks run in
registration order; one registered after the event was processed runs
at the same instant, through a zero-delay call.
"""

from functools import partial

from repro.sim.errors import EventAlreadyTriggered

_UNSET = object()
#: ``_callbacks`` of an event triggered with no waiter: not scheduled.
_IDLE = object()
#: ``_callbacks`` of an event whose callbacks have run.
_PROCESSED = object()
#: ``_callbacks`` of a cancelled timeout: it drops every callback.
_CANCELLED = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Events move through three states: *pending* (created, not yet
    triggered), *triggered* (``succeed``/``fail`` called, callbacks
    scheduled), and *processed* (callbacks have run).  A process waits
    on an event by yielding it; the kernel resumes the process with the
    event's value, or throws the event's exception into it.

    ``_callbacks`` is None (no waiter), the one callback, a list of
    them in registration order, or a marker: triggered with no waiter
    (``_IDLE``), processed, or cancelled.
    """

    __slots__ = ("_sim", "_name", "_callbacks", "_value", "_ok")

    def __init__(self, sim, name=None):
        self._sim = sim
        self._name = name
        self._callbacks = None
        self._value = _UNSET
        self._ok = None

    @property
    def sim(self):
        """The simulator this event belongs to."""
        return self._sim

    @property
    def triggered(self):
        """True once succeed() or fail() has been called."""
        return self._value is not _UNSET

    @property
    def ok(self):
        """True if the event succeeded, False if it failed, None if pending."""
        return self._ok

    @property
    def value(self):
        """The success value or failure exception; raises if pending."""
        if self._value is _UNSET:
            raise AttributeError("event has not been triggered")
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``.

        Returns the event itself so callers can write
        ``return event.succeed(x)``.
        """
        if self._value is not _UNSET:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        if self._callbacks is None:
            self._callbacks = _IDLE
        else:
            self._sim._lane.append(self)
        return self

    def fail(self, exception):
        """Trigger the event with an exception.

        The exception will be thrown into every process waiting on the
        event.  Returns the event itself.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        if self._value is not _UNSET:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        if self._callbacks is None:
            self._callbacks = _IDLE
        else:
            self._sim._lane.append(self)
        return self

    def add_callback(self, callback):
        """Register ``callback(event)`` to run when the event is processed.

        Callbacks run in registration order.  The first callback of an
        event triggered with no waiter schedules the event; one
        registered after the event was processed runs through a
        zero-delay call, so callback ordering remains deterministic.
        """
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = callback
        elif type(callbacks) is list:
            callbacks.append(callback)
        elif callbacks is _IDLE:
            self._callbacks = callback
            self._sim._lane.append(self)
        elif callbacks is _PROCESSED:
            # Already processed: deliver asynchronously but immediately.
            self._sim._lane.append(partial(callback, self))
        elif callbacks is not _CANCELLED:
            self._callbacks = [callbacks, callback]

    def __call__(self):
        """Run the callbacks once (the kernel's action for this event)."""
        callbacks = self._callbacks
        self._callbacks = _PROCESSED
        if callbacks is None:
            return
        if type(callbacks) is list:
            for callback in callbacks:
                callback(self)
        else:
            callbacks(self)

    def _label(self):
        """The name ``repr`` shows; rendered only when asked for."""
        return self._name or self.__class__.__name__

    def __repr__(self):
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{self._label()} {state} at t={self._sim.now:g}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` time units.

    A ``daemon`` timeout does not keep an unbounded ``run()`` alive;
    background polling loops sleep on daemon timeouts so that the
    simulation can still run to completion.
    """

    __slots__ = ("_delay", "_handle")

    def __init__(self, sim, delay, value=None, daemon=False):
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        self._sim = sim
        self._name = None
        self._callbacks = None
        self._delay = delay
        self._ok = True
        self._value = value
        self._handle = sim._scheduler.push(sim._now + delay, self, daemon)

    @property
    def delay(self):
        """The delay this timeout was created with."""
        return self._delay

    def _label(self):
        return f"Timeout({self._delay:g})"

    def cancel(self):
        """Lazily cancel the pending trigger; returns True if it was live.

        A cancelled timeout never runs its callbacks and never keeps an
        unbounded ``run()`` alive.  Cancelling after the timeout has
        fired (or twice) is a harmless no-op — the kernel just skips
        the dead queue entry, so losers of ``AnyOf`` races can always
        be cancelled unconditionally.  The callbacks are dropped, and
        so is any registered later, so the loser of a race keeps no
        reference back to its ``AnyOf`` and the pair leaves no cycle
        behind.
        """
        handle = self._handle
        if handle is None:
            return False
        self._handle = None
        if not self._sim._cancel_entry(handle):
            return False
        self._callbacks = _CANCELLED
        return True

    def succeed(self, value=None):
        raise EventAlreadyTriggered("Timeout triggers itself")

    def fail(self, exception):
        raise EventAlreadyTriggered("Timeout triggers itself")


class _ConditionEvent(Event):
    """Shared machinery for AllOf/AnyOf composite events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim, events):
        super().__init__(sim)
        self._events = tuple(events)
        self._pending = len(self._events)
        if not self._events:
            self.succeed(self._result())
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _result(self):
        """Value the composite succeeds with; subclass hook."""
        raise NotImplementedError

    def _on_child(self, event):
        raise NotImplementedError


class AllOf(_ConditionEvent):
    """Succeeds when every child event has succeeded.

    The value is a dict mapping each child event to its value.  Fails
    with the first child failure.
    """

    __slots__ = ()

    def _result(self):
        return {event: event.value for event in self._events if event.ok}

    def _on_child(self, event):
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._result())


class AnyOf(_ConditionEvent):
    """Succeeds as soon as any child event succeeds.

    The value is a dict with the single triggering event and its value.
    Fails only if *all* children fail (with the last failure).
    """

    __slots__ = ()

    def _result(self):
        return {event: event.value for event in self._events if event.triggered and event.ok}

    def _on_child(self, event):
        if self.triggered:
            return
        if event.ok:
            self.succeed({event: event.value})
            return
        self._pending -= 1
        if self._pending == 0:
            self.fail(event.value)
