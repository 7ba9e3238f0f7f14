"""The simulation event loop.

:class:`Simulator` owns the clock and delegates the pending-event set
to a pluggable scheduler (see :mod:`repro.sim.scheduler`).  Events are
processed in (time, sequence) order, so two events scheduled for the
same instant run in the order they were scheduled — this makes every
simulation run fully deterministic regardless of which scheduler backs
the queue.
"""

from repro.sim.errors import SimulationError, StaleScheduleError
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.scheduler import CalendarScheduler


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock (seconds by convention
        throughout this repository).
    scheduler:
        Event-queue backend; defaults to a fresh
        :class:`~repro.sim.scheduler.CalendarScheduler`.  Pass a
        :class:`~repro.sim.scheduler.HeapScheduler` to reproduce the
        pre-calendar kernel (used by the P6 A/B benchmark).
    """

    __slots__ = ("_now", "_scheduler", "_active_process")

    def __init__(self, start_time=0.0, scheduler=None):
        self._now = float(start_time)
        self._scheduler = scheduler if scheduler is not None else CalendarScheduler()
        self._active_process = None

    @property
    def now(self):
        """Current simulated time, in seconds."""
        return self._now

    @property
    def active_process(self):
        """The process currently being stepped, if any."""
        return self._active_process

    @property
    def processed_events(self):
        """Count of processed entries (for diagnostics and tests)."""
        return self._scheduler.processed

    @property
    def pending(self):
        """Count of live scheduled entries (cancelled ones excluded)."""
        return self._scheduler.pending

    # ------------------------------------------------------------------
    # Factory helpers
    # ------------------------------------------------------------------

    def event(self, name=None):
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay, value=None, daemon=False):
        """Create a :class:`Timeout` triggering ``delay`` seconds from now.

        ``daemon`` timeouts do not keep an unbounded ``run()`` alive —
        use them for background polling loops.
        """
        return Timeout(self, delay, value=value, daemon=daemon)

    def spawn(self, generator, name=None):
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Scheduling (kernel internal, used by events/processes)
    # ------------------------------------------------------------------

    def _schedule_event(self, event, delay=0.0, daemon=False):
        """Queue a triggered event's callbacks to run after ``delay``.

        The event itself is the scheduler action (see
        :meth:`Event.__call__ <repro.sim.events.Event.__call__>`).
        Returns the scheduler entry so the caller can lazily cancel it.
        """
        if delay < 0:
            raise StaleScheduleError(f"cannot schedule {delay} seconds in the past")
        return self._scheduler.push(self._now + delay, event, daemon)

    def _schedule_call(self, func, delay=0.0):
        """Queue a bare callable; returns its cancellable entry."""
        if delay < 0:
            raise StaleScheduleError(f"cannot schedule {delay} seconds in the past")
        return self._scheduler.push(self._now + delay, func, False)

    def _cancel_entry(self, entry):
        """Lazily cancel a scheduled entry (no-op once it has run)."""
        return self._scheduler.cancel(entry)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def step(self):
        """Process the single next entry; returns False when empty."""
        entry = self._scheduler.pop()
        if entry is None:
            return False
        if entry.time < self._now:
            raise SimulationError("event queue corrupted: time went backwards")
        self._now = entry.time
        # Mark consumed so a late cancel() of this entry is a no-op.
        action, entry.action = entry.action, None
        action()
        return True

    def run(self, until=None):
        """Run the simulation.

        Parameters
        ----------
        until:
            If ``None``, run until no non-daemon events remain (daemon
            work — background pollers — never keeps the run alive).
            If a number, run until the clock reaches that time (events
            at exactly ``until`` are *not* processed; the clock is left
            at ``until``).  If an :class:`Event`, run until that event
            has triggered, and return its value (raising its exception
            if it failed).
        """
        if until is None:
            scheduler = self._scheduler
            while scheduler.nondaemon_pending > 0 and self.step():
                pass
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        return self._run_until_time(float(until))

    def _run_until_time(self, deadline):
        if deadline < self._now:
            raise ValueError(f"cannot run until {deadline}; clock is at {self._now}")
        scheduler = self._scheduler
        while True:
            when = scheduler.peek_time()
            if when is None or when >= deadline:
                break
            self.step()
        self._now = deadline
        return None

    def _run_until_event(self, event):
        while not event.triggered:
            if not self.step():
                raise SimulationError(f"simulation ran out of events before {event!r} triggered")
        # Drain same-instant callbacks so observers see a settled state.
        while self._scheduler.peek_time() == self._now:
            self.step()
        if event.ok:
            return event.value
        raise event.value

    def run_process(self, generator, name=None):
        """Spawn ``generator`` and run until it finishes; return its value."""
        return self.run(self.spawn(generator, name=name))

    def __repr__(self):
        return f"<Simulator t={self._now:g} pending={self.pending}>"
