"""The simulation event loop.

:class:`Simulator` owns the clock and the run API; the pending-event
set and its drain loop belong to a scheduler (see
:mod:`repro.sim.scheduler`).  Entries run in (time, sequence) order, so
two entries scheduled for the same instant run in the order they were
scheduled — every simulation run is fully deterministic whichever
scheduler backs the queue.

The hot path is a push into ``_lane``, the scheduler's queue for the
current instant: process starts and resumes, event triggers and the
transport's zero-delay hops append their action there without an entry
object.  ``_schedule_call`` is the general case (any delay, a
cancellable handle).  Each run mode (``run()``, ``run(until=t)``,
``run(until=event)``) is one call into the scheduler's drain loop,
which pops its queues inline; ``step()`` runs a single entry.
"""

from repro.sim.errors import SimulationError, StaleScheduleError
from repro.sim.events import _UNSET, Event, Timeout
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

    __slots__ = ("_now", "_scheduler", "_lane", "_active_process")

    def __init__(self, start_time=0.0, scheduler=None):
        self._now = float(start_time)
        if scheduler is None:
            scheduler = CalendarScheduler()
        scheduler.attach(self)
        self._scheduler = scheduler
        # ``_lane.append(action)`` schedules ``action`` at the current
        # instant: not cancellable, never a daemon.
        self._lane = scheduler.lane
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
        """Count of processed entries (for diagnostics and tests).

        A run adds its entries when it returns.
        """
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

    def _schedule_call(self, func, delay=0.0):
        """Queue ``func`` to run after ``delay``; returns its entry, which
        the caller can lazily cancel."""
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
        return self._scheduler.step()

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
            has triggered and its instant has drained (so observers see
            a settled state), and return its value (raising its
            exception if it failed).
        """
        if until is None:
            self._scheduler.run()
            return None
        if isinstance(until, Event):
            self._scheduler.run(until=until)
            if until._value is _UNSET:
                raise SimulationError(f"simulation ran out of events before {until!r} triggered")
            if until._ok:
                return until._value
            raise until._value
        deadline = float(until)
        if deadline < self._now:
            raise ValueError(f"cannot run until {deadline}; clock is at {self._now}")
        self._scheduler.run(deadline=deadline)
        self._now = deadline
        return None

    def run_process(self, generator, name=None):
        """Spawn ``generator`` and run until it finishes; return its value."""
        return self.run(self.spawn(generator, name=name))

    def __repr__(self):
        return f"<Simulator t={self._now:g} pending={self.pending}>"
