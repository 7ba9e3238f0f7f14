"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  The generator models a
thread of control: each ``yield event`` suspends the process until the
event triggers, at which point the kernel resumes the generator with
the event's value (or throws its exception).  A process is itself an
:class:`~repro.sim.events.Event` that triggers when the generator
finishes, so processes can be joined by yielding them.

A process is also its own callback and its own scheduler action: it
waits by registering itself on the event it yielded, and it goes into
the kernel's lane itself to start, to resume after a bare ``yield``,
and to run its joiners once finished.  So neither waiting nor resuming
makes a bound method or a queue entry object.  A process that finishes
with nobody joining it schedules nothing; its first joiner schedules
it (see :mod:`repro.sim.events`).
"""

from repro.sim.errors import Interrupt, StopProcess
from repro.sim.events import _IDLE, _UNSET, Event


class Process(Event):
    """A simulated thread of control driven by a generator.

    Do not instantiate directly; use :meth:`Simulator.spawn`.

    The wrapped generator may yield:

    - any :class:`Event` (including :class:`Timeout` and other
      processes) — the process suspends until the event triggers;
    - ``None`` — the process is rescheduled at the current time after
      other pending events (a cooperative yield).

    The process-as-event succeeds with the generator's return value,
    or fails with any exception the generator raises.
    """

    __slots__ = ("_generator", "_waiting_on", "_interrupts")

    def __init__(self, sim, generator, name=None):
        self._sim = sim
        self._name = name
        self._callbacks = None
        self._value = _UNSET
        self._ok = None
        self._generator = generator
        self._waiting_on = None
        self._interrupts = None
        # Kick off the generator at the current simulated time.
        sim._lane.append(self)

    def _label(self):
        return self._name or getattr(self._generator, "__name__", "process")

    @property
    def is_alive(self):
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def waiting_on(self):
        """The event this process is currently suspended on, if any."""
        return self._waiting_on

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at its next resume.

        Interrupting a finished process is an error; interrupting a
        process multiple times queues the interrupts in order.
        """
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt finished process {self!r}")
        if self is self._sim.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        if self._interrupts is None:
            self._interrupts = []
        self._interrupts.append(Interrupt(cause))
        self._sim._lane.append(self._deliver_interrupt)

    def _deliver_interrupt(self):
        if not self._interrupts or not self.is_alive:
            return
        interrupt = self._interrupts.pop(0)
        # Detach from whatever we were waiting on; the event may still
        # trigger later, in which case __call__ finds us detached.
        self._waiting_on = None
        self._step(interrupt, throw=True)

    def __call__(self, event=None):
        """Scheduler action or callback: whichever this process needs.

        Called with no event, an unfinished process starts or resumes
        after a bare ``yield``, and a finished one runs its joiners.
        Called with the event it waits on, it resumes with its outcome.
        """
        if event is None:
            if self._value is _UNSET:
                self._step(None)
            else:
                Event.__call__(self)
            return
        if self._waiting_on is not event:
            # We were interrupted away from this event; ignore it.
            return
        self._waiting_on = None
        if event._ok:
            self._step(event._value)
        else:
            self._step(event._value, throw=True)

    def _step(self, value, throw=False):
        """Advance the generator one yield and wait on what it produces.

        The common waits are registered inline: a bare ``yield`` puts
        the process in the lane, and a first waiter on an event takes
        the event's callback slot (scheduling the event if it was
        triggered with no waiter).
        """
        sim = self._sim
        sim._active_process = self
        try:
            if throw:
                target = self._generator.throw(value)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except StopProcess as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self.fail(exc)
            return
        finally:
            sim._active_process = None
        if target is None:
            # Cooperative yield: resume after currently-queued events.
            sim._lane.append(self)
        elif not isinstance(target, Event):
            self._step(
                TypeError(f"process yielded {target!r}; expected an Event or None"),
                throw=True,
            )
        elif target._sim is not sim:
            self._step(
                RuntimeError("cannot wait on an event from another simulator"),
                throw=True,
            )
        else:
            self._waiting_on = target
            callbacks = target._callbacks
            if callbacks is None:
                target._callbacks = self
            elif callbacks is _IDLE:
                target._callbacks = self
                sim._lane.append(target)
            else:
                target.add_callback(self)
