"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  The generator models a
thread of control: each ``yield event`` suspends the process until the
event triggers, at which point the kernel resumes the generator with
the event's value (or throws its exception).  A process is itself an
:class:`~repro.sim.events.Event` that triggers when the generator
finishes, so processes can be joined by yielding them.
"""

from repro.sim.errors import Interrupt, StopProcess
from repro.sim.events import Event


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
        super().__init__(sim, name=name)
        self._generator = generator
        self._waiting_on = None
        self._interrupts = None
        # Kick off the generator at the current simulated time.
        sim._schedule_call(self._resume)

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
        self._sim._schedule_call(self._deliver_interrupt)

    def _deliver_interrupt(self):
        if not self._interrupts or not self.is_alive:
            return
        interrupt = self._interrupts.pop(0)
        # Detach from whatever we were waiting on; the event may still
        # trigger later, in which case _on_event finds us detached.
        self._waiting_on = None
        self._step(interrupt, throw=True)

    def _resume(self):
        self._step(None)

    def _on_event(self, event):
        if self._waiting_on is not event:
            # We were interrupted away from this event; ignore it.
            return
        self._waiting_on = None
        if event.ok:
            self._step(event.value)
        else:
            self._step(event.value, throw=True)

    def _step(self, value, throw=False):
        """Advance the generator one yield and act on what it produces."""
        self._sim._active_process = self
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
            self._sim._active_process = None
        self._wait_for(target)

    def _wait_for(self, target):
        if target is None:
            # Cooperative yield: resume after currently-queued events.
            self._sim._schedule_call(self._resume)
            return
        if isinstance(target, Event):
            if target._sim is not self._sim:
                self._step(
                    RuntimeError("cannot wait on an event from another simulator"),
                    throw=True,
                )
                return
            self._waiting_on = target
            target.add_callback(self._on_event)
            return
        self._step(
            TypeError(f"process yielded {target!r}; expected an Event or None"),
            throw=True,
        )
