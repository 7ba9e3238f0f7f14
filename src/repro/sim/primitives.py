"""Synchronization primitives built on events.

These are the building blocks used by the network and object layers:

- :class:`Queue` — FIFO message queue with optional capacity; the
  universal mailbox primitive.
- :class:`Semaphore` — counting semaphore, used to model exclusive or
  limited resources (CPUs, links).
- :class:`Signal` — broadcast condition: many waiters, one trigger,
  automatically re-armed.
"""

from collections import deque

from repro.sim.errors import SimulationError


class QueueFull(SimulationError):
    """Raised by :meth:`Queue.put_nowait` when the queue is at capacity."""


class QueueEmpty(SimulationError):
    """Raised by :meth:`Queue.get_nowait` when the queue is empty."""


class Queue:
    """A FIFO queue of items with event-based blocking get/put.

    ``get()`` and ``put()`` return events to be yielded from a process;
    ``get_nowait()`` / ``put_nowait()`` are the immediate variants.

    Parameters
    ----------
    sim:
        The owning simulator.
    capacity:
        Maximum number of queued items, or ``None`` for unbounded.
    """

    __slots__ = ("_sim", "_capacity", "_name", "_items", "_getters", "_putters")

    def __init__(self, sim, capacity=None, name=None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._sim = sim
        self._capacity = capacity
        self._name = name or "queue"
        self._items = deque()
        self._getters = deque()
        self._putters = deque()

    def __len__(self):
        return len(self._items)

    @property
    def capacity(self):
        """Maximum queue length, or None if unbounded."""
        return self._capacity

    @property
    def is_full(self):
        """True when a put_nowait() would raise QueueFull."""
        return self._capacity is not None and len(self._items) >= self._capacity

    def put(self, item):
        """Return an event that triggers once ``item`` is enqueued."""
        event = self._sim.event()
        if not self.is_full:
            self._enqueue(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def put_nowait(self, item):
        """Enqueue ``item`` immediately or raise :class:`QueueFull`."""
        if self.is_full:
            raise QueueFull(f"{self._name} is at capacity {self._capacity}")
        self._enqueue(item)

    def get(self):
        """Return an event that succeeds with the next item."""
        event = self._sim.event()
        if self._items:
            event.succeed(self._dequeue())
        else:
            self._getters.append(event)
        return event

    def get_nowait(self):
        """Dequeue immediately or raise :class:`QueueEmpty`."""
        if not self._items:
            raise QueueEmpty(f"{self._name} is empty")
        return self._dequeue()

    def _enqueue(self, item):
        if self._getters:
            # Hand the item straight to the longest-waiting getter.
            self._getters.popleft().succeed(item)
            return
        self._items.append(item)

    def _dequeue(self):
        item = self._items.popleft()
        # Space freed: admit the longest-waiting putter, if any.
        if self._putters and not self.is_full:
            putter, pending_item = self._putters.popleft()
            self._items.append(pending_item)
            putter.succeed()
        return item

    def __repr__(self):
        return f"<Queue {self._name} len={len(self._items)} cap={self._capacity}>"


class Semaphore:
    """A counting semaphore.

    ``acquire()`` returns an event that succeeds when a permit is
    available; ``release()`` returns a permit.  Used with capacity 1 it
    is a mutex, which is how per-link serialization (bandwidth) and
    per-host CPU occupancy are modeled.
    """

    __slots__ = ("_sim", "_permits", "_capacity", "_name", "_waiters")

    def __init__(self, sim, permits=1, name=None):
        if permits < 1:
            raise ValueError(f"permits must be >= 1, got {permits}")
        self._sim = sim
        self._permits = permits
        self._capacity = permits
        self._name = name or "semaphore"
        self._waiters = deque()

    @property
    def available(self):
        """Number of free permits."""
        return self._permits

    @property
    def capacity(self):
        """Total permits."""
        return self._capacity

    def acquire(self):
        """Return an event that succeeds once a permit is held."""
        event = self._sim.event()
        if self._permits > 0:
            self._permits -= 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self):
        """Return a permit, waking the longest waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed()
            return
        if self._permits >= self._capacity:
            raise SimulationError(f"{self._name} released more than acquired")
        self._permits += 1

    def held(self):
        """Context-manager-style helper as a generator.

        Usage inside a process::

            yield from semaphore.held()(critical_section())
        """
        semaphore = self

        def runner(body):
            yield semaphore.acquire()
            try:
                result = yield from body
            finally:
                semaphore.release()
            return result

        return runner

    def __repr__(self):
        return f"<Semaphore {self._name} {self._permits}/{self._capacity}>"


class Signal:
    """A broadcast condition variable.

    ``wait()`` returns an event; ``fire(value)`` triggers every waiting
    event with ``value`` and re-arms, so the signal can fire repeatedly.
    """

    __slots__ = ("_sim", "_name", "_waiters", "_fire_count")

    def __init__(self, sim, name=None):
        self._sim = sim
        self._name = name or "signal"
        self._waiters = []
        self._fire_count = 0

    @property
    def fire_count(self):
        """How many times the signal has fired."""
        return self._fire_count

    def wait(self):
        """Return an event that succeeds at the next :meth:`fire`."""
        event = self._sim.event()
        self._waiters.append(event)
        return event

    def fire(self, value=None):
        """Wake every current waiter with ``value``."""
        self._fire_count += 1
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed(value)

    def __repr__(self):
        return f"<Signal {self._name} waiters={len(self._waiters)}>"
