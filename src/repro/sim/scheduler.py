"""Event schedulers for the simulation kernel.

A scheduler serves one :class:`~repro.sim.kernel.Simulator` and owns
its drain loop: ``run(deadline, until)`` runs entries until the stop
rule of the simulator's run mode holds, and ``step()`` runs one.  Both
schedulers run entries in (time, sequence) order: the clock moves to
the earliest pending instant, and the entries of one instant run in
the order they were scheduled.  Chaos seeds and the pinned schedule
fingerprints depend on that order.

- :class:`CalendarScheduler` — the default, with two queues.

  - *The lane* (``lane``, a ``deque``) holds the entries of the current
    instant: process starts and bare yields, event triggers, late
    waiters, the transport's dispatch and settle hops.  A lane entry
    pushed at the current instant is the bare action, so it costs no
    ``_Entry``, dict lookup or heap push.  One that must stay
    cancellable (a ``Timeout(0)``, a zero-delay
    ``Simulator._schedule_call``) or is a daemon goes in as its
    ``_Entry``.
  - *The calendar* holds the entries for later instants, keyed by exact
    time: a dict maps each instant to its bucket (a lone ``_Entry``
    inline, or a list of them in schedule order) and a heap of plain
    floats holds the instants.  Only the first entry at a new instant
    pays a heap push.  Drained lists go onto a free list (at most
    :data:`FREE_BUCKETS` long) that busy instants draw on.

  One loop drains both: when the lane is empty, the next instant's
  whole bucket moves into it, and the entries that instant schedules
  join behind.  That is the (time, sequence) order exactly: every
  calendar entry for instant *t* was queued before the clock reached
  *t*, and every entry pushed at *t* was queued after them.  A bucket
  at the current instant exists only where a run stopped short of it
  (``run(until=t)`` leaves the clock at *t*); the next run or step puts
  it ahead of the lane.
- :class:`HeapScheduler` — the pre-calendar binary heap of
  ``(time, seq)``-ordered entries with a Python ``__lt__``, every entry
  pushed (its ``lane`` pushes at the current instant).  It is the plain
  (time, sequence) order the calendar must match, and P6's A/B
  baseline.

Both support *lazy cancellation*: ``cancel(entry)`` marks the entry
dead in place (``action = None``); the drain loops skip dead entries
without counting them as processed.  ``nondaemon_pending`` counts the
live non-daemon ``_Entry`` objects, so an unbounded ``run()`` stops
once only daemon work remains (bare lane entries are never daemons).
``processed`` counts the entries run; a drain adds its tally when it
returns.  ``pending`` is a diagnostic that counts live entries.
"""

import heapq
from collections import deque

from repro.sim.events import _UNSET

heappop = heapq.heappop
heappush = heapq.heappush


class _Entry:
    """A cancellable scheduled action.  ``action is None`` marks a
    cancelled or already-consumed entry."""

    __slots__ = ("time", "seq", "action", "daemon")

    def __init__(self, time, seq, action, daemon):
        self.time = time
        self.seq = seq
        self.action = action
        self.daemon = daemon

    def __lt__(self, other):
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


#: Most drained buckets a calendar queue keeps for reuse.
FREE_BUCKETS = 256


class _Scheduler:
    """What both schedulers share: the simulator link and the counters."""

    __slots__ = ("_sim", "lane", "processed", "nondaemon_pending")

    def __init__(self):
        self._sim = None
        self.processed = 0
        self.nondaemon_pending = 0

    def attach(self, sim):
        """Serve ``sim``; called once by its constructor."""
        if self._sim is not None:
            raise ValueError("a scheduler serves one simulator")
        self._sim = sim

    def cancel(self, entry):
        """Lazily cancel ``entry``; safe to call after it has run."""
        if entry.action is None:
            return False
        entry.action = None
        if not entry.daemon:
            self.nondaemon_pending -= 1
        return True


class CalendarScheduler(_Scheduler):
    """The lane for the current instant plus a calendar of later ones.

    Invariant: a time appears in the ``_times`` heap exactly when its
    bucket is in ``_buckets``, exactly once, and only the current
    instant's entries are in the lane.
    """

    __slots__ = ("_buckets", "_times", "_free")

    def __init__(self):
        super().__init__()
        self.lane = deque()
        self._buckets = {}
        self._times = []
        self._free = []

    @property
    def pending(self):
        """Count of live (not cancelled, not yet run) entries."""
        live = sum(
            1 for item in self.lane if type(item) is not _Entry or item.action is not None
        )
        for bucket in self._buckets.values():
            if type(bucket) is _Entry:
                live += bucket.action is not None
            else:
                live += sum(1 for entry in bucket if entry.action is not None)
        return live

    def push(self, time, action, daemon):
        """Schedule ``action`` at ``time``; returns a cancellable handle."""
        entry = _Entry(time, 0, action, daemon)
        if not daemon:
            self.nondaemon_pending += 1
        if time == self._sim._now:
            self.lane.append(entry)
            return entry
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = entry
            heappush(self._times, time)
        elif type(bucket) is not _Entry:
            bucket.append(entry)
        elif bucket.action is None:
            # The instant's lone entry was cancelled.
            buckets[time] = entry
        else:
            free = self._free
            queue = buckets[time] = free.pop() if free else []
            queue.append(bucket)
            queue.append(entry)
        return entry

    def _nondaemon_left(self):
        """True while a live non-daemon entry is queued anywhere."""
        if self.nondaemon_pending > 0:
            return True
        return any(type(item) is not _Entry for item in self.lane)

    def _take(self, time):
        """Move instant ``time``'s bucket from the calendar into the lane."""
        bucket = self._buckets.pop(time)
        if type(bucket) is _Entry:
            self.lane.append(bucket)
            return
        self.lane.extend(bucket)
        bucket.clear()
        if len(self._free) < FREE_BUCKETS:
            self._free.append(bucket)

    def _take_current(self):
        """Put a bucket at the current instant (where a run stopped short
        of it) at the head of the lane: it was queued before the lane."""
        times = self._times
        if times and times[0] == self._sim._now:
            lane = self.lane
            entries = list(lane)
            lane.clear()
            self._take(heappop(times))
            lane.extend(entries)

    def run(self, deadline=None, until=None):
        """Drain entries in order until the run mode's stop rule holds.

        With ``deadline``, stop before the first instant at or after it;
        with ``until`` (an event), stop after the instant in which it
        has triggered, or when nothing is left; with neither, stop when
        no non-daemon entry is left.  Each instant's bucket moves into
        the lane, whose entries are the instant's from then on.
        """
        sim = self._sim
        lane = self.lane
        buckets = self._buckets
        times = self._times
        free = self._free
        keepalive = deadline is None and until is None
        if deadline is not None and sim._now >= deadline:
            return
        self._take_current()
        processed = 0
        try:
            while True:
                while lane:
                    action = lane.popleft()
                    if type(action) is _Entry:
                        entry = action
                        action = entry.action
                        if action is None:
                            continue
                        if not entry.daemon:
                            self.nondaemon_pending -= 1
                        elif keepalive and not self._nondaemon_left():
                            # Only after an entry of this instant ran, so
                            # the lane still holds this instant alone.
                            lane.appendleft(entry)
                            return
                        entry.action = None
                        sim._now = entry.time
                    processed += 1
                    action()
                # The instant is done.
                if until is not None:
                    if until._value is not _UNSET:
                        return
                elif keepalive and not self.nondaemon_pending:
                    return
                if not times or (deadline is not None and times[0] >= deadline):
                    return
                # The next instant's bucket joins the lane (``_take``, inline).
                bucket = buckets.pop(heappop(times))
                if type(bucket) is _Entry:
                    lane.append(bucket)
                else:
                    lane.extend(bucket)
                    bucket.clear()
                    if len(free) < FREE_BUCKETS:
                        free.append(bucket)
        finally:
            self.processed += processed
            self._drop_cancelled()

    def _drop_cancelled(self):
        """Drop the leading instants whose entries were all cancelled, so
        a stopped run keeps no dead timer alive (a request's guard timer
        outlives the reply that beat it)."""
        times = self._times
        buckets = self._buckets
        while times:
            bucket = buckets[times[0]]
            if type(bucket) is _Entry:
                if bucket.action is not None:
                    return
            elif any(entry.action is not None for entry in bucket):
                return
            del buckets[heappop(times)]

    def step(self):
        """Run the single next entry; returns False when none is left."""
        lane = self.lane
        self._take_current()
        while True:
            if not lane:
                if not self._times:
                    return False
                self._take(heappop(self._times))
            action = lane.popleft()
            if type(action) is _Entry:
                entry = action
                action = entry.action
                if action is None:
                    continue
                if not entry.daemon:
                    self.nondaemon_pending -= 1
                entry.action = None
                self._sim._now = entry.time
            self.processed += 1
            action()
            return True


class _HeapLane:
    """The heap's stand-in for a lane: an append is a push at ``now``."""

    __slots__ = ("_scheduler",)

    def __init__(self, scheduler):
        self._scheduler = scheduler

    def append(self, action):
        scheduler = self._scheduler
        scheduler.push(scheduler._sim._now, action, False)


class HeapScheduler(_Scheduler):
    """The pre-calendar binary-heap scheduler: the plain (time, sequence)
    reference the order property test runs against, and P6's A/B baseline.

    Every push/pop walks the heap comparing ``_Entry`` objects via a
    Python-level ``__lt__`` — ~log2(N) method calls per operation, which
    is exactly the churn the calendar queue removes.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self):
        super().__init__()
        self.lane = _HeapLane(self)
        self._heap = []
        self._seq = 0

    @property
    def pending(self):
        return sum(1 for entry in self._heap if entry.action is not None)

    def push(self, time, action, daemon):
        self._seq += 1
        entry = _Entry(time, self._seq, action, daemon)
        heappush(self._heap, entry)
        if not daemon:
            self.nondaemon_pending += 1
        return entry

    def run(self, deadline=None, until=None):
        """The calendar's stop rules, one heap entry at a time."""
        sim = self._sim
        heap = self._heap
        keepalive = deadline is None and until is None
        processed = 0
        try:
            while heap:
                entry = heap[0]
                action = entry.action
                if action is None:
                    heappop(heap)
                    continue
                time = entry.time
                if deadline is not None and time >= deadline:
                    return
                if until is not None and time != sim._now and until._value is not _UNSET:
                    return
                if not entry.daemon:
                    self.nondaemon_pending -= 1
                elif keepalive and not self.nondaemon_pending:
                    return
                heappop(heap)
                entry.action = None
                sim._now = time
                processed += 1
                action()
        finally:
            self.processed += processed

    def step(self):
        heap = self._heap
        while heap:
            entry = heappop(heap)
            action = entry.action
            if action is None:
                continue
            entry.action = None
            if not entry.daemon:
                self.nondaemon_pending -= 1
            self.processed += 1
            self._sim._now = entry.time
            action()
            return True
        return False
