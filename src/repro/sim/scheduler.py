"""Pluggable event schedulers for the simulation kernel.

Two implementations share one interface (``push`` / ``pop`` /
``peek_time`` / ``cancel`` plus the ``processed`` / ``nondaemon_pending``
/ ``pending`` counters):

- :class:`CalendarScheduler` — the default.  A calendar queue keyed by
  *exact* event time: a dict maps each distinct instant to a FIFO
  bucket of entries, and a small binary heap of raw floats tracks the
  earliest instant.  Pushing to an instant that already has a bucket is
  a dict lookup plus a deque append — no heap traffic — which makes the
  dominant event classes (zero-delay process resumes, event callbacks,
  same-instant fan-out batches) O(1).  Only the *first* event at a new
  instant pays one heap operation, and that heap compares plain floats
  at C speed instead of calling a Python ``__lt__``.
- :class:`HeapScheduler` — the pre-calendar binary heap of
  ``(time, seq)``-ordered entries with a Python ``__lt__``.  Kept so the
  P6 benchmark can A/B identical workloads against the old kernel.

Ordering is identical between the two: entries at the same instant run
in the order they were scheduled.  The global sequence number only ever
increases, so appending to a per-instant FIFO bucket preserves the
(time, seq) tie-break exactly — chaos seeds depend on this.

Both schedulers support *lazy cancellation*: ``cancel(entry)`` marks the
entry dead in place (``action = None``) and fixes the non-daemon count
immediately; ``pop``/``peek_time`` skip dead entries without counting
them as processed.  Timeouts that lose a race (e.g. a request's guard
timeout when the reply wins) stop paying heap churn and stop keeping
``run()`` alive.
"""

import heapq
from collections import deque


class _Entry:
    """A scheduled action.  ``action is None`` marks a cancelled or
    already-consumed entry."""

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


class CalendarScheduler:
    """Bucketed event scheduler with O(1) common-case push/pop.

    Invariant: a time appears in the ``_times`` heap exactly when its
    bucket exists in ``_buckets``, and exactly once.  ``pop`` leaves an
    emptied bucket in place, so the zero-delay entries the popped action
    schedules append to it without touching the heap; the next
    ``pop``/``peek_time`` drops it if it is still empty.
    """

    __slots__ = ("_buckets", "_times", "_seq", "processed", "nondaemon_pending", "_live")

    def __init__(self):
        self._buckets = {}
        self._times = []
        self._seq = 0
        self.processed = 0
        self.nondaemon_pending = 0
        self._live = 0

    @property
    def pending(self):
        """Count of live (not cancelled, not yet popped) entries."""
        return self._live

    def push(self, time, action, daemon):
        """Schedule ``action`` at ``time``; returns a cancellable handle."""
        self._seq += 1
        entry = _Entry(time, self._seq, action, daemon)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = deque((entry,))
            heapq.heappush(self._times, time)
        else:
            bucket.append(entry)
        if not daemon:
            self.nondaemon_pending += 1
        self._live += 1
        return entry

    def cancel(self, entry):
        """Lazily cancel ``entry``; safe to call after it has run."""
        if entry.action is None:
            return False
        entry.action = None
        if not entry.daemon:
            self.nondaemon_pending -= 1
        self._live -= 1
        return True

    def _prune(self):
        """Drop cancelled heads / empty buckets; return the next live time."""
        times = self._times
        buckets = self._buckets
        while times:
            time = times[0]
            bucket = buckets[time]
            while bucket and bucket[0].action is None:
                bucket.popleft()
            if bucket:
                return time
            heapq.heappop(times)
            del buckets[time]
        return None

    def peek_time(self):
        """Time of the next live entry, or None when empty."""
        return self._prune()

    def pop(self):
        """Pop the next live entry (folding the bookkeeping), or None."""
        time = self._prune()
        if time is None:
            return None
        entry = self._buckets[time].popleft()
        self.processed += 1
        if not entry.daemon:
            self.nondaemon_pending -= 1
        self._live -= 1
        return entry


class HeapScheduler:
    """The pre-calendar binary-heap scheduler (kept for A/B benchmarks).

    Every push/pop walks the heap comparing ``_Entry`` objects via a
    Python-level ``__lt__`` — ~log2(N) method calls per operation, which
    is exactly the churn the calendar queue removes.
    """

    __slots__ = ("_heap", "_seq", "processed", "nondaemon_pending", "_live")

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.processed = 0
        self.nondaemon_pending = 0
        self._live = 0

    @property
    def pending(self):
        return self._live

    def push(self, time, action, daemon):
        self._seq += 1
        entry = _Entry(time, self._seq, action, daemon)
        heapq.heappush(self._heap, entry)
        if not daemon:
            self.nondaemon_pending += 1
        self._live += 1
        return entry

    def cancel(self, entry):
        if entry.action is None:
            return False
        entry.action = None
        if not entry.daemon:
            self.nondaemon_pending -= 1
        self._live -= 1
        return True

    def peek_time(self):
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry.action is not None:
                return entry.time
            heapq.heappop(heap)
        return None

    def pop(self):
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry.action is None:
                continue
            self.processed += 1
            if not entry.daemon:
                self.nondaemon_pending -= 1
            self._live -= 1
            return entry
        return None
