"""Metric primitives over simulated time.

All timing uses the simulator clock, so metrics are deterministic and
comparable across runs with the same seed.
"""

import random

#: Default reservoir capacity for :class:`Timer` percentile tracking.
#: Below this many samples the timer is exact; beyond it, Vitter's
#: algorithm R keeps a uniform sample so memory stays bounded no matter
#: how long the run.
TIMER_RESERVOIR_SIZE = 4096


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def increment(self, amount=1):
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount

    def __repr__(self):
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A value that can move in both directions, tracking its peak."""

    __slots__ = ("name", "value", "_peak")

    def __init__(self, name):
        self.name = name
        self.value = 0
        # None until the first set(): the peak of a gauge that has only
        # ever seen negative values must be that (negative) value, not
        # a phantom 0 it never held.
        self._peak = None

    @property
    def peak(self):
        """Highest value ever set (the current value before any set)."""
        return self.value if self._peak is None else self._peak

    def set(self, value):
        """Set the gauge to ``value``."""
        self.value = value
        if self._peak is None or value > self._peak:
            self._peak = value

    def adjust(self, delta):
        """Move the gauge by ``delta``."""
        self.set(self.value + delta)

    def __repr__(self):
        return f"<Gauge {self.name}={self.value} peak={self.peak}>"


class Timer:
    """Accumulates duration samples (simulated seconds).

    Count, sum, min and max are exact over every sample ever recorded.
    The per-sample store backing :meth:`percentile` is a bounded
    reservoir (uniform without replacement, seeded per timer name so
    runs stay deterministic): exact below ``reservoir_size`` samples,
    a statistically uniform subset beyond it — tail quantiles over
    million-call open-loop runs cost O(reservoir), not O(calls).

    The sorted view of the reservoir is cached and invalidated by
    :meth:`record`, so ``record`` stays O(1) amortized and repeated
    percentile reads between records sort nothing.
    """

    __slots__ = (
        "name",
        "_sim",
        "samples",
        "reservoir_size",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_rng",
        "_sorted",
        "sorted_rebuilds",
    )

    def __init__(self, name, sim=None, reservoir_size=TIMER_RESERVOIR_SIZE):
        if reservoir_size < 1:
            raise ValueError(f"reservoir_size must be >= 1, got {reservoir_size}")
        self.name = name
        self._sim = sim
        self.samples = []
        self.reservoir_size = reservoir_size
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None
        self._rng = random.Random(f"timer-reservoir:{name}")
        # Cached sorted reservoir; None while stale.  The rebuild count
        # is exposed so tests can assert the cache actually amortizes.
        self._sorted = None
        self.sorted_rebuilds = 0

    @property
    def count(self):
        """Number of recorded samples (exact, not reservoir-bounded)."""
        return self._count

    def record(self, duration):
        """Record one duration sample (O(1): no sorting happens here)."""
        if duration < 0:
            raise ValueError(f"durations must be >= 0, got {duration}")
        self._count += 1
        self._sum += duration
        self._min = duration if self._min is None else min(self._min, duration)
        self._max = duration if self._max is None else max(self._max, duration)
        if len(self.samples) < self.reservoir_size:
            self.samples.append(duration)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.reservoir_size:
                self.samples[slot] = duration
            else:
                return  # reservoir untouched: the sorted view stands
        self._sorted = None

    def measure(self, body):
        """Generator: time the simulated duration of ``body``.

        Usage from a process::

            result = yield from timer.measure(some_generator())
        """
        if self._sim is None:
            raise RuntimeError(f"timer {self.name!r} was built without a simulator")
        started = self._sim.now
        result = yield from body
        self.record(self._sim.now - started)
        return result

    def mean(self):
        """Mean over all recorded samples, or None when empty."""
        if not self._count:
            return None
        return self._sum / self._count

    def max(self):
        """Largest sample ever recorded, or None when empty."""
        return self._max

    def min(self):
        """Smallest sample ever recorded, or None when empty."""
        return self._min

    def _ordered(self):
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self.samples)
            self.sorted_rebuilds += 1
        return ordered

    def percentile(self, fraction):
        """The ``fraction`` quantile (0..1) by nearest-rank.

        Exact while the sample count fits the reservoir; beyond that,
        computed over the uniform reservoir sample.  Reads between
        records share one cached sort of the reservoir.
        """
        if not 0 <= fraction <= 1:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if not self.samples:
            return None
        ordered = self._ordered()
        index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[index]

    def __repr__(self):
        return f"<Timer {self.name} n={self.count} mean={self.mean()}>"


class MetricsRegistry:
    """A named collection of metrics, one per subsystem or experiment."""

    __slots__ = ("_sim", "_metrics", "_sorted_items")

    def __init__(self, sim=None):
        self._sim = sim
        self._metrics = {}
        # Name-sorted (name, metric) pairs, rebuilt only when a metric
        # is created — snapshot() stops paying an O(n log n) sort per
        # call on a registry whose membership is long since stable.
        self._sorted_items = None

    def counter(self, name):
        """Get-or-create a :class:`Counter`."""
        return self._get_or_create(name, Counter)

    def gauge(self, name):
        """Get-or-create a :class:`Gauge`."""
        return self._get_or_create(name, Gauge)

    def timer(self, name):
        """Get-or-create a :class:`Timer` bound to the registry's clock."""
        return self._get_or_create(name, Timer, self._sim)

    def _get_or_create(self, name, kind, *args):
        # Lookups hit far more often than they miss; a hit builds nothing.
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = kind(name, *args)
            self._sorted_items = None
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already exists as {type(metric).__name__}"
            )
        return metric

    def _ordered_items(self):
        items = self._sorted_items
        if items is None:
            items = self._sorted_items = sorted(self._metrics.items())
        return items

    def snapshot(self, prefix=None):
        """A plain-dict snapshot of every metric's headline value.

        ``prefix`` restricts the snapshot to one dotted namespace
        (e.g. ``"wave"`` or ``"breaker"``) — handy for asserting on a
        subsystem's counters without pinning the whole registry.
        """
        out = {}
        for name, metric in self._ordered_items():
            if prefix is not None and not (
                name == prefix or name.startswith(prefix + ".")
            ):
                continue
            if isinstance(metric, Counter):
                out[name] = metric.value
            elif isinstance(metric, Gauge):
                out[name] = {"value": metric.value, "peak": metric.peak}
            else:
                out[name] = {
                    "count": metric.count,
                    "mean": metric.mean(),
                    "p50": metric.percentile(0.50),
                    "p99": metric.percentile(0.99),
                }
        return out

    def __len__(self):
        return len(self._metrics)
