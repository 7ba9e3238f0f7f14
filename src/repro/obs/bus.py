"""The system's event record: one publish/subscribe bus on the simulator clock.

Every layer reports its state transitions here, as one :class:`Event`
type: the network fabric, the health registry and SLO monitors, the
chaos coordinator and the supervisor, instances evolving and
migrating, and every durable decision of a DCDO Manager (each journal
entry is published with the same kind and fields).  Consumers
subscribe by topic — the reactive controller, a
:class:`~repro.obs.trace.Tracer` recording a timeline, tests — and the
bus itself keeps a per-topic tally for reports.

Delivery is synchronous and in-process: ``publish`` invokes every
matching callback before returning, on the publisher's stack.
Subscribers that need to *act* (anything that yields simulated time)
must therefore only record the event and act from their own process —
the bus is a sensing fabric, not an execution engine.  The bus keeps no
events itself: an :class:`Event` is built only when a subscription
matches, and an unobserved publish costs one tally.  Record a timeline
with a :class:`~repro.obs.trace.Tracer`.

Topics are strings: dotted for sensed signals (``"health.quarantined"``,
``"slo.breach"``, ``"host.crashed"``), journal kinds and other
configuration-plane names for transitions (``"propagation-ack"``,
``"instance-migrated"``).  A subscription to
``"*"`` receives everything, and a subscription to a ``"prefix."``
string receives every topic under that prefix.
"""

class Event:
    """One published occurrence: the system's only event record."""

    __slots__ = ("at", "topic", "subject", "details")

    def __init__(self, at, topic, subject=None, details=None):
        self.at = at
        self.topic = topic
        self.subject = subject
        self.details = {} if details is None else details

    def __str__(self):
        detail_text = " ".join(
            f"{key}={value}" for key, value in sorted(self.details.items())
        )
        return f"[{self.at:12.6f}] {self.topic:<22s} {self.subject} {detail_text}".rstrip()

    def __repr__(self):
        return f"<Event {self.topic} {self.subject!r} at={self.at:.3f}>"


class EventBus:
    """Topic-keyed synchronous pub/sub with per-topic tallies."""

    def __init__(self, sim):
        self._sim = sim
        self._subscribers = {}  # pattern -> list of callbacks
        self.published = 0
        self._counts = {}

    def subscribe(self, pattern, callback):
        """Register ``callback`` for ``pattern``; returns the callback.

        ``pattern`` is an exact topic, a ``"prefix."`` string matching
        every topic under it, or ``"*"`` for everything.
        """
        self._subscribers.setdefault(pattern, []).append(callback)
        return callback

    def unsubscribe(self, pattern, callback):
        """Remove one subscription; unknown pairs are ignored."""
        callbacks = self._subscribers.get(pattern)
        if callbacks and callback in callbacks:
            callbacks.remove(callback)
            if not callbacks:
                del self._subscribers[pattern]

    def publish(self, topic, subject=None, **details):
        """Deliver one event to every matching subscriber.

        Returns the :class:`Event`, or None when no subscription
        matched (then none was built).
        """
        self.published += 1
        counts = self._counts
        counts[topic] = counts.get(topic, 0) + 1
        # Publishing is always on, so the common no-subscriber case
        # must not pay for copying the subscription table.
        event = None
        if self._subscribers:
            for pattern, callbacks in list(self._subscribers.items()):
                if self._matches(pattern, topic):
                    if event is None:
                        event = Event(self._sim.now, topic, subject, details)
                    for callback in list(callbacks):
                        callback(event)
        return event

    @staticmethod
    def _matches(pattern, topic):
        if pattern == "*" or pattern == topic:
            return True
        return pattern.endswith(".") and topic.startswith(pattern)

    def counts(self):
        """Per-topic publish totals, for reports and assertions."""
        return dict(self._counts)

    def __repr__(self):
        return (
            f"<EventBus topics={len(self._counts)} "
            f"published={self.published}>"
        )
