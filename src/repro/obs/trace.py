"""Event timelines for evolving systems: a recording view of the bus.

A :class:`Tracer` subscribed to a runtime's
:class:`~repro.obs.bus.EventBus` records every event published there —
version cuts, evolutions, component incorporations, migrations, manager
transitions — with its simulated timestamp, giving operators (and
tests) a timeline of *what changed when* in a system whose objects
mutate while running.  Without one, the bus keeps only its per-topic
tallies.
"""


class Tracer:
    """Records every :class:`~repro.obs.bus.Event` published on ``bus``.

    Attach with ``Tracer(runtime.network.bus)``.  ``capacity`` bounds
    the record; events past it are only counted in ``dropped``.
    """

    def __init__(self, bus, capacity=None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._capacity = capacity
        self.events = []
        self.dropped = 0
        bus.subscribe("*", self._record)

    def _record(self, event):
        if self._capacity is not None and len(self.events) >= self._capacity:
            self.dropped += 1
        else:
            self.events.append(event)

    def in_category(self, category):
        """Events of one topic, in order."""
        return [event for event in self.events if event.topic == category]

    def about(self, subject):
        """Events whose subject matches ``subject``."""
        subject = str(subject)
        return [event for event in self.events if str(event.subject) == subject]

    def between(self, start, end):
        """Events with start <= at < end."""
        return [event for event in self.events if start <= event.at < end]

    def render_timeline(self, limit=None):
        """The trace as readable text (last ``limit`` events)."""
        events = self.events if limit is None else self.events[-limit:]
        return "\n".join(str(event) for event in events)

    def __len__(self):
        return len(self.events)
