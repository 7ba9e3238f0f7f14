"""Observability: one event record, metrics primitives, and reports.

Long-running grid services need to be observable while they evolve.
Every state transition is published once, as an
:class:`~repro.obs.bus.Event` on the network's :class:`EventBus`; the
bus tallies events per topic, a :class:`Tracer` records them as a
timeline, and the reactive controller senses the signal topics among
them.  Alongside sit the
counters/gauges/timers of :class:`MetricsRegistry` for operational
measurements that are not transitions, and
:func:`collect_system_report`, which snapshots a runtime (network,
caches, bindings, invokers, DFMs, managers, event tallies) into one
structured report.
"""

from repro.obs.bus import Event, EventBus
from repro.obs.health import HealthRegistry, PeerHealth
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, Timer
from repro.obs.report import SystemReport, collect_system_report, render_report
from repro.obs.slo import SLO, SLOMonitor, SLOStatus
from repro.obs.trace import Tracer

__all__ = [
    "Counter",
    "Event",
    "EventBus",
    "Gauge",
    "HealthRegistry",
    "MetricsRegistry",
    "PeerHealth",
    "SLO",
    "SLOMonitor",
    "SLOStatus",
    "SystemReport",
    "Timer",
    "Tracer",
    "collect_system_report",
    "render_report",
]
