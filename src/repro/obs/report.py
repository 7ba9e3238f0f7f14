"""Whole-system snapshots of a running Legion runtime.

:func:`collect_system_report` walks the runtime's live structures and
gathers every built-in counter into one :class:`SystemReport` — the
operator's view of a system whose objects may be mid-evolution.
"""

from dataclasses import dataclass, field


@dataclass
class SystemReport:
    """A structured snapshot of one runtime at one simulated instant."""

    at: float
    network: dict = field(default_factory=dict)
    hosts: dict = field(default_factory=dict)
    objects: dict = field(default_factory=dict)
    types: dict = field(default_factory=dict)
    #: Fleet-wide fault/recovery counters (crashes, retries, relays, …)
    #: from the network's :class:`~repro.obs.metrics.MetricsRegistry`.
    faults: dict = field(default_factory=dict)
    #: Per-topic event tallies from the network's event bus: every
    #: journaled manager transition (acks, aborts, canary gates,
    #: remediations, term bumps) and every other published event.
    events: dict = field(default_factory=dict)
    #: Per-type propagation delivery state (ack-tracked waves).
    propagations: dict = field(default_factory=dict)
    #: Per-target circuit-breaker state (ICO fetch guards and any
    #: other breakers registered with the network).
    breakers: dict = field(default_factory=dict)
    #: Per-stream SLO state (health, windowed quantiles, error rate,
    #: breach count) from monitors registered with the network.
    slos: dict = field(default_factory=dict)
    #: Per-host evolution-relay activity (batches served, instances
    #: evolved/failed), keyed by host name.
    relays: dict = field(default_factory=dict)
    #: Per-type manager availability state: fencing term, journal size
    #: (entries and estimated bytes), deposed flag — the operator's
    #: view of who the authority is and how big its durable state has
    #: grown.
    managers: dict = field(default_factory=dict)
    #: Per-host availability ledger: up/down now, crash count,
    #: cumulative downtime seconds.
    availability: dict = field(default_factory=dict)
    #: Fault-plan injection totals (dropped/blocked/delayed/reordered/
    #: duplicated) plus per-rule counters — what the chaos harness
    #: actually inflicted, as opposed to what the system suffered.
    fault_plan: dict = field(default_factory=dict)
    #: Per-peer health scores and quarantine state (empty unless the
    #: fabric's health registry was armed).
    health: dict = field(default_factory=dict)
    #: Per-destination RTT estimator state keyed ``"src->dst"`` (host
    #: names): smoothed RTT, variance, derived RTO and hedge delay,
    #: sample count.  Empty unless some invoker armed adaptive
    #: timeouts or hedging and has taken samples.
    rtt: dict = field(default_factory=dict)

    @property
    def total_active_objects(self):
        """Count of live objects across all hosts."""
        return sum(1 for info in self.objects.values() if info["active"])


def collect_system_report(runtime):
    """Snapshot ``runtime`` into a :class:`SystemReport`."""
    report = SystemReport(at=runtime.sim.now)
    stats = runtime.network.stats
    report.network = {
        "messages_delivered": stats.messages_delivered,
        "messages_dropped": stats.messages_dropped,
        "bytes_delivered": stats.bytes_delivered,
        "by_kind": dict(stats.deliveries_by_kind),
    }
    for name, host in runtime.hosts.items():
        report.hosts[name] = {
            "architecture": host.architecture,
            "processes": len(host.processes),
            "processes_spawned": host.processes_spawned,
            "cache_entries": len(host.cache),
            "cache_bytes": host.cache.used_bytes,
            "cache_hits": host.cache.hits,
            "cache_misses": host.cache.misses,
            "cache_evictions": host.cache.evictions,
        }
        report.availability[name] = {
            "up": host.is_up,
            "crashes": host.crash_count,
            "downtime_s": host.total_downtime_s,
        }
    from repro.cluster.relay import HostRelay

    for loid, obj in runtime._objects.items():
        if isinstance(obj, HostRelay):
            report.relays[obj.host.name] = {
                "loid": str(loid),
                "active": obj.is_active,
                "batches_served": obj.batches_served,
                "instances_evolved": obj.instances_evolved,
                "instances_failed": obj.instances_failed,
            }
        info = {
            "type": loid.type_name,
            "host": obj.host.name,
            "active": obj.is_active,
            "requests_completed": obj.requests_completed,
            "in_flight": obj.active_requests,
        }
        dfm = getattr(obj, "dfm", None)
        if dfm is not None:
            info["dynamic_calls"] = dfm.total_calls
            info["components"] = sorted(dfm.component_ids)
            info["interface"] = dfm.exported_interface()
            version = getattr(obj, "version", None)
            info["version"] = str(version) if version is not None else None
        report.objects[str(loid)] = info
    for type_name, class_object in runtime._classes.items():
        entry = {
            "instances": len(class_object.instance_loids()),
            "active_instances": len(class_object.active_instances()),
            "created": class_object.instances_created,
        }
        if hasattr(class_object, "current_version"):
            current = class_object.current_version
            entry["current_version"] = str(current) if current else None
            entry["versions"] = [str(version) for version in class_object.versions()]
            entry["evolutions"] = class_object.evolutions_performed
            entry["components"] = class_object.registered_components()
        if hasattr(class_object, "propagation_status"):
            status = class_object.propagation_status()
            if status:
                report.propagations[type_name] = status
        if hasattr(class_object, "term"):
            journal = class_object.journal
            report.managers[type_name] = {
                "host": class_object.host.name,
                "active": class_object.is_active,
                "term": class_object.term,
                "deposed": class_object.deposed,
                "journal_entries": len(journal) if journal is not None else 0,
                "journal_bytes": journal.bytes if journal is not None else 0,
                "journal_appends": journal.appends if journal is not None else 0,
                "journal_checkpoints": (
                    journal.checkpoints if journal is not None else 0
                ),
            }
            if hasattr(class_object, "remediation_status"):
                report.managers[type_name]["remediation"] = (
                    class_object.remediation_status()
                )
        report.types[type_name] = entry
    for obj in runtime._objects.values():
        invoker = getattr(obj, "_invoker", None)
        estimators = getattr(invoker, "_estimators", None)
        if not estimators:
            continue
        src = obj.host.name
        for dst, estimator in estimators.items():
            if not estimator.samples or estimator.srtt is None:
                continue
            key = f"{src}->{dst}"
            entry = report.rtt.get(key)
            # Several objects on one host may talk to the same peer;
            # keep the best-informed estimator per edge.
            if entry is not None and entry["samples"] >= estimator.samples:
                continue
            report.rtt[key] = {
                "srtt_s": estimator.srtt,
                "rttvar_s": estimator.rttvar,
                "rto_s": estimator.rto_s,
                "hedge_delay_s": estimator.hedge_delay_s(),
                "samples": estimator.samples,
            }
    report.faults = runtime.network.metrics.snapshot()
    report.events = runtime.network.bus.counts()
    report.fault_plan = runtime.network.faults.stats()
    report.health = runtime.network.health_snapshot()
    report.breakers = runtime.network.breakers_snapshot()
    report.slos = runtime.network.slo_snapshot()
    return report


def render_report(report):
    """Render a :class:`SystemReport` as readable text."""
    lines = [f"system report at t={report.at:.3f}s"]
    lines.append(
        "network: {messages_delivered} delivered, {messages_dropped} dropped, "
        "{bytes_delivered} bytes".format(**report.network)
    )
    lines.append(f"active objects: {report.total_active_objects}")
    for type_name, entry in sorted(report.types.items()):
        detail = f"  type {type_name}: {entry['active_instances']}/{entry['instances']} active"
        if "current_version" in entry:
            detail += f", current v{entry['current_version']}, {entry['evolutions']} evolutions"
        lines.append(detail)
    for type_name, waves in sorted(report.propagations.items()):
        for wave in waves:
            if wave.get("aborted"):
                state = "ABORTED"
            elif wave.get("aborting"):
                state = "aborting"
            elif wave["complete"]:
                state = "complete"
            else:
                state = "open"
            line = (
                f"  propagation {type_name} v{wave['version']}: {state}, "
                f"{wave['acked']} acked / {wave['pending']} pending / "
                f"{wave['failed']} failed"
            )
            if wave.get("rolled_back"):
                line += f" / {wave['rolled_back']} rolled back"
            lines.append(line)
    for key, slo in sorted(report.slos.items()):
        state = "healthy" if slo["healthy"] else "BREACHED"
        quantiles = ", ".join(
            f"{name} {value * 1000:.1f}ms"
            for name, value in slo["quantiles"].items()
        )
        line = (
            f"  slo {key}: {state}, {slo['samples']} in window, "
            f"error rate {slo['error_rate']:.3f}, {slo['breaches']} breach(es)"
        )
        if quantiles:
            line += f", {quantiles}"
        if slo["violations"]:
            line += f" [{'; '.join(slo['violations'])}]"
        lines.append(line)
    for key, breaker in sorted(report.breakers.items()):
        lines.append(
            f"  breaker {key}: {breaker['state']}, "
            f"{breaker['failures']} failures, opened {breaker['times_opened']}x, "
            f"{breaker['short_circuits']} short-circuited"
        )
    for name, host in sorted(report.hosts.items()):
        lines.append(
            f"  host {name}: {host['processes']} procs, "
            f"cache {host['cache_entries']} entries / {host['cache_bytes']} B "
            f"({host['cache_hits']} hits / {host['cache_misses']} misses / "
            f"{host['cache_evictions']} evictions)"
        )
    for name, relay in sorted(report.relays.items()):
        state = "up" if relay["active"] else "down"
        lines.append(
            f"  relay {name}: {state}, {relay['batches_served']} batches, "
            f"{relay['instances_evolved']} evolved / "
            f"{relay['instances_failed']} failed"
        )
    for type_name, manager in sorted(report.managers.items()):
        if manager["deposed"]:
            state = "DEPOSED"
        elif manager["active"]:
            state = "up"
        else:
            state = "down"
        line = (
            f"  manager {type_name}: {state} on {manager['host']}, "
            f"term {manager['term']}, journal {manager['journal_entries']} "
            f"entries / {manager['journal_bytes']} B "
            f"({manager['journal_appends']} appends, "
            f"{manager['journal_checkpoints']} checkpoints)"
        )
        remediation = manager.get("remediation")
        if remediation and remediation["total"]:
            lease = remediation["lease"]
            holder = lease["owner"] if lease else "-"
            line += (
                f", remediations {remediation['total']} "
                f"({len(remediation['open'])} open, lease {holder})"
            )
        lines.append(line)
    downtime = {
        name: entry
        for name, entry in report.availability.items()
        if entry["crashes"] or not entry["up"]
    }
    for name, entry in sorted(downtime.items()):
        state = "up" if entry["up"] else "DOWN"
        lines.append(
            f"  availability {name}: {state}, {entry['crashes']} crash(es), "
            f"{entry['downtime_s']:.1f}s down"
        )
    suspicions = report.faults.get("detector.suspicions", 0)
    false_positives = report.faults.get("detector.false_positives", 0)
    if suspicions or false_positives:
        lines.append(
            f"  availability detector: {suspicions} suspicion(s), "
            f"{false_positives} false positive(s) (suspected then recovered)"
        )
    for name, peer in sorted(report.health.items()):
        state = "QUARANTINED" if peer["quarantined"] else "ok"
        lines.append(
            f"  health {name}: {state}, score {peer['score']:.2f} "
            f"({peer['successes']} ok / {peer['timeouts']} timeouts / "
            f"{peer['hedge_wins']} hedge wins / {peer['suspicions']} suspicions)"
        )
    for edge, entry in sorted(report.rtt.items()):
        hedge = entry["hedge_delay_s"]
        line = (
            f"  rtt {edge}: srtt {entry['srtt_s'] * 1000:.2f}ms "
            f"rttvar {entry['rttvar_s'] * 1000:.2f}ms "
            f"rto {entry['rto_s'] * 1000:.2f}ms "
            f"({entry['samples']} samples)"
        )
        if hedge is not None:
            line += f", hedge after {hedge * 1000:.2f}ms"
        lines.append(line)
    hedges = report.faults.get("transport.hedges", 0)
    hedge_wins = report.faults.get("transport.hedge_wins", 0)
    if hedges:
        lines.append(
            f"  hedging: {hedges} hedged request(s), {hedge_wins} won by the backup"
        )
    plan = report.fault_plan
    if plan and any(plan.get(key) for key in
                    ("dropped", "blocked", "delayed", "reordered", "duplicated")):
        lines.append(
            "fault plan: {dropped} dropped, {blocked} blocked, "
            "{delayed} delayed, {reordered} reordered, "
            "{duplicated} duplicated".format(**plan)
        )
        for rule in plan.get("rules", ()):
            counters = ", ".join(
                f"{key} {value}"
                for key, value in rule.items()
                if key not in ("kind", "label") and value
            )
            lines.append(
                f"  rule {rule['label']} [{rule['kind']}]: {counters or 'idle'}"
            )
    if report.faults:
        lines.append("fault/recovery counters:")
        for name, value in sorted(report.faults.items()):
            lines.append(f"  {name}: {value}")
    if report.events:
        lines.append("events:")
        for topic, value in sorted(report.events.items()):
            lines.append(f"  {topic}: {value}")
    return "\n".join(lines)
