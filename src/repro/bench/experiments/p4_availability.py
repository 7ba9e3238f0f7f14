"""P4 — manager availability: hot takeover vs restart-and-recover.

The paper's manager is a single point of configuration authority: when
its host dies, evolution stalls until someone restarts the host and
replays the journal.  PR 5's availability stack (heartbeat failure
detector + hot-standby journal shipping + fenced supervisor promotion)
turns that into an automatic takeover.  This experiment measures what
that buys:

- **MTTR sweep** — one fleet per heartbeat interval; the primary's
  host is crashed mid-wave and the time until the supervisor's
  promoted standby is serving again is measured.  Detection dominates:
  MTTR tracks ``suspicion_threshold x interval``, far below any
  restart path.
- **Baseline** — the same crash with no supervisor: the host restarts
  after a typical 30 s and auto-recovery replays the journal.  The
  takeover MTTR must be well under this.
- **Split brain** — the primary is partitioned (not crashed) mid-wave;
  after the standby is promoted, the old primary's surviving traffic
  must be rejected by term fencing (``manager.stale_term_rejections``)
  and nothing may be applied twice.
"""

from repro.bench.harness import ExperimentResult, seconds
from repro.cluster import Supervisor, build_lan
from repro.cluster.chaos import ChaosCoordinator
from repro.core import ManagerJournal
from repro.core.policies import ReliableUpdatePolicy
from repro.legion import LegionRuntime
from repro.net import PrefixPartition, RetryPolicy
from repro.workloads import build_component_version, make_noop_manager, synthetic_components

#: Heartbeat intervals swept for the takeover-MTTR curve.
INTERVALS = (0.25, 0.5, 1.0, 2.0)
#: Probes missed before suspicion (detector default).
SUSPICION_THRESHOLD = 3
#: The no-supervisor comparison: a typical operator-less host restart.
RESTART_DELAY_S = 30.0
INSTANCES = 4
MANAGER_HOST = "host00"
STANDBY_HOSTS = ("host02", "host03")
DETECTOR_HOST = "host04"

FAST_RETRY = RetryPolicy(
    base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8
)


def _build_fleet(seed, type_name):
    """Journaled 4-instance no-op fleet with a v2 upgrade staged."""
    runtime = LegionRuntime(build_lan(6, seed=seed))
    journal = ManagerJournal(name=type_name)
    manager, __ = make_noop_manager(
        runtime,
        type_name,
        component_count=2,
        functions_per_component=2,
        journal=journal,
        host_name=MANAGER_HOST,
        propagation_retry_policy=FAST_RETRY,
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
    )
    loids = []
    for index in range(INSTANCES):
        loid = runtime.sim.run_process(
            manager.create_instance(host_name=f"host{index + 1:02d}")
        )
        loids.append(loid)
    upgrade = synthetic_components(1, 2, prefix=f"{type_name.lower()}-up")
    v2 = build_component_version(manager, upgrade)
    manager.mark_instantiable(v2)
    return runtime, manager, journal, loids, v2


def _await_converged(runtime, loids, v2, authority, deadline_s=300.0):
    """Generator: poll until every instance is live at ``v2``."""
    deadline = runtime.sim.now + deadline_s
    while runtime.sim.now < deadline:
        manager = authority()
        if (
            manager is not None
            and manager.is_active
            and all(
                manager.record(loid).active
                and manager.record(loid).obj.version == v2
                for loid in loids
            )
        ):
            return runtime.sim.now
        yield runtime.sim.timeout(1.0)
    return None


def _measure_takeover(seed, interval):
    """Crash the primary mid-wave under a supervisor; return timings."""
    runtime, manager, journal, loids, v2 = _build_fleet(
        seed, f"P4Hot{int(interval * 100)}"
    )
    supervisor = Supervisor(
        runtime,
        manager.type_name,
        standby_hosts=STANDBY_HOSTS,
        detector_host_name=DETECTOR_HOST,
        heartbeat_interval_s=interval,
        heartbeat_timeout_s=min(0.4, interval * 0.8),
        suspicion_threshold=SUSPICION_THRESHOLD,
        retry_policy=FAST_RETRY,
    ).start()
    coordinator = ChaosCoordinator(runtime, journals={})
    crash_at = runtime.sim.now + 2.0
    coordinator.crash_plan.schedule_outage(
        runtime.host(MANAGER_HOST), crash_at, crash_at + 120.0
    )
    timings = {}

    def scenario():
        # Fire the wave just before the crash so it dies mid-flight.
        yield runtime.sim.timeout(crash_at - 0.03 - runtime.sim.now)
        manager.set_current_version_async(v2)
        converged_at = yield from _await_converged(
            runtime, loids, v2, lambda: supervisor.manager
        )
        timings["converged_s"] = (
            converged_at - crash_at if converged_at is not None else None
        )
        supervisor.stop()

    runtime.sim.run_process(scenario())
    runtime.sim.run()
    assert supervisor.promotions >= 1, "supervisor never promoted"
    assert timings["converged_s"] is not None, "fleet never converged"
    promoted_at = supervisor.takeover_log[0][0]
    timings["mttr_s"] = promoted_at - crash_at
    timings["promotions"] = supervisor.promotions
    return timings


def _measure_baseline(seed):
    """The same crash with no supervisor: restart + journal replay."""
    runtime, manager, journal, loids, v2 = _build_fleet(seed, "P4Cold")
    type_name = manager.type_name
    coordinator = ChaosCoordinator(runtime, journals={type_name: journal})
    crash_at = runtime.sim.now + 2.0
    coordinator.crash_plan.schedule_outage(
        runtime.host(MANAGER_HOST), crash_at, crash_at + RESTART_DELAY_S
    )
    timings = {}

    def authority():
        try:
            return runtime.class_of(type_name)
        except Exception:
            return None

    def scenario():
        yield runtime.sim.timeout(crash_at - 0.03 - runtime.sim.now)
        manager.set_current_version_async(v2)
        converged_at = yield from _await_converged(runtime, loids, v2, authority)
        timings["converged_s"] = (
            converged_at - crash_at if converged_at is not None else None
        )

    runtime.sim.run_process(scenario())
    runtime.sim.run()
    assert timings["converged_s"] is not None, "baseline never converged"
    recovered = [
        at for at, kind, name in coordinator.recovery_log
        if kind == "manager" and name == type_name
    ]
    assert recovered, "auto-recovery never brought the manager back"
    timings["mttr_s"] = recovered[0] - crash_at
    return timings


def _measure_split_brain(seed):
    """Partition (not crash) the primary mid-wave; check the fences."""
    runtime, manager, journal, loids, v2 = _build_fleet(seed, "P4Zombie")
    supervisor = Supervisor(
        runtime,
        manager.type_name,
        standby_hosts=STANDBY_HOSTS,
        detector_host_name=DETECTOR_HOST,
        retry_policy=FAST_RETRY,
    ).start()
    base = runtime.sim.now
    others = [f"host{i:02d}/" for i in range(1, 6)]
    runtime.network.faults.add_partition(
        PrefixPartition(
            [f"{MANAGER_HOST}/"], others, start=base + 0.52, end=base + 40.0
        )
    )
    results = {}

    def scenario():
        yield runtime.sim.timeout(base + 0.5 - runtime.sim.now)
        manager.set_current_version_async(v2)
        # Hold the sim open well past heal so the zombie's surviving
        # retries reach the fleet and get fenced.
        yield runtime.sim.timeout(150.0)
        supervisor.stop()

    runtime.sim.run_process(scenario())
    runtime.sim.run()
    promoted = supervisor.manager
    duplicates = sum(
        max(0, promoted.record(loid).obj.applications_by_version.get(v2, 0) - 1)
        for loid in loids
    )
    results["promotions"] = supervisor.promotions
    results["stale_term_rejections"] = runtime.network.count_value(
        "manager.stale_term_rejections"
    )
    results["fenced_stepdowns"] = runtime.network.bus.counts().get(
        "manager-fenced", 0
    )
    results["duplicate_applications"] = duplicates
    results["zombie_deposed"] = manager.deposed
    results["all_on_v2"] = all(
        promoted.record(loid).obj.version == v2 for loid in loids
    )
    return results


def run_p4(seed=0):
    """Run P4; returns an :class:`ExperimentResult`."""
    result = ExperimentResult(
        experiment_id="P4",
        title="Manager availability: hot takeover vs restart-and-recover",
    )
    baseline = _measure_baseline(seed)
    result.add(
        "restart-and-recover MTTR (no supervisor)",
        f">= {RESTART_DELAY_S:.0f} (restart delay + replay)",
        seconds(baseline["mttr_s"]),
        "s",
        ok=baseline["mttr_s"] >= RESTART_DELAY_S,
    )
    intervals = {}
    for interval in INTERVALS:
        timings = _measure_takeover(seed, interval)
        intervals[str(interval)] = timings
        expected = SUSPICION_THRESHOLD * interval
        result.add(
            f"hot takeover MTTR, heartbeat {interval:.2f}s",
            f"~{expected:.1f} (threshold x interval), << baseline",
            seconds(timings["mttr_s"]),
            "s",
            ok=timings["mttr_s"] < baseline["mttr_s"] / 3
            and timings["mttr_s"] >= expected - interval,
        )
    fastest = intervals[str(INTERVALS[0])]["mttr_s"]
    slowest = intervals[str(INTERVALS[-1])]["mttr_s"]
    result.add(
        "MTTR scales with heartbeat interval",
        "shorter interval -> faster detection",
        f"{fastest:.2f} -> {slowest:.2f}",
        "s",
        ok=fastest < slowest,
    )
    split = _measure_split_brain(seed)
    result.add(
        "split brain: stale-term RPCs rejected",
        ">= 1 (zombie fenced)",
        f"{split['stale_term_rejections']}",
        "rpc",
        ok=split["stale_term_rejections"] >= 1 and split["zombie_deposed"],
    )
    result.add(
        "split brain: duplicate applications",
        "0 (exactly-once)",
        f"{split['duplicate_applications']}",
        "",
        ok=split["duplicate_applications"] == 0 and split["all_on_v2"],
    )
    result.extra = {
        "suspicion_threshold": SUSPICION_THRESHOLD,
        "restart_delay_s": RESTART_DELAY_S,
        "baseline": baseline,
        "intervals": intervals,
        "split_brain": split,
    }
    return result
