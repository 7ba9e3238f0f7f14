"""SLO-gated canary waves: staged evolution behind tail-latency gates.

The paper's update policies (§3.3) decide *when* instances move to a
new version; its transactional waves (our PR 3) decide *what happens*
when deliveries fail.  Neither protects against the nastier failure
mode in long-running grids: a version that installs perfectly and then
quietly ruins the service — p99 latency regressions, elevated error
rates — which structural dependency checks (§3.2) cannot see.

:func:`run_canary_wave` closes that gap.  It evolves a small canary
subset first, holds each ramp stage for a *bake window* while an
:class:`~repro.obs.slo.SLOMonitor` watches live traffic, and either
ramps onward (1% → 10% → 100% by default) or drives the existing
transactional abort — rolling every touched instance back to its prior
version.  The rollout is one *staged wave*, whose journaled tracker
also records its stages, gates, adoption and abort reason (a breach
*is* the wave's abort decision), so a promoted standby resumes the
frozen admitted set or completes the abort by the rule every wave
follows, instead of blindly re-converging the fleet onto an unvetted
version.

Canary fleets must use a multi-version evolution policy
(:class:`~repro.core.policies.evolution.IncreasingVersionPolicy` or
laxer): a canary *is* a §3.5 multi-version deployment state — part of
the fleet runs v-next while the current version stays put — which the
single-version policy (§3.4) correctly vetoes.
"""

import math
from dataclasses import dataclass

from repro.core.errors import WaveAborted
from repro.legion.errors import LegionError, UnknownObject
from repro.net import TransportError


@dataclass(frozen=True)
class CanaryWavePolicy:
    """How a gated rollout ramps and when it gives up."""

    #: Cumulative fleet fractions per ramp stage.  Each stage admits
    #: enough instances to reach its fraction, then bakes.
    stages: tuple = (0.01, 0.10, 1.0)
    #: Seconds each stage must stay SLO-healthy before its gate passes.
    bake_s: float = 10.0
    #: How often the gate re-evaluates the monitor during a bake.
    check_interval_s: float = 1.0
    #: Smallest useful canary: fractions round up to at least this.
    min_canary: int = 1
    #: Delivery-level wave policy for each stage's propagation.  Left
    #: None it defaults to ``WavePolicy.abort_after(0)`` — a canary
    #: that cannot even be delivered is not worth baking.
    wave_policy: object = None

    def __post_init__(self):
        if self.wave_policy is None:
            # Deferred import: repro.core.manager imports this package.
            from repro.core.manager import WavePolicy

            object.__setattr__(self, "wave_policy", WavePolicy.abort_after(0))
        if not self.stages:
            raise ValueError("stages must be non-empty")
        last = 0.0
        for fraction in self.stages:
            if not 0.0 < fraction <= 1.0:
                raise ValueError(f"stage fraction {fraction} outside (0, 1]")
            if fraction < last:
                raise ValueError("stage fractions must be non-decreasing")
            last = fraction
        if self.stages[-1] != 1.0:
            raise ValueError("final stage must cover the whole fleet (1.0)")
        if self.bake_s < 0:
            raise ValueError("bake_s must be >= 0")
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be > 0")


@dataclass
class CanaryOutcome:
    """What a gated rollout ultimately did."""

    version: object
    completed: bool = False
    breached: bool = False
    breach_reason: str = None
    #: Gates passed before the rollout ended.
    stage_reached: int = 0
    #: Instances the wave ever touched.
    admitted: int = 0
    fleet_size: int = 0
    #: ``admitted / fleet_size`` — the damage cap a breach enjoyed.
    blast_radius: float = 0.0
    #: True when the runner gave up waiting for a live manager.
    stalled: bool = False


def _live_manager(runtime, type_name):
    """The current authority for ``type_name``, or None while down.

    Resolved fresh on every loop turn: after a failover the runtime
    adopts the promoted standby under the same type name, so the gate
    runner transparently continues against the new primary.
    """
    try:
        manager = runtime.class_of(type_name)
    except UnknownObject:
        return None
    if manager.deposed or not manager.is_active:
        return None
    return manager


def _stage_target(fraction, fleet_size, min_canary):
    return min(fleet_size, max(min_canary, math.ceil(fraction * fleet_size)))


def run_canary_wave(
    runtime,
    type_name,
    version,
    policy=None,
    monitor=None,
    retry_policy=None,
    deadline_s=None,
):
    """Generator: drive ``version`` through an SLO-gated canary rollout.

    Survives manager crashes and failovers mid-rollout: the authority
    is re-resolved every turn and all gate state lives in the manager's
    journal, so the runner picks up exactly where the previous primary
    left off — including finishing an abort the crash interrupted.
    Returns a :class:`CanaryOutcome`.
    """
    policy = policy or CanaryWavePolicy()
    sim = runtime.sim
    started = sim.now

    def outcome(tracker, fleet_size, stalled=False):
        admitted = len(tracker.admitted) if tracker is not None else 0
        return CanaryOutcome(
            version=version,
            completed=tracker is not None and tracker.adopted,
            breached=tracker is not None and tracker.abort_reason is not None,
            breach_reason=tracker.abort_reason if tracker is not None else None,
            stage_reached=tracker.stage_index if tracker is not None else 0,
            admitted=admitted,
            fleet_size=fleet_size,
            blast_radius=(admitted / fleet_size) if fleet_size else 0.0,
            stalled=stalled,
        )

    last_tracker = None
    last_fleet = 0
    #: The gate's own memory of its verdict.  A promoted standby can
    #: legitimately miss the breach journal entry (it ships
    #: asynchronously), and by the time the runner engages it the
    #: monitor may read healthy again because the rollback already
    #: landed — without this the runner would re-ramp a version it
    #: already condemned.
    decided_reason = None
    #: Managers (by identity) with a live background abort driver.
    aborting = set()

    def _drive_abort(mgr, reason):
        """Process body: push one manager's abort; never raises."""
        try:
            yield from mgr.abort_wave(version, reason)
        except (LegionError, TransportError):
            pass  # fenced or died mid-rollback: journal keeps ABORTING
        finally:
            aborting.discard(id(mgr))

    while True:
        if deadline_s is not None and sim.now - started > deadline_s:
            return outcome(last_tracker, last_fleet, stalled=True)
        manager = _live_manager(runtime, type_name)
        if manager is None:
            yield sim.timeout(policy.check_interval_s)
            continue

        try:
            tracker = manager.begin_canary(
                version, policy.stages, policy.bake_s, policy.wave_policy
            )
            last_tracker = tracker
            fleet = manager.instance_loids()
            last_fleet = len(fleet)

            if decided_reason is not None and tracker.open_canary:
                # This authority never heard the verdict (failover lost
                # the breach entry): re-assert it before it can ramp.
                manager.mark_canary_breached(version, decided_reason)
                continue

            if tracker.abort_reason is not None:
                decided_reason = decided_reason or tracker.abort_reason
                if tracker.aborted or not tracker.aborting:
                    # Rolled back (or its version pushed again since).
                    return outcome(tracker, len(fleet))
                # Drive the rollback in the background and poll: the
                # abort can take minutes against a sick fleet, and the
                # authority may be deposed mid-way — the runner must
                # keep re-resolving instead of blocking inside one
                # manager's abort.
                if id(manager) not in aborting:
                    aborting.add(id(manager))
                    sim.spawn(
                        _drive_abort(manager, decided_reason),
                        name=f"canary-abort:{type_name}",
                    )
                yield sim.timeout(policy.check_interval_s)
                continue

            if tracker.adopted:
                return outcome(tracker, len(fleet))

            if tracker.stage_index >= len(tracker.stages):
                manager.complete_canary(version)
                return outcome(tracker, len(fleet))

            # Admit up to this stage's cumulative target, then deliver.
            target = _stage_target(
                tracker.stages[tracker.stage_index], len(fleet), policy.min_canary
            )
            admitted = tracker.admitted
            if len(admitted) < target:
                known = set(admitted)
                fresh = [loid for loid in fleet if loid not in known]
                manager.admit_canary_stage(version, fresh[: target - len(admitted)])
            try:
                yield from manager.propagate_version(
                    version,
                    loids=tracker.admitted,
                    retry_policy=retry_policy,
                    wave_policy=policy.wave_policy,
                )
            except WaveAborted:
                if manager.is_active and not manager.deposed:
                    decided_reason = decided_reason or "delivery-failures"
                # A fenced/dead manager's delivery failures say nothing
                # about the version; let the next authority retry.
                continue

            # Bake: hold the stage while the SLO gate watches traffic.
            baked = 0.0
            verdict = "pass"
            while baked < tracker.bake_s:
                step = min(policy.check_interval_s, tracker.bake_s - baked)
                yield sim.timeout(step)
                baked += step
                if (
                    manager.deposed
                    or not manager.is_active
                    or _live_manager(runtime, type_name) is not manager
                ):
                    verdict = "retry"  # authority changed under the bake
                    break
                if monitor is not None and not monitor.healthy():
                    status = monitor.evaluate()
                    reason = "; ".join(status.violations) or "slo-breach"
                    decided_reason = decided_reason or reason
                    manager.mark_canary_breached(version, reason)
                    verdict = "breach"
                    break
            if verdict != "pass":
                continue  # breach/abort handled at the top of the loop

            manager.record_canary_gate(version)
        except (LegionError, TransportError):
            # Authority died under us (crash, fencing, stale binding):
            # everything decided so far is journaled; re-resolve.
            yield sim.timeout(policy.check_interval_s)
            continue
