"""The reactive self-healing controller: sense → decide → act.

The paper's configuration manager is an *actuator*: it can evolve,
migrate, and roll back a fleet, but only when an operator tells it to.
Every fault-tolerance layer grown since (supervisor failover, canary
gates, gray-failure quarantine) reacts to one hazard it was built for.
The :class:`ReactiveController` closes the remaining loop: a daemon
per managed DCDO type that *senses* degradation signals (health-score
transitions, SLO breaches, detector suspicions, crash/restart events —
all via the :class:`~repro.obs.bus.EventBus`), *decides* what to do
through pluggable :mod:`~repro.core.policies.remediation` policies,
and *acts* exclusively through the existing transactional machinery.

Safety is layered, in order of evaluation each tick:

1. **Liveness/identity** — the controller re-resolves the live manager
   every tick and first garbage-collects intents an older term left
   open.  An action whose manager is deposed or replaced mid-flight is
   abandoned (fencing stops it) and its decision is re-driven on the
   live manager.
2. **Deference** — while the supervisor is promoting or converging the
   controller stands down entirely; finer-grained overlap is handled
   by the shared :class:`~repro.cluster.coordination.ConvergenceGuard`
   (all-or-nothing LOID claims; deny → defer, never run alongside).
3. **Lease** — a plane-level remediation lease, journaled on the
   manager and fenced by its term.  A zombie controller still holding
   a lease minted under the deposed primary's term finds
   ``holds_remediation_lease`` false against the promotee and goes
   quiet; the promoted supervisor can never fight a ghost.
4. **Rate limits** — a token budget per sliding window plus a
   per-(policy, target) cooldown keep a flapping signal from turning
   into remediation churn (the oscillation amplifier every reactive
   controller must not become).
5. **Intent journaling** — every admitted action is write-ahead logged
   (``begin_remediation``) before its first RPC and closed after, so a
   recovered manager knows exactly which automated actions were in
   flight and ``gc_remediations`` can orphan the unfinishable ones.
"""

from collections import deque

from repro.cluster.coordination import convergence_guard
from repro.core.policies.remediation import default_remediation_policies
from repro.sim import AnyOf

#: What the controller senses: the signal families plus wave outcomes.
#: Every other configuration-plane transition (each journaled manager
#: decision, each evolution) goes on the same bus; sensing those too
#: would let one large wave push the signals the policies act on out
#: of the bounded inbox.
SENSED_TOPICS = (
    "health.", "slo.", "detector.", "host.", "deploy.", "propagation-complete",
)


class ReactiveController:
    """Self-healing daemon for one managed DCDO type.

    Parameters
    ----------
    runtime:
        The legion runtime hosting the managed type.
    type_name:
        The DCDO type to watch; the live manager is re-resolved from
        the runtime's class registry every tick, so promotions are
        followed automatically.
    supervisor:
        Optional supervisor to defer to explicitly (its promote /
        converge flags); without it, deference still happens through
        the convergence guard.
    policies:
        Remediation policies, default the full registry
        (:func:`default_remediation_policies`).
    interval_s / lease_ttl_s:
        Tick period (also how often a running action's manager is
        re-checked) and lease time-to-live.  The lease is renewed
        every tick, so ``lease_ttl_s`` only matters across controller
        death: it bounds how long the manager stays formally "owned" by
        a remediator that stopped renewing.
    budget / budget_window_s:
        At most ``budget`` remediation actions per sliding window.
    retry_policy:
        Passed to rollback waves a policy originates.
    """

    def __init__(
        self,
        runtime,
        type_name,
        supervisor=None,
        policies=None,
        interval_s=1.0,
        lease_ttl_s=30.0,
        budget=4,
        budget_window_s=60.0,
        retry_policy=None,
        name=None,
    ):
        self.runtime = runtime
        self.type_name = type_name
        self.supervisor = supervisor
        self.policies = (
            list(policies) if policies is not None else default_remediation_policies()
        )
        self.interval_s = interval_s
        self.lease_ttl_s = lease_ttl_s
        self.budget = budget
        self.budget_window_s = budget_window_s
        self.retry_policy = retry_policy
        self.name = name or f"controller:{type_name}"

        #: Remediation timeline: one dict per executed intent
        #: (at/policy/kind/target/outcome/result) — the drill example
        #: and reports print this.
        self.remediation_log = []

        self._inbox = deque(maxlen=512)
        self._cooldowns = {}  # (policy, target) -> last action time
        self._recent_actions = deque()  # admission times, for the budget
        #: (policy, intent) decisions whose action was abandoned when its
        #: manager lost authority; a later tick re-drives them.
        self._carried = []
        self._intent_seq = 0
        self._stopped = False
        self._subscribed = False
        self._process = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Subscribe to the bus and spawn the control loop; returns self."""
        self._subscribe()
        self._process = self.runtime.sim.spawn(
            self._run(), name=f"controller:{self.type_name}"
        )
        return self

    def stop(self):
        """Stop the loop and release the lease on the live manager."""
        self._stopped = True
        if self._subscribed:
            for pattern in SENSED_TOPICS:
                self.runtime.network.bus.unsubscribe(pattern, self._on_event)
            self._subscribed = False
        manager = self._resolve_manager()
        if manager is not None and not manager.deposed:
            manager.release_remediation_lease(self.name)

    # ------------------------------------------------------------------
    # Sense
    # ------------------------------------------------------------------

    def _subscribe(self):
        if not self._subscribed:
            for pattern in SENSED_TOPICS:
                self.runtime.network.bus.subscribe(pattern, self._on_event)
            self._subscribed = True

    def _on_event(self, event):
        """Bus callback: record only — all action happens in our tick."""
        self._inbox.append(event)

    def _drain(self):
        events = list(self._inbox)
        self._inbox.clear()
        return events

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def _run(self):
        sim = self.runtime.sim
        while not self._stopped:
            yield sim.timeout(self.interval_s, daemon=True)
            if self._stopped:
                break
            try:
                yield from self._tick()
            except Exception:
                # A tick must never kill the daemon: the failed action
                # was journaled and will be orphaned/repaired; the next
                # tick senses whatever state the failure left behind.
                self.runtime.network.count("controller.tick_errors")

    def _resolve_manager(self):
        if self.supervisor is not None and self.supervisor.manager is not None:
            return self.supervisor.manager
        try:
            return self.runtime.class_of(self.type_name)
        except Exception:
            return None

    def _supervisor_busy(self):
        sup = self.supervisor
        if sup is not None and (
            getattr(sup, "_promote_in_progress", False)
            or getattr(sup, "_converging", False)
        ):
            return True
        return convergence_guard(self.runtime).busy("supervisor:")

    def _tick(self):
        network = self.runtime.network
        manager = self._resolve_manager()
        if manager is None or manager.deposed or not manager.is_active:
            network.count("controller.skipped_no_manager")
            return
        # Orphan whatever an older term left open (a promotion or
        # recovery happened) before deciding anything against this
        # manager.
        orphaned = manager.gc_remediations()
        if orphaned:
            network.count("controller.gc_orphaned", len(orphaned))
        if self._supervisor_busy():
            network.count("controller.deferred")
            return
        if not manager.acquire_remediation_lease(self.name, ttl_s=self.lease_ttl_s):
            network.count("controller.lease_denied")
            return

        events = self._drain()
        ctx = ControllerContext(
            runtime=self.runtime,
            manager=manager,
            controller=self,
            events=events,
            retry_policy=self.retry_policy,
        )
        for policy, intent, carried in self._decisions(ctx):
            if self._stopped:
                return
            # Decisions are stale the moment an earlier intent in
            # this same tick acted; re-verify lease and liveness
            # between actions.
            if manager.deposed or not manager.holds_remediation_lease(self.name):
                network.count("controller.lease_lost")
                if carried:
                    self._carried.insert(0, (policy, intent))
                return
            # A carried decision was admitted when it was first made.
            if carried or self._admit(intent, policy):
                yield from self._execute(ctx, policy, intent, carried)

    def _decisions(self, ctx):
        """Carried decisions, then each policy's intents, evaluated only
        once the decisions before it have acted."""
        for __ in range(len(self._carried)):
            policy, intent = self._carried.pop(0)
            yield policy, intent, True
        for policy in self.policies:
            try:
                intents = policy.evaluate(ctx)
            except Exception:
                self.runtime.network.count("controller.evaluate_errors")
                continue
            for intent in intents:
                yield policy, intent, False

    # ------------------------------------------------------------------
    # Decide: admission control
    # ------------------------------------------------------------------

    def _admit(self, intent, policy):
        network = self.runtime.network
        now = self.runtime.sim.now
        last = self._cooldowns.get(intent.cooldown_key)
        if last is not None and now - last < policy.cooldown_s:
            network.count("controller.rate_limited")
            return False
        while self._recent_actions and now - self._recent_actions[0] > self.budget_window_s:
            self._recent_actions.popleft()
        if len(self._recent_actions) >= self.budget:
            network.count("controller.rate_limited")
            return False
        return True

    # ------------------------------------------------------------------
    # Act
    # ------------------------------------------------------------------

    def _execute(self, ctx, policy, intent, carried=False):
        """Generator: journal ``intent``, run it, and wait for it.

        The action runs as its own process.  Every ``interval_s`` the
        wait checks that its manager is still the authority; once it is
        deposed or replaced, the wait ends with the outcome
        ``abandoned`` (fencing stops the action itself) and the
        decision is carried to the next tick.
        """
        network = self.runtime.network
        sim = self.runtime.sim
        guard = convergence_guard(self.runtime)
        claimed = list(intent.loids)
        if claimed and not guard.try_claim(self.name, claimed):
            # Somebody (the supervisor, another action) is already
            # driving configuration onto part of this set: defer, the
            # signal will still be there next tick if it matters.
            network.count("controller.deferred")
            if carried:
                self._carried.append((policy, intent))
            return
        now = sim.now
        self._cooldowns[intent.cooldown_key] = now
        self._recent_actions.append(now)
        self._intent_seq += 1
        intent_id = f"{self.name}#{self._intent_seq}:{intent.policy}:{intent.target}"
        manager = ctx.manager
        manager.begin_remediation(
            intent_id, intent.kind, intent.target, policy=intent.policy
        )
        action = sim.spawn(self._act(ctx, policy, intent), name=intent_id)
        while not action.triggered:
            yield AnyOf(sim, [action, sim.timeout(self.interval_s, daemon=True)])
            if action.triggered:
                outcome, result = action.value
            elif manager.deposed or self._resolve_manager() is not manager:
                outcome, result = "abandoned", None
                self._carried.append((policy, intent))
                break
        if claimed:
            guard.release(self.name, claimed)
        # An abandoned intent belongs to a manager that lost authority;
        # the live manager orphans its own copy.
        if outcome != "abandoned" and not manager.deposed:
            manager.complete_remediation(intent_id, outcome=outcome)
        network.count(f"controller.actions.{outcome}")
        self.remediation_log.append(
            {
                "at": round(sim.now, 3),
                "intent_id": intent_id,
                "policy": intent.policy,
                "kind": intent.kind,
                "target": intent.target,
                "outcome": outcome,
                "result": result,
            }
        )
        network.publish(
            "controller-action",
            self.name,
            policy=intent.policy,
            kind=intent.kind,
            target=str(intent.target),
            outcome=outcome,
        )

    def _act(self, ctx, policy, intent):
        """Process body: one policy action; returns (outcome, result)."""
        try:
            result = yield from policy.execute(ctx, intent)
        except Exception as exc:
            return "failed", {"error": f"{type(exc).__name__}: {exc}"}
        return "done", result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self):
        """Plain-dict view for reports and assertions."""
        counters = self.runtime.network
        return {
            "name": self.name,
            "stopped": self._stopped,
            "policies": [policy.name for policy in self.policies],
            "actions": len(self.remediation_log),
            "log_tail": self.remediation_log[-5:],
            "deferred": counters.count_value("controller.deferred"),
            "rate_limited": counters.count_value("controller.rate_limited"),
        }

    def __repr__(self):
        return (
            f"<ReactiveController {self.type_name} actions={len(self.remediation_log)} "
            f"policies={len(self.policies)}{' stopped' if self._stopped else ''}>"
        )


class ControllerContext:
    """What a policy sees each tick: sensed events plus live handles."""

    def __init__(self, runtime, manager, controller, events, retry_policy):
        self.runtime = runtime
        self.manager = manager
        self.controller = controller
        self.events = events
        self.retry_policy = retry_policy

    def events_on(self, topic):
        """This tick's events matching an exact topic."""
        return [event for event in self.events if event.topic == topic]
