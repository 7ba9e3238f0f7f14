"""Randomized chaos harness: crashes, partitions, and drops under load.

Building blocks for fault-tolerance tests and drills:

- :func:`crash_host` — a machine-level :meth:`Host.crash` plus the
  runtime-level reconciliation the machine cannot do itself: flipping
  the dead host's :class:`InstanceRecord`s inactive and deactivating
  the objects (including any class object / DCDO Manager homed there).
- :class:`ChaosCoordinator` — wires a :class:`CrashPlan`'s hooks to
  that reconciliation, and on restart recovers dead managers from
  their journals and rebuilds crash-lost instances.
- :class:`ChaosSchedule` — a deterministic fault scenario: one list of
  :class:`Fault` records (crashes, partitions, drops, gray faults,
  version faults), either drawn from a seed through the per-kind table
  :data:`FAULT_KINDS` or given literally, as a shrunk reproducer is.
  Each kind draws from its own seeded stream, so enabling or adding a
  kind never moves another kind's draws (a crash kind only skips the
  hosts an earlier crash kind took).
- :func:`drive_to_convergence` — the heal phase: repair what is
  repairable and re-propagate until every surviving DCDO reaches the
  manager's current version.

Layering note: this module orchestrates *across* layers (cluster +
core), so core imports stay inside functions to keep the cluster
package importable on its own.
"""

import random
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.cluster.host import CrashPlan
from repro.net import (
    DropRule,
    DuplicateRule,
    LinkFlap,
    OneWayPartition,
    PrefixPartition,
    ReorderRule,
    SlowLink,
)


def crash_host(runtime, host):
    """Fail-stop ``host`` and reconcile the runtime's object tables.

    Returns the LOIDs of instances that died.  Class objects homed on
    the host are deactivated too — their recovery (journal replay) is a
    separate, explicit act.
    """
    host.crash()
    died = []
    for class_object in runtime.classes():
        for loid in class_object.instance_loids():
            record = class_object.record(loid)
            if record.host is host and record.active:
                record.active = False
                record.process = None
                if record.obj is not None:
                    record.obj.deactivate()
                died.append(loid)
        if class_object.host is host and class_object.is_active:
            class_object.deactivate()
    return died


class ChaosCoordinator:
    """Runs crash/restart reconciliation for a fleet under test.

    Parameters
    ----------
    runtime:
        The Legion runtime under chaos.
    journals:
        ``type_name -> ManagerJournal`` for every manager that should
        be recoverable; a manager without a journal stays dead until
        its own host returns and someone rebuilds it by hand.
    auto_recover:
        When True (default), a host restart triggers recovery of dead
        journaled managers (homed on the restarting host) and of the
        crash-lost instances the live managers know about.
    """

    def __init__(self, runtime, journals=None, auto_recover=True, relays=None):
        self.runtime = runtime
        self.journals = dict(journals or {})
        self.auto_recover = auto_recover
        #: Host name -> relay LOID directory (see
        #: :func:`repro.cluster.relay.deploy_relays`); restart
        #: reconciliation re-activates dead relays on hosts that booted.
        self.relays = dict(relays or {})
        self.crash_plan = CrashPlan(
            runtime.sim, on_crash=self._on_crash, on_restart=self._on_restart
        )
        self.crash_log = []
        self.recovery_log = []
        self._recovering = set()

    def _on_crash(self, host):
        died = crash_host(self.runtime, host)
        self.crash_log.append((self.runtime.sim.now, host.name, died))
        self.runtime.network.publish(
            "host.crashed", host.name, died=len(died)
        )

    def _on_restart(self, host):
        self.runtime.network.publish("host.restarted", host.name)
        if self.auto_recover:
            yield from self.recover_on(host)

    def recover_on(self, host):
        """Generator: bring back what can come back after ``host`` boots.

        Dead journaled managers are recovered first (homed on the
        restarting host), then every live manager's crash-lost
        instances on now-up hosts are rebuilt.
        """
        from repro.core.recovery import recover_manager

        for type_name, journal in self.journals.items():
            if type_name in self._recovering:
                continue
            try:
                manager = self.runtime.class_of(type_name)
            except Exception:
                manager = None
            if manager is not None and manager.is_active:
                continue
            self._recovering.add(type_name)
            try:
                manager = yield from recover_manager(
                    self.runtime, journal, host_name=host.name
                )
                self.recovery_log.append(
                    (self.runtime.sim.now, "manager", type_name)
                )
            finally:
                self._recovering.discard(type_name)
        yield from self.restore_relays()
        yield from self.restore_components()
        yield from self.recover_instances()

    def restore_relays(self):
        """Generator: re-activate dead evolution relays on up hosts."""
        from repro.cluster.relay import restore_relays

        if self.relays:
            restored = yield from restore_relays(self.runtime, self.relays)
            for host_name in restored:
                self.recovery_log.append(
                    (self.runtime.sim.now, "relay", host_name)
                )

    def restore_components(self):
        """Generator: re-serve dead ICOs of every live manager.

        A crashed component host leaves its ICOs dead even after the
        host reboots (restart wipes memory); instances that never
        cached the blob then cannot evolve.  Managers that survived
        re-create those servers here.
        """
        for class_object in self.runtime.classes():
            if class_object.is_active and hasattr(
                class_object, "restore_components"
            ):
                yield from class_object.restore_components()

    def recover_instances(self):
        """Generator: rebuild crash-lost instances on hosts that are up."""
        from repro.legion.errors import LegionError
        from repro.net import TransportError

        for class_object in self.runtime.classes():
            if not class_object.is_active:
                continue
            for loid in class_object.instance_loids():
                record = class_object.record(loid)
                if record.active or not record.host.is_up:
                    continue
                try:
                    yield from class_object.recover_instance(loid)
                    self.recovery_log.append(
                        (self.runtime.sim.now, "instance", loid)
                    )
                except (ValueError, LegionError, TransportError):
                    # Already recovered concurrently, or still
                    # unreachable: a later pass will retry.
                    continue


@dataclass(frozen=True)
class Fault:
    """One fault of a :class:`ChaosSchedule`.

    ``kind`` names its row in :data:`FAULT_KINDS`; ``start`` and
    ``end`` are offsets from :meth:`ChaosSchedule.install` (a crash's
    ``end`` is its restart, a bad deploy's window is its instant, a
    degradation has none); ``params`` are the kind's own draws.  The
    ``repr`` is a literal that rebuilds the fault, so a shrunk schedule
    prints as a reproducer.
    """

    kind: str
    start: float
    end: float
    params: dict = field(default_factory=dict)


def _window(rng, earliest, latest, min_len, max_len):
    start = rng.uniform(earliest, latest)
    return start, start + rng.uniform(min_len, max_len)


def _outage(rng, host, earliest, latest, duration):
    start, end = _window(rng, earliest, latest, 5.0, duration * 0.4)
    return start, end, {"host": host}


def _cut(rng, side_a, side_b, earliest, latest, min_len, max_len):
    start, end = _window(rng, earliest, latest, min_len, max_len)
    return start, end, {"a": tuple(side_a), "b": tuple(side_b)}


def _sides(victim, rest, label):
    return {"a": (victim,), "b": rest, "label": f"{label}:{victim}"}


def _victim(rng, pool):
    """A random host and every other host of ``pool``."""
    victim = rng.choice(pool)
    return victim, tuple(name for name in pool if name != victim)


# Draws: ``draw(rng, count, ctx)`` yields ``(start, end, params)`` per
# fault.  ``ctx`` holds the hosts, the duration ``d``, the host pools,
# and ``crashed``: the hosts the crash kinds earlier in the table took.


def _draw_crashes(rng, count, ctx):
    if ctx.eligible:
        k = rng.randint(1, min(count, len(ctx.eligible)))
        for name in rng.sample(ctx.eligible, k=k):
            yield _outage(rng, name, 1.0, ctx.d * 0.4, ctx.d)


def _draw_partitions(rng, count, ctx):
    for __ in range(rng.randint(0, count)):
        if len(ctx.hosts) < 2:
            break
        shuffled = list(ctx.hosts)
        rng.shuffle(shuffled)
        cut = rng.randint(1, len(shuffled) - 1)
        yield _cut(
            rng, shuffled[:cut], shuffled[cut:], 0.0, ctx.d * 0.5, 2.0, ctx.d * 0.4
        )


def _draw_drops(rng, count, ctx):
    for __ in range(rng.randint(0, count)):
        start = rng.uniform(0.0, ctx.d * 0.6)
        drops = rng.randint(1, 4)
        yield start, start + rng.uniform(1.0, 20.0), {"count": drops}


def _draw_ico_partitions(rng, count, ctx):
    others = [name for name in ctx.hosts if name not in ctx.ico_hosts]
    if ctx.ico_hosts and others:
        for __ in range(rng.randint(1, count)):
            yield _cut(rng, ctx.ico_hosts, others, 0.0, ctx.d * 0.25, 5.0, ctx.d * 0.5)


def _fresh(ctx):
    """Crashable hosts that no earlier crash kind took."""
    return [name for name in ctx.eligible if name not in ctx.crashed]


def _sampled_outages(rng, count, ctx, pool, earliest, latest):
    for name in rng.sample(pool, k=min(count, len(pool))):
        yield _outage(rng, name, earliest, latest, ctx.d)


def _draw_mid_apply_crashes(rng, count, ctx):
    return _sampled_outages(rng, count, ctx, _fresh(ctx), 0.6, 6.0)


def _draw_relay_crashes(rng, count, ctx):
    pool = [name for name in ctx.relay_hosts if name in _fresh(ctx)]
    return _sampled_outages(rng, count, ctx, pool, 0.5, 8.0)


def _draw_manager_partitions(rng, count, ctx):
    """Isolate the first manager host: the split-brain scenario."""
    if ctx.manager_hosts:
        primary = ctx.manager_hosts[0]
        rest = [name for name in ctx.hosts if name != primary]
        if rest:
            for __ in range(rng.randint(1, count)):
                yield _cut(rng, [primary], rest, 0.5, ctx.d * 0.2, 6.0, ctx.d * 0.35)


def _draw_failovers(rng, count, ctx):
    """Crash manager hosts in sequence, each after the last promotion."""
    crash_at = rng.uniform(0.5, 6.0)
    down = ctx.protect | ctx.crashed
    for name in [name for name in ctx.manager_hosts if name not in down][:count]:
        yield crash_at, crash_at + rng.uniform(10.0, ctx.d * 0.35), {"host": name}
        crash_at += rng.uniform(8.0, 20.0)


def _draw_degradations(rng, count, ctx):
    """Version faults: a build that installs fine but breaks the SLO."""
    for __ in range(rng.randint(1, count)):
        if rng.random() < 0.5:
            yield 0.0, 0.0, _degraded(round(rng.uniform(0.1, 0.5), 3), 0)
        else:
            yield 0.0, 0.0, _degraded(0.0, rng.randint(1, 3))


def _degraded(added_latency_s, error_every):
    return {"added_latency_s": added_latency_s, "error_every": error_every}


def _draw_one_way(rng, count, ctx):
    if len(ctx.hosts) >= 2:
        for __ in range(rng.randint(1, count)):
            victim, rest = _victim(rng, ctx.hosts)
            start, end = _window(rng, 0.5, ctx.d * 0.4, 5.0, ctx.d * 0.4)
            if rng.random() < 0.5:
                # The victim goes mute: its sends vanish, it still hears.
                yield start, end, {"a": (victim,), "b": rest}
            else:
                # The victim goes deaf: it talks, nothing reaches it.
                yield start, end, {"a": rest, "b": (victim,)}


def _draw_flaps(rng, count, ctx):
    if len(ctx.hosts) >= 2:
        for __ in range(rng.randint(1, count)):
            victim, rest = _victim(rng, ctx.hosts)
            period = rng.uniform(2.0, 10.0)
            down = period * rng.uniform(0.2, 0.6)
            start, end = _window(rng, 0.5, ctx.d * 0.4, 8.0, ctx.d * 0.4)
            yield start, end, {
                **_sides(victim, rest, "flap"),
                "period_s": period,
                "down_s": down,
            }


def _draw_slow_links(rng, count, ctx):
    if len(ctx.hosts) >= 2:
        for __ in range(rng.randint(1, count)):
            victim, rest = _victim(rng, ctx.hosts)
            params = {
                **_sides(victim, rest, "slow"),
                "extra_s": rng.uniform(0.05, 0.3),
                "jitter_s": rng.uniform(0.0, 0.2),
                "seed": rng.randrange(2**32),
            }
            yield (*_window(rng, 0.5, ctx.d * 0.4, 5.0, ctx.d * 0.4), params)


def _draw_duplicates(rng, count, ctx):
    for __ in range(rng.randint(1, count)):
        params = {
            "probability": rng.uniform(0.05, 0.3),
            "spread_s": rng.uniform(0.005, 0.05),
            "seed": rng.randrange(2**32),
        }
        yield (*_window(rng, 0.0, ctx.d * 0.5, 5.0, ctx.d * 0.4), params)


def _draw_reorders(rng, count, ctx):
    for __ in range(rng.randint(1, count)):
        params = {
            "probability": rng.uniform(0.05, 0.3),
            "max_skew_s": rng.uniform(0.002, 0.02),
            "seed": rng.randrange(2**32),
        }
        yield (*_window(rng, 0.0, ctx.d * 0.5, 5.0, ctx.d * 0.4), params)


def _draw_limps(rng, count, ctx):
    if ctx.hosts:
        for __ in range(rng.randint(1, count)):
            victim = rng.choice(ctx.hosts)
            factor = round(rng.uniform(2.0, 8.0), 2)
            start, end = _window(rng, 0.5, ctx.d * 0.4, 5.0, ctx.d * 0.4)
            yield start, end, {"host": victim, "factor": factor}


def _draw_bad_deploys(rng, count, ctx):
    """Degraded builds the harness adopts fleet-wide, outside any canary."""
    for __ in range(rng.randint(1, count)):
        at = rng.uniform(1.0, ctx.d * 0.3)
        if rng.random() < 0.5:
            yield at, at, _degraded(round(rng.uniform(0.2, 1.0), 3), 0)
        else:
            yield at, at, _degraded(0.0, rng.randint(2, 4))


def _draw_flaky_limps(rng, count, ctx):
    """Limps that land where instances live, so quarantine fires."""
    if ctx.instance_hosts:
        for __ in range(rng.randint(1, count)):
            victim = rng.choice(ctx.instance_hosts)
            factor = round(rng.uniform(4.0, 10.0), 2)
            start, end = _window(rng, 0.5, ctx.d * 0.3, 10.0, ctx.d * 0.5)
            yield start, end, {"host": victim, "factor": factor}


# Installers: ``install(runtime, coordinator, fault, base)`` arms one
# fault at ``base`` plus its offsets.


def _install_crash(runtime, coordinator, fault, base):
    coordinator.crash_plan.schedule_outage(
        runtime.host(fault.params["host"]), base + fault.start, base + fault.end
    )


def _rule(add, make):
    """Installer for a network rule: ``make(*sides, **params)``, where
    the sides are the ``a``/``b`` host tuples as address prefixes."""

    def install(runtime, coordinator, fault, base):
        params = dict(fault.params)
        sides = [
            [f"{name}/" for name in params.pop(side)]
            for side in ("a", "b")
            if side in params
        ]
        rule = make(*sides, **params, start=base + fault.start, end=base + fault.end)
        getattr(runtime.network.faults, add)(rule)

    return install


_install_partition = _rule("add_partition", PrefixPartition)


def _install_limp(runtime, coordinator, fault, base):
    host_name = fault.params["host"]
    runtime.sim.spawn(
        _limp_window(
            runtime,
            host_name,
            fault.params["factor"],
            base + fault.start,
            base + fault.end,
        ),
        name=f"{fault.kind}:{host_name}@{fault.start:g}",
    )


def _limp_window(runtime, host_name, factor, start, end):
    """Process body: degrade a host's service times, then heal."""
    sim = runtime.sim
    yield sim.timeout(start - sim.now, daemon=True)
    host = runtime.host(host_name)
    host.set_limp(factor, slow_nic=True)
    yield sim.timeout(end - sim.now, daemon=True)
    host.clear_limp()


#: Fault kind -> ``(draw, install)``, in generation order.  A crash kind
#: below another skips the hosts that kind already crashes.  ``install``
#: is None for version faults: staging a degraded build needs a manager,
#: which the schedule does not hold, so the harness stages them.
FAULT_KINDS = {
    "crashes": (_draw_crashes, _install_crash),
    "partitions": (_draw_partitions, _install_partition),
    "drops": (_draw_drops, _rule("add_drop_rule", DropRule)),
    "ico_partitions": (_draw_ico_partitions, _install_partition),
    "mid_apply_crashes": (_draw_mid_apply_crashes, _install_crash),
    "relay_crashes": (_draw_relay_crashes, _install_crash),
    "manager_partitions": (_draw_manager_partitions, _install_partition),
    "failovers": (_draw_failovers, _install_crash),
    "degradations": (_draw_degradations, None),
    "one_way": (_draw_one_way, _rule("add_partition", OneWayPartition)),
    "flaps": (_draw_flaps, _rule("add_partition", LinkFlap)),
    "slow_links": (_draw_slow_links, _rule("add_delay_rule", SlowLink)),
    "duplicates": (_draw_duplicates, _rule("add_duplicate_rule", DuplicateRule)),
    "reorders": (_draw_reorders, _rule("add_delay_rule", ReorderRule)),
    "limps": (_draw_limps, _install_limp),
    "bad_deploys": (_draw_bad_deploys, None),
    "flaky_limps": (_draw_flaky_limps, _install_limp),
}

#: Kinds that fail-stop a host, and kinds that cut the network in two.
CRASH_KINDS = tuple(k for k, (__, i) in FAULT_KINDS.items() if i is _install_crash)
PARTITION_KINDS = ("partitions", "ico_partitions", "manager_partitions")

#: Faults per kind when :meth:`ChaosSchedule.generate` is not told
#: otherwise; every other kind is off.
DEFAULT_COUNTS = {"crashes": 2, "partitions": 1, "drops": 2}


class ChaosSchedule:
    """A deterministic fault scenario: one list of :class:`Fault`.

    Build one with :meth:`generate` from a seed, or directly from a
    fault list (a shrunk reproducer).  :meth:`install` arms every
    fault; :attr:`heal_time` is when the last one clears.
    """

    def __init__(self, faults=()):
        self.faults = list(faults)
        #: Simulated time :meth:`install` rebased the offsets onto.
        self.installed_at = None

    @classmethod
    def generate(
        cls,
        seed,
        host_names,
        duration_s=120.0,
        counts=None,
        protect=(),
        ico_hosts=(),
        relay_hosts=(),
        manager_hosts=(),
        instance_hosts=(),
    ):
        """Roll a scenario: ``counts`` maps a kind to its bound.

        Kinds ``counts`` leaves out keep :data:`DEFAULT_COUNTS`.  Each
        kind ``k`` draws only from ``random.Random(f"{seed}:{k}")`` (a
        string seed is hashed with SHA-512, so the stream depends on
        neither ``PYTHONHASHSEED`` nor the process).  Turning a kind on
        or off therefore moves no other kind's faults, except that a
        crash kind skips hosts an earlier crash kind already took.

        The pools: ``protect`` names hosts no kind crashes (they may
        still be partitioned); ``ico_hosts`` serve the components an
        evolution fetches (``ico_partitions`` cut them off early);
        ``relay_hosts`` run evolution relays (``relay_crashes`` kill
        them mid-wave); ``manager_hosts`` run, or may be promoted to
        run, the manager (``manager_partitions`` isolate the first,
        ``failovers`` crash them in turn); ``instance_hosts`` carry
        instances (``flaky_limps`` limp them).
        """
        counts = {**DEFAULT_COUNTS, **(counts or {})}
        unknown = sorted(set(counts) - set(FAULT_KINDS))
        if unknown:
            raise ValueError(f"unknown fault kinds {unknown}")
        hosts = list(host_names)
        ctx = SimpleNamespace(
            hosts=hosts,
            d=duration_s,
            protect=set(protect),
            eligible=[name for name in hosts if name not in protect],
            ico_hosts=[name for name in ico_hosts if name in hosts],
            relay_hosts=[name for name in relay_hosts if name in hosts],
            manager_hosts=[name for name in manager_hosts if name in hosts],
            instance_hosts=[name for name in instance_hosts if name in hosts],
            crashed=set(),
        )
        faults = []
        for kind, (draw, __) in FAULT_KINDS.items():
            if counts.get(kind, 0) <= 0:
                continue
            rng = random.Random(f"{seed}:{kind}")
            drawn = [Fault(kind, *fault) for fault in draw(rng, counts[kind], ctx)]
            if kind in CRASH_KINDS:
                ctx.crashed.update(fault.params["host"] for fault in drawn)
            faults += drawn
        return cls(faults)

    def faults_of(self, *kinds):
        """This schedule's faults of ``kinds``, in schedule order."""
        return [fault for fault in self.faults if fault.kind in kinds]

    @property
    def first_outage(self):
        """Offset of the first crash or partition, or None."""
        starts = [
            fault.start for fault in self.faults_of(*CRASH_KINDS, *PARTITION_KINDS)
        ]
        return min(starts) if starts else None

    @property
    def heal_time(self):
        """Time by which every fault has cleared (absolute once
        installed; an offset from install before that)."""
        return max([0.0] + [fault.end for fault in self.faults]) + (
            self.installed_at or 0.0
        )

    def install(self, runtime, coordinator):
        """Arm the scenario on ``runtime`` via ``coordinator``'s plan.

        Fault times are *offsets*; they are rebased onto the current
        simulated time here, so a scenario can be installed on a
        testbed that has already been running.
        """
        base = self.installed_at = runtime.sim.now
        for fault in self.faults:
            install = FAULT_KINDS[fault.kind][1]
            if install is not None:
                install(runtime, coordinator, fault, base)

    def __repr__(self):
        counts = Counter(fault.kind for fault in self.faults)
        body = " ".join(f"{kind}={count}" for kind, count in counts.items())
        return f"<ChaosSchedule {body}>" if body else "<ChaosSchedule>"


def drive_to_convergence(
    runtime, type_name, journal=None, retry_policy=None, max_rounds=8, relays=None
):
    """Generator: repair and re-propagate until the fleet converges.

    Meant for *after* faults heal.  Each round: recover the manager
    from its journal if it is dead, rebuild crash-lost instances on
    up hosts, then run the ack-tracked propagation of the current
    version.  The propagation is driven under explicit converge
    semantics — a wave that previously aborted keeps its abortive
    policy on its tracker, and convergence is this function's whole
    contract, so the per-call override re-drives it to completion
    instead of re-tripping the abort.  ``relays`` is an optional host
    -> relay-LOID directory: dead relays are re-activated each round
    before propagating, so batched waves keep working through host
    restarts.  Returns the final :class:`PropagationTracker` (check
    ``all_acked``).
    """
    from repro.core.manager import WavePolicy
    from repro.core.recovery import recover_manager

    tracker = None
    for __ in range(max_rounds):
        manager = runtime.class_of(type_name)
        if not manager.is_active:
            if journal is None:
                raise RuntimeError(
                    f"manager for {type_name!r} is dead and no journal was given"
                )
            manager = yield from recover_manager(runtime, journal)
            if relays:
                # A recovered manager starts without relay routing;
                # re-enable it so waves stay host-batched.
                manager.use_relays(relays)
        coordinator = ChaosCoordinator(runtime, auto_recover=False, relays=relays)
        yield from coordinator.restore_relays()
        yield from coordinator.restore_components()
        yield from coordinator.recover_instances()
        # Leave canary-frozen instances alone: their rollout's gate
        # runner owns them until it completes or aborts.
        frozen = manager.canary_frozen_loids()
        loids = None
        if frozen:
            loids = [
                loid for loid in manager.instance_loids() if loid not in frozen
            ]
        tracker = yield from manager.propagate_version(
            manager.current_version,
            loids=loids,
            retry_policy=retry_policy,
            wave_policy=WavePolicy.converge(),
        )
        if tracker.all_acked:
            return tracker
    return tracker
