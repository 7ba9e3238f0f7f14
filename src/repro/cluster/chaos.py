"""Randomized chaos harness: crashes, partitions, and drops under load.

Building blocks for fault-tolerance tests and drills:

- :func:`crash_host` — a machine-level :meth:`Host.crash` plus the
  runtime-level reconciliation the machine cannot do itself: flipping
  the dead host's :class:`InstanceRecord`s inactive and deactivating
  the objects (including any class object / DCDO Manager homed there).
- :class:`ChaosCoordinator` — wires a :class:`CrashPlan`'s hooks to
  that reconciliation, and on restart recovers dead managers from
  their journals and rebuilds crash-lost instances.
- :class:`ChaosSchedule` — a seeded, deterministic fault scenario
  (host outages, prefix partitions, drop rules) generated from one
  integer seed, so every chaos test run is reproducible.
- :func:`drive_to_convergence` — the heal phase: repair what is
  repairable and re-propagate until every surviving DCDO reaches the
  manager's current version.

Layering note: this module orchestrates *across* layers (cluster +
core), so core imports stay inside functions to keep the cluster
package importable on its own.
"""

import random

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


class ChaosSchedule:
    """A deterministic fault scenario generated from one seed.

    Attributes
    ----------
    crashes:
        ``(host_name, crash_at, restart_at)`` outages.
    partitions:
        ``(prefixes_a, prefixes_b, start, end)`` prefix partitions.
    drops:
        ``(count, start, end)`` bounded random-drop windows.
    degradations:
        ``(kind, amount)`` version-quality regressions — ``("latency",
        seconds)`` or ``("errors", every_k)``.  Not installed on the
        network: the harness feeds them to
        :func:`repro.workloads.generator.build_degraded_version` to
        stage the bad build whose rollout the SLO gate must catch.
    one_way:
        ``(from_host, to_hosts, start, end)`` asymmetric partitions:
        traffic from ``from_host`` toward ``to_hosts`` is lost, the
        reverse direction flows.
    flaps:
        ``(host, other_hosts, period_s, down_s, start, end)`` link-flap
        schedules between one host and the rest.
    slow_links:
        ``(host, other_hosts, extra_s, jitter_s, rule_seed, start,
        end)`` latency-inflation windows.
    duplicates:
        ``(probability, spread_s, rule_seed, start, end)`` message
        duplication windows over all traffic.
    reorders:
        ``(probability, max_skew_s, rule_seed, start, end)`` bounded
        reordering windows over all traffic.
    limps:
        ``(host, factor, start, end)`` limping-host windows: CPU (and
        NIC) service times multiply by ``factor``, then heal.
    bad_deploys:
        ``(at, added_latency_s, error_every)`` unguarded bad rollouts:
        at ``at`` the harness adopts a degraded build fleet-wide
        *outside* any canary (the operator-pushed regression the SLO
        gate never saw).  Not installed on the network — the harness
        stages the build via
        :func:`repro.workloads.generator.build_degraded_version` and
        propagates it; the reactive controller must sense the breach
        and demote.
    flaky_limps:
        ``(host, factor, start, end)`` limping windows drawn from the
        instance-bearing host pool — semantics identical to ``limps``,
        but guaranteed to land where instances live, so quarantine and
        migrate-off-flaky-host remediation actually trigger.
    """

    def __init__(
        self,
        crashes=(),
        partitions=(),
        drops=(),
        degradations=(),
        one_way=(),
        flaps=(),
        slow_links=(),
        duplicates=(),
        reorders=(),
        limps=(),
        bad_deploys=(),
        flaky_limps=(),
    ):
        self.crashes = list(crashes)
        self.partitions = list(partitions)
        self.drops = list(drops)
        self.degradations = list(degradations)
        self.one_way = list(one_way)
        self.flaps = list(flaps)
        self.slow_links = list(slow_links)
        self.duplicates = list(duplicates)
        self.reorders = list(reorders)
        self.limps = list(limps)
        self.bad_deploys = list(bad_deploys)
        self.flaky_limps = list(flaky_limps)
        #: Simulated time :meth:`install` rebased the offsets onto.
        self.installed_at = None

    @classmethod
    def generate(
        cls,
        seed,
        host_names,
        duration_s=120.0,
        max_crashes=2,
        max_partitions=1,
        max_drops=2,
        protect=(),
        ico_hosts=(),
        max_ico_partitions=0,
        mid_apply_crashes=0,
        relay_hosts=(),
        max_relay_crashes=0,
        manager_hosts=(),
        max_manager_partitions=0,
        max_failovers=0,
        max_degradations=0,
        gray_one_way=0,
        gray_flaps=0,
        gray_slow_links=0,
        gray_duplicates=0,
        gray_reorders=0,
        gray_limps=0,
        instance_hosts=(),
        max_bad_deploys=0,
        max_flaky_limps=0,
    ):
        """Roll a scenario: every draw comes from ``random.Random(seed)``.

        ``protect`` names hosts exempt from crashing (they may still be
        partitioned) — e.g. a host whose manager has no journal.

        Two fault kinds target the transactional-evolution window
        specifically; both default off, and their draws come strictly
        after the legacy ones, so a given seed yields the same legacy
        schedule either way:

        - ``max_ico_partitions`` (with ``ico_hosts`` naming the hosts
          serving ICOs) cuts the component servers off from everyone
          else early in the run — an evolution that reaches its
          prepare-phase fetch then fails and must roll back.
        - ``mid_apply_crashes`` crashes extra hosts inside the first
          few seconds, while prepare/commit work is typically in
          flight.

        ``max_relay_crashes`` (with ``relay_hosts`` naming hosts that
        run evolution relays) crashes relay hosts in the first seconds
        of the run — while a batched wave is typically mid-flight, so
        the batch dies with its relay and its colocated instances.
        Its draws come strictly after every other kind, preserving a
        seed's legacy schedule.

        Two further kinds target manager availability (PR 5); both
        default off and draw strictly after everything above, again
        preserving legacy schedules:

        - ``max_manager_partitions`` (with ``manager_hosts`` naming
          hosts that run — or may be promoted to run — a DCDO
          Manager) isolates the *first* manager host from every other
          host for a window: the split-brain scenario, where a healthy
          primary is cut off, a standby is promoted, and the old
          primary's stale-term traffic must be fenced after heal.
        - ``max_failovers`` crashes manager hosts in sequence along
          ``manager_hosts`` — the first early (while a wave is
          typically mid-flight), each next one spaced out so it can
          land after the previous promotion: the double-failover
          scenario.  Crash times are chained, not overlapping, so a
          supervisor is always chasing the *current* primary.

        ``max_degradations`` (default off, draws strictly last) rolls
        version-quality faults: ``("latency", s)`` or ``("errors", k)``
        pairs the harness turns into a degraded build (see
        :func:`repro.workloads.generator.build_degraded_version`)
        whose gated rollout must breach and roll back.

        The six ``gray_*`` kinds roll *gray* failures — faults where
        messages or hosts are degraded rather than dead: asymmetric
        (one-way) partitions, link flaps, slow links, duplication,
        bounded reordering, and limping hosts.  All default off; their
        draws come strictly after every kind above, in exactly this
        order, so legacy seeds keep their schedules and each gray kind
        added later never perturbs the earlier ones.  Rules that need
        per-message randomness (slow-link jitter, duplication,
        reordering) carry their own sub-seed drawn here, keeping the
        whole scenario a pure function of ``seed``.

        The two controller kinds (PR 10) target the self-healing loop;
        both default off and draw strictly after every kind above —
        including every gray kind — in exactly this order, so every
        legacy seed keeps its exact schedule:

        - ``max_bad_deploys`` rolls unguarded degraded rollouts the
          harness adopts fleet-wide at the drawn time, outside any
          canary — the controller must sense the SLO breach and
          originate the rollback.
        - ``max_flaky_limps`` (with ``instance_hosts`` naming hosts
          that carry instances) rolls limp windows guaranteed to land
          on instance-bearing hosts, so health quarantine and the
          migrate-off-flaky-host policy actually fire.
        """
        rng = random.Random(seed)
        host_names = list(host_names)
        eligible = [name for name in host_names if name not in protect]
        crashes = []
        if eligible and max_crashes > 0:
            victims = rng.sample(
                eligible, k=rng.randint(1, min(max_crashes, len(eligible)))
            )
            for name in victims:
                crash_at = rng.uniform(1.0, duration_s * 0.4)
                restart_at = crash_at + rng.uniform(5.0, duration_s * 0.4)
                crashes.append((name, crash_at, restart_at))
        partitions = []
        for __ in range(rng.randint(0, max_partitions)):
            if len(host_names) < 2:
                break
            shuffled = list(host_names)
            rng.shuffle(shuffled)
            cut = rng.randint(1, len(shuffled) - 1)
            start = rng.uniform(0.0, duration_s * 0.5)
            end = start + rng.uniform(2.0, duration_s * 0.4)
            partitions.append(
                (
                    [f"{name}/" for name in shuffled[:cut]],
                    [f"{name}/" for name in shuffled[cut:]],
                    start,
                    end,
                )
            )
        drops = []
        for __ in range(rng.randint(0, max_drops)):
            start = rng.uniform(0.0, duration_s * 0.6)
            drops.append((rng.randint(1, 4), start, start + rng.uniform(1.0, 20.0)))
        ico_hosts = [name for name in ico_hosts if name in host_names]
        others = [name for name in host_names if name not in ico_hosts]
        if ico_hosts and others and max_ico_partitions > 0:
            for __ in range(rng.randint(1, max_ico_partitions)):
                start = rng.uniform(0.0, duration_s * 0.25)
                end = start + rng.uniform(5.0, duration_s * 0.5)
                partitions.append(
                    (
                        [f"{name}/" for name in ico_hosts],
                        [f"{name}/" for name in others],
                        start,
                        end,
                    )
                )
        already_down = {name for name, __, __ in crashes}
        fresh = [name for name in eligible if name not in already_down]
        if fresh and mid_apply_crashes > 0:
            victims = rng.sample(fresh, k=min(mid_apply_crashes, len(fresh)))
            for name in victims:
                crash_at = rng.uniform(0.6, 6.0)
                restart_at = crash_at + rng.uniform(5.0, duration_s * 0.4)
                crashes.append((name, crash_at, restart_at))
        already_down = {name for name, __, __ in crashes}
        relay_eligible = [
            name
            for name in relay_hosts
            if name in host_names and name not in protect and name not in already_down
        ]
        if relay_eligible and max_relay_crashes > 0:
            victims = rng.sample(
                relay_eligible, k=min(max_relay_crashes, len(relay_eligible))
            )
            for name in victims:
                crash_at = rng.uniform(0.5, 8.0)
                restart_at = crash_at + rng.uniform(5.0, duration_s * 0.4)
                crashes.append((name, crash_at, restart_at))
        manager_hosts = [name for name in manager_hosts if name in host_names]
        if manager_hosts and max_manager_partitions > 0:
            primary = manager_hosts[0]
            rest = [name for name in host_names if name != primary]
            if rest:
                for __ in range(rng.randint(1, max_manager_partitions)):
                    start = rng.uniform(0.5, duration_s * 0.2)
                    end = start + rng.uniform(6.0, duration_s * 0.35)
                    partitions.append(
                        (
                            [f"{primary}/"],
                            [f"{name}/" for name in rest],
                            start,
                            end,
                        )
                    )
        if manager_hosts and max_failovers > 0:
            already_down = {name for name, __, __ in crashes}
            crash_at = rng.uniform(0.5, 6.0)
            scheduled = 0
            for name in manager_hosts:
                if scheduled >= max_failovers:
                    break
                if name in protect or name in already_down:
                    continue
                restart_at = crash_at + rng.uniform(10.0, duration_s * 0.35)
                crashes.append((name, crash_at, restart_at))
                scheduled += 1
                crash_at += rng.uniform(8.0, 20.0)
        degradations = []
        if max_degradations > 0:
            # Strictly after every network/crash draw, preserving
            # legacy seed schedules.  These are *version* faults, not
            # network faults: the k-th deploy is a build that works but
            # violates the SLO, which only a live traffic gate catches.
            for __ in range(rng.randint(1, max_degradations)):
                if rng.random() < 0.5:
                    degradations.append(
                        ("latency", round(rng.uniform(0.1, 0.5), 3))
                    )
                else:
                    degradations.append(("errors", rng.randint(1, 3)))
        # Gray kinds, strictly after everything above and in a fixed
        # order relative to each other.
        one_way = []
        if gray_one_way > 0 and len(host_names) >= 2:
            for __ in range(rng.randint(1, gray_one_way)):
                victim = rng.choice(host_names)
                rest = [name for name in host_names if name != victim]
                start = rng.uniform(0.5, duration_s * 0.4)
                end = start + rng.uniform(5.0, duration_s * 0.4)
                if rng.random() < 0.5:
                    # The victim goes mute: its sends vanish, it still hears.
                    one_way.append(([victim], rest, start, end))
                else:
                    # The victim goes deaf: it talks, nothing reaches it.
                    one_way.append((rest, [victim], start, end))
        flaps = []
        if gray_flaps > 0 and len(host_names) >= 2:
            for __ in range(rng.randint(1, gray_flaps)):
                victim = rng.choice(host_names)
                rest = [name for name in host_names if name != victim]
                period = rng.uniform(2.0, 10.0)
                down = period * rng.uniform(0.2, 0.6)
                start = rng.uniform(0.5, duration_s * 0.4)
                end = start + rng.uniform(8.0, duration_s * 0.4)
                flaps.append((victim, rest, period, down, start, end))
        slow_links = []
        if gray_slow_links > 0 and len(host_names) >= 2:
            for __ in range(rng.randint(1, gray_slow_links)):
                victim = rng.choice(host_names)
                rest = [name for name in host_names if name != victim]
                extra = rng.uniform(0.05, 0.3)
                jitter = rng.uniform(0.0, 0.2)
                rule_seed = rng.randrange(2**32)
                start = rng.uniform(0.5, duration_s * 0.4)
                end = start + rng.uniform(5.0, duration_s * 0.4)
                slow_links.append(
                    (victim, rest, extra, jitter, rule_seed, start, end)
                )
        duplicates = []
        if gray_duplicates > 0:
            for __ in range(rng.randint(1, gray_duplicates)):
                probability = rng.uniform(0.05, 0.3)
                spread = rng.uniform(0.005, 0.05)
                rule_seed = rng.randrange(2**32)
                start = rng.uniform(0.0, duration_s * 0.5)
                end = start + rng.uniform(5.0, duration_s * 0.4)
                duplicates.append((probability, spread, rule_seed, start, end))
        reorders = []
        if gray_reorders > 0:
            for __ in range(rng.randint(1, gray_reorders)):
                probability = rng.uniform(0.05, 0.3)
                skew = rng.uniform(0.002, 0.02)
                rule_seed = rng.randrange(2**32)
                start = rng.uniform(0.0, duration_s * 0.5)
                end = start + rng.uniform(5.0, duration_s * 0.4)
                reorders.append((probability, skew, rule_seed, start, end))
        limps = []
        if gray_limps > 0 and host_names:
            for __ in range(rng.randint(1, gray_limps)):
                victim = rng.choice(host_names)
                factor = rng.uniform(2.0, 8.0)
                start = rng.uniform(0.5, duration_s * 0.4)
                end = start + rng.uniform(5.0, duration_s * 0.4)
                limps.append((victim, round(factor, 2), start, end))
        # Controller kinds (PR 10), strictly after every kind above —
        # legacy seeds keep their exact schedules.
        bad_deploys = []
        if max_bad_deploys > 0:
            for __ in range(rng.randint(1, max_bad_deploys)):
                at = rng.uniform(1.0, duration_s * 0.3)
                if rng.random() < 0.5:
                    added_latency_s, error_every = round(rng.uniform(0.2, 1.0), 3), 0
                else:
                    added_latency_s, error_every = 0.0, rng.randint(2, 4)
                bad_deploys.append((at, added_latency_s, error_every))
        flaky_limps = []
        flaky_pool = [name for name in instance_hosts if name in host_names]
        if flaky_pool and max_flaky_limps > 0:
            for __ in range(rng.randint(1, max_flaky_limps)):
                victim = rng.choice(flaky_pool)
                factor = rng.uniform(4.0, 10.0)
                start = rng.uniform(0.5, duration_s * 0.3)
                end = start + rng.uniform(10.0, duration_s * 0.5)
                flaky_limps.append((victim, round(factor, 2), start, end))
        return cls(
            crashes=crashes,
            partitions=partitions,
            drops=drops,
            degradations=degradations,
            one_way=one_way,
            flaps=flaps,
            slow_links=slow_links,
            duplicates=duplicates,
            reorders=reorders,
            limps=limps,
            bad_deploys=bad_deploys,
            flaky_limps=flaky_limps,
        )

    @property
    def heal_time(self):
        """Time by which every fault has cleared (absolute once
        installed; an offset from install before that)."""
        times = [0.0]
        times += [restart_at for __, __, restart_at in self.crashes]
        times += [end for __, __, __, end in self.partitions]
        times += [end for __, __, end in self.drops]
        times += [entry[-1] for entry in self.one_way]
        times += [entry[-1] for entry in self.flaps]
        times += [entry[-1] for entry in self.slow_links]
        times += [entry[-1] for entry in self.duplicates]
        times += [entry[-1] for entry in self.reorders]
        times += [entry[-1] for entry in self.limps]
        times += [at for at, __, __ in self.bad_deploys]
        times += [entry[-1] for entry in self.flaky_limps]
        return max(times) + (self.installed_at or 0.0)

    def install(self, runtime, coordinator):
        """Arm the scenario on ``runtime`` via ``coordinator``'s plan.

        Generated times are *offsets*; they are rebased onto the
        current simulated time here, so a scenario can be installed on
        a testbed that has already been running.
        """
        base = self.installed_at = runtime.sim.now
        for name, crash_at, restart_at in self.crashes:
            coordinator.crash_plan.schedule_outage(
                runtime.host(name), base + crash_at, base + restart_at
            )
        for prefixes_a, prefixes_b, start, end in self.partitions:
            runtime.network.faults.add_partition(
                PrefixPartition(
                    prefixes_a, prefixes_b, start=base + start, end=base + end
                )
            )
        for count, start, end in self.drops:
            runtime.network.faults.add_drop_rule(
                DropRule(count=count, start=base + start, end=base + end)
            )
        faults = runtime.network.faults
        for from_hosts, to_hosts, start, end in self.one_way:
            faults.add_partition(
                OneWayPartition(
                    [f"{name}/" for name in from_hosts],
                    [f"{name}/" for name in to_hosts],
                    start=base + start,
                    end=base + end,
                )
            )
        for host, rest, period, down, start, end in self.flaps:
            faults.add_partition(
                LinkFlap(
                    [f"{host}/"],
                    [f"{name}/" for name in rest],
                    period_s=period,
                    down_s=down,
                    start=base + start,
                    end=base + end,
                    label=f"flap:{host}",
                )
            )
        for host, rest, extra, jitter, rule_seed, start, end in self.slow_links:
            faults.add_delay_rule(
                SlowLink(
                    [f"{host}/"],
                    [f"{name}/" for name in rest],
                    extra_s=extra,
                    jitter_s=jitter,
                    seed=rule_seed,
                    start=base + start,
                    end=base + end,
                    label=f"slow:{host}",
                )
            )
        for probability, spread, rule_seed, start, end in self.duplicates:
            faults.add_duplicate_rule(
                DuplicateRule(
                    probability,
                    spread_s=spread,
                    seed=rule_seed,
                    start=base + start,
                    end=base + end,
                )
            )
        for probability, skew, rule_seed, start, end in self.reorders:
            faults.add_delay_rule(
                ReorderRule(
                    probability,
                    max_skew_s=skew,
                    seed=rule_seed,
                    start=base + start,
                    end=base + end,
                )
            )
        for host_name, factor, start, end in self.limps:
            runtime.sim.spawn(
                self._limp_window(runtime, host_name, factor, base + start, base + end),
                name=f"limp:{host_name}@{start:g}",
            )
        # bad_deploys are harness-driven (like degradations): staging
        # and adopting the degraded build needs a manager, which the
        # schedule does not hold.
        for host_name, factor, start, end in self.flaky_limps:
            runtime.sim.spawn(
                self._limp_window(runtime, host_name, factor, base + start, base + end),
                name=f"flaky-limp:{host_name}@{start:g}",
            )

    @staticmethod
    def _limp_window(runtime, host_name, factor, start, end):
        """Process body: degrade a host's service times, then heal."""
        sim = runtime.sim
        yield sim.timeout(start - sim.now, daemon=True)
        host = runtime.host(host_name)
        host.set_limp(factor, slow_nic=True)
        yield sim.timeout(end - sim.now, daemon=True)
        host.clear_limp()

    def __repr__(self):
        gray = (
            len(self.one_way)
            + len(self.flaps)
            + len(self.slow_links)
            + len(self.duplicates)
            + len(self.reorders)
            + len(self.limps)
        )
        controller = len(self.bad_deploys) + len(self.flaky_limps)
        return (
            f"<ChaosSchedule crashes={len(self.crashes)} "
            f"partitions={len(self.partitions)} drops={len(self.drops)} "
            f"degradations={len(self.degradations)} gray={gray} "
            f"controller={controller}>"
        )


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
