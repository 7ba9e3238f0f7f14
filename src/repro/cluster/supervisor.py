"""Autonomous manager failover: detector + standby + fenced promotion.

PR 3's chaos harness recovers a dead manager only when the *test*
calls :func:`~repro.cluster.chaos.drive_to_convergence` — an operator
in the loop.  The :class:`Supervisor` closes that loop in-simulation:

1. a :class:`~repro.cluster.failure_detector.HeartbeatFailureDetector`
   on an independent host probes the manager's current binding;
2. a :class:`~repro.core.replication.ReplicationLink` keeps a hot
   standby journal on another host, continuously replayed;
3. on suspicion the supervisor *promotes* the standby —
   :func:`~repro.core.recovery.recover_manager` with
   ``skip_entries=len(journal)`` (replay already paid), a bumped
   fencing term so the old primary's in-flight traffic is rejected
   everywhere, relays re-enabled — then re-arms replication to the
   next standby and drives the fleet back to convergence (resume
   interrupted propagations, rebuild lost instances/ICOs/relays,
   re-propagate until all acked).

Promotion is safe against the failure modes that make naive failover
wrong:

- **Split brain** — a merely *partitioned* primary keeps running, but
  every management RPC it sends carries its old term and is rejected
  (``manager.stale_term_rejections``); the first rejection it sees
  fences it permanently (a ``manager-fenced`` event).
- **Double failover** — the new primary can die too; the detector
  keeps probing the type's (stable) LOID and re-fires, and the
  supervisor promotes the re-armed standby with a further term bump.
- **Standby loss** — a dead standby is detected by a background link
  check and replaced with a fresh bootstrap from the live primary.

Layering note: like :mod:`repro.cluster.chaos` this module
orchestrates across layers, so runtime imports stay inside functions.
"""

#: Convergence retry backoff: round ``i`` waits ``min(2**i, cap)``.
CONVERGENCE_BACKOFF_CAP_S = 60.0


class Supervisor:
    """Watches one DCDO Manager type and fails it over automatically.

    Parameters
    ----------
    runtime:
        The Legion runtime.
    type_name:
        The managed type; ``runtime.class_of(type_name)`` must be a
        live, journaled manager when :meth:`start` runs.
    standby_hosts:
        Ordered host-name preferences for the standby replica (and for
        promotion targets).  The supervisor picks the first one that is
        up and not the current primary's host.
    detector_host_name:
        Where the failure detector runs — pick a host that is neither
        the primary nor a standby, so detection survives their loss.
    relays / relay_fanout_k:
        Optional relay routing (see
        :meth:`~repro.core.manager.DCDOManager.use_relays`), restored
        and re-enabled on every promotion.
    relay_announce:
        Selects nothing: perfbench/workloads.py still passes it, and
        the next benchmark change drops it.
    """

    def __init__(
        self,
        runtime,
        type_name,
        standby_hosts,
        detector_host_name,
        relays=None,
        relay_fanout_k=0,
        heartbeat_interval_s=0.5,
        heartbeat_timeout_s=0.4,
        suspicion_threshold=3,
        detector_mode="threshold",
        phi_threshold=8.0,
        retry_policy=None,
        max_convergence_rounds=10,
        reconcile_interval_s=15.0,
        relay_announce=False,
    ):
        if not standby_hosts:
            raise ValueError("supervisor needs at least one standby host")
        self.runtime = runtime
        self.type_name = type_name
        self.standby_hosts = tuple(standby_hosts)
        self.detector_host_name = detector_host_name
        self.relays = dict(relays or {})
        self.relay_fanout_k = relay_fanout_k
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.suspicion_threshold = suspicion_threshold
        # Phi-accrual detection keeps a merely-slow primary in office:
        # failing over on slowness trades one gray manager for a full
        # promotion storm (see failure_detector mode docs).
        self.detector_mode = detector_mode
        self.phi_threshold = phi_threshold
        self.retry_policy = retry_policy
        self.max_convergence_rounds = max_convergence_rounds
        self.reconcile_interval_s = reconcile_interval_s
        self.detector = None
        self.link = None
        self.promotions = 0
        self.takeover_log = []  # (time, old_primary_host, new_primary_host)
        self._manager = None
        self._loid = None
        self._promote_in_progress = False
        self._converging = False
        # A suspicion only triggers promotion while armed.  Promotion
        # disarms; seeing the (new) primary actually answer a probe
        # re-arms.  Without this, a detector partitioned from the
        # standby side would flip-flop promotions for the whole
        # partition: it can never observe any promotee alive, so it
        # must not depose one on the same evidence again.
        self._armed = True
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Arm replication and the failure detector; returns self."""
        from repro.cluster.failure_detector import HeartbeatFailureDetector

        manager = self.runtime.class_of(self.type_name)
        if manager.journal is None:
            raise ValueError(
                f"manager for {self.type_name!r} has no journal; "
                f"attach one before supervising"
            )
        self._manager = manager
        self._loid = manager.loid
        self._arm_replication(manager)
        self.detector = HeartbeatFailureDetector(
            self.runtime,
            self.runtime.host(self.detector_host_name),
            interval_s=self.heartbeat_interval_s,
            timeout_s=self.heartbeat_timeout_s,
            suspicion_threshold=self.suspicion_threshold,
            mode=self.detector_mode,
            phi_threshold=self.phi_threshold,
        )
        self.detector.watch(
            self.type_name,
            lambda: self.runtime.binding_agent.current_address(self._loid),
            self._on_suspect,
            on_recover=self._on_primary_alive,
        )
        self.runtime.sim.spawn(
            self._link_health_loop(), name=f"supervisor-link:{self.type_name}"
        )
        self.runtime.sim.spawn(
            self._reconcile_loop(), name=f"supervisor-reconcile:{self.type_name}"
        )
        return self

    def stop(self):
        """Disarm the detector and the replication link."""
        self._stopped = True
        if self.detector is not None:
            self.detector.stop()
        if self.link is not None:
            self.link.stop()

    @property
    def manager(self):
        """The currently supervised (most recently promoted) manager."""
        return self._manager

    # ------------------------------------------------------------------
    # Replication arming
    # ------------------------------------------------------------------

    def _pick_standby_host(self, exclude):
        for name in self.standby_hosts:
            if name == exclude:
                continue
            host = self.runtime.host(name) if name in self.runtime.hosts else None
            if host is not None and host.is_up:
                return name
        return None

    def _arm_replication(self, manager):
        from repro.core.replication import ReplicationLink

        if self.link is not None:
            self.link.stop()
            self.link = None
        standby = self._pick_standby_host(exclude=manager.host.name)
        if standby is None:
            self.runtime.network.count("supervisor.no_standby")
            return
        self.link = ReplicationLink(self.runtime, manager, standby)

    def _link_health_loop(self):
        """Daemon: replace a standby that died (its endpoint severed).

        A partitioned standby just lags and catches up; a *crashed*
        standby can never receive again (restart does not resurrect
        its endpoint), so a fresh replica is bootstrapped from the
        live primary's journal on the next eligible host.
        """
        sim = self.runtime.sim
        period = max(self.heartbeat_interval_s * 4, 1.0)
        while not self._stopped:
            yield sim.timeout(period, daemon=True)
            if self._stopped or self._promote_in_progress:
                continue
            if self.link is None:
                # Lost the standby earlier with no replacement up yet.
                if self._manager.is_active:
                    self._arm_replication(self._manager)
                continue
            if not self.link.replica.reachable and self._manager.is_active:
                self.runtime.network.count("supervisor.standby_replacements")
                self._arm_replication(self._manager)

    # ------------------------------------------------------------------
    # Background reconciliation (anti-entropy)
    # ------------------------------------------------------------------

    def _reconcile_loop(self):
        """Daemon: re-drive repair whenever the fleet drifts.

        The post-promotion convergence pass is one-shot, and each of
        its repair steps can fail *transiently* under gray faults — an
        instance whose rebuild needed an ICO behind a one-way partition
        stays dead even though its host is up, and nothing ever retries
        once the pass has run out of rounds or returned early.  This
        loop closes that gap: while the supervised manager is the live
        authority, any inactive instance on an up host (or any instance
        off the current version) triggers a fresh repair-and-converge
        pass.  A healthy, converged fleet makes this a pure no-op.
        """
        sim = self.runtime.sim
        while not self._stopped:
            yield sim.timeout(self.reconcile_interval_s, daemon=True)
            if self._stopped or self._promote_in_progress or self._converging:
                continue
            manager = self._manager
            if manager is None or not manager.is_active or manager.deposed:
                continue
            if not self._needs_repair(manager):
                continue
            self.runtime.network.count("supervisor.reconciles")
            yield from self._converge(manager)

    def _needs_repair(self, manager):
        """True if any non-frozen instance is dead-but-rebuildable or
        off the manager's current version."""
        from repro.legion.errors import LegionError

        try:
            frozen = manager.canary_frozen_loids()
            current = manager.current_version
            for loid in manager.instance_loids():
                if loid in frozen:
                    continue
                record = manager.record(loid)
                if not record.active:
                    if record.host.is_up:
                        return True
                    continue
                if current is not None and manager.instance_version(loid) != current:
                    return True
        except LegionError:
            return False
        return False

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def _on_primary_alive(self, key):
        self._armed = True

    def _on_suspect(self, key):
        if self._promote_in_progress or self._stopped:
            return
        if not self._armed and self._manager.is_active:
            # Disarmed: the detector has not seen this primary answer
            # even once, so this suspicion is the same evidence that
            # already promoted somebody — not fresh evidence against
            # the promotee (e.g. the detector is on the wrong side of a
            # partition).  A primary that is *known* dead (its host
            # crashed and deactivated it) is promotable regardless.
            return
        self._promote_in_progress = True
        self.runtime.network.count("supervisor.suspicions_acted")
        self.runtime.sim.spawn(
            self._failover(), name=f"supervisor-failover:{self.type_name}"
        )

    def _failover(self):
        """Generator: promote the standby, then drive convergence."""
        from repro.core.errors import ManagerRecoveryError
        from repro.core.recovery import recover_manager

        runtime = self.runtime
        started = runtime.sim.now
        old_host = self._manager.host.name
        link = self.link
        hot = (
            link is not None
            and link.replica.journal.meta.get("type_name") is not None
        )
        if hot:
            # Hot path: every entry in the standby journal was replayed
            # as it was shipped, so takeover pays no replay cost.
            link.stop()
            self.link = None
            journal = link.replica.journal
            skip_entries = len(journal)
            target = link.replica.host_name
            target_host = runtime.host(target) if target in runtime.hosts else None
            if target_host is None or not target_host.is_up:
                target = self._pick_standby_host(exclude=old_host)
        else:
            # Cold path: no bootstrapped standby (it crashed before a
            # replacement could be armed, or its bootstrap never
            # landed).  Fall back to the durable primary journal with a
            # full replay — slower, but the fleet still gets an
            # authority without an operator.  The promotee owns a copy,
            # as the hot path owns the replica's: a merely partitioned
            # predecessor keeps appending to the original.
            from repro.core.recovery import ManagerJournal

            source = self._manager.journal
            journal = ManagerJournal(name=source.name)
            journal.meta = dict(source.meta)
            journal.write_checkpoint(source.replay())
            skip_entries = 0
            target = self._pick_standby_host(exclude=old_host)
        if target is None:
            # Nowhere to promote to right now.  The detector re-fires;
            # an eligible host may be back up by then.  A live link is
            # left armed — its retries may still bootstrap the standby.
            runtime.network.count("supervisor.failed_promotions")
            self._promote_in_progress = False
            return
        if not hot and link is not None:
            link.stop()
            self.link = None
        if not hot:
            runtime.network.count("supervisor.cold_promotions")
        try:
            manager = yield from recover_manager(
                runtime,
                journal,
                host_name=target,
                resume=False,
                skip_entries=skip_entries,
            )
        except (ManagerRecoveryError, ValueError):
            runtime.network.count("supervisor.failed_promotions")
            self._promote_in_progress = False
            return
        if self.relays:
            from repro.cluster.relay import restore_relays

            yield from restore_relays(runtime, self.relays)
            manager.use_relays(self.relays, fanout_k=self.relay_fanout_k)
        self._manager = manager
        # Disarm until the detector actually sees this primary answer:
        # re-deposing it on the same stale evidence would thrash.
        self._armed = False
        self.promotions += 1
        self.takeover_log.append((runtime.sim.now, old_host, manager.host.name))
        runtime.network.count("supervisor.promotions")
        runtime.network.metrics.timer("supervisor.takeover_s").record(
            runtime.sim.now - started
        )
        runtime.network.publish(
            "supervisor.promoted",
            self.type_name,
            host=manager.host.name,
            term=manager.term,
        )
        self._arm_replication(manager)
        # Promotion done: clear the guard *before* convergence so a
        # second failure mid-convergence can trigger a fresh failover.
        self._promote_in_progress = False
        yield from self._converge(manager)

    def _converge(self, manager):
        """Generator: repair and re-propagate until the fleet converges.

        The supervised counterpart of
        :func:`~repro.cluster.chaos.drive_to_convergence` — same
        round structure, but it never recovers the manager itself
        (that is the failover path's job) and it stands down as soon
        as its manager stops being the authority (deposed or replaced
        by a newer promotion).
        """
        self._converging = True
        try:
            yield from self._converge_rounds(manager)
        finally:
            self._converging = False

    def _converge_rounds(self, manager):
        from repro.cluster.chaos import ChaosCoordinator
        from repro.cluster.coordination import convergence_guard
        from repro.core.manager import WavePolicy
        from repro.legion.errors import LegionError
        from repro.net import TransportError

        sim = self.runtime.sim
        guard = convergence_guard(self.runtime)
        guard_owner = f"supervisor:{self.type_name}"
        yield from manager.resume_propagations(self.retry_policy)
        for round_no in range(self.max_convergence_rounds):
            if self._stopped or manager.deposed or not manager.is_active:
                return
            if manager is not self._manager:
                return  # a newer promotion owns convergence now
            coordinator = ChaosCoordinator(
                self.runtime, auto_recover=False, relays=self.relays
            )
            # Each repair step is guarded on its own: an ICO still cut
            # off behind a partition must not stop this round's
            # re-propagation to the instances that *are* reachable.
            for step in (
                coordinator.restore_relays,
                coordinator.restore_components,
                coordinator.recover_instances,
            ):
                try:
                    yield from step()
                except (LegionError, TransportError):
                    pass
            # Instances admitted to a still-open canary are frozen:
            # converging them back onto the fleet's current version
            # would silently undo the rollout the SLO gate is
            # judging (the gate runner itself finishes or aborts
            # the canary using the journaled state).
            frozen = manager.canary_frozen_loids()
            loids = [
                loid
                for loid in manager.instance_loids()
                if loid not in frozen
            ]
            # The shared guard keeps this converge from racing a
            # remediation wave over the same instances: an overlap
            # denies the whole claim, and the round backs off instead
            # of double-converging.
            if not guard.try_claim(guard_owner, loids):
                self.runtime.network.count("supervisor.converge_deferred")
                yield sim.timeout(
                    min(2.0 ** (round_no + 1), CONVERGENCE_BACKOFF_CAP_S)
                )
                continue
            try:
                tracker = yield from manager.propagate_version(
                    manager.current_version,
                    loids=loids,
                    retry_policy=self.retry_policy,
                    wave_policy=WavePolicy.converge(),
                )
                if tracker.all_acked:
                    self.runtime.network.count("supervisor.convergences")
                    return
            except (LegionError, TransportError):
                # Fleet still unhealthy (or we just got fenced); the
                # guards at the top of the loop sort out which.
                pass
            finally:
                guard.release(guard_owner, loids)
            yield sim.timeout(
                min(2.0 ** (round_no + 1), CONVERGENCE_BACKOFF_CAP_S)
            )
        self.runtime.network.count("supervisor.convergence_giveups")

    def __repr__(self):
        return (
            f"<Supervisor {self.type_name} promotions={self.promotions} "
            f"standbys={','.join(self.standby_hosts)}>"
        )
