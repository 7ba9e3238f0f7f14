"""The DCDO object type (§2, §2.2).

A DCDO is an active Legion object whose user-defined behaviour is
dispatched through a :class:`~repro.core.dfm.DynamicFunctionMapper`.
Its method table holds only the model's **configuration functions**
(``incorporateComponent``, ``removeComponent``, ``enableFunction``,
``disableFunction``, ...) and **status-reporting functions**
(``getInterface``, ``getVersion``, ...); every other name dispatches
through the DFM at the calibrated 10–15 µs indirection cost, with
per-function active-thread counters maintained for thread activity
monitoring (§3.2).

Removal of components with active threads is governed by a
:class:`RemovePolicy` — "it can return an error, it can delay handling
the request until all thread counts go to zero, or it can simply go
ahead with the operation after some time-out period" (§3.2).
"""

import enum
from dataclasses import dataclass, field

from repro.core import validation
from repro.core.dfm import DynamicFunctionMapper
from repro.core.errors import (
    ComponentBusy,
    FunctionNotEnabled,
    FunctionNotExported,
    RollbackFailed,
)
from repro.core.impltype import ImplementationType
from repro.legion.errors import MethodNotFound, ObjectDeactivated
from repro.legion.objects import CallContext, LegionObject
from repro.legion.rpc import ReplyEnvelope
from repro.sim import Signal


class RemoveMode(enum.Enum):
    """What to do when a component slated for removal has active threads."""

    ERROR = "error"
    DELAY = "delay"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class RemovePolicy:
    """A removal mode plus its grace period (for TIMEOUT)."""

    mode: RemoveMode = RemoveMode.ERROR
    grace_s: float = 1.0

    @classmethod
    def error(cls):
        """Fail removals of busy components with :class:`ComponentBusy`."""
        return cls(RemoveMode.ERROR)

    @classmethod
    def delay(cls):
        """Block removals until every thread count reaches zero."""
        return cls(RemoveMode.DELAY)

    @classmethod
    def timeout(cls, grace_s):
        """Wait up to ``grace_s`` for threads to drain, then proceed."""
        return cls(RemoveMode.TIMEOUT, grace_s)


class EvolutionPhase(enum.Enum):
    """Where an instance stands in its evolution transaction."""

    IDLE = "idle"
    PREPARING = "preparing"
    COMMITTING = "committing"
    ROLLING_BACK = "rolling-back"


@dataclass
class EvolutionTransaction:
    """The undo log for one in-flight ``applyConfiguration``.

    *Prepare* records every component it incorporated; *commit* records
    the pre-flip entry states, the pre-adoption restrictions, and every
    component it removed (metadata and variant kept in hand, so re-
    adding costs only DFM updates — the blob is still in the host
    cache).  A rollback replays this log in reverse, leaving the
    instance byte-for-byte on its old version.
    """

    diff: object
    phase: EvolutionPhase = EvolutionPhase.PREPARING
    #: Component ids incorporated during prepare (newest last).
    incorporated: list = field(default_factory=list)
    #: ``(component, variant)`` pairs removed during commit.
    removed: list = field(default_factory=list)
    #: Entry-state snapshot taken at commit start, or None.
    entry_states: object = None
    #: Restrictions snapshot taken at commit start, or None.
    restrictions: object = None


class DynamicCallContext(CallContext):
    """Call context for dynamic-function bodies.

    Adds access to the executing component's private data structures;
    local calls route back through the DFM, so sibling calls pay the
    indirection and hit the §3.1 hazards when the target is gone.
    """

    def __init__(self, obj, method_name, entry):
        super().__init__(obj, method_name)
        self._entry = entry

    @property
    def component_id(self):
        """The component this function's implementation lives in."""
        return self._entry.component_id

    @property
    def component_state(self):
        """The executing component's private data structures (§2)."""
        return self._obj.dfm.component(self._entry.component_id).private_state


class DCDO(LegionObject):
    """A dynamically configurable distributed object.

    Parameters
    ----------
    runtime, loid, host:
        As for :class:`~repro.legion.objects.LegionObject`.
    manager_loid:
        The DCDO Manager coordinating this object's evolution, if any
        (used by lazy update checks).
    remove_policy:
        Behaviour when removing components with active threads.
    """

    def __init__(self, runtime, loid, host, manager_loid=None, remove_policy=None):
        super().__init__(runtime, loid, host)
        self.dfm = DynamicFunctionMapper()
        self._manager_loid = manager_loid
        self._remove_policy = remove_policy or RemovePolicy.error()
        self._version = None
        self._update_checker = None
        # Fired whenever a dynamic call's thread leaves; built for the
        # first caller that waits on it.
        self._thread_exit = None
        self.evolutions_applied = 0
        #: version id -> how many times a diff targeting it was actually
        #: applied (the chaos invariant asserts every count is 1).
        self.applications_by_version = {}
        #: deliveries suppressed by idempotence (already at / already
        #: applying the target) — at-least-once redundancy made visible.
        self.duplicate_deliveries = 0
        #: compensating rollbacks run after failed prepares/commits.
        self.rollbacks = 0
        self._applying = {}
        self._txn = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def version(self):
        """The :class:`~repro.core.version.VersionId` of the current
        implementation, or None before first configuration."""
        return self._version

    @property
    def manager_loid(self):
        """The coordinating DCDO Manager's LOID, or None."""
        return self._manager_loid

    @property
    def observed_manager_term(self):
        """Highest fencing term seen from this object's manager.

        None until a term-stamped management RPC has arrived.  After a
        failover this is the promoted manager's term, and any traffic
        still carrying a lower number is rejected (see
        :meth:`~repro.legion.objects.LegionObject.observed_term`) — so
        comparing this across a fleet shows exactly which instances a
        zombie primary could still confuse.
        """
        if self._manager_loid is None:
            return None
        return self.observed_term(self._manager_loid.type_name)

    @property
    def implementation_type(self):
        """The implementation type of this object's current build.

        Derived from the incorporated component variants when they
        agree (the common case); falls back to an architecture-only
        tag for empty or mixed-format builds.
        """
        impl_types = {
            self.dfm.component(component_id).variant.impl_type
            for component_id in self.dfm.component_ids
        }
        if len(impl_types) == 1:
            return next(iter(impl_types))
        return ImplementationType(architecture=self.host.architecture)

    @property
    def evolution_phase(self):
        """The current :class:`EvolutionPhase` (IDLE when no
        ``applyConfiguration`` transaction is in flight)."""
        if self._txn is None:
            return EvolutionPhase.IDLE
        return self._txn.phase

    @property
    def remove_policy(self):
        """The active removal policy."""
        return self._remove_policy

    def set_remove_policy(self, policy):
        """Install a different removal policy."""
        self._remove_policy = policy

    def set_update_checker(self, checker):
        """Attach a lazy-update checker (installed by update policies)."""
        self._update_checker = checker

    def set_version(self, version):
        """Record the version this object's implementation reflects."""
        self._version = version

    # ------------------------------------------------------------------
    # Dispatch: one level of indirection through the DFM
    # ------------------------------------------------------------------

    def _dynamic_call_overhead(self):
        """The 10-15 us DFM indirection charge (§4 Overhead)."""
        calibration = self.calibration
        cost = self.runtime.rng.jitter(
            "dfm-overhead", calibration.dynamic_call_overhead_s, calibration.dynamic_call_jitter
        )
        return self.sim.timeout(cost)

    def _dispatch_dynamic(self, name, args, external):
        """Generator: route one call through the DFM."""
        try:
            entry = self.dfm.lookup(name, external=external)
        except (FunctionNotEnabled, FunctionNotExported) as error:
            if external:
                # What a remote client observes for the disappearing
                # exported function problem (§3.1): the invocation it
                # built against a stale interface fails.
                raise MethodNotFound(self.loid, name) from error
            raise
        yield self._dynamic_call_overhead()
        self.dfm.enter(entry)
        context = DynamicCallContext(self, name, entry)
        try:
            result, context = yield from self._run_body(
                name, entry.function_def.body, args, context=context
            )
        finally:
            self.dfm.leave(entry)
            if self._thread_exit is not None:
                self._thread_exit.fire()
        return result, context

    def _dispatch_local(self, name, args, caller=None):
        """Intra-object call: config/status directly, user code via DFM."""
        if self.has_method(name):
            return super()._dispatch_local(name, args, caller=caller)
        return self._strip_context(self._dispatch_dynamic(name, args, external=False))

    def _dispatch_external(self, name, args):
        """Network call: config/status directly, user code via DFM."""
        if self.has_method(name):
            return super()._dispatch_external(name, args)
        return self._external_result(self._dispatch_dynamic(name, args, external=True))

    @staticmethod
    def _strip_context(dispatch):
        result, __ = yield from dispatch
        return result

    @staticmethod
    def _external_result(dispatch):
        result, context = yield from dispatch
        return result, context.reply_bytes

    def _handle_request(self, message):
        """Lazy-update hook, then normal request service."""
        payload = message.payload
        checker = self._update_checker
        if (
            checker is not None
            and payload.get("op") == "invoke"
            and not self.has_method(payload.get("method"))
            and checker.should_check(self)
        ):
            yield from checker.run_check(self)
        result = yield from super()._handle_request(message)
        # Piggyback the configuration epoch on every reply (tentpole
        # layer 1): clients' interface leases validate for free on
        # traffic they were sending anyway.
        value, reply_bytes = result
        return ReplyEnvelope(value, self.dfm.epoch), reply_bytes

    # ------------------------------------------------------------------
    # Configuration functions (§2.2), internal generator forms
    # ------------------------------------------------------------------

    def incorporate_component(self, ico_loid, bootstrap=False):
        """Generator: incorporate the component served by ``ico_loid``.

        Fetches metadata from the ICO, then either re-links a locally
        cached variant (~200 us) or pulls the variant data (download-
        dominated for large components) and maps it in.  ``bootstrap``
        marks object-creation time, where per-function dispatch-table
        registration is charged at the (heavier) creation rate.

        Returns the component id.
        """
        component = yield from self.invoker.invoke(
            ico_loid, "getComponent", breaker=self._ico_breaker(ico_loid)
        )
        yield from self._incorporate(component, ico_loid, bootstrap=bootstrap)
        return component.component_id

    def _ico_breaker(self, ico_loid):
        """The shared circuit breaker guarding one ICO's fetch path.

        Keyed cluster-wide on the ICO's LOID: every DCDO fetching from a
        dead ICO contributes failures to the same breaker, so once it
        opens, subsequent fetches across the whole wave fail in
        microseconds instead of each walking minutes of timeouts.
        """
        return self.runtime.network.breaker(f"ico:{ico_loid}")

    def _incorporate(self, component, ico_loid, bootstrap=False, validate=True):
        """Generator: map ``component`` in, metadata already in hand.

        This is the path a manager-driven evolution takes: the diff
        carries the component descriptor, so a locally-cached component
        costs only the ~200 us re-link (§4), with no round trip at all.
        ``validate=False`` is used during atomic descriptor application,
        where marking conflicts against components that are about to be
        removed are transient and the final state is checked instead.
        """
        calibration = self.calibration
        if validate:
            validation.check_can_incorporate(self.dfm, component)
        elif component.component_id in self.dfm.component_ids:
            from repro.core.errors import ComponentAlreadyIncorporated

            raise ComponentAlreadyIncorporated(
                f"component {component.component_id!r} is already incorporated"
            )
        variant = component.variant_for_host(self.host)
        was_cached = yield from self._ensure_variant_cached(variant, ico_loid)
        self.dfm.add_component(component, variant, validate=validate)
        per_function = (
            calibration.function_register_s if bootstrap else calibration.dfm_update_s
        )
        yield self.host.cpu_work(len(component.functions) * per_function)
        self.runtime.network.bus.publish(
            "component-incorporated",
            self.loid,
            component=component.component_id,
            cached=was_cached,
            bootstrap=bootstrap,
        )
        return component.component_id

    def _ensure_variant_cached(self, variant, ico_loid):
        """Generator: get the variant's blob onto this host, once.

        Blobs are content-addressed (the blob id digests the build), so
        presence in the host :class:`~repro.cluster.filecache.FileCache`
        *is* validity — a rebuilt component carries a new id and never
        collides with a stale entry.  Fills are single-flight per host:
        the first instance to miss becomes the fill leader and pays the
        ICO fetch (guarded by the shared per-ICO circuit breaker);
        colocated instances missing concurrently wait on the host's
        fill gate and re-link from cache when it lands, so one evolution
        wave moves each blob across the network once per *host*, not
        once per instance.  Returns True when the blob was served from
        cache (including the coalesced-wait case).
        """
        calibration = self.calibration
        cache = self.host.cache
        while True:
            if cache.peek(variant.blob_id) is not None:
                cache.record_hit(variant.blob_id)
                # §4: "when the components are cached and available to
                # the DCDO that is evolving, the cost is approximately
                # 200 microseconds per component".
                yield self.host.cpu_work(calibration.component_cached_link_s)
                return True
            leader, gate = self.host.blob_fill_gate(variant.blob_id)
            if not leader:
                self._network_count("blobcache.coalesced_waits")
                yield gate
                continue
            break
        try:
            cache.record_miss()
            # Blob fetches are idempotent reads of immutable content,
            # so a hedged backup fetch is safe (off unless enabled).
            yield from self.invoker.invoke(
                ico_loid,
                "fetchVariant",
                (variant.impl_type,),
                timeout_schedule=(60.0, 60.0),
                breaker=self._ico_breaker(ico_loid),
                hedge=True,
            )
            # Write the fetched data into the local file system.
            yield self.host.cpu_work(
                variant.size_bytes / calibration.component_transfer_bps
            )
            cache.insert(variant.blob_id, variant.size_bytes)
            self._network_count("blobcache.fills")
            self.runtime.network.count(
                "blobcache.bytes_fetched", variant.size_bytes
            )
        finally:
            self.host.blob_fill_done(variant.blob_id)
        # Map it into the address space (dlopen + symbol resolution).
        yield self.host.cpu_work(calibration.component_link_s)
        return False

    def remove_component(self, component_id, validate=True):
        """Generator: remove a component, honouring the removal policy.

        With active threads inside the component, behaviour follows
        :attr:`remove_policy`: ERROR raises :class:`ComponentBusy`,
        DELAY waits for thread counts to reach zero, TIMEOUT waits up
        to the grace period and then proceeds regardless (accepting the
        disappearing-component hazard, as §3.2 allows).
        """
        yield from self._await_component_idle(component_id)
        entry_count = len(self.dfm.entries_in(component_id))
        self.dfm.remove_component(component_id, validate=validate)
        yield self.host.cpu_work(entry_count * self.calibration.dfm_update_s)
        self.runtime.network.bus.publish(
            "component-removed", self.loid, component=component_id
        )
        return True

    def _await_component_idle(self, component_id):
        policy = self._remove_policy
        active = self.dfm.active_threads_in(component_id)
        if active == 0:
            return
        if policy.mode is RemoveMode.ERROR:
            raise ComponentBusy(component_id, active)
        deadline = (
            self.sim.now + policy.grace_s if policy.mode is RemoveMode.TIMEOUT else None
        )
        while self.dfm.active_threads_in(component_id) > 0:
            if deadline is not None:
                remaining = deadline - self.sim.now
                if remaining <= 0:
                    return  # grace expired: proceed anyway
                from repro.sim.events import AnyOf

                grace = self.sim.timeout(remaining)
                yield AnyOf(self.sim, [self._thread_exit_wait(), grace])
                grace.cancel()
            else:
                yield self._thread_exit_wait()

    def _thread_exit_wait(self):
        """An event for the next exit of a dynamic call's thread."""
        if self._thread_exit is None:
            self._thread_exit = Signal(self.sim, name=f"{self.loid}.thread-exit")
        return self._thread_exit.wait()

    def enable_function(self, function, component_id, replace_current=False):
        """Generator: enable one implementation (one DFM update).

        ``replace_current`` atomically swaps out the currently-enabled
        implementation, the upgrade step Type A dependencies are
        designed to permit.
        """
        self.dfm.enable(function, component_id, replace_current=replace_current)
        yield self.host.cpu_work(self.calibration.dfm_update_s)
        return True

    def disable_function(self, function, component_id, wait_for_dependents=False):
        """Generator: disable one implementation.

        ``wait_for_dependents`` implements the §3.2 refinement: "the
        DCDO can postpone any request to disable F2 until the active
        thread count for F1 (and for all other functions that depend on
        F2) goes to zero".
        """
        if wait_for_dependents:
            dependents = self.dfm.functions_depending_on(function, component_id)
            yield from self._await_functions_idle(dependents)
            # Having drained every dependent thread, the runtime guard
            # replaces the static dependency veto (§3.2).
            self.dfm.disable(function, component_id, enforce_dependencies=False)
        else:
            self.dfm.disable(function, component_id)
        yield self.host.cpu_work(self.calibration.dfm_update_s)
        return True

    def _await_functions_idle(self, function_names):
        def active():
            return sum(
                entry.active_threads
                for name in function_names
                for entry in self.dfm.entries_for(name)
            )

        while active() > 0:
            yield self._thread_exit_wait()

    def apply_configuration(self, diff):
        """Generator: atomically evolve to the diff's target descriptor.

        This is the manager-plane entry point (§2.4: DFM descriptors
        "are used by the DCDO Manager to configure its DCDOs").  The
        target was validated when its version was marked instantiable,
        so intermediate steps skip per-step validation.

        Ordering matters for continuous availability: new components
        are mapped in first (slow — possibly a download — but the old
        implementation keeps serving), then the DFM entry states flip
        in one cheap step, and only then are dropped components removed
        (honouring thread activity via the removal policy).  Concurrent
        callers therefore never observe a window where a function that
        exists in both versions has no enabled implementation.

        The operation is idempotent keyed by the target version id:
        managers deliver at-least-once (retries on timeouts, redelivery
        after a manager recovery), so a duplicate of an already-applied
        diff returns immediately, and a duplicate racing a slow first
        application waits for it rather than interleaving half-applied
        steps.  Per-version application counters make the exactly-once
        *effect* checkable from outside.
        """
        if self._version is None:
            # Still bootstrapping: a diff would blend with the build.
            raise ObjectDeactivated(f"{self.loid} is not configured yet")
        target = diff.target_version
        while target is not None:
            if self._version == target:
                self.duplicate_deliveries += 1
                self._network_count("dcdo.duplicate_deliveries")
                return str(self._version)
            in_flight = self._applying.get(target)
            if in_flight is None:
                break
            # Another delivery of this same version is mid-application:
            # wait for its outcome, then re-check (it may have failed,
            # in which case this duplicate becomes the applier).
            self.duplicate_deliveries += 1
            self._network_count("dcdo.duplicate_deliveries")
            yield in_flight
        if target is not None:
            gate = self._applying[target] = self.sim.event()
        try:
            result = yield from self._apply_configuration_body(diff)
        finally:
            if target is not None:
                self._applying.pop(target, None)
                if not gate.triggered:
                    gate.succeed(None)
        return result

    def _network_count(self, name):
        self.runtime.network.count(name)

    def _apply_configuration_body(self, diff):
        """Generator: the two-phase transactional application.

        *Prepare* does the slow, fallible work — ICO fetches for new
        components and the §3.2 transition-rule check against the live
        DFM — without touching any entry state the dispatch path reads.
        *Commit* then flips entry states, adopts the target's
        restrictions, and drops removed components.  Any failure in
        either phase triggers a compensating rollback that returns the
        instance exactly to its pre-transaction state, so an observer
        never finds it half-applied: it is fully on the old version or
        fully on the new one.
        """
        txn = self._txn = EvolutionTransaction(
            diff=diff,
            entry_states=self.dfm.entry_states_snapshot(),
            restrictions=self.dfm.restrictions_snapshot(),
        )
        self._network_count("dcdo.prepares")
        try:
            yield from self._prepare_configuration(txn)
            txn.phase = EvolutionPhase.COMMITTING
            result = yield from self._commit_configuration(txn)
        except Exception as error:
            if not (self.is_active and self.host.is_up):
                # The host died mid-apply: the in-memory state vanishes
                # with the process, so there is nothing local to undo.
                raise
            yield from self._rollback(txn, error)
            raise
        finally:
            self._txn = None
        return result

    def _prepare_configuration(self, txn):
        """Generator: incorporate new components; validate; no flips.

        Everything here either leaves the live dispatch state untouched
        (new components' entries start disabled) or is recorded in the
        transaction's undo log for the compensating rollback.
        """
        diff = txn.diff
        if diff.enforce_restrictions:
            validation.check_transition_preserves_rules(self.dfm, diff.target)
        for ref in diff.components_to_add:
            if ref.component_id in self.dfm.component_ids:
                continue  # duplicate delivery: already incorporated
            if ref.component is not None:
                yield from self._incorporate(ref.component, ref.ico_loid, validate=False)
            else:
                yield from self.incorporate_component(ref.ico_loid)
            txn.incorporated.append(ref.component_id)

    def _commit_configuration(self, txn):
        """Generator: flip entry states, adopt restrictions, drop the
        removed components, and bump the version."""
        diff = txn.diff
        changes = self.dfm.apply_entry_states(diff.target)
        self.dfm.adopt_restrictions(diff.target)
        yield self.host.cpu_work(max(changes, 1) * self.calibration.dfm_update_s)
        for component_id in diff.components_to_remove:
            if component_id not in self.dfm.component_ids:
                continue  # duplicate delivery: already removed
            incorporated = self.dfm.component(component_id)
            yield from self.remove_component(component_id, validate=False)
            txn.removed.append((incorporated.component, incorporated.variant))
        validation.check_state_consistent(self.dfm)
        from_version = self._version
        if diff.target_version is not None:
            self._version = diff.target_version
            self.applications_by_version[diff.target_version] = (
                self.applications_by_version.get(diff.target_version, 0) + 1
            )
        self.evolutions_applied += 1
        self._network_count("dcdo.commits")
        self.runtime.network.bus.publish(
            "evolved",
            self.loid,
            from_version=str(from_version) if from_version else None,
            to_version=str(self._version) if self._version else None,
            added=len(diff.components_to_add),
            removed=len(diff.components_to_remove),
        )
        return str(self._version) if self._version else None

    def _rollback(self, txn, cause):
        """Generator: compensate a failed prepare or commit.

        Undo runs in reverse order: unmap components incorporated
        during prepare, re-map components removed during commit (their
        variants are still in the host cache, so this is pure re-link
        work), then restore the entry-state and restriction snapshots.
        Rollback is in-memory work and must not fail; if it does, the
        error is wrapped in :class:`RollbackFailed` because the
        never-half-applied guarantee no longer holds for this instance.
        """
        txn.phase = EvolutionPhase.ROLLING_BACK
        try:
            for component_id in reversed(txn.incorporated):
                if component_id in self.dfm.component_ids:
                    yield from self.remove_component(component_id, validate=False)
            for component, variant in reversed(txn.removed):
                if component.component_id not in self.dfm.component_ids:
                    self.dfm.add_component(component, variant, validate=False)
                    yield self.host.cpu_work(
                        len(component.functions) * self.calibration.dfm_update_s
                    )
            self.dfm.restore_entry_states(txn.entry_states)
            self.dfm.restore_restrictions(txn.restrictions)
            yield self.host.cpu_work(self.calibration.dfm_update_s)
            validation.check_state_consistent(self.dfm)
        except Exception as rollback_error:
            raise RollbackFailed(cause, rollback_error)
        self.rollbacks += 1
        self._network_count("dcdo.rollbacks")
        self.runtime.network.bus.publish(
            "evolution-rolled-back",
            self.loid,
            cause=type(cause).__name__,
            target=str(txn.diff.target_version) if txn.diff.target_version else None,
        )

    # ------------------------------------------------------------------
    # Exported configuration + status interface (§2.2)
    # ------------------------------------------------------------------

    _interface = {
        # Configuration functions.
        "incorporateComponent": "_m_incorporate",
        "incorporateComponentByPath": "_m_incorporate_by_path",
        "removeComponent": "_m_remove",
        "enableFunction": "_m_enable",
        "disableFunction": "_m_disable",
        "setExported": "_m_set_exported",
        "applyConfiguration": "_m_apply_configuration",
        # Status-reporting functions.
        "getInterface": "_m_get_interface",
        "getInterfaceDetailed": "_m_get_interface_detailed",
        "getVersion": "_m_get_version",
        "getStatus": "_m_get_status",
        "getComponents": "_m_get_components",
        "getFunctionStatus": "_m_get_function_status",
        "getImplementationType": "_m_get_impl_type",
    }

    def _m_incorporate(self, ctx, ico_loid):
        component_id = yield from self.incorporate_component(ico_loid)
        return component_id

    def _m_incorporate_by_path(self, ctx, path):
        """Incorporate a component named through the global namespace
        (§2.3: "implementation components can be named using whatever
        scheme exists for naming objects in the system")."""
        from repro.legion.context_service import lookup_path

        ico_loid = yield from lookup_path(self._endpoint, path)
        component_id = yield from self.incorporate_component(ico_loid)
        return component_id

    def _m_remove(self, ctx, component_id):
        result = yield from self.remove_component(component_id)
        return result

    def _m_enable(self, ctx, function, component_id, replace_current=False):
        result = yield from self.enable_function(
            function, component_id, replace_current=replace_current
        )
        return result

    def _m_disable(self, ctx, function, component_id, wait_for_dependents=False):
        result = yield from self.disable_function(
            function, component_id, wait_for_dependents=wait_for_dependents
        )
        return result

    def _m_set_exported(self, ctx, function, component_id, exported):
        self.dfm.set_exported(function, component_id, exported)
        yield self.host.cpu_work(self.calibration.dfm_update_s)
        return True

    def _m_apply_configuration(self, ctx, diff):
        result = yield from self.apply_configuration(diff)
        return result

    def _m_get_interface(self, ctx):
        """The object's current public interface (§3.1: what clients
        build invocations against)."""
        return self.dfm.exported_interface()
        yield  # pragma: no cover - uniform generator shape

    def _m_get_interface_detailed(self, ctx):
        """The public interface with signatures, serving components,
        and markings — what a client needs to build invocations and
        judge the §3.2 stability assurances."""
        rows = []
        for function in self.dfm.exported_interface():
            entry = self.dfm.lookup(function, external=True)
            rows.append(
                {
                    "function": function,
                    "signature": entry.function_def.signature,
                    "component": entry.component_id,
                    "marking": self.dfm.marking(function).value,
                }
            )
        return rows
        yield  # pragma: no cover - uniform generator shape

    def _m_get_version(self, ctx):
        return str(self._version) if self._version is not None else None
        yield  # pragma: no cover - uniform generator shape

    def _m_get_status(self, ctx):
        """Interface, version, and epoch in one round trip — the
        coalesced form of ``getInterface`` + ``getVersion`` stubs use
        to refresh a lease with a single RPC."""
        return {
            "interface": self.dfm.exported_interface(),
            "version": str(self._version) if self._version is not None else None,
            "epoch": self.dfm.epoch,
        }
        yield  # pragma: no cover - uniform generator shape

    def _m_get_components(self, ctx):
        return sorted(self.dfm.component_ids)
        yield  # pragma: no cover - uniform generator shape

    def _m_get_function_status(self, ctx, function):
        return [
            {
                "component": entry.component_id,
                "enabled": entry.enabled,
                "exported": entry.exported,
                "active_threads": entry.active_threads,
                "calls": entry.calls,
                "marking": self.dfm.marking(function).value,
            }
            for entry in self.dfm.entries_for(function)
        ]
        yield  # pragma: no cover - uniform generator shape

    def _m_get_impl_type(self, ctx):
        return self.implementation_type
        yield  # pragma: no cover - uniform generator shape
