"""The DCDO Manager (§2.4).

"A DCDO Manager is in charge of maintaining implementation components
for a particular object type, and for evolving the DCDOs that it
manages."  It extends the Legion class object with:

- a **DFM store**: version id -> (DFM descriptor, instantiable flag);
  configurable versions are derived by logically copying existing
  ones, configured, and eventually marked instantiable — after which
  they "cannot be changed any further";
- a **DCDO table**: per-instance version identifier and implementation
  type, used "when deciding when and how to evolve its DCDOs";
- component registration (creating ICOs);
- the evolution entry points the update policies drive.
"""

import enum
from dataclasses import dataclass

from repro.core.dcdo import DCDO, RemovePolicy
from repro.core.descriptor import DFMDescriptor, diff_descriptors
from repro.core.errors import (
    EvolutionDisallowed,
    UnknownVersion,
    VersionNotConfigurable,
    VersionNotInstantiable,
    WaveAborted,
)
from repro.core.ico import ImplementationComponentObject
from repro.core.policies.evolution import SingleVersionPolicy
from repro.core.policies.update import ExplicitUpdatePolicy
from repro.core.recovery import DeliveryStatus, PropagationTracker
from repro.core.version import VersionTree
from repro.legion.errors import LegionError, StaleManagerTerm, UnknownObject
from repro.legion.klass import ClassObject, InstanceRecord
from repro.legion.loid import mint_loid
from repro.net import ManagerTerm, RetryPolicy, TransportError, run_windowed

#: Spacing for at-least-once propagation deliveries: patient enough to
#: ride out a host outage plus stale-binding rediscovery, bounded so a
#: permanently dead instance is eventually marked FAILED.
DEFAULT_PROPAGATION_RETRY = RetryPolicy(
    base_s=1.0, multiplier=2.0, max_backoff_s=60.0, max_attempts=6
)


class WaveMode(enum.Enum):
    """What a propagation wave does about delivery failures."""

    #: Keep converging: failed deliveries stay FAILED until a later
    #: re-propagation re-arms them (the pre-transactional behaviour).
    CONVERGE = "converge"
    #: All-or-nothing: past the failure threshold the wave rolls every
    #: committed instance back to its prior version and marks itself
    #: aborted.
    ABORT = "abort"


@dataclass(frozen=True)
class WavePolicy:
    """How :meth:`DCDOManager.propagate_version` handles a failing wave.

    ``abort_threshold=k`` means the wave tolerates up to ``k`` FAILED
    deliveries; one more and it aborts — already-committed instances
    are evolved *back* to the versions they were on when the wave
    started (captured in the tracker's ``prior_versions``), the wave
    is journaled ABORTED, and :class:`WaveAborted` is raised.  The
    abort decision and every rollback are write-ahead logged, so a
    manager crash mid-abort resumes — and completes — the abort on
    recovery.
    """

    mode: WaveMode = WaveMode.CONVERGE
    abort_threshold: int = 0

    @classmethod
    def converge(cls):
        """Today's behaviour: failures wait for a later re-propagation."""
        return cls(mode=WaveMode.CONVERGE)

    @classmethod
    def abort_after(cls, threshold):
        """Abort (and roll back) once more than ``threshold`` deliveries fail."""
        if threshold < 0:
            raise ValueError("abort_threshold must be >= 0")
        return cls(mode=WaveMode.ABORT, abort_threshold=threshold)

    def should_abort(self, failed_count):
        """True when ``failed_count`` failures cross the threshold."""
        return self.mode is WaveMode.ABORT and failed_count > self.abort_threshold


@dataclass
class VersionRecord:
    """One entry in the DFM store."""

    version: object
    descriptor: DFMDescriptor
    instantiable: bool = False
    parent: object = None


class ManagerState:
    """The manager's durable state: the fold of its journal.

    Each journal kind has one reducer, and :meth:`apply` is the only
    way this state changes.  The live manager applies every entry as it
    records it, and recovery folds the journal's replay through the
    same reducers, so the two cannot disagree.  Reducers are pure: no
    runtime, no simulator, no yields.
    """

    def __init__(self):
        self.term = 1
        #: component id -> (component, ICO LOID)
        self.components = {}
        self.version_tree = VersionTree()
        #: The instantiable DFM store: version -> :class:`VersionRecord`.
        self.dfm_store = {}
        self.current_version = None
        #: The DCDO table's versions: instance LOID -> version.
        self.instance_versions = {}
        #: version -> :class:`PropagationTracker`, canaries included
        self.propagations = {}
        self.remediation_lease = None
        #: intent id -> intent record, open while its outcome is None.
        self.remediations = {}
        #: LOID -> the host name the journal recorded for an instance
        #: or an ICO: hints for relinking after a crash, nothing more.
        self.instance_hosts = {}
        self.ico_hosts = {}

    @classmethod
    def fold(cls, entries):
        """The state a sequence of :class:`JournalEntry` builds."""
        state = cls()
        for entry in entries:
            state.apply(entry.kind, entry.data)
        return state

    def apply(self, kind, data):
        """Apply one journal entry's reducer; unknown kinds raise."""
        reducer = _REDUCERS.get(kind)
        if reducer is None:
            raise ValueError(f"unknown journal entry kind {kind!r}")
        reducer(self, data)

    def _on_term(self, data):
        self.term = max(self.term, data["number"])

    def _on_component(self, data):
        component, ico_loid = data["component"], data["ico_loid"]
        self.components[component.component_id] = (component, ico_loid)
        self.ico_hosts[ico_loid] = data.get("host_name")

    def _on_version_created(self, data):
        # No descriptor: a configurable version's edits are scratch and
        # die with the manager.  The id stays reserved.
        self.version_tree.restore(data["version"])

    def _on_version_instantiable(self, data):
        version = self.version_tree.restore(data["version"])
        self.dfm_store[version] = VersionRecord(
            version=version,
            descriptor=data["descriptor"].clone(),
            instantiable=True,
            parent=data.get("parent"),
        )

    def _on_current_version(self, data):
        self.current_version = data["version"]

    def _on_instance(self, data):
        self.instance_hosts[data["loid"]] = data.get("host_name")
        if data.get("version") is not None:
            self.instance_versions[data["loid"]] = data["version"]

    def _on_instance_version(self, data):
        self.instance_versions[data["loid"]] = data["version"]

    def _on_propagation_started(self, data):
        self.propagations[data["version"]] = PropagationTracker(
            data["version"],
            data.get("loids", ()),
            prior_versions=data.get("prior_versions"),
            wave_policy=data.get("wave_policy"),
            stages=data.get("stages"),
            bake_s=data.get("bake_s"),
        )

    def _on_propagation_rearmed(self, data):
        tracker = self.propagations[data["version"]]
        tracker.rearm(data["loids"])
        for loid in data["loids"]:
            tracker.prior_versions.setdefault(
                loid, self.instance_versions.get(loid)
            )

    # A duplicate delivery can outlive its wave: once a checkpoint has
    # settled and dropped the wave, its late ack, failure or completion
    # changes nothing.

    def _on_propagation_ack(self, data):
        if data["version"] in self.propagations:
            self.propagations[data["version"]].ack(data["loid"])

    def _on_propagation_failed(self, data):
        if data["version"] in self.propagations:
            self.propagations[data["version"]].fail(data["loid"])

    def _on_propagation_complete(self, data):
        if data["version"] in self.propagations:
            self.propagations[data["version"]].complete = True

    def _on_wave_aborting(self, data):
        tracker = self.propagations[data["version"]]
        tracker.aborting = True
        tracker.abort_reason = data["reason"]

    def _on_wave_rollback(self, data):
        self.propagations[data["version"]].roll_back(data["loid"])

    def _on_wave_aborted(self, data):
        tracker = self.propagations[data["version"]]
        tracker.aborting = tracker.aborted = tracker.complete = True

    def _on_wave_gate(self, data):
        tracker = self.propagations[data["version"]]
        tracker.stage_index = data["stage"]
        tracker.adopted = data.get("adopted", False)

    def _on_remediation_lease(self, data):
        # A release is journaled as an already-expired lease.
        self.remediation_lease = dict(data) if data["expires_at"] > 0.0 else None

    def _on_remediation_intent(self, data):
        # An intent record is its entry's fields plus an outcome.
        self.remediations.setdefault(
            data["intent_id"],
            {**data, "params": dict(data["params"]), "outcome": None},
        )

    def _on_remediation_closed(self, data):
        record = self.remediations.get(data["intent_id"])
        if record is not None:
            record["outcome"] = data["outcome"]


#: Journal kind -> its reducer, ``ManagerState._on_<kind>`` with the
#: kind's dashes as underscores.
_REDUCERS = {
    name[len("_on_"):].replace("_", "-"): reducer
    for name, reducer in vars(ManagerState).items()
    if name.startswith("_on_")
}


class DCDOManager(ClassObject):
    """Coordinates creation and evolution for one DCDO type.

    Parameters
    ----------
    runtime, type_name, host:
        As for :class:`~repro.legion.klass.ClassObject`.
    evolution_policy:
        Which version transitions are legal (default: single-version).
    update_policy:
        When instances are updated (default: explicit).
    remove_policy:
        Removal policy installed on created instances.
    journal:
        Optional :class:`~repro.core.recovery.ManagerJournal`; when
        attached, every durable decision is write-ahead logged so the
        manager can be rebuilt after a crash (see
        :func:`~repro.core.recovery.recover_manager`).
    propagation_retry_policy:
        Spacing/limits for at-least-once propagation deliveries.
    fanout_window:
        Maximum concurrent in-flight deliveries when pushing an
        evolution to many instances (default 8).  Bounds the burst of
        management RPCs a wave puts on the network while still keeping
        the pipe full; ``window=1`` degenerates to the old sequential
        loop.
    wave_policy:
        Default :class:`WavePolicy` for :meth:`propagate_version`
        (converge unless told otherwise).
    """

    def __init__(
        self,
        runtime,
        type_name,
        host,
        implementations=(),
        instance_factory=None,
        evolution_policy=None,
        update_policy=None,
        remove_policy=None,
        journal=None,
        propagation_retry_policy=None,
        fanout_window=8,
        wave_policy=None,
    ):
        super().__init__(
            runtime,
            type_name,
            host,
            implementations=implementations,
            instance_factory=instance_factory,
        )
        self.evolution_policy = evolution_policy or SingleVersionPolicy()
        self.update_policy = update_policy or ExplicitUpdatePolicy()
        self._remove_policy = remove_policy or RemovePolicy.error()
        self._state = ManagerState()
        #: Configurable versions: version -> :class:`VersionRecord`.
        #: Scratch, not durable state; a crash loses them by design.
        self._drafts = {}
        self._instance_impl_types = {}
        self._journal = None
        self.propagation_retry_policy = (
            propagation_retry_policy or DEFAULT_PROPAGATION_RETRY
        )
        if fanout_window < 1:
            raise ValueError("fanout_window must be >= 1")
        self.fanout_window = fanout_window
        self._relay_directory = None
        self._relay_fanout_k = 0
        self.wave_policy = wave_policy or WavePolicy.converge()
        self.evolutions_performed = 0
        #: Set once a peer proves a newer term exists; the manager has
        #: deactivated itself and must never act again.
        self.deposed = False
        if journal is not None:
            self.attach_journal(journal)

    # ------------------------------------------------------------------
    # Durability (write-ahead journal)
    # ------------------------------------------------------------------

    @property
    def journal(self):
        """The attached :class:`ManagerJournal`, or None."""
        return self._journal

    def attach_journal(self, journal):
        """Start write-ahead logging to ``journal``.

        Records identity metadata (type name, home host, policy
        objects) so :func:`~repro.core.recovery.recover_manager` can
        rebuild an equivalent manager from the journal alone.
        """
        self._journal = journal
        journal.meta.setdefault("type_name", self.type_name)
        journal.meta["host_name"] = self._host.name
        journal.meta["evolution_policy"] = self.evolution_policy
        journal.meta["update_policy"] = self.update_policy
        journal.meta["remove_policy"] = self._remove_policy

    @property
    def durable_state(self):
        """The :class:`ManagerState`; it changes only through :meth:`_record`."""
        return self._state

    def _record(self, kind, **fields):
        """Record one durable transition: journal, apply, then publish it.

        The entry goes to the journal when one is attached; its reducer
        then applies it to :attr:`durable_state`; then the event goes
        on the bus, with the same kind and fields and the type name as
        subject.  This is the manager's only writer of all three, so
        the journal, the durable state, a trace, and the bus tallies
        cannot disagree about what happened.
        """
        if self._journal is not None:
            self._journal.append(kind, **fields)
            self._publish_journal_gauges()
        self._state.apply(kind, fields)
        self._runtime.network.bus.publish(kind, self.type_name, **fields)

    def _publish_journal_gauges(self):
        metrics = self._runtime.network.metrics
        metrics.gauge("journal.entries").set(len(self._journal))
        metrics.gauge("journal.bytes").set(self._journal.bytes)

    # ------------------------------------------------------------------
    # Fencing terms (failover safety)
    # ------------------------------------------------------------------

    @property
    def term(self):
        """This manager's fencing term number.

        Monotonic: every management RPC this manager sends carries
        (type_name, term).  Recovery bumps it, so a deposed primary's
        traffic is rejected by anything the newer primary already
        touched.
        """
        return self._state.term

    def current_term(self):
        """The :class:`~repro.net.ManagerTerm` stamped on outgoing RPCs."""
        return ManagerTerm(self.type_name, self._state.term)

    def bump_term(self):
        """Advance the fencing term (journaled); returns the new number.

        Called on every recovery/promotion, so a standby taking over
        always outranks the primary it replaces — even across double
        failover, because the bump is journaled and shipped like any
        other durable decision.
        """
        self._record("term", number=self._state.term + 1)
        return self._state.term

    def _fence(self, error):
        """Stand down: a peer proved a newer term exists.

        A healed old primary discovers its deposal the first time one
        of its RPCs reaches an object the new primary already touched;
        the only safe reaction is to stop acting entirely — the journal
        the new primary recovered from already owns the durable state.
        """
        if self.deposed:
            return
        self.deposed = True
        self._runtime.network.bus.publish(
            "manager-fenced",
            self.type_name,
            term=self._state.term,
            latest=getattr(error, "latest", None),
        )
        self.deactivate()

    def activate(self):
        binding = yield from super().activate()
        # Stamp every outgoing management RPC with the current term.
        self._invoker.term_source = self.current_term
        return binding

    # ------------------------------------------------------------------
    # Component registration (ICOs)
    # ------------------------------------------------------------------

    def register_component(self, component, host_name=None):
        """Create an ICO serving ``component``; returns its LOID.

        The ICO is a full active object, bound into the context space
        under ``/components/<type>/<component-id>`` so it benefits from
        the system's global namespace (§2.3).
        """
        if component.component_id in self._state.components:
            raise ValueError(f"component {component.component_id!r} already registered")
        host = self._pick_host(host_name)
        loid = mint_loid(self._runtime.domain, f"{self.type_name}.ICO")
        ico = ImplementationComponentObject(self._runtime, loid, host, component=component)
        self._runtime.sim.run_process(ico.activate())
        self._runtime.attach_object(ico)
        self._runtime.context_space.bind(
            f"/components/{self.type_name}/{component.component_id}", loid
        )
        self._record(
            "component", component=component, ico_loid=loid, host_name=host.name
        )
        return loid

    def component_ico(self, component_id):
        """The ICO LOID serving ``component_id``."""
        try:
            return self._state.components[component_id][1]
        except KeyError:
            raise UnknownVersion(
                f"component {component_id!r} is not registered with this manager"
            ) from None

    def registered_components(self):
        """Sorted registered component ids."""
        return sorted(self._state.components)

    # ------------------------------------------------------------------
    # The DFM store: version derivation and configuration (§2.4)
    # ------------------------------------------------------------------

    @property
    def current_version(self):
        """The designated current version, or None."""
        return self._state.current_version

    def versions(self):
        """All version ids in the DFM store."""
        return sorted(
            self._state.dfm_store.keys() | self._drafts.keys(),
            key=lambda version: version.parts,
        )

    def version_record(self, version):
        """The :class:`VersionRecord`, or raise :class:`UnknownVersion`."""
        record = self._state.dfm_store.get(version) or self._drafts.get(version)
        if record is None:
            raise UnknownVersion(f"no version {version} in the DFM store")
        return record

    def is_instantiable(self, version):
        """True if ``version`` may create / evolve DCDOs."""
        return self.version_record(version).instantiable

    def new_version(self):
        """Create a fresh root version with an empty descriptor."""
        version = self._state.version_tree.next_root()
        self._drafts[version] = VersionRecord(version=version, descriptor=DFMDescriptor())
        self._record("version-created", version=version, parent=None)
        return version

    def derive_version(self, parent):
        """§2.4: create a configurable version by logically copying
        ``parent``; returns the new version id."""
        parent_record = self.version_record(parent)
        version = self._state.version_tree.next_child(parent)
        self._drafts[version] = VersionRecord(
            version=version,
            descriptor=parent_record.descriptor.clone(),
            parent=parent,
        )
        self._record("version-created", version=version, parent=parent)
        return version

    def descriptor_of(self, version, allow_instantiable=False):
        """The version's descriptor, for configuration.

        Configurable versions are freely editable; instantiable ones
        "cannot be changed any further" and are only readable
        (``allow_instantiable=True``).
        """
        record = self.version_record(version)
        if record.instantiable and not allow_instantiable:
            raise VersionNotConfigurable(
                f"version {version} is instantiable and cannot be changed"
            )
        return record.descriptor

    def incorporate_into(self, version, component_id):
        """Incorporate a registered component into a configurable version."""
        component, ico_loid = self._components_entry(component_id)
        self.descriptor_of(version).incorporate(component, ico_loid)

    def _components_entry(self, component_id):
        entry = self._state.components.get(component_id)
        if entry is None:
            raise UnknownVersion(
                f"component {component_id!r} is not registered with this manager"
            )
        return entry

    def mark_instantiable(self, version):
        """Freeze a configurable version after validating it (§2.4/§3.2)."""
        record = self.version_record(version)
        if record.instantiable:
            return
        record.descriptor.validate_instantiable()
        # The frozen descriptor is the durable artefact: a journal
        # replay restores instantiable versions byte-for-byte, while
        # still-configurable descriptors are in-memory scratch state
        # and are lost with the crash.
        self._record(
            "version-instantiable",
            version=version,
            parent=record.parent,
            descriptor=record.descriptor.clone(),
        )
        del self._drafts[version]

    def set_current_version(self, version):
        """Designate the official current version.

        The version must be instantiable.  The update policy decides
        whether existing instances are updated now (proactive), later
        (lazy), or on request (explicit); any policy-returned process
        is run to completion so "setting a new current version" costs
        what the policy costs.
        """
        process = self.set_current_version_async(version)
        if process is not None:
            self._runtime.sim.run(process)
        return version

    def set_current_version_async(self, version):
        """Like :meth:`set_current_version` but returns the propagation
        process (or None) instead of running it — for callers already
        inside a simulation process."""
        record = self.version_record(version)
        if not record.instantiable:
            raise VersionNotInstantiable(
                f"version {version} must be instantiable before becoming current"
            )
        self._record("current-version", version=version)
        propagation = self.update_policy.on_new_current_version(self)
        if propagation is None:
            return None
        return self._runtime.sim.spawn(propagation, name=f"propagate:{version}")

    # ------------------------------------------------------------------
    # The DCDO table (§2.4)
    # ------------------------------------------------------------------

    def instance_version(self, loid):
        """The version a managed instance currently reflects."""
        self.record(loid)  # raises UnknownObject for strangers
        return self._state.instance_versions.get(loid)

    def instance_impl_type(self, loid):
        """The implementation type of an instance's current build."""
        self.record(loid)
        return self._instance_impl_types.get(loid)

    def dcdo_table(self):
        """(loid, version, impl_type, active) rows, creation order."""
        return [
            (
                record.loid,
                self._state.instance_versions.get(record.loid),
                self._instance_impl_types.get(record.loid),
                record.active,
            )
            for record in (self.record(loid) for loid in self.instance_loids())
        ]

    # ------------------------------------------------------------------
    # Instance creation (overrides the monolithic build)
    # ------------------------------------------------------------------

    def _build_instance(self, loid, host):
        """Create a DCDO and configure it from a version descriptor.

        New instances reflect the designated current version ("All new
        DCDOs are created to reflect the characteristics of the
        designated current version", §3.4); re-activations after
        migration or deactivation rebuild the instance's *own* version.

        Only the authority builds, and it must still be the authority
        when the bootstrap ends: a promotion mid-build abandons the
        half-built DCDO, which the new authority rebuilds.  A version
        is set only under authority, so a configured DCDO is always
        one some authority finished.
        """
        self._require_authority()
        state = self._state
        version = state.instance_versions.get(loid, state.current_version)
        if version is None:
            raise VersionNotInstantiable(
                f"type {self.type_name!r} has no current version to instantiate"
            )
        record = self.version_record(version)
        if not record.instantiable:
            raise VersionNotInstantiable(
                f"version {version} is not instantiable"
            )
        descriptor = record.descriptor
        obj = DCDO(
            self._runtime,
            loid,
            host,
            manager_loid=self.loid,
            remove_policy=self._remove_policy,
        )
        self._runtime.attach_object(obj)
        yield from obj.activate()
        try:
            for component_id in sorted(descriptor.component_ids):
                __, ico_loid = self._components_entry(component_id)
                yield from obj.incorporate_component(ico_loid, bootstrap=True)
            obj.dfm.apply_entry_states(descriptor)
            obj.dfm.adopt_restrictions(descriptor)
            self._require_authority()
            obj.set_version(version)
        except Exception:
            # A failed component fetch must not leave a half-configured
            # but reachable DCDO behind: journal replays and recovery
            # passes would mistake it for a live instance and never
            # retry the rebuild.
            obj.deactivate()
            raise
        return obj, str(version)

    def _instance_created(self, record):
        self._instance_impl_types[record.loid] = record.obj.implementation_type
        self._record("instance", loid=record.loid, host_name=record.host.name)
        self._record(
            "instance-version", loid=record.loid, version=self._state.current_version
        )
        self.update_policy.on_instance_created(self, record)

    def _notify_migrated(self, record):
        self._instance_impl_types[record.loid] = record.obj.implementation_type
        followup = self.update_policy.on_instance_migrated(self, record)
        if followup is not None:
            self._runtime.sim.spawn(followup, name=f"post-migrate:{record.loid}")

    # ------------------------------------------------------------------
    # Evolution (§2.4, §3.3)
    # ------------------------------------------------------------------

    def evolve_instance(self, loid, target_version=None, enforce_policy=True):
        """Generator: evolve one instance to ``target_version``.

        Defaults to the policy's target for this instance (usually the
        current version).  Validates the transition with the evolution
        policy, ships the configuration diff to the DCDO in one
        management RPC, and updates the DCDO table.  Returns the
        version actually reached.

        ``enforce_policy=False`` is the wave-rollback path: a
        compensating evolution back to a *prior* version must not be
        vetoed by the evolution policy (single-version would reject any
        non-current target) nor by the §3.2 transition-rule check (the
        aborted version may have introduced markings the prior version
        legitimately lacks; the prior version was validated when it was
        marked instantiable).
        """
        lock = self.management_lock(loid)
        yield lock.acquire()
        try:
            record = self.record(loid)
            if not record.active:
                from repro.legion.errors import ObjectDeactivated

                raise ObjectDeactivated(
                    f"instance {loid} is deactivated; it will rebuild at its "
                    f"version on next activation"
                )
            from_version = self._state.instance_versions.get(loid)
            if target_version is None:
                target_version = self.evolution_policy.default_target(self, from_version)
                if target_version is None:
                    return from_version
            target_record = self.version_record(target_version)
            if not target_record.instantiable:
                raise VersionNotInstantiable(
                    f"cannot evolve to configurable version {target_version}"
                )
            if enforce_policy:
                self.evolution_policy.check_transition(self, from_version, target_version)
            if from_version == target_version:
                # Even a no-op delivery must assert this manager's term
                # on the instance.  After a failover the promoted
                # manager's resume can find the instance already at the
                # target (the deposed primary's delivery landed before
                # the promotion) — without an RPC the instance would
                # keep honouring the old term, letting the zombie's
                # later compensations through unfenced.
                if self.invoker.term_source is not None:
                    yield from self.invoker.invoke(loid, "getVersion", ())
                return from_version
            current_descriptor = (
                self.version_record(from_version).descriptor
                if from_version is not None
                else DFMDescriptor()
            )
            diff = diff_descriptors(current_descriptor, target_record.descriptor)
            diff.target_version = target_version
            diff.enforce_restrictions = enforce_policy
            # Generous per-attempt timeouts (downloads can take tens of
            # seconds) with retries; applyConfiguration is idempotent.
            yield from self.invoker.invoke(
                loid,
                "applyConfiguration",
                (diff,),
                timeout_schedule=(60.0, 120.0, 600.0),
            )
            self._record("instance-version", loid=loid, version=target_version)
            if record.active:
                record.version_tag = str(target_version)
            self.evolutions_performed += 1
        finally:
            lock.release()
        return target_version

    def try_evolve_instance(self, loid, target_version=None):
        """Generator: evolve, treating policy vetoes as "stay put"."""
        try:
            result = yield from self.evolve_instance(loid, target_version)
        except EvolutionDisallowed:
            result = self._state.instance_versions.get(loid)
        return result

    # ------------------------------------------------------------------
    # Ack-tracked, at-least-once propagation
    # ------------------------------------------------------------------

    def propagate_version(
        self, version, loids=None, retry_policy=None, window=None, wave_policy=None
    ):
        """Generator: reliably push ``version`` to its instances.

        Each instance gets a tracked delivery (PENDING → ACKED/FAILED),
        deliveries run concurrently with a bounded in-flight window
        (default: the manager's ``fanout_window``), failures are
        retried with backoff per the retry policy, and every state
        change is journaled — so a manager crash mid-propagation
        resumes from exactly the outstanding deliveries.  At-least-once
        delivery is safe because :meth:`DCDO.apply_configuration` is
        idempotent keyed by the target version id.

        ``wave_policy`` (default: the manager's) decides what failures
        mean.  Under ``WavePolicy.converge()`` failed deliveries simply
        wait: calling again for the same version re-arms them and
        admits instances created since — the convergence loop after
        faults heal.  Under ``WavePolicy.abort_after(k)`` more than
        ``k`` failures abort the wave: committed instances are rolled
        back to their prior versions, the wave is journaled ABORTED,
        and :class:`WaveAborted` is raised.  Returns the
        :class:`PropagationTracker` otherwise.

        ``loids`` defaults to the fleet, or to an open canary's
        admitted set: a resume must never turn a 1% canary into a
        full-fleet rollout of an unvetted version.
        """
        record = self.version_record(version)
        if not record.instantiable:
            raise VersionNotInstantiable(
                f"cannot propagate configurable version {version}"
            )
        tracker = self._state.propagations.get(version)
        if loids is None:
            loids = (
                tracker.admitted
                if tracker is not None and tracker.open_canary
                else self.instance_loids()
            )
        if tracker is None:
            versions = self._state.instance_versions
            tracker = self._start_wave(
                version=version,
                loids=list(loids),
                prior_versions={loid: versions.get(loid) for loid in loids},
                wave_policy=wave_policy or self.wave_policy,
            )
        elif tracker.aborting and not tracker.aborted:
            # A crash interrupted the abort: finish the rollback; do
            # not deliver anything new.
            yield from self._finish_abort(tracker, tracker.abort_reason)
            return tracker
        else:
            # Journaled even when it admits no one: a re-arm re-opens
            # failed and rolled-back deliveries and clears the flags.
            self._record(
                "propagation-rearmed",
                version=version,
                loids=[loid for loid in loids if loid not in tracker],
            )
        policy = retry_policy or self.propagation_retry_policy
        window = window or self.fanout_window
        if self._relay_directory:
            # Announcement phase first: one RPC per roster range covers
            # every colocated pending instance.  Anything a relay could
            # not positively confirm stays PENDING and falls through to
            # direct delivery below.
            yield from self._relay_deliveries(tracker, policy, window)
            if not self.is_active:
                return tracker
        pending = tracker.pending_loids()
        thunks = [
            lambda l=loid: self._deliver(tracker, l, policy) for loid in pending
        ]
        outcomes = yield from run_windowed(self._runtime.sim, thunks, window)
        for ok, value in outcomes:
            if not ok:
                # _deliver absorbs expected failures into the tracker;
                # anything it *raised* is a real bug — don't mask it.
                raise value
        if not self.is_active:
            # We crashed while deliveries were in flight; the journal
            # still shows the propagation open, so recovery resumes it.
            return tracker
        # An explicit per-call policy wins (e.g. a convergence loop
        # re-driving a previously abortive wave); otherwise the policy
        # the wave started under keeps governing it across resumes.
        wave = wave_policy or tracker.wave_policy or self.wave_policy
        failed = tracker.count(DeliveryStatus.FAILED)
        if wave.should_abort(failed):
            yield from self._finish_abort(tracker, "delivery-failures")
            if not tracker.aborted:
                # Crash (or unreachable instances) left the abort
                # incomplete; recovery/resume finishes it.
                return tracker
            raise WaveAborted(version, failed, wave.abort_threshold)
        self._record("propagation-complete", version=version)
        return tracker

    def _start_wave(self, version, **fields):
        """Record a new wave's ``propagation-started``; returns its tracker.

        Once the journal's tail (the entries since the last checkpoint)
        holds more entries than the DCDO table has rows, the journal is
        checkpointed first, which drops only waves that settled before
        this one.  A checkpoint when a wave settles would drop it while
        its callers still read it (``propagation(version)``, the
        converge re-push after a promotion).
        """
        journal = self._journal
        if journal is not None and len(journal.entries) > len(self._instances):
            self.write_checkpoint()
        self._record("propagation-started", version=version, **fields)
        return self._state.propagations[version]

    # ------------------------------------------------------------------
    # Host-relay fan-out (scale-out waves)
    # ------------------------------------------------------------------

    def use_relays(self, directory, fanout_k=0, announce=False):
        """Route propagation waves through per-host relays.

        ``directory`` maps host name -> relay LOID (see
        :func:`repro.cluster.relay.deploy_relays`).  With relays
        enabled, :meth:`propagate_version` first *announces* the wave:
        one ``announceFleet`` RPC per maximal contiguous range of
        roster hosts (the sorted directory) that are up, not
        quarantined, and hold a target, carrying the configuration
        diffs and the targets as runs of instance numbers.  Commits
        keep exactly the tracker/journal bookkeeping of a direct
        delivery, and whatever the relays could not positively confirm
        is re-announced and then delivered directly, so relays never
        weaken delivery guarantees.

        ``fanout_k >= 2`` spreads each range over a k-ary tree of
        roster spans (O(log_k H) wave latency for H hosts);
        ``fanout_k=0`` gives every host its own announcement.  Pass
        ``directory=None`` to go back to direct-only delivery.
        ``announce`` selects nothing: perfbench/workloads.py still
        passes it, and the next benchmark change drops it.
        """
        if fanout_k and fanout_k < 2:
            raise ValueError(f"fanout_k must be 0 or >= 2, got {fanout_k}")
        self._relay_directory = dict(directory) if directory else None
        self._relay_fanout_k = fanout_k if directory else 0

    def _relay_deliveries(self, tracker, policy, window):
        """Generator: the announcement phase of a propagation wave.

        Picks the pending instances a relay can reach (host up, relay
        deployed, host not quarantined), acks those already at the
        target without an RPC, builds one configuration diff per
        distinct from-version, and drives the rest through
        :meth:`_announce_wave`.  Everything else is simply left
        PENDING for the direct path.  The targets' management locks
        are held for the whole phase — in global sorted order, so
        concurrent waves cannot deadlock — which keeps the version
        reads used for diffing consistent with the commits, and is
        what lets an announcement name its targets by instance-number
        runs: no relay may touch an instance outside them.
        """
        sim = self._runtime.sim
        directory = self._relay_directory
        version = tracker.version
        target_record = self.version_record(version)
        batchable = []
        for loid in tracker.pending_loids():
            try:
                record = self.record(loid)
            except UnknownObject as error:
                # Deleted instance: terminal, exactly as direct delivery.
                tracker.delivery(loid).last_error = error
                self._record("propagation-failed", version=version, loid=loid)
                continue
            if not record.active or not record.host.is_up:
                continue
            if record.host.name not in directory:
                continue
            if self._runtime.network.health_quarantined(record.host.name):
                # Gray relay: leave its instances PENDING so direct
                # delivery reaches them without routing a whole range
                # through the limping host.
                self._runtime.network.count("relay.quarantine_skips")
                continue
            batchable.append((loid, record.host.name))
        if not batchable:
            return
        locks = [
            self.management_lock(loid)
            for loid, __ in sorted(batchable, key=lambda item: str(item[0]))
        ]
        for lock in locks:
            yield lock.acquire()
        try:
            remaining = {}
            diffs = {}
            for loid, host_name in batchable:
                from_version = self._state.instance_versions.get(loid)
                if from_version == version:
                    # Already there (re-armed wave): ack without an RPC,
                    # matching evolve_instance's early return.
                    tracker.delivery(loid).acked_at = sim.now
                    self._record("propagation-ack", version=version, loid=loid)
                    continue
                try:
                    self.evolution_policy.check_transition(
                        self, from_version, version
                    )
                except EvolutionDisallowed:
                    # Leave it PENDING: the direct path surfaces the
                    # veto through the usual retry/FAILED machinery.
                    continue
                if from_version not in diffs:
                    current_descriptor = (
                        self.version_record(from_version).descriptor
                        if from_version is not None
                        else DFMDescriptor()
                    )
                    diff = diff_descriptors(
                        current_descriptor, target_record.descriptor
                    )
                    diff.target_version = version
                    diff.enforce_restrictions = True
                    diffs[from_version] = diff
                remaining.setdefault(host_name, []).append(loid)
            if remaining:
                yield from self._announce_wave(
                    tracker, remaining, diffs, policy, window
                )
        finally:
            for lock in locks:
                lock.release()

    def _announce_wave(self, tracker, remaining, diffs, policy, window):
        """Generator: announce ``remaining`` until committed or out of budget.

        ``remaining`` maps host name -> target LOIDs.  Each round sends
        one announcement per maximal contiguous roster range of hosts
        still holding targets (every host alone with ``fanout_k=0``),
        at most ``window`` in flight, and commits what the acks
        confirm.  A relay that did not answer — an announcement's head,
        or the head of a span that came back in ``missing`` — is not
        routed through again in this wave; the rest of its range is
        re-announced.  Re-sent announcements are harmless: application
        is idempotent per instance.  When the retry budget runs out, or
        only unanswering relays' hosts are left, the survivors stay
        PENDING — the direct path takes over with a fresh budget.
        """
        from repro.cluster.relay import instance_runs

        sim = self._runtime.sim
        roster = sorted(self._relay_directory)
        dead = set()
        started = sim.now
        attempts = 0
        while self.is_active:
            spans = []
            for index, host in enumerate(roster):
                if host not in remaining or host in dead:
                    continue
                if self._relay_fanout_k and spans and spans[-1][1] == index:
                    spans[-1] = (spans[-1][0], index + 1)
                else:
                    spans.append((index, index + 1))
            if not spans:
                break
            targets = [
                loid
                for lo, hi in spans
                for host in roster[lo:hi]
                for loid in remaining[host]
            ]
            for loid in targets:
                tracker.delivery(loid).attempts += 1
            runs = instance_runs(targets)
            attempts += 1
            thunks = [
                lambda span=span: self._announce(
                    tracker, roster, span, runs, diffs, remaining, dead
                )
                for span in spans
            ]
            outcomes = yield from run_windowed(sim, thunks, window)
            for ok, value in outcomes:
                if not ok:
                    raise value
            if not self.is_active:
                return
            if all(host in dead for host in remaining):
                break
            if not policy.should_retry(attempts, started, sim.now):
                break
            self._runtime.network.count("propagation.retries")
            yield sim.timeout(policy.backoff_s(attempts))
        if remaining and self.is_active:
            self._runtime.network.count(
                "relay.fallback_instances",
                sum(len(loids) for loids in remaining.values()),
            )

    def _announce(self, tracker, roster, span, runs, diffs, remaining, dead):
        """Generator: one announcement over the roster span ``(lo, hi)``.

        Commits every target on a reached host at once when the
        aggregate ``(hosts, count, digest)`` matches the targets there
        less any the relays reported failed; mutates ``remaining`` and
        ``dead`` in place.  Any unexplained shortfall commits nothing:
        the aggregate can only under-commit.
        """
        from repro.cluster.relay import (
            RELAY_APPLY_TIMEOUTS,
            announce_fleet_bytes,
            set_digest,
        )

        lo, hi = span
        version = tracker.version
        bundle = {
            "type_name": self.type_name,
            "target_version": version,
            "diffs": dict(diffs),
            "runs": runs,
            "term": self.current_term(),
            "lo": lo,
            "hi": hi,
            "fanout_k": self._relay_fanout_k,
        }
        self._runtime.network.count("relay.announce_waves")
        try:
            ack = yield from self.invoker.invoke(
                self._relay_directory[roster[lo]],
                "announceFleet",
                (bundle,),
                payload_bytes=announce_fleet_bytes(bundle),
                timeout_schedule=RELAY_APPLY_TIMEOUTS,
            )
        except (LegionError, TransportError, RuntimeError) as error:
            if isinstance(error, StaleManagerTerm):
                self._fence(error)
                return
            if isinstance(error, RuntimeError) and self.is_active:
                raise
            if self.is_active:
                self._runtime.network.count("relay.batch_failures")
                dead.add(roster[lo])
            return
        if not self.is_active:
            return
        failed = set()
        for loid, value in ack["failures"]:
            if isinstance(value, StaleManagerTerm):
                # A downstream instance outranked our term: deposed.
                self._fence(value)
                return
            record = self._instances.get(loid)
            loids = remaining.get(record.host.name) if record is not None else None
            if not loids or loid not in loids:
                continue
            failed.add(loid)
            tracker.delivery(loid).last_error = value
            if isinstance(value, UnknownObject):
                self._record("propagation-failed", version=version, loid=loid)
                loids.remove(loid)
        unreached = set()
        for start, stop in ack["missing"]:
            dead.add(roster[start])
            unreached.update(roster[start:stop])
        reached = [host for host in roster[lo:hi] if host not in unreached]
        expected = [
            loid
            for host in reached
            for loid in remaining.get(host, ())
            if loid not in failed
        ]
        if (
            ack["hosts"] == len(reached)
            and ack["count"] == len(expected)
            and ack["digest"] == set_digest(expected)
        ):
            for loid in expected:
                self._commit_relay_ack(tracker, loid, version)
            self._runtime.network.count("relay.announced_instances", len(expected))
            for host in reached:
                remaining[host] = [
                    loid for loid in remaining.get(host, ()) if loid in failed
                ]
        for host in [host for host, loids in remaining.items() if not loids]:
            del remaining[host]

    def _commit_relay_ack(self, tracker, loid, version):
        """Commit one relay-confirmed evolution.

        Mirrors the bookkeeping (and journal-entry order) of the
        direct path: instance-version first, then the propagation ack.
        """
        self._record("instance-version", loid=loid, version=version)
        record = self._instances.get(loid)
        if record is not None and record.active:
            record.version_tag = str(version)
        self.evolutions_performed += 1
        tracker.delivery(loid).acked_at = self._runtime.sim.now
        self._record("propagation-ack", version=version, loid=loid)

    def _finish_abort(self, tracker, reason):
        """Generator: drive an aborting wave to the ABORTED state.

        Journals the abort decision and its ``reason`` first (so
        recovery knows the wave must never resume delivering), then
        rolls every ACKED instance back to its prior version with
        policy enforcement off.  Each rollback is journaled; the wave
        stays ABORTING — and is resumed by :meth:`resume_propagations`
        — until every committed instance has been undone, at which
        point it is journaled ABORTED.

        An instance that already ran the wave's version when the wave
        started has nothing to undo: its rollback is journaled without
        an evolution, which would re-apply the aborted build.
        """
        if not tracker.aborting:
            self._record("wave-aborting", version=tracker.version, reason=reason)
        for delivery in tracker.deliveries():
            if delivery.status is not DeliveryStatus.ACKED:
                continue
            if not self.is_active:
                return
            prior = tracker.prior_versions.get(delivery.loid)
            if prior is not None and prior != tracker.version:
                try:
                    yield from self.evolve_instance(
                        delivery.loid, prior, enforce_policy=False
                    )
                except (LegionError, TransportError) as error:
                    if isinstance(error, StaleManagerTerm):
                        self._fence(error)
                        return
                    delivery.last_error = error
                    if not self.is_active:
                        return
                    # Leave it ACKED: the wave stays ABORTING and a
                    # later resume retries this rollback.
                    continue
            self._record("wave-rollback", version=tracker.version, loid=delivery.loid)
        if any(
            delivery.status is DeliveryStatus.ACKED
            for delivery in tracker.deliveries()
        ):
            return
        if tracker.stages is not None:
            settled = yield from self._reconcile_canary_abort(tracker)
            if not settled or not self.is_active:
                return
        self._record("wave-aborted", version=tracker.version)

    def _reconcile_canary_abort(self, tracker):
        """Generator: verify admitted instances really left the version.

        A promoted authority's replica journal can be missing the old
        primary's last entries (they ship asynchronously), so a
        delivery it restored as PENDING may in fact have landed on the
        instance.  Before declaring a breached canary aborted, ask each
        admitted instance for its *actual* version — the query also
        stamps this manager's term on the instance, fencing the old
        primary — and drive a compensating evolution for any instance
        still serving the aborted version.  Returns True once every
        reachable admitted instance is off it; False means stay
        ABORTING and let a later resume retry.
        """
        version = tracker.version
        prior = self._state.current_version
        settled = True
        for delivery in tracker.deliveries():
            if not self.is_active:
                return False
            if delivery.status is DeliveryStatus.ROLLED_BACK:
                continue  # this manager rolled it back itself
            loid = delivery.loid
            try:
                record = self.record(loid)
            except UnknownObject:
                continue
            if not record.active:
                continue  # crashed: rebuilds at its table version
            try:
                reported = yield from self.invoker.invoke(
                    loid, "getVersion", ()
                )
            except (LegionError, TransportError) as error:
                if isinstance(error, StaleManagerTerm):
                    self._fence(error)
                    return False
                settled = False
                continue
            if reported != str(version):
                continue
            # The old primary's delivery landed but its ack never
            # shipped: adopt the fact, then undo it.
            if self._state.instance_versions.get(loid) != version:
                self._record("instance-version", loid=loid, version=version)
            try:
                yield from self.evolve_instance(
                    loid, prior, enforce_policy=False
                )
            except (LegionError, TransportError) as error:
                if isinstance(error, StaleManagerTerm):
                    self._fence(error)
                    return False
                settled = False
                continue
            # Not journaled: the compensating evolution's own
            # instance-version entry is the durable record.
            self._runtime.network.bus.publish(
                "canary-rollback", self.type_name, version=version, loid=loid
            )
        return settled

    def _deliver(self, tracker, loid, policy):
        """Process body: drive one delivery to ack or exhaustion."""
        sim = self._runtime.sim
        started = sim.now
        delivery = tracker.delivery(loid)
        attempts = 0
        while True:
            if not self.is_active:
                # Manager crashed: abandon quietly, leaving the
                # delivery PENDING in the journal for recovery.
                return False
            if tracker.aborting or tracker.aborted:
                # The wave was breach-aborted while this delivery sat
                # out a backoff: delivering now would resurrect the
                # version the abort just rolled back.  Abandon; the
                # delivery stays PENDING under a wave the journal
                # already shows ABORTING/ABORTED.
                return False
            attempts += 1
            delivery.attempts += 1
            try:
                yield from self.evolve_instance(loid, tracker.version)
            except UnknownObject as error:
                # Deleted instance: it can never converge; no retry.
                delivery.last_error = error
                self._record("propagation-failed", version=tracker.version, loid=loid)
                return False
            except (LegionError, TransportError, RuntimeError) as error:
                if isinstance(error, StaleManagerTerm):
                    # We are the deposed primary: stand down, leave the
                    # delivery to the manager that outranks us.
                    self._fence(error)
                    return False
                if isinstance(error, RuntimeError) and self.is_active:
                    # A real bug, not the "our invoker vanished because
                    # we crashed mid-delivery" case — don't mask it.
                    raise
                delivery.last_error = error
                if not self.is_active:
                    return False
                if not policy.should_retry(attempts, started, sim.now):
                    self._record(
                        "propagation-failed", version=tracker.version, loid=loid
                    )
                    return False
                self._runtime.network.count("propagation.retries")
                yield sim.timeout(policy.backoff_s(attempts))
                continue
            delivery.acked_at = sim.now
            self._record("propagation-ack", version=tracker.version, loid=loid)
            if tracker.aborting or tracker.aborted:
                # The breach-abort raced this delivery's final RPC:
                # the instance just applied a version the wave has
                # renounced.  Undo it with the same rollback machinery
                # (journaled, resumable) instead of reporting success.
                yield from self._finish_abort(tracker, tracker.abort_reason)
                return False
            return True

    def propagation(self, version):
        """The :class:`PropagationTracker` for ``version``, or None."""
        return self._state.propagations.get(version)

    def propagation_status(self):
        """Summaries of every propagation, newest last."""
        return [tracker.summary() for tracker in self._state.propagations.values()]

    def resume_propagations(self, retry_policy=None):
        """Generator: finish propagations a crash interrupted.

        One rule for every wave, canaries included: a wave is left
        alone once it is aborted, or complete with no abort begun.
        Every other wave goes back through :meth:`propagate_version`,
        which finishes a journaled abort (delivering nothing new),
        re-delivers an incomplete wave without repeating an acked
        delivery, and keeps an open canary to its admitted set.  The
        :class:`WaveAborted` of a wave whose re-delivery crosses its
        threshold is absorbed here: the abort is the wave's journaled,
        final outcome — not an error of the recovery.
        """
        for version, tracker in list(self._state.propagations.items()):
            if tracker.aborted or (tracker.complete and not tracker.aborting):
                continue
            try:
                yield from self.propagate_version(version, retry_policy=retry_policy)
            except WaveAborted:
                continue

    # ------------------------------------------------------------------
    # SLO-gated canary rollouts: staged waves
    # ------------------------------------------------------------------

    def begin_canary(self, version, stages, bake_s, wave_policy=None):
        """Open (or re-open after recovery) a canary rollout of ``version``:
        a staged wave with no instances yet, delivered under
        ``wave_policy`` as in :meth:`propagate_version`.  Idempotent: a
        tracker restored from the journal is returned as-is, admitted
        set, passed gates and any abort intact.
        """
        record = self.version_record(version)
        if not record.instantiable:
            raise VersionNotInstantiable(
                f"cannot canary configurable version {version}"
            )
        if version not in self._state.propagations:
            self._start_wave(
                version,
                wave_policy=wave_policy or self.wave_policy,
                stages=tuple(stages),
                bake_s=bake_s,
            )
        return self._require_canary(version)

    def canary_frozen_loids(self):
        """Instances admitted to any still-open canary rollout.

        Convergence sweeps (the supervisor's post-failover converge,
        chaos heal drives) must exclude these: dragging a canary-
        admitted instance back to the fleet's current version mid-bake
        would silently undo the experiment the gate is judging.
        """
        return {
            loid
            for tracker in self._state.propagations.values()
            if tracker.open_canary
            for loid in tracker.admitted
        }

    def admit_canary_stage(self, version, loids):
        """Admit ``loids`` to the canary wave; returns the newly
        admitted subset (already-admitted instances are skipped).

        Journaled as a ``propagation-rearmed`` that delivers nothing:
        the stage's :meth:`propagate_version` delivers.
        """
        tracker = self._require_canary(version)
        if not tracker.open_canary:
            raise WaveAborted(version, 0, 0) if tracker.abort_reason else ValueError(
                f"canary for {version} already completed"
            )
        fresh = [loid for loid in loids if loid not in tracker]
        if fresh:
            self._record("propagation-rearmed", version=version, loids=fresh)
        return fresh

    def record_canary_gate(self, version):
        """Mark the current stage's health gate passed (journaled)."""
        tracker = self._require_canary(version)
        self._record("wave-gate", version=version, stage=tracker.stage_index + 1)
        return tracker.stage_index

    def mark_canary_breached(self, version, reason):
        """Journal the breach, the wave's abort decision; idempotent.

        The write-ahead ``wave-aborting`` entry lands *before* any
        rollback RPC, so a crash between the decision and the rollback
        leaves a journal a promoted manager reads as "this wave must
        die", never as "this wave should resume delivering".
        """
        tracker = self._require_canary(version)
        if tracker.abort_reason is None:
            self._record("wave-aborting", version=version, reason=reason)
        return tracker

    def abort_wave(self, version, reason="slo-breach"):
        """Generator: breach-abort an open wave and roll everyone back.

        The public entry point the SLO gate (or an operator) uses when
        the wave itself is healthy at the delivery level but the
        *service* is not: journals the abort decision with ``reason``,
        then every ACKED instance evolves back to its prior version,
        write-ahead logged, resumable by a recovered or promoted
        manager.  Returns the tracker, or None without a wave.
        """
        tracker = self._state.propagations.get(version)
        if tracker is not None and not tracker.aborted:
            yield from self._finish_abort(tracker, reason)
        return tracker

    def complete_canary(self, version):
        """Adopt ``version`` after the final gate passed (journaled).

        The fleet already converged stage by stage, so the update
        policy is *not* fired again — the current-version designation
        simply catches up with reality (new instances start on it).
        """
        tracker = self._require_canary(version)
        if tracker.abort_reason is not None:
            raise WaveAborted(version, 0, 0)
        if not tracker.adopted:
            self._record(
                "wave-gate", version=version, stage=tracker.stage_index, adopted=True
            )
            self._record("current-version", version=version)
        return tracker

    def _require_canary(self, version):
        tracker = self._state.propagations.get(version)
        if tracker is None or tracker.stages is None:
            raise UnknownVersion(f"no canary rollout of version {version}")
        return tracker

    # ------------------------------------------------------------------
    # Remediation lease and intents (self-healing controller)
    # ------------------------------------------------------------------

    def acquire_remediation_lease(self, owner, ttl_s=30.0):
        """Take (or renew) the plane-level remediation lease; journaled.

        Exactly one automated remediator may act on this manager at a
        time, and only while the lease it holds was minted under the
        manager's *current* term: a promotion bumps the term, so a
        zombie controller's lease dies with the primary it was talking
        to — the promoted supervisor and a stale controller can never
        fight over the same fleet.  Returns True when ``owner`` holds
        the lease on exit.
        """
        if self.deposed or not self.is_active:
            return False
        now = self._runtime.sim.now
        lease = self._state.remediation_lease
        if (
            lease is not None
            and lease["owner"] != owner
            and lease["expires_at"] > now
            and lease["term"] == self.term
        ):
            return False
        self._record(
            "remediation-lease",
            owner=owner,
            term=self.term,
            expires_at=now + ttl_s,
        )
        return True

    def holds_remediation_lease(self, owner):
        """True while ``owner``'s lease is live under the current term."""
        lease = self._state.remediation_lease
        return (
            not self.deposed
            and self.is_active
            and lease is not None
            and lease["owner"] == owner
            and lease["term"] == self.term
            and lease["expires_at"] > self._runtime.sim.now
        )

    def release_remediation_lease(self, owner):
        """Drop the lease if ``owner`` holds it (journaled as expiry)."""
        lease = self._state.remediation_lease
        if lease is not None and lease["owner"] == owner:
            self._record(
                "remediation-lease", owner=owner, term=self.term, expires_at=0.0
            )

    def begin_remediation(self, intent_id, action, target, **params):
        """Write-ahead log one remediation intent; returns its record.

        The entry lands *before* the first action RPC, so a manager
        recovered mid-remediation knows exactly which automated actions
        were in flight — :meth:`gc_remediations` then closes the ones
        whose lease term the promotion outran.
        """
        if intent_id not in self._state.remediations:
            self._record(
                "remediation-intent",
                intent_id=intent_id,
                action=action,
                target=target,
                params=dict(params),
                term=self.term,
            )
        return self._state.remediations[intent_id]

    def complete_remediation(self, intent_id, outcome="done"):
        """Close an intent (journaled); unknown ids are ignored."""
        record = self._state.remediations.get(intent_id)
        if record is not None and record["outcome"] is None:
            self._record("remediation-closed", intent_id=intent_id, outcome=outcome)
        return record

    def open_remediations(self):
        """Intent records not yet closed, oldest first."""
        return [
            record
            for record in self._state.remediations.values()
            if record["outcome"] is None
        ]

    def gc_remediations(self):
        """Close open intents minted under an older term; returns them.

        Called by a (re-)attaching controller after recovery or
        promotion: an intent whose lease term the current term outran
        belongs to a remediator that can no longer safely finish it —
        its partial work is repaired by the supervisor's converge pass,
        and the journal records the orphaning instead of leaving the
        intent open forever.
        """
        orphaned = []
        for record in self.open_remediations():
            if record["term"] < self.term:
                self.complete_remediation(record["intent_id"], outcome="orphaned")
                orphaned.append(record)
        return orphaned

    def remediation_status(self):
        """Plain-dict view of lease + intents, for reports.

        ``total`` counts the intents begun since the last checkpoint
        plus those still open: a checkpoint drops closed intents.
        """
        lease = self._state.remediation_lease
        open_intents = self.open_remediations()
        return {
            "lease": dict(lease) if lease is not None else None,
            "open": [record["intent_id"] for record in open_intents],
            "total": len(self._state.remediations),
        }

    def restore_components(self):
        """Generator: re-serve any registered component whose ICO died.

        An ICO is a full active object (§2.3); when its host crashes,
        the component metadata survives in the manager (and its blob in
        any host cache that already fetched it), but the server object
        is gone — and unlike instances, nothing rebuilds it short of a
        full manager recovery.  This re-creates dead ICOs — on their
        original host when it is back up, else on the manager's — so
        prepare-phase fetches work again without the manager itself
        having crashed.  Returns the restored component ids.
        """
        restored = []
        for component_id in sorted(self._state.components):
            component, ico_loid = self._state.components[component_id]
            obj = self._runtime.live_object(ico_loid)
            if obj is not None and obj.is_active:
                continue
            host_name = obj.host.name if obj is not None else None
            yield from self._restore_component(component, ico_loid, host_name)
            self._runtime.network.bus.publish(
                "ico-restored",
                self.type_name,
                ico_loid=ico_loid,
                component=component_id,
            )
            restored.append(component_id)
        return restored

    # ------------------------------------------------------------------
    # Journal replay (crash recovery)
    # ------------------------------------------------------------------

    def restore_from_journal(self, journal):
        """Generator: rebuild durable state by folding ``journal``.

        Called on a *fresh* manager object before activation (see
        :func:`~repro.core.recovery.recover_manager`).  The state is
        the fold of the reducers the live manager applied.  Then live
        instance objects and ICOs are re-linked from the runtime where
        they survived, and ICOs whose host died are re-created.
        """
        self._state = ManagerState.fold(journal.replay())
        for component, ico_loid in self._state.components.values():
            yield from self._restore_component(
                component, ico_loid, self._state.ico_hosts.get(ico_loid)
            )
        for loid, host_name in self._state.instance_hosts.items():
            self._restore_instance(loid, host_name)
        # Implementation types are derived state: recompute from the
        # instances that are still alive.
        for record in self._instances.values():
            if record.obj is not None:
                self._instance_impl_types[record.loid] = (
                    record.obj.implementation_type
                )

    def _restore_component(self, component, ico_loid, host_name):
        """Re-link (or re-create) the ICO serving ``component``."""
        obj = self._runtime.live_object(ico_loid)
        if obj is not None and obj.is_active:
            return
        # The ICO died with its host.  The component metadata (code on
        # disk) survives in the journal, so serve it again — from the
        # original host if it is back up, else from the manager's.
        host = None
        if host_name is not None and host_name in self._runtime.hosts:
            candidate = self._runtime.host(host_name)
            if candidate.is_up:
                host = candidate
        host = host or self._host
        ico = ImplementationComponentObject(
            self._runtime, ico_loid, host, component=component
        )
        yield from ico.activate()
        self._runtime.attach_object(ico)
        self._runtime.context_space.bind(
            f"/components/{self.type_name}/{component.component_id}", ico_loid
        )

    def _is_live(self, obj):
        # A DCDO still bootstrapping has no version: it is not live yet.
        return super()._is_live(obj) and obj.version is not None

    def _restore_instance(self, loid, host_name):
        """Rebuild the :class:`InstanceRecord` for a journaled instance."""
        obj = self._runtime.live_object(loid)
        host = (
            self._runtime.host(host_name)
            if host_name in self._runtime.hosts
            else self._host
        )
        if obj is not None:
            host = obj.host
        process = host.process_for(loid) if host.is_up else None
        active = self._is_live(obj) and process is not None
        self._instances[loid] = InstanceRecord(
            loid=loid,
            obj=obj,
            host=host,
            process=process,
            active=active,
            version_tag=str(obj.version) if active and obj.version else None,
        )

    def write_checkpoint(self):
        """Compact the journal: snapshot state, truncate the tail.

        The checkpoint is expressed as an equivalent minimal entry
        list, so replay needs no second code path; each instance is one
        ``instance`` entry carrying its version.

        Settled waves and closed remediation intents are forgotten
        first, in the live state as in the checkpoint: a wave that
        completed with every delivery acked and is not an open canary
        is pure history (the instance rows already record its outcome),
        and so is a closed intent (recovery's job is resume-or-GC).
        Dropping them keeps a wave from costing one replay entry per
        instance on every later recovery, so replay scales with the
        live fleet, not with the number of waves it has seen.

        The live path calls this just before a new wave starts, once
        the journal's tail outgrows the DCDO table, and before a
        :class:`~repro.core.replication.ReplicationLink` ships its
        bootstrap.
        """
        if self._journal is None:
            raise ValueError("no journal attached")
        from repro.core.recovery import JournalEntry

        state = self._state
        for version in [
            version
            for version, tracker in state.propagations.items()
            if tracker.complete
            and not tracker.aborting
            and tracker.all_acked
            and not tracker.open_canary
        ]:
            del state.propagations[version]
        for intent_id in [
            intent_id
            for intent_id, record in state.remediations.items()
            if record["outcome"] is not None
        ]:
            del state.remediations[intent_id]

        entries = []

        def add(kind, **data):
            entries.append(JournalEntry(kind, data))

        # The term leads the checkpoint: replay must outrank any older
        # primary before acting on anything else.
        add("term", number=state.term)
        for component_id in sorted(state.components):
            component, ico_loid = state.components[component_id]
            ico = self._runtime.live_object(ico_loid)
            add(
                "component",
                component=component,
                ico_loid=ico_loid,
                host_name=ico.host.name if ico is not None else None,
            )
        for version in sorted(
            state.version_tree.known_versions, key=lambda v: v.parts
        ):
            record = state.dfm_store.get(version)
            if record is not None:
                add(
                    "version-instantiable",
                    version=version,
                    parent=record.parent,
                    descriptor=record.descriptor.clone(),
                )
            else:
                add("version-created", version=version, parent=version.parent)
        if state.current_version is not None:
            add("current-version", version=state.current_version)
        for loid, record in self._instances.items():
            add(
                "instance",
                loid=loid,
                host_name=record.host.name,
                version=state.instance_versions.get(loid),
            )
        status_kinds = {
            DeliveryStatus.ACKED: "propagation-ack",
            DeliveryStatus.FAILED: "propagation-failed",
            DeliveryStatus.ROLLED_BACK: "wave-rollback",
        }
        for version, tracker in state.propagations.items():
            add(
                "propagation-started",
                version=version,
                loids=tracker.admitted,
                prior_versions=dict(tracker.prior_versions),
                wave_policy=tracker.wave_policy,
                stages=tracker.stages,
                bake_s=tracker.bake_s,
            )
            if tracker.stage_index or tracker.adopted:
                add(
                    "wave-gate",
                    version=version,
                    stage=tracker.stage_index,
                    adopted=tracker.adopted,
                )
            if tracker.abort_reason is not None:
                add("wave-aborting", version=version, reason=tracker.abort_reason)
                if not tracker.aborting:
                    # Pushed again since that abort: the re-arm cleared
                    # the flags and kept the reason.
                    add("propagation-rearmed", version=version, loids=[])
            for delivery in tracker.deliveries():
                kind = status_kinds.get(delivery.status)
                if kind is not None:
                    add(kind, version=version, loid=delivery.loid)
            if tracker.aborted:
                add("wave-aborted", version=version)
            elif tracker.complete:
                add("propagation-complete", version=version)
        if state.remediation_lease is not None:
            add("remediation-lease", **state.remediation_lease)
        for record in state.remediations.values():
            add(
                "remediation-intent",
                intent_id=record["intent_id"],
                action=record["action"],
                target=record["target"],
                params=dict(record["params"]),
                term=record["term"],
            )
        self._journal.write_checkpoint(entries)
        self._publish_journal_gauges()
        return len(entries)

    # ------------------------------------------------------------------
    # Exported manager interface
    # ------------------------------------------------------------------

    _interface = {
        **ClassObject._interface,
        "getCurrentVersion": "_m_get_current_version",
        "getVersions": "_m_get_versions",
        "updateInstance": "_m_update_instance",
        "syncInstance": "_m_sync_instance",
        "getDCDOTable": "_m_get_dcdo_table",
        "ping": "_m_ping",
    }

    def _m_ping(self, ctx):
        """Liveness probe for the failure detector; returns the term."""
        return ("pong", self._state.term)
        yield  # pragma: no cover - uniform generator shape

    def _m_get_current_version(self, ctx):
        return self._state.current_version
        yield  # pragma: no cover - uniform generator shape

    def _m_get_versions(self, ctx):
        return [(str(version), self.is_instantiable(version)) for version in self.versions()]
        yield  # pragma: no cover - uniform generator shape

    def _m_update_instance(self, ctx, loid, target_version=None):
        """§3.4 explicit update: external objects call this.

        Under the increasing-version multi-version variant, "the
        explicit update policy could be altered to allow any ready
        version number eventually derived from the DCDO's current
        version to be specified in the parameter to updateInstance()" —
        which is exactly passing ``target_version`` here.
        """
        version = yield from self.evolve_instance(loid, target_version)
        return version

    def _m_sync_instance(self, ctx, loid):
        """Lazy-update entry point: bring ``loid`` to the policy target."""
        version = yield from self.try_evolve_instance(loid)
        return version

    def _m_get_dcdo_table(self, ctx):
        return [
            (str(loid), str(version) if version else None, str(impl_type), active)
            for loid, version, impl_type, active in self.dcdo_table()
        ]
        yield  # pragma: no cover - uniform generator shape


def define_dcdo_type(
    runtime,
    type_name,
    evolution_policy=None,
    update_policy=None,
    remove_policy=None,
    host_name=None,
    journal=None,
    propagation_retry_policy=None,
    fanout_window=8,
    wave_policy=None,
):
    """Define a DCDO type in ``runtime`` and return its manager.

    The counterpart of :meth:`LegionRuntime.define_class` for DCDOs;
    the returned manager still needs components registered and a first
    version built before instances can be created.
    """

    def factory(runtime_, type_name_, host_, implementations=(), instance_factory=None):
        return DCDOManager(
            runtime_,
            type_name_,
            host_,
            implementations=implementations,
            instance_factory=instance_factory,
            evolution_policy=evolution_policy,
            update_policy=update_policy,
            remove_policy=remove_policy,
            journal=journal,
            propagation_retry_policy=propagation_retry_policy,
            fanout_window=fanout_window,
            wave_policy=wave_policy,
        )

    return runtime.define_class(type_name, class_factory=factory, host_name=host_name)
