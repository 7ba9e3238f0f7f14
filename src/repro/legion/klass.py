"""Class objects: per-type managers of normal Legion objects.

In Legion every object type has a *class object* responsible for
creating, activating, deactivating, and migrating its instances.  The
DCDO Manager (§2.4) is the DCDO model's extension of exactly this
role, so :class:`ClassObject` is written with hooks
(:meth:`_build_instance`, :meth:`_instance_created`) that
:class:`~repro.core.manager.DCDOManager` overrides.

The monolithic creation path charges the costs the paper's E3 numbers
come from: process spawn + per-function registration, with the binary
downloaded first if the host cache misses.
"""

from dataclasses import dataclass

from repro.legion.errors import ObjectDeactivated, UnknownObject
from repro.legion.loid import class_loid, mint_loid
from repro.legion.objects import LegionObject


@dataclass
class InstanceRecord:
    """What a class object knows about one of its instances."""

    loid: object
    obj: object
    host: object
    process: object
    active: bool
    version_tag: str


class ClassObject(LegionObject):
    """Manages all instances of one object type.

    Parameters
    ----------
    runtime:
        The owning runtime.
    type_name:
        The type this class object manages.
    host:
        Where the class object itself runs.
    implementations:
        Monolithic :class:`Implementation` binaries for this type, one
        per architecture (all sharing a version tag).
    instance_factory:
        ``factory(runtime, loid, host) -> LegionObject`` hook; defaults
        to a plain :class:`LegionObject`.
    """

    def __init__(
        self,
        runtime,
        type_name,
        host,
        implementations=(),
        instance_factory=None,
    ):
        super().__init__(runtime, class_loid(runtime.domain, type_name), host)
        self._type_name = type_name
        self._implementations = list(implementations)
        self._instance_factory = instance_factory or LegionObject
        self._instances = {}
        self._management_locks = {}
        self.instances_created = 0

    def management_lock(self, loid):
        """Per-instance mutex serializing management operations.

        Concurrent migrations and evolutions of one instance would
        otherwise race (e.g. an evolution RPC chasing an incarnation
        that a migration is tearing down).  The locks are deliberately
        per class-object *incarnation*, not global: a deposed
        predecessor's stuck operations must not convoy the promoted
        manager's — conflicts across incarnations are resolved by term
        fencing at the instance, and :meth:`recover_instance` adopts an
        incarnation a racing rebuild already brought up.
        """
        from repro.sim import Semaphore

        lock = self._management_locks.get(loid)
        if lock is None:
            lock = self._management_locks[loid] = Semaphore(
                self.sim, permits=1, name=f"mgmt:{loid}"
            )
        return lock

    @property
    def type_name(self):
        """The managed type's name."""
        return self._type_name

    @property
    def implementations(self):
        """Current monolithic implementations (one per architecture)."""
        return list(self._implementations)

    @property
    def current_version_tag(self):
        """Version tag of the current implementation set."""
        if not self._implementations:
            return None
        return self._implementations[0].version_tag

    def set_implementations(self, implementations):
        """Install a new implementation set (a new type version)."""
        implementations = list(implementations)
        if not implementations:
            raise ValueError("a class needs at least one implementation")
        self._implementations = implementations

    # ------------------------------------------------------------------
    # Instance table
    # ------------------------------------------------------------------

    def record(self, loid):
        """Return the :class:`InstanceRecord` for ``loid``.

        Raises :class:`UnknownObject` if this class does not manage it.
        """
        record = self._instances.get(loid)
        if record is None:
            raise UnknownObject(f"{self._type_name} class manages no instance {loid}")
        return record

    def instance_loids(self):
        """LOIDs of all managed instances, in creation order."""
        return list(self._instances)

    def active_instances(self):
        """Records of currently active instances."""
        return [record for record in self._instances.values() if record.active]

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    def _pick_host(self, host_name):
        if host_name is not None:
            return self._runtime.host(host_name)
        # Simple placement: fewest processes first, stable by name.
        hosts = sorted(
            self._runtime.hosts.values(),
            key=lambda host: (len(host.processes), host.name),
        )
        return hosts[0]

    def _implementation_for(self, host):
        """The monolithic implementation matching ``host``."""
        return self._runtime.implementation_store.find_for_host(
            [implementation.impl_id for implementation in self._implementations], host
        )

    def _build_instance(self, loid, host):
        """Generator hook: construct and populate the instance object.

        The monolithic path downloads the binary if uncached, then
        registers every member function at the calibrated per-function
        cost.  Returns (obj, version_tag).
        """
        implementation = self._implementation_for(host)
        yield from self._runtime.implementation_store.ensure_cached(
            host, implementation.impl_id, self._endpoint
        )
        obj = self._instance_factory(self._runtime, loid, host)
        for name, body in implementation.functions.items():
            obj.register_method(name, body)
        yield host.cpu_work(
            len(implementation.functions) * self.calibration.function_register_s
        )
        return obj, implementation.version_tag

    def _instance_created(self, record):
        """Hook: called after an instance is created and active."""

    def create_instance(self, host_name=None, state=None, state_bytes=0):
        """Generator: create and activate a new instance.

        Returns the new instance's LOID.  Cost: (optional) binary
        download + process spawn + member-function registration +
        binding registration.
        """
        host = self._pick_host(host_name)
        loid = mint_loid(self._runtime.domain, self._type_name)
        process = yield from host.spawn_process(loid)
        obj, version_tag = yield from self._build_instance(loid, host)
        if state is not None:
            obj.restore_state(state)
        obj.state_bytes = max(obj.state_bytes, state_bytes)
        if not obj.is_active:
            yield from obj.activate()
        record = InstanceRecord(
            loid=loid,
            obj=obj,
            host=host,
            process=process,
            active=True,
            version_tag=version_tag,
        )
        self._instances[loid] = record
        self._runtime.attach_object(obj)
        self.instances_created += 1
        self._instance_created(record)
        self._runtime.network.bus.publish(
            "instance-created", loid, host=host.name, version=version_tag
        )
        return loid

    # ------------------------------------------------------------------
    # Deactivation / activation / migration
    # ------------------------------------------------------------------

    def deactivate_instance(self, loid):
        """Generator: stop an instance, capturing state to its vault."""
        record = self.record(loid)
        if not record.active:
            return
        state, size_bytes = record.obj.capture_state()
        calibration = self.calibration
        yield self.sim.timeout(
            calibration.state_fixed_s + size_bytes / calibration.state_capture_bps
        )
        vault = self._runtime.vault_of(record.host)
        yield from vault.store(loid, state, size_bytes)
        record.obj.deactivate()
        record.process.kill()
        record.active = False

    def activate_instance(self, loid, host_name=None):
        """Generator: reactivate a deactivated instance.

        If ``host_name`` names a different host, the OPR is transferred
        there first (this is the second half of migration).  Returns
        the new binding.
        """
        record = self.record(loid)
        if record.active:
            raise ValueError(f"instance {loid} is already active")
        source_vault = self._runtime.vault_of(record.host)
        target_host = self._runtime.host(host_name) if host_name else record.host
        opr = yield from source_vault.load(loid)
        if target_host is not record.host:
            # Ship the OPR across the network to the target's vault.
            yield from self._transfer_opr(record.host, target_host, opr)
            source_vault.discard(loid)
            record.host = target_host
        process = yield from target_host.spawn_process(loid)
        obj, version_tag = yield from self._build_instance(loid, target_host)
        obj.restore_state(opr.state)
        obj.state_bytes = opr.size_bytes
        calibration = self.calibration
        yield self.sim.timeout(
            calibration.state_fixed_s + opr.size_bytes / calibration.state_restore_bps
        )
        binding = yield from obj.activate()
        record.obj = obj
        record.process = process
        record.active = True
        record.version_tag = version_tag
        self._runtime.attach_object(obj)
        return binding

    def recover_instance(self, loid, host_name=None):
        """Generator: bring back an instance lost to a host crash.

        Unlike :meth:`activate_instance`, this tolerates a missing OPR:
        a crash (as opposed to a clean deactivation) captured nothing,
        so the instance rebuilds from its implementation at its
        recorded version and loses volatile state — fail-stop
        semantics.  If the vault does hold an OPR (a deactivation or
        checkpoint preceded the crash), state is restored from it.

        Only the authority rebuilds: a class object that is not active
        or no longer the type's registered one raises
        :class:`ObjectDeactivated` before it starts.

        Returns the new binding.
        """
        lock = self.management_lock(loid)
        yield lock.acquire()
        try:
            self._require_authority()
            record = self.record(loid)
            if record.active:
                raise ValueError(f"instance {loid} is already active")
            live = self._runtime.live_object(loid)
            if self._is_live(live):
                # Another class-object incarnation already rebuilt this
                # instance (recovery racing a manager promotion): adopt
                # the live incarnation instead of rebuilding over it.
                record.obj = live
                record.host = live.host
                record.process = live.host.process_for(loid)
                record.active = True
                version = getattr(live, "version", None)
                record.version_tag = str(version) if version else None
                return live._binding
            target_host = (
                self._runtime.host(host_name) if host_name else record.host
            )
            vault = self._runtime.vault_of(record.host)
            opr = None
            if vault.holds(loid):
                opr = yield from vault.load(loid)
                if target_host is not record.host:
                    yield from self._transfer_opr(record.host, target_host, opr)
                    vault.discard(loid)
            record.host = target_host
            process = yield from target_host.spawn_process(loid)
            try:
                obj, version_tag = yield from self._build_instance(
                    loid, target_host
                )
            except Exception:
                process.kill()
                raise
            if opr is not None:
                obj.restore_state(opr.state)
                obj.state_bytes = opr.size_bytes
                calibration = self.calibration
                yield self.sim.timeout(
                    calibration.state_fixed_s
                    + opr.size_bytes / calibration.state_restore_bps
                )
            binding = yield from obj.activate()
            record.obj = obj
            record.process = process
            record.active = True
            record.version_tag = version_tag
            self._runtime.attach_object(obj)
        finally:
            lock.release()
        if self._invoker is not None:
            # Our own next management RPC must not chase the dead
            # incarnation's address through the whole timeout schedule.
            self._invoker.binding_cache.put(binding)
        self._runtime.network.count("instance.recoveries")
        self._runtime.network.bus.publish(
            "instance-recovered",
            loid,
            host=record.host.name,
            from_opr=opr is not None,
        )
        return binding

    def _require_authority(self):
        """Raise unless this incarnation may build instances of its type:
        it is active and still the type's registered class object."""
        if not self.is_active or self._runtime.class_of(self._type_name) is not self:
            raise ObjectDeactivated(
                f"{self} is not the authority for {self._type_name!r}"
            )

    def _is_live(self, obj):
        """Hook: True when ``obj`` is an incarnation to keep, not rebuild."""
        return obj is not None and obj.is_active and obj.host.is_up

    def _transfer_opr(self, source_host, target_host, opr):
        """Generator: move an OPR between vaults over the network."""
        yield self.sim.timeout(self._runtime.network.transfer_time(opr.size_bytes))
        target_vault = self._runtime.vault_of(target_host)
        yield from target_vault.store(opr.loid, opr.state, opr.size_bytes)

    def migrate_instance(self, loid, target_host_name):
        """Generator: move an instance to another host.

        Deactivate (capture state), transfer the OPR, re-create the
        process on the target, restore, re-bind.  Existing client
        bindings become stale.
        """
        lock = self.management_lock(loid)
        yield lock.acquire()
        try:
            source_host = self.record(loid).host.name
            yield from self.deactivate_instance(loid)
            binding = yield from self.activate_instance(loid, host_name=target_host_name)
        finally:
            lock.release()
        if self._invoker is not None:
            # The class object minted this binding itself: seed its own
            # invoker cache so its next management RPC to the moved
            # instance doesn't pay the stale-binding timeout walk
            # against the old address.  Other clients still discover
            # the move the hard way (§4's stale-binding cost).
            self._invoker.binding_cache.put(binding)
        record = self.record(loid)
        self._notify_migrated(record)
        self._runtime.network.bus.publish(
            "instance-migrated",
            loid,
            source=source_host,
            target=record.host.name,
        )
        return binding

    def _notify_migrated(self, record):
        """Hook: called after an instance migrated (DCDO policies use it)."""

    def delete_instance(self, loid):
        """Generator: destroy an instance and its OPR."""
        record = self.record(loid)
        if record.active:
            record.obj.deactivate()
            record.process.kill()
        self._runtime.vault_of(record.host).discard(loid)
        self._runtime.binding_agent.unregister(loid)
        del self._instances[loid]
        return None
        yield  # pragma: no cover - uniform generator shape

    # ------------------------------------------------------------------
    # Remote management interface
    # ------------------------------------------------------------------

    _interface = {
        "createInstance": "_m_create_instance",
        "deactivateInstance": "_m_deactivate_instance",
        "activateInstance": "_m_activate_instance",
        "migrateInstance": "_m_migrate_instance",
        "deleteInstance": "_m_delete_instance",
        "getInstances": "_m_get_instances",
        "getCurrentVersionTag": "_m_get_version_tag",
    }

    def _m_create_instance(self, ctx, host_name=None):
        loid = yield from self.create_instance(host_name=host_name)
        return loid

    def _m_deactivate_instance(self, ctx, loid):
        yield from self.deactivate_instance(loid)
        return True

    def _m_activate_instance(self, ctx, loid, host_name=None):
        binding = yield from self.activate_instance(loid, host_name=host_name)
        return binding

    def _m_migrate_instance(self, ctx, loid, target_host_name):
        binding = yield from self.migrate_instance(loid, target_host_name)
        return binding

    def _m_delete_instance(self, ctx, loid):
        yield from self.delete_instance(loid)
        return True

    def _m_get_instances(self, ctx):
        return [
            (record.loid, record.active, record.version_tag)
            for record in self._instances.values()
        ]
        yield  # pragma: no cover - uniform generator shape

    def _m_get_version_tag(self, ctx):
        return self.current_version_tag
        yield  # pragma: no cover - uniform generator shape

    def require_active(self, loid):
        """Return the active instance object, or raise.

        Raises :class:`ObjectDeactivated` when the instance exists but
        is not running anywhere.
        """
        record = self.record(loid)
        if not record.active:
            raise ObjectDeactivated(f"instance {loid} is deactivated")
        return record.obj
