"""The dynamic function mapper (§2).

"A DFM contains an entry for every dynamic function that is currently
contained in the object, and keeps track of whether the function is
exported or internal, and whether it is currently enabled or disabled.
A DFM serves as a centralized table through which all calls to dynamic
functions must go."

This is the live, per-DCDO structure: unlike a DFM descriptor it holds
the actual function bodies (the mapped-in code) and the per-function
active thread counters used for thread activity monitoring (§3.2).

Every DCDO owns one, so a fleet holds as many DFMs as instances, and
the DFM keeps one table and one index:

- **The table** maps each incorporated component to its
  :class:`IncorporatedComponent`, whose ``entries`` map each function
  the component implements to its :class:`DFMEntry`.  *Table order* is
  component incorporation order, and within a component the order of
  the component's functions: a component that is removed and added
  again goes to the end.  Every walk of the DFM (``entries_for``,
  ``to_descriptor``, ``apply_entry_states``) follows it.
- **The enabled-entry index** maps a function to its enabled entry, so
  :meth:`DynamicFunctionMapper.lookup` is one dict probe.  When a
  commit briefly enables two implementations of one function, the
  later one in table order serves the calls.

Markings, pins and dependencies sit beside them.  Nothing else is
kept per function; the per-function accessors walk the table's
components, of which a DCDO holds a handful.
"""

from dataclasses import dataclass

from repro.core import validation
from repro.core.descriptor import DescriptorEntry, DFMDescriptor
from repro.core.errors import (
    ComponentNotIncorporated,
    FunctionNotEnabled,
    FunctionNotExported,
)
from repro.core.functions import Marking


def _pack_flags(entry):
    """An entry's (enabled, exported) flags as a small int (0-3)."""
    return (2 if entry.exported else 0) | (1 if entry.enabled else 0)


def _unpack_flags(flags):
    """The (enabled, exported) pair packed by :func:`_pack_flags`."""
    return bool(flags & 1), bool(flags & 2)


@dataclass(slots=True)
class DFMEntry:
    """One function implementation mapped into a DCDO."""

    function: str
    component_id: str
    function_def: object
    enabled: bool = False
    exported: bool = True
    active_threads: int = 0
    calls: int = 0


class IncorporatedComponent:
    """A component currently mapped into a DCDO's address space.

    ``entries`` is the component's row of the DFM's table: function
    name -> :class:`DFMEntry`, in the order of the component's
    functions.
    """

    __slots__ = ("component", "variant", "entries", "_private_state")

    def __init__(self, component, variant, entries):
        self.component = component
        self.variant = variant
        self.entries = entries
        self._private_state = None

    @property
    def private_state(self):
        """Private per-object data for the component's internal
        structures (§2: "these data structures must be accessed from
        outside the component by calling the component's exported
        dynamic functions"), built on first use."""
        state = self._private_state
        if state is None:
            state = self._private_state = {}
        return state


class DynamicFunctionMapper:
    """The per-object dispatch table for dynamic functions."""

    __slots__ = (
        "_components",
        "_enabled_index",
        "_markings",
        "_pins",
        "_dependencies",
        "_epoch",
        "total_calls",
    )

    def __init__(self):
        # The table: component id -> IncorporatedComponent, whose
        # ``entries`` map function -> DFMEntry (see the module
        # docstring for table order).
        self._components = {}
        # function -> its (single) enabled entry; the hot-path index
        # that makes lookup O(1) regardless of table size.
        self._enabled_index = {}
        self._markings = {}
        self._pins = {}
        # A tuple: a DFM with none shares the empty one.
        self._dependencies = ()
        # Monotonically increasing configuration epoch, bumped on every
        # mutation; piggybacked on replies so clients' interface leases
        # can validate cheaply (and invalidate promptly).
        self._epoch = 0
        self.total_calls = 0

    @property
    def epoch(self):
        """The current configuration epoch."""
        return self._epoch

    def _bump(self):
        self._epoch += 1

    def _reindex(self, function):
        """Point the enabled-entry index at ``function``'s enabled entry.

        A commit briefly enables two implementations of one function
        (the flip enables the new one before the old component is
        removed); the later one in table order then serves the calls.
        """
        chosen = None
        for incorporated in self._components.values():
            entry = incorporated.entries.get(function)
            if entry is not None and entry.enabled:
                chosen = entry
        if chosen is None:
            self._enabled_index.pop(function, None)
        else:
            self._enabled_index[function] = chosen

    # ------------------------------------------------------------------
    # State-protocol accessors (shared validation, see core.validation)
    # ------------------------------------------------------------------

    @property
    def component_ids(self):
        """Set of incorporated component ids."""
        return set(self._components)

    def has_component(self, component_id):
        """True if ``component_id`` is incorporated."""
        return component_id in self._components

    @property
    def dependencies(self):
        """Declared dependencies (list copy)."""
        return list(self._dependencies)

    def entry(self, function, component_id):
        """The entry for (function, component) or None."""
        incorporated = self._components.get(component_id)
        if incorporated is None:
            return None
        return incorporated.entries.get(function)

    def entries_for(self, function):
        """All entries implementing ``function``, in table order."""
        found = []
        for incorporated in self._components.values():
            entry = incorporated.entries.get(function)
            if entry is not None:
                found.append(entry)
        return found

    def entries_in(self, component_id):
        """All entries implemented by ``component_id``, in table order."""
        incorporated = self._components.get(component_id)
        if incorporated is None:
            return []
        return list(incorporated.entries.values())

    def is_enabled(self, function, component_id):
        """True if that particular implementation is enabled."""
        entry = self.entry(function, component_id)
        return entry is not None and entry.enabled

    def enabled_components_of(self, function):
        """Component ids with an enabled implementation of ``function``."""
        enabled = set()
        for component_id, incorporated in self._components.items():
            entry = incorporated.entries.get(function)
            if entry is not None and entry.enabled:
                enabled.add(component_id)
        return enabled

    def marking(self, function):
        """The function's marking (FULLY_DYNAMIC by default)."""
        return self._markings.get(function, Marking.FULLY_DYNAMIC)

    def markings_items(self):
        """(function, marking) pairs for non-default markings."""
        return list(self._markings.items())

    def pin(self, function):
        """The permanent pin for ``function``, or None."""
        return self._pins.get(function)

    # ------------------------------------------------------------------
    # Introspection (status-reporting support, §2.2)
    # ------------------------------------------------------------------

    def component(self, component_id):
        """The :class:`IncorporatedComponent` or raise."""
        incorporated = self._components.get(component_id)
        if incorporated is None:
            raise ComponentNotIncorporated(f"component {component_id!r} is not incorporated")
        return incorporated

    def function_names(self):
        """Sorted names of all mapped functions."""
        names = set()
        for incorporated in self._components.values():
            names.update(incorporated.entries)
        return sorted(names)

    def exported_interface(self):
        """Sorted names of enabled, exported functions.

        Walks the enabled-entry index (at most one enabled entry per
        function), so the cost is O(enabled functions) rather than
        O(table entries) — this sits on the ``getInterface``/
        ``getStatus`` path every defensive client hits.
        """
        return sorted(
            function
            for function, entry in self._enabled_index.items()
            if entry.exported
        )

    def entry_count(self):
        """Total number of (function, component) entries."""
        count = 0
        for incorporated in self._components.values():
            count += len(incorporated.entries)
        return count

    def active_threads_in(self, component_id):
        """Sum of active thread counts across a component's functions."""
        return sum(entry.active_threads for entry in self.entries_in(component_id))

    def functions_depending_on(self, function, component_id=None):
        """Names of enabled dependents of the given function/impl.

        Used with thread monitoring: "if function F1 depends on F2, and
        a thread is executing in F1, then the DCDO can postpone any
        request to disable F2 until the active thread count for F1 ...
        goes to zero" (§3.2).
        """
        dependents = set()
        for dependency in self._dependencies:
            if dependency.required_function != function:
                continue
            if (
                dependency.required_component is not None
                and component_id is not None
                and dependency.required_component != component_id
            ):
                continue
            dependents.add(dependency.dependent_function)
        return dependents

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def lookup(self, function, external=False):
        """Resolve a call: return the enabled entry for ``function``.

        This is the single level of indirection every dynamic-function
        call pays.  ``external`` marks calls arriving from other
        objects, which additionally require the function be exported.

        Raises :class:`FunctionNotEnabled` when no enabled
        implementation exists and :class:`FunctionNotExported` for
        external calls to internal functions.
        """
        chosen = self._enabled_index.get(function)
        if chosen is None:
            raise FunctionNotEnabled(function)
        if external and not chosen.exported:
            raise FunctionNotExported(function)
        return chosen

    def enter(self, entry):
        """Record a thread entering the function (§3.2 monitoring)."""
        entry.active_threads += 1
        entry.calls += 1
        self.total_calls += 1

    def leave(self, entry):
        """Record a thread leaving the function."""
        if entry.active_threads <= 0:
            raise RuntimeError(f"thread count underflow for {entry.function!r}")
        entry.active_threads -= 1

    # ------------------------------------------------------------------
    # Mutation (called by the DCDO's configuration functions, which
    # charge the simulated costs and apply removal policies first)
    # ------------------------------------------------------------------

    def add_component(self, component, variant, validate=True):
        """Map a component in: create (disabled) entries for its functions.

        ``validate=False`` skips the marking-conflict check during
        atomic descriptor application (the final state is validated
        instead); presence is still enforced.
        """
        if validate:
            validation.check_can_incorporate(self, component)
        elif component.component_id in self._components:
            from repro.core.errors import ComponentAlreadyIncorporated

            raise ComponentAlreadyIncorporated(
                f"component {component.component_id!r} is already incorporated"
            )
        component_id = component.component_id
        entries = {}
        for name, function_def in component.functions.items():
            entries[name] = DFMEntry(
                name, component_id, function_def, False, function_def.exported
            )
        self._components[component_id] = IncorporatedComponent(
            component, variant, entries
        )
        for name, demanded in component.required_markings.items():
            self._markings[name] = (
                demanded
                if demanded.at_least(self.marking(name))
                else self.marking(name)
            )
            if demanded is Marking.PERMANENT:
                self._pins[name] = component.component_id
        for dependency in component.declared_dependencies:
            if dependency not in self._dependencies:
                self._dependencies += (dependency,)
        # New entries start disabled: the enabled-entry index is unchanged.
        self._bump()

    def remove_component(self, component_id, validate=True):
        """Unmap a component (thread checks are the caller's job).

        ``validate=False`` is used by atomic descriptor application,
        where the *final* state has already been validated and
        intermediate states may legitimately violate invariants.
        """
        if validate:
            surviving = validation.check_can_remove_component(self, component_id)
        else:
            if component_id not in self._components:
                raise ComponentNotIncorporated(
                    f"component {component_id!r} is not incorporated"
                )
            surviving = [
                dependency
                for dependency in self._dependencies
                if dependency.dependent_component != component_id
            ]
        self._dependencies = tuple(surviving)
        for name in self._components.pop(component_id).entries:
            self._reindex(name)
        self._bump()

    def enable(self, function, component_id, replace_current=False):
        """Enable one implementation (validated).

        With ``replace_current``, atomically swaps out the currently
        enabled implementation — legal for mandatory functions (some
        implementation stays enabled throughout) but not permanent
        ones.
        """
        others = self.enabled_components_of(function) - {component_id}
        if replace_current and others:
            if self.entry(function, component_id) is None:
                raise ComponentNotIncorporated(
                    f"no implementation of {function!r} in component {component_id!r}"
                )
            pinned = self.pin(function)
            if pinned is not None and pinned != component_id:
                from repro.core.errors import PermanenceViolation

                raise PermanenceViolation(
                    f"{function!r} is permanently pinned to component {pinned!r}"
                )
            saved = []
            for other in others:
                entry = self.entry(function, other)
                saved.append((entry, entry.enabled))
                entry.enabled = False
            entry = self.entry(function, component_id)
            saved.append((entry, entry.enabled))
            entry.enabled = True
            from repro.core.dependency import check_dependencies

            try:
                check_dependencies(
                    self._dependencies, self.is_enabled, self.enabled_components_of
                )
            except Exception:
                for entry, was_enabled in saved:
                    entry.enabled = was_enabled
                raise
            finally:
                self._reindex(function)
            self._bump()
            return
        validation.check_can_enable(self, function, component_id)
        entry = self.entry(function, component_id)
        entry.enabled = True
        self._enabled_index[function] = entry
        self._bump()

    def disable(self, function, component_id, enforce_dependencies=True):
        """Disable one implementation (validated).

        Threads already executing inside the function are unaffected:
        "there is no reason why a thread cannot proceed inside a
        deactivated function ... it only matters what the status of
        the function is at the time the call is initiated" (§3.2).

        ``enforce_dependencies=False`` is the thread-monitoring mode:
        the caller has already drained dependents' active threads, so
        the static dependency veto is waived.
        """
        validation.check_can_disable(
            self, function, component_id, enforce_dependencies=enforce_dependencies
        )
        self.entry(function, component_id).enabled = False
        self._enabled_index.pop(function, None)
        self._bump()

    def set_exported(self, function, component_id, exported):
        """Move a function between public and private interfaces."""
        entry = self.entry(function, component_id)
        if entry is None:
            raise ComponentNotIncorporated(
                f"no implementation of {function!r} in component {component_id!r}"
            )
        entry.exported = exported
        self._bump()

    def mark_mandatory(self, function):
        """Mark ``function`` mandatory in this live DFM."""
        if not self.marking(function).at_least(Marking.MANDATORY):
            self._markings[function] = Marking.MANDATORY
            self._bump()

    def mark_permanent(self, function, component_id):
        """Mark ``function`` permanent, pinned to ``component_id``."""
        from repro.core.errors import PermanenceViolation

        existing = self._pins.get(function)
        if existing is not None and existing != component_id:
            raise PermanenceViolation(
                f"{function!r} is already permanently pinned to {existing!r}"
            )
        self._markings[function] = Marking.PERMANENT
        self._pins[function] = component_id
        self._bump()

    def add_dependency(self, dependency):
        """Declare a dependency; current state must satisfy it."""
        from repro.core.dependency import check_dependencies

        check_dependencies(
            self._dependencies + (dependency,), self.is_enabled, self.enabled_components_of
        )
        self._dependencies += (dependency,)
        self._bump()

    def remove_dependency(self, dependency):
        """Retract a declared dependency."""
        if dependency in self._dependencies:
            dependencies = list(self._dependencies)
            dependencies.remove(dependency)
            self._dependencies = tuple(dependencies)
            self._bump()

    def adopt_restrictions(self, descriptor):
        """Copy markings, pins, and dependencies from a descriptor."""
        self._markings = dict(
            (function, marking) for function, marking in descriptor.markings_items()
        )
        self._pins = {
            function: descriptor.pin(function)
            for function, __ in descriptor.markings_items()
            if descriptor.pin(function) is not None
        }
        self._dependencies = tuple(descriptor.dependencies)
        self._bump()

    def apply_entry_states(self, descriptor, undo=None):
        """Set enabled/exported per the descriptor; returns change count.

        Only touches (function, component) pairs present in both; the
        component add/remove steps are the DCDO's job because they
        carry real (download/link) costs.  With an ``undo`` log (see
        :meth:`record_entry_states`), each entry's flags are logged
        before they first change.
        """
        changes = 0
        for component_id, incorporated in self._components.items():
            for function, entry in incorporated.entries.items():
                target = descriptor.entry(function, component_id)
                if target is None:
                    continue
                if entry.enabled != target.enabled or entry.exported != target.exported:
                    if undo is not None:
                        key = (function, component_id)
                        if key not in undo:
                            undo[key] = _pack_flags(entry)
                    entry.enabled = target.enabled
                    entry.exported = target.exported
                    self._reindex(function)
                    changes += 1
        if changes:
            self._bump()
        return changes

    # ------------------------------------------------------------------
    # Undo-log support (transactional evolution)
    # ------------------------------------------------------------------

    def record_entry_states(self, component_id, undo):
        """Log the flags of ``component_id``'s entries in ``undo``.

        ``undo`` maps an entry's ``(function, component_id)`` key to its
        packed flags, as they were before the transaction changed them.
        A DCDO logs a component's entries before removing it, because
        re-adding the component on rollback brings its entries back
        disabled; :meth:`apply_entry_states` logs the entries it flips.
        Entries already logged keep their first flags.
        """
        incorporated = self._components.get(component_id)
        if incorporated is None:
            return
        for function, entry in incorporated.entries.items():
            key = (function, component_id)
            if key not in undo:
                undo[key] = _pack_flags(entry)

    def restore_entry_states(self, undo):
        """Reinstate the flags logged in ``undo``.

        Entries that no longer exist are skipped (the caller re-adds
        their components first when full restoration is needed).
        """
        changed = False
        for (function, component_id), flags in undo.items():
            entry = self.entry(function, component_id)
            if entry is None:
                continue
            enabled, exported = _unpack_flags(flags)
            if entry.enabled != enabled or entry.exported != exported:
                entry.enabled = enabled
                entry.exported = exported
                self._reindex(entry.function)
                changed = True
        if changed:
            self._bump()

    def restrictions_snapshot(self):
        """Capture markings, pins, and dependencies for rollback."""
        return (dict(self._markings), dict(self._pins), self._dependencies)

    def restore_restrictions(self, snapshot):
        """Reinstate a :meth:`restrictions_snapshot` capture."""
        markings, pins, dependencies = snapshot
        self._markings = dict(markings)
        self._pins = dict(pins)
        self._dependencies = tuple(dependencies)
        self._bump()

    def to_descriptor(self):
        """Snapshot this DFM as a :class:`DFMDescriptor` (for diffing)."""
        descriptor = DFMDescriptor()
        for component_id, incorporated in self._components.items():
            descriptor._component_refs[component_id] = None  # refs live in the manager
            for function, entry in incorporated.entries.items():
                descriptor._entries[(function, component_id)] = DescriptorEntry(
                    function=function,
                    component_id=component_id,
                    enabled=entry.enabled,
                    exported=entry.exported,
                )
        descriptor._markings = dict(self._markings)
        descriptor._pins = dict(self._pins)
        descriptor._dependencies = list(self._dependencies)
        return descriptor
