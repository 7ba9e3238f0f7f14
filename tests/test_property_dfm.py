"""Property-based tests: DFM / descriptor invariants under random
operation sequences (hypothesis).

Invariants checked after every accepted operation:

- at most one enabled implementation per function name;
- markings are monotone (never weakened);
- a permanent pin always refers to an incorporated component whose
  implementation of the function is enabled (once consistent).

Dependency closure is deliberately NOT a per-operation invariant on
descriptors — they are staging areas (§2.4); it IS guaranteed whenever
``validate_instantiable`` passes, which the last property checks.

The second part checks the live :class:`DynamicFunctionMapper`, which
keeps one table in a configuration it shares with every DFM configured
alike, against the mapper as it stood with three overlapping tables of
its own: ``_entries`` keyed by ``(function, component)``,
``_by_component`` holding the same entries in the same table order,
and ``_by_function`` with a dict per function, beside the
enabled-entry index.  That oracle is copied below unchanged; only the
harness reads its counts from its entries and the live DFM's through
the per-instance accessors.  Random
programs over components that share function names add and remove
components (validated and not), enable and disable (valid and
refused), move functions between interfaces, flip entry states against
descriptors that name components the DFM lacks and omit components it
holds (with and without an undo log), log and restore entry states,
snapshot, adopt and restore restrictions, and enter and leave
functions.  After every step both mappers must agree on: every
function's lookup (internal and external, or the exception type), the
order of ``entries_for`` and ``entries_in``, ``entry_count``,
``component_ids``, ``exported_interface``, ``epoch``, the change
counts, the undo logs, and the entries of ``to_descriptor`` in order.
A refused step must raise the same exception type in both.  The same
check runs on three live DFMs that take the same steps and then
diverge, each against its own oracle, so that a step on one DFM never
changes what another sees.
"""

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ComponentBuilder,
    DCDOError,
    Dependency,
    DFMDescriptor,
    Marking,
    validation,
)
from repro.core import dfm as live
from repro.core.dependency import check_dependencies
from repro.core.descriptor import DescriptorEntry
from repro.core.errors import (
    ComponentNotIncorporated,
    FunctionNotEnabled,
    FunctionNotExported,
)

COMPONENT_IDS = ("ca", "cb", "cc")
FUNCTIONS = ("f1", "f2", "f3")


def build_component(component_id, function_names):
    builder = ComponentBuilder(component_id)
    for name in function_names:
        builder.function(name, lambda ctx: name)
    return builder.build()


# Each operation is a tagged tuple decoded by apply_operation.
operations = st.one_of(
    st.tuples(st.just("incorporate"), st.sampled_from(COMPONENT_IDS)),
    st.tuples(st.just("remove"), st.sampled_from(COMPONENT_IDS)),
    st.tuples(
        st.just("enable"),
        st.sampled_from(FUNCTIONS),
        st.sampled_from(COMPONENT_IDS),
        st.booleans(),  # replace_current
    ),
    st.tuples(
        st.just("disable"), st.sampled_from(FUNCTIONS), st.sampled_from(COMPONENT_IDS)
    ),
    st.tuples(st.just("mark_mandatory"), st.sampled_from(FUNCTIONS)),
    st.tuples(st.just("mark_permanent"), st.sampled_from(FUNCTIONS)),
    st.tuples(
        st.just("add_dependency"),
        st.sampled_from(FUNCTIONS),
        st.sampled_from(FUNCTIONS),
        st.sampled_from((None,) + COMPONENT_IDS),
        st.sampled_from((None,) + COMPONENT_IDS),
    ),
    st.tuples(
        st.just("set_exported"),
        st.sampled_from(FUNCTIONS),
        st.sampled_from(COMPONENT_IDS),
        st.booleans(),
    ),
)


def apply_operation(descriptor, operation):
    """Apply one random operation; DCDO errors mean 'rejected', which
    is fine — the point is that accepted operations keep invariants."""
    kind = operation[0]
    try:
        if kind == "incorporate":
            descriptor.incorporate(
                build_component(operation[1], FUNCTIONS), ico_loid=f"ico:{operation[1]}"
            )
        elif kind == "remove":
            descriptor.remove_component(operation[1])
        elif kind == "enable":
            descriptor.enable(operation[1], operation[2], replace_current=operation[3])
        elif kind == "disable":
            descriptor.disable(operation[1], operation[2])
        elif kind == "mark_mandatory":
            descriptor.mark_mandatory(operation[1])
        elif kind == "mark_permanent":
            descriptor.mark_permanent(operation[1])
        elif kind == "add_dependency":
            descriptor.add_dependency(
                Dependency(
                    dependent_function=operation[1],
                    required_function=operation[2],
                    dependent_component=operation[3],
                    required_component=operation[4],
                )
            )
        elif kind == "set_exported":
            descriptor.set_exported(operation[1], operation[2], operation[3])
    except DCDOError:
        return False
    return True


def assert_invariants(descriptor, marking_history):
    # At most one enabled implementation per function.
    for function in FUNCTIONS:
        assert len(descriptor.enabled_components_of(function)) <= 1, function
    # Markings are monotone.
    for function in FUNCTIONS:
        current = descriptor.marking(function)
        previous = marking_history.get(function, Marking.FULLY_DYNAMIC)
        assert current.at_least(previous), (function, previous, current)
        marking_history[function] = current
    # Permanent pins point at enabled implementations of incorporated
    # components.
    for function, marking in descriptor.markings_items():
        if marking is Marking.PERMANENT:
            pinned = descriptor.pin(function)
            assert pinned is not None
            if pinned in descriptor.component_ids:
                assert descriptor.is_enabled(function, pinned)


@settings(max_examples=120, deadline=None)
@given(st.lists(operations, min_size=1, max_size=40))
def test_random_operation_sequences_preserve_invariants(sequence):
    descriptor = DFMDescriptor()
    marking_history = {}
    for operation in sequence:
        apply_operation(descriptor, operation)
        assert_invariants(descriptor, marking_history)


@settings(max_examples=80, deadline=None)
@given(st.lists(operations, min_size=1, max_size=30))
def test_clone_equals_original_and_diverges_safely(sequence):
    descriptor = DFMDescriptor()
    for operation in sequence:
        apply_operation(descriptor, operation)
    clone = descriptor.clone()
    assert descriptor.functionally_equivalent(clone)
    # Mutating the clone never affects the original.
    apply_operation(clone, ("incorporate", "ca"))
    apply_operation(clone, ("enable", "f1", "ca", True))
    snapshot = {
        function: descriptor.enabled_components_of(function) for function in FUNCTIONS
    }
    for function in FUNCTIONS:
        assert descriptor.enabled_components_of(function) == snapshot[function]


@settings(max_examples=80, deadline=None)
@given(st.lists(operations, min_size=1, max_size=30), st.lists(operations, max_size=30))
def test_diff_apply_reaches_target_state(base_ops, extra_ops):
    """diff(a, b) carries everything needed to reconstruct b's
    enabled/exported map from a (the property evolution relies on)."""
    from repro.core import diff_descriptors

    base = DFMDescriptor()
    for operation in base_ops:
        apply_operation(base, operation)
    target = base.clone()
    for operation in extra_ops:
        apply_operation(target, operation)
    diff = diff_descriptors(base, target)
    # Reconstruct: start from base, apply the diff structurally.
    rebuilt = base.clone()
    for component_id in diff.components_to_remove:
        rebuilt._entries = {
            key: entry
            for key, entry in rebuilt._entries.items()
            if entry.component_id != component_id
        }
        rebuilt._component_refs.pop(component_id, None)
    for ref in diff.components_to_add:
        rebuilt._component_refs[ref.component_id] = ref
        for key, entry in diff.target._entries.items():
            if entry.component_id == ref.component_id:
                rebuilt._entries[key] = entry
    for key, entry in diff.target._entries.items():
        rebuilt._entries[key] = entry
    assert rebuilt.component_ids == target.component_ids
    assert rebuilt._entries == target._entries


@settings(max_examples=60, deadline=None)
@given(st.lists(operations, min_size=1, max_size=30))
def test_validate_instantiable_accepts_only_consistent_states(sequence):
    """If validate_instantiable passes, the §3.2 invariants hold."""
    descriptor = DFMDescriptor()
    for operation in sequence:
        apply_operation(descriptor, operation)
    try:
        descriptor.validate_instantiable()
    except DCDOError:
        return  # rejection is always allowed
    for function, marking in descriptor.markings_items():
        if marking is not Marking.FULLY_DYNAMIC:
            assert descriptor.enabled_components_of(function)
    check_dependencies(
        descriptor.dependencies, descriptor.is_enabled, descriptor.enabled_components_of
    )


# ----------------------------------------------------------------------
# The live DFM against the three-table mapper
#
# The oracle: the three-table mapper, unchanged
# ----------------------------------------------------------------------


def _pack_flags(entry):
    """An entry's (enabled, exported) flags as a small int (0-3)."""
    return (2 if entry.exported else 0) | (1 if entry.enabled else 0)


def _unpack_flags(flags):
    """The (enabled, exported) pair packed by :func:`_pack_flags`."""
    return bool(flags & 1), bool(flags & 2)


@dataclass
class DFMEntry:
    """One function implementation mapped into a DCDO."""

    function: str
    component_id: str
    function_def: object
    enabled: bool = False
    exported: bool = True
    active_threads: int = 0
    calls: int = 0


@dataclass
class IncorporatedComponent:
    """A component currently mapped into a DCDO's address space."""

    component: object
    variant: object
    #: Private per-object data for the component's internal structures
    #: (§2: "these data structures must be accessed from outside the
    #: component by calling the component's exported dynamic
    #: functions").
    private_state: dict = field(default_factory=dict)


class DynamicFunctionMapper:
    """The per-object dispatch table for dynamic functions."""

    def __init__(self):
        self._entries = {}
        self._components = {}
        self._markings = {}
        self._pins = {}
        self._dependencies = []
        # function -> its (single) enabled entry; the hot-path index
        # that makes lookup O(1) regardless of table size.
        self._enabled_index = {}
        # Secondary indexes: function -> {component_id: entry} and
        # component_id -> {function: entry}, so the status/dispatch
        # accessors are O(implementations-of-f), not O(table).
        self._by_function = {}
        self._by_component = {}
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
        for entry in self._by_function.get(function, {}).values():
            if entry.enabled:
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

    @property
    def dependencies(self):
        """Declared dependencies (list copy)."""
        return list(self._dependencies)

    def entry(self, function, component_id):
        """The entry for (function, component) or None."""
        return self._entries.get((function, component_id))

    def entries_for(self, function):
        """All entries implementing ``function`` (via the index)."""
        return list(self._by_function.get(function, {}).values())

    def entries_in(self, component_id):
        """All entries implemented by ``component_id`` (via the index)."""
        return list(self._by_component.get(component_id, {}).values())

    def is_enabled(self, function, component_id):
        """True if that particular implementation is enabled."""
        entry = self._entries.get((function, component_id))
        return entry is not None and entry.enabled

    def enabled_components_of(self, function):
        """Component ids with an enabled implementation of ``function``."""
        return {
            component_id
            for component_id, entry in self._by_function.get(function, {}).items()
            if entry.enabled
        }

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
        return sorted(self._by_function)

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
        return len(self._entries)

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
        self._components[component.component_id] = IncorporatedComponent(
            component=component, variant=variant
        )
        for name, function_def in component.functions.items():
            entry = DFMEntry(
                function=name,
                component_id=component.component_id,
                function_def=function_def,
                enabled=False,
                exported=function_def.exported,
            )
            self._entries[(name, component.component_id)] = entry
            self._by_function.setdefault(name, {})[component.component_id] = entry
            self._by_component.setdefault(component.component_id, {})[name] = entry
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
                self._dependencies.append(dependency)
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
        self._dependencies = surviving
        del self._components[component_id]
        for name in self._by_component.pop(component_id, {}):
            bucket = self._by_function.get(name)
            if bucket is not None:
                bucket.pop(component_id, None)
                if not bucket:
                    del self._by_function[name]
            del self._entries[(name, component_id)]
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
            saved = {}
            for other in others:
                saved[(function, other)] = self._entries[(function, other)].enabled
                self._entries[(function, other)].enabled = False
            saved[(function, component_id)] = self._entries[(function, component_id)].enabled
            self._entries[(function, component_id)].enabled = True
            from repro.core.dependency import check_dependencies

            try:
                check_dependencies(
                    self._dependencies, self.is_enabled, self.enabled_components_of
                )
            except Exception:
                for key, was_enabled in saved.items():
                    self._entries[key].enabled = was_enabled
                raise
            finally:
                self._reindex(function)
            self._bump()
            return
        validation.check_can_enable(self, function, component_id)
        entry = self._entries[(function, component_id)]
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
        self._entries[(function, component_id)].enabled = False
        self._enabled_index.pop(function, None)
        self._bump()

    def set_exported(self, function, component_id, exported):
        """Move a function between public and private interfaces."""
        entry = self._entries.get((function, component_id))
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
            self._dependencies + [dependency], self.is_enabled, self.enabled_components_of
        )
        self._dependencies.append(dependency)
        self._bump()

    def remove_dependency(self, dependency):
        """Retract a declared dependency."""
        if dependency in self._dependencies:
            self._dependencies.remove(dependency)
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
        self._dependencies = descriptor.dependencies
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
        for key, entry in self._entries.items():
            target = descriptor.entry(*key)
            if target is None:
                continue
            if entry.enabled != target.enabled or entry.exported != target.exported:
                if undo is not None and key not in undo:
                    undo[key] = _pack_flags(entry)
                entry.enabled = target.enabled
                entry.exported = target.exported
                self._reindex(entry.function)
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
        for key, entry in self._entries.items():
            if entry.component_id == component_id and key not in undo:
                undo[key] = _pack_flags(entry)

    def restore_entry_states(self, undo):
        """Reinstate the flags logged in ``undo``.

        Entries that no longer exist are skipped (the caller re-adds
        their components first when full restoration is needed).
        """
        changed = False
        for key, flags in undo.items():
            entry = self._entries.get(key)
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
        return (dict(self._markings), dict(self._pins), list(self._dependencies))

    def restore_restrictions(self, snapshot):
        """Reinstate a :meth:`restrictions_snapshot` capture."""
        markings, pins, dependencies = snapshot
        self._markings = dict(markings)
        self._pins = dict(pins)
        self._dependencies = list(dependencies)
        self._bump()

    def to_descriptor(self):
        """Snapshot this DFM as a :class:`DFMDescriptor` (for diffing)."""
        descriptor = DFMDescriptor()
        for component_id, incorporated in self._components.items():
            descriptor._component_refs[component_id] = None  # refs live in the manager
        for key, entry in self._entries.items():
            descriptor._entries[key] = DescriptorEntry(
                function=entry.function,
                component_id=entry.component_id,
                enabled=entry.enabled,
                exported=entry.exported,
            )
        descriptor._markings = dict(self._markings)
        descriptor._pins = dict(self._pins)
        descriptor._dependencies = list(self._dependencies)
        return descriptor


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

MAPPER_FUNCTIONS = ("f", "g", "h")
MAPPER_COMPONENTS = ("c0", "c1", "c2", "c3")


def _body(ctx):
    return None


def _component(component_id):
    """Components share function names; some functions are internal,
    and some components demand markings or ship dependencies."""
    builder = ComponentBuilder(component_id)
    index = MAPPER_COMPONENTS.index(component_id)
    for position, name in enumerate(MAPPER_FUNCTIONS):
        if (index + position) % 3 == 2:
            continue
        builder.function(name, _body, exported=(index + position) % 4 != 3)
    if component_id == "c1":
        builder.require_mandatory("g")
    if component_id == "c2":
        builder.require_permanent("h")
        builder.depends(Dependency("h", "f"))
    if component_id == "c3":
        builder.depends(Dependency("f", "g", dependent_component="c3"))
    return builder.variant(size_bytes=1).build()


POOL = {component_id: _component(component_id) for component_id in MAPPER_COMPONENTS}

components = st.sampled_from(MAPPER_COMPONENTS)
functions = st.sampled_from(MAPPER_FUNCTIONS)
flags = st.tuples(st.booleans(), st.booleans())
#: (component, function) -> (enabled, exported); components drawn from
#: the whole pool, so a descriptor names components the DFM lacks and
#: leaves out ones it holds.
descriptor_entries = st.dictionaries(
    st.tuples(components, functions), flags, min_size=1, max_size=8
)
dependencies = st.builds(
    Dependency,
    functions,
    functions,
    st.one_of(st.none(), components),
    st.one_of(st.none(), components),
)
restrictions = st.tuples(
    st.dictionaries(functions, st.sampled_from(list(Marking)), max_size=2),
    st.dictionaries(functions, components, max_size=2),
    st.lists(dependencies, max_size=2),
)

applies = st.tuples(st.just("apply"), descriptor_entries, st.booleans())
steps = st.one_of(
    applies,
    applies,
    applies,
    st.tuples(st.just("add"), components, st.booleans()),
    st.tuples(st.just("remove"), components, st.booleans()),
    st.tuples(st.just("enable"), functions, components, st.booleans()),
    st.tuples(st.just("disable"), functions, components, st.booleans()),
    st.tuples(st.just("set_exported"), functions, components, st.booleans()),
    st.tuples(st.just("record"), components),
    st.just(("restore",)),
    st.just(("begin",)),
    st.just(("snapshot",)),
    st.just(("restore_restrictions",)),
    st.tuples(st.just("adopt"), restrictions),
    st.tuples(st.just("enter"), functions),
    st.just(("leave",)),
)


def _descriptor(entries=None, restrictions=None):
    descriptor = DFMDescriptor()
    for (component_id, function), (enabled, exported) in (entries or {}).items():
        descriptor._entries[(function, component_id)] = DescriptorEntry(
            function, component_id, enabled, exported
        )
    if restrictions is not None:
        markings, pins, dependencies = restrictions
        descriptor._markings = dict(markings)
        descriptor._pins = dict(pins)
        descriptor._dependencies = list(dependencies)
    return descriptor


class Side:
    """One mapper plus what a program keeps beside it."""

    def __init__(self, mapper):
        self.dfm = mapper
        self.undo = {}
        self.snapshot = None
        self.entered = []

    def counts(self, entry):
        """An entry's (active threads, calls): fields of the oracle's
        entries, the live DFM's per-instance accessors."""
        dfm = self.dfm
        if isinstance(dfm, live.DynamicFunctionMapper):
            return dfm.active_threads(entry), dfm.calls(entry)
        return entry.active_threads, entry.calls

    def step(self, op):
        """Run one step; returns its result (a change count or None)."""
        dfm = self.dfm
        kind = op[0]
        if kind == "add":
            component = POOL[op[1]]
            return dfm.add_component(component, "variant", validate=op[2])
        if kind == "remove":
            return dfm.remove_component(op[1], validate=op[2])
        if kind == "enable":
            return dfm.enable(op[1], op[2], replace_current=op[3])
        if kind == "disable":
            return dfm.disable(op[1], op[2], enforce_dependencies=op[3])
        if kind == "set_exported":
            return dfm.set_exported(op[1], op[2], op[3])
        if kind == "apply":
            return dfm.apply_entry_states(
                _descriptor(op[1]), self.undo if op[2] else None
            )
        if kind == "record":
            return dfm.record_entry_states(op[1], self.undo)
        if kind == "restore":
            return dfm.restore_entry_states(self.undo)
        if kind == "begin":
            self.undo = {}
            return None
        if kind == "snapshot":
            self.snapshot = dfm.restrictions_snapshot()
            return None
        if kind == "restore_restrictions":
            if self.snapshot is not None:
                dfm.restore_restrictions(self.snapshot)
            return None
        if kind == "adopt":
            return dfm.adopt_restrictions(_descriptor(restrictions=op[1]))
        if kind == "enter":
            entry = dfm.lookup(op[1])
            dfm.enter(entry)
            self.entered.append(entry)
            return None
        if kind == "leave":
            if self.entered:
                dfm.leave(self.entered.pop())
            return None
        raise AssertionError(kind)


def _row(side, entry):
    return (
        entry.function,
        entry.component_id,
        entry.enabled,
        entry.exported,
    ) + side.counts(entry)


def _lookup(side, function, external):
    try:
        return _row(side, side.dfm.lookup(function, external=external))
    except (FunctionNotEnabled, FunctionNotExported) as error:
        return type(error)


def _view(side):
    """Everything the two mappers must agree on."""
    dfm = side.dfm
    descriptor = dfm.to_descriptor()
    return {
        "lookup": [
            _lookup(side, function, external)
            for function in MAPPER_FUNCTIONS
            for external in (False, True)
        ],
        "entries_for": [
            [_row(side, entry) for entry in dfm.entries_for(function)]
            for function in MAPPER_FUNCTIONS
        ],
        "entries_in": [
            [_row(side, entry) for entry in dfm.entries_in(component_id)]
            for component_id in MAPPER_COMPONENTS
        ],
        "enabled_components_of": [
            dfm.enabled_components_of(function) for function in MAPPER_FUNCTIONS
        ],
        "entry_count": dfm.entry_count(),
        "component_ids": dfm.component_ids,
        "function_names": dfm.function_names(),
        "exported_interface": dfm.exported_interface(),
        "epoch": dfm.epoch,
        "total_calls": dfm.total_calls,
        "markings": dfm.markings_items(),
        "pins": [dfm.pin(function) for function in MAPPER_FUNCTIONS],
        "dependencies": dfm.dependencies,
        "undo": list(side.undo.items()),
        "descriptor": list(descriptor._entries.items()),
        "descriptor_components": list(descriptor._component_refs),
        "descriptor_restrictions": (
            descriptor.markings_items(),
            [descriptor.pin(function) for function in MAPPER_FUNCTIONS],
            descriptor.dependencies,
        ),
    }


def _outcome(side, op):
    try:
        return ("ok", side.step(op))
    except Exception as error:  # noqa: BLE001 - compared by type
        return ("raised", type(error))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(components, min_size=1, max_size=4, unique=True),
    st.lists(steps, min_size=10, max_size=50),
)
def test_one_table_dfm_matches_the_three_table_dfm(initial, program):
    oracle = Side(DynamicFunctionMapper())
    mapper = Side(live.DynamicFunctionMapper())
    assert _view(mapper) == _view(oracle)
    for op in [("add", component_id, False) for component_id in initial] + program:
        expected = _outcome(oracle, op)
        assert _outcome(mapper, op) == expected, op
        assert _view(mapper) == _view(oracle), op


def test_the_later_enabled_entry_in_table_order_serves():
    """A flip that leaves two implementations enabled serves the later
    one in table order, and a component added again goes to the end."""
    for mapper in (DynamicFunctionMapper(), live.DynamicFunctionMapper()):
        for component_id in ("c0", "c1"):
            mapper.add_component(POOL[component_id], "variant")
        both = _descriptor({("c0", "f"): (True, True), ("c1", "f"): (True, True)})
        assert mapper.apply_entry_states(both) == 2
        assert mapper.lookup("f").component_id == "c1"
        mapper.remove_component("c0", validate=False)
        mapper.add_component(POOL["c0"], "variant")
        assert mapper.apply_entry_states(both) == 1
        assert [entry.component_id for entry in mapper.entries_for("f")] == ["c1", "c0"]
        assert mapper.lookup("f").component_id == "c0"


def test_private_state_is_built_on_first_use():
    mapper = live.DynamicFunctionMapper()
    mapper.add_component(POOL["c0"], "variant")
    assert mapper._private is None and mapper._counts is None
    mapper.private_state("c0")["x"] = 1
    assert mapper.private_state("c0") == {"x": 1}
    with pytest.raises(ComponentNotIncorporated):
        mapper.private_state("c1")
    with pytest.raises(ComponentNotIncorporated):
        mapper.component("c1")


# ----------------------------------------------------------------------
# Shared configurations
# ----------------------------------------------------------------------


def _step_both(oracle, mapper, op):
    expected = _outcome(oracle, op)
    assert _outcome(mapper, op) == expected, op


@settings(max_examples=150, deadline=None)
@given(
    st.lists(components, min_size=1, max_size=4, unique=True),
    st.lists(steps, max_size=20),
    st.lists(st.tuples(st.integers(0, 2), steps), min_size=5, max_size=40),
)
def test_dfms_that_share_a_prefix_then_diverge_each_match_their_oracle(
    initial, prefix, program
):
    """Three live DFMs take the same steps, then each its own.  Each is
    checked against its own oracle after every step of any of them, so
    a step on one DFM never changes another's view; and while their
    steps agree, they share one configuration object."""
    pairs = [
        (Side(DynamicFunctionMapper()), Side(live.DynamicFunctionMapper()))
        for __ in range(3)
    ]

    def check_every_view(op):
        for oracle, mapper in pairs:
            assert _view(mapper) == _view(oracle), op

    for op in [("add", component_id, False) for component_id in initial] + prefix:
        for oracle, mapper in pairs:
            _step_both(oracle, mapper, op)
        check_every_view(op)
        assert len({id(mapper.dfm.configuration) for __, mapper in pairs}) == 1
    for which, op in program:
        oracle, mapper = pairs[which]
        _step_both(oracle, mapper, op)
        check_every_view(op)


def test_a_thread_inside_a_removed_component_keeps_its_count_off_the_copy_added_again():
    oracle = Side(DynamicFunctionMapper())
    mapper = Side(live.DynamicFunctionMapper())
    program = [
        ("add", "c0", True),
        ("enable", "f", "c0", False),
        ("enter", "f"),
        ("enter", "f"),
        ("leave",),
        ("remove", "c0", False),
        ("add", "c0", True),
        ("enable", "f", "c0", False),
    ]
    for op in program:
        _step_both(oracle, mapper, op)
        assert _view(mapper) == _view(oracle), op
    dfm = mapper.dfm
    (inside,) = mapper.entered
    added_again = dfm.lookup("f")
    assert added_again is not inside
    assert (dfm.active_threads(inside), dfm.calls(inside)) == (1, 2)
    assert (dfm.active_threads(added_again), dfm.calls(added_again)) == (0, 0)
    assert dfm.active_threads_in("c0") == 0
    # The thread leaves the copy it entered; the new copy never saw it.
    _step_both(oracle, mapper, ("leave",))
    assert _view(mapper) == _view(oracle)
    assert dfm.active_threads(inside) == 0
    with pytest.raises(RuntimeError, match="underflow"):
        dfm.leave(added_again)


def test_counts_and_private_state_start_fresh_for_a_component_added_again():
    mapper = live.DynamicFunctionMapper()
    other = live.DynamicFunctionMapper()
    for dfm in (mapper, other):
        dfm.add_component(POOL["c0"], "variant")
        dfm.enable("f", "c0")
        entry = dfm.lookup("f")
        dfm.enter(entry)
        dfm.leave(entry)
        dfm.private_state("c0")["x"] = 1
    assert mapper.configuration is other.configuration
    mapper.remove_component("c0", validate=False)
    mapper.add_component(POOL["c0"], "variant")
    mapper.enable("f", "c0")
    added_again = mapper.lookup("f")
    assert mapper.calls(added_again) == 0 and mapper.total_calls == 1
    assert mapper.private_state("c0") == {}
    # The other DFM, still on the first copy, keeps what it had.
    kept = other.lookup("f")
    assert kept is not added_again
    assert other.calls(kept) == 1 and other.private_state("c0") == {"x": 1}
    assert [entry.component_id for entry in other.entries_for("f")] == ["c0"]
