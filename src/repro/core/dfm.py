"""The dynamic function mapper (§2).

"A DFM contains an entry for every dynamic function that is currently
contained in the object, and keeps track of whether the function is
exported or internal, and whether it is currently enabled or disabled.
A DFM serves as a centralized table through which all calls to dynamic
functions must go."

This is the live, per-DCDO structure: unlike a DFM descriptor it holds
the actual function bodies (the mapped-in code) and the per-function
active thread counters used for thread activity monitoring (§3.2).

Every DCDO owns one, but every DCDO in one configuration dispatches
through the same table, as every instance of a class dispatches through
one method table.  So a DFM has two parts:

- **A shared, immutable configuration** (:class:`DFMConfiguration`).
  It holds the component table in table order, with each entry's
  enabled/exported flags; the enabled-entry index; the markings, the
  pins and the dependencies.  Nothing ever changes one.
- **A small per-instance part** (:class:`DynamicFunctionMapper`).  It
  holds the configuration reference, the epoch, ``total_calls``, each
  entry's active-thread and call counts, and each component's private
  state.  The counts and the private state are built on first use.

*Table order* is component incorporation order, and within a component
the order of the component's functions: a component that is removed and
added again goes to the end.  Every walk of the DFM (``entries_for``,
``to_descriptor``, ``apply_entry_states``) follows it.  The
enabled-entry index maps a function to its enabled entry, so
:meth:`DynamicFunctionMapper.lookup` is one dict probe.  When a commit
briefly enables two implementations of one function, the later one in
table order serves the calls.

**A mutation** moves the DFM to the configuration its step yields from
the current one, and bumps the epoch as a mutation always has.  A step
yields its own source when it changes nothing, or else a configuration
built for that step.  Each step is computed once per (configuration,
step) and memoized on the source, together with the change count and
the undo-log entries it produces.  The memo key is what determines the
result: a descriptor's flags for the source's entries and its
restrictions by content, not the descriptor object, which direct
delivery clones per instance.  So the instances of a wave, and a fleet
built one instance at a time, end in one shared configuration.

A configuration lives while a DFM is in it, while the configuration a
step was taken from lives (a DFM still there may take the same step),
or while it is among the results of the last few steps
(:data:`RECENT_STEPS`).  The empty configuration every DFM starts in
lives as long as the process, so it alone holds its results weakly; the
recent steps keep a creation path alive while a fleet is built one
instance after another.  Once no DFM is left in a wave's source
configuration and the wave's steps are no longer recent, the source and
its intermediate configurations go, memo and all.

A DFM only moves forward along memoized steps, so it never comes back
to a configuration it has left.  A component added again therefore gets
new entries, and its counts and private state start fresh, while a
thread still inside the removed copy leaves its count on that copy's
entry.
"""

import itertools
import weakref
from collections import deque
from dataclasses import dataclass

from repro.core import validation
from repro.core.dependency import check_dependencies
from repro.core.descriptor import DescriptorEntry, DFMDescriptor
from repro.core.errors import (
    ComponentAlreadyIncorporated,
    ComponentNotIncorporated,
    DependencyViolation,
    FunctionNotEnabled,
    FunctionNotExported,
    PermanenceViolation,
)
from repro.core.functions import Marking

#: How many of the latest steps' results are kept alive beyond the
#: configurations DFMs are in: more than one DFM's creation path takes
#: (a step per component, and its entry states), so that a fleet built
#: one instance after another shares its creation path.
RECENT_STEPS = 16

# A DFM's per-entry counts live in one int per entry: active threads in
# the low bits, calls above them.
_THREAD = 1
_CALL = 1 << 32
_THREADS = _CALL - 1
_ENTERED = _CALL | _THREAD
#: A descriptor code for an entry the descriptor does not name.
_ABSENT = 4

# Each entry's counter key is unique in the process: a component added
# again gets new keys, so counts never carry over between copies.
_slots = itertools.count()
# The latest step results (see the module docstring).
_recent = deque(maxlen=RECENT_STEPS)


def _pack_flags(entry):
    """An entry's (enabled, exported) flags as a small int (0-3)."""
    return (2 if entry.exported else 0) | (1 if entry.enabled else 0)


def _unpack_flags(flags):
    """The (enabled, exported) pair packed by :func:`_pack_flags`."""
    return bool(flags & 1), bool(flags & 2)


@dataclass(frozen=True, slots=True, eq=False)
class DFMEntry:
    """One function implementation mapped into a DCDO.

    An entry belongs to configurations, not to an instance: changing its
    flags yields a new entry with the same ``slot``, the key of its
    per-instance counts.
    """

    function: str
    component_id: str
    function_def: object
    enabled: bool
    exported: bool
    slot: int
    #: ``(function, component_id)``, the entry's undo-log key.
    key: tuple

    def with_flags(self, enabled, exported):
        """This entry with other flags (the same counts)."""
        return DFMEntry(
            self.function,
            self.component_id,
            self.function_def,
            enabled,
            exported,
            self.slot,
            self.key,
        )


class IncorporatedComponent:
    """One copy of a component mapped into a DCDO's address space.

    Shared by every configuration that holds this copy; adding the
    component again maps a new copy in.
    """

    __slots__ = ("component", "variant")

    def __init__(self, component, variant):
        self.component = component
        self.variant = variant


class _Restrictions:
    """Markings, pins and dependencies, shared and never changed."""

    __slots__ = ("markings", "pins", "dependencies")

    def __init__(self, markings, pins, dependencies):
        self.markings = markings
        self.pins = pins
        self.dependencies = dependencies

    def content(self):
        """The restrictions as comparable tuples, in their order."""
        return (
            tuple(self.markings.items()),
            tuple(self.pins.items()),
            self.dependencies,
        )


_NO_RESTRICTIONS = _Restrictions({}, {}, ())


def _reindex(table, index, function):
    """Point ``index`` at ``function``'s enabled entry in ``table``.

    A commit briefly enables two implementations of one function (the
    flip enables the new one before the old component is removed); the
    later one in table order then serves the calls.
    """
    chosen = None
    for entries in table.values():
        entry = entries.get(function)
        if entry is not None and entry.enabled:
            chosen = entry
    if chosen is None:
        index.pop(function, None)
    else:
        index[function] = chosen


class _Draft:
    """A configuration under construction: copies of the source's table
    and index that a step's build changes entry by entry."""

    __slots__ = ("source", "table", "index")

    def __init__(self, source):
        self.source = source
        self.table = dict(source._table)
        self.index = dict(source._index)

    def set_flags(self, entry, enabled, exported):
        """Give ``entry`` new flags; returns the new entry."""
        component_id = entry.component_id
        entries = self.table[component_id]
        if entries is self.source._table[component_id]:
            entries = self.table[component_id] = dict(entries)
        changed = entries[entry.function] = entry.with_flags(enabled, exported)
        # The index names this (function, component) by the entry it
        # held: it now holds the entry with the new flags.
        if self.index.get(entry.function) is entry:
            self.index[entry.function] = changed
        return changed

    def reindex(self, function):
        _reindex(self.table, self.index, function)

    def build(self):
        source = self.source
        return DFMConfiguration(
            source._components, self.table, self.index, source.restrictions
        )


class DFMConfiguration:
    """One state of a DFM's table, shared by every DFM in it.

    It implements the state protocol of :mod:`repro.core.validation`, so
    the rules are checked against it directly.  The step methods
    (``adding``, ``removing``, ...) return the configuration a step
    yields, memoized; they never change this one.
    """

    __slots__ = (
        "_components",
        "_table",
        "_index",
        "restrictions",
        "_memo",
        "_consistent",
        "__weakref__",
    )

    def __init__(self, components, table, index, restrictions):
        # component id -> IncorporatedComponent, in table order.
        self._components = components
        # component id -> {function: DFMEntry}, in table order.
        self._table = table
        # function -> its (single) enabled entry; the hot-path index
        # that makes lookup O(1) regardless of table size.
        self._index = index
        self.restrictions = restrictions
        # step key -> (the result, or None for this configuration; the
        # step's extra result), built on the first step taken from here.
        self._memo = None
        # True once check_state_consistent passed on this configuration.
        self._consistent = False

    def __repr__(self):
        return f"<DFMConfiguration components={list(self._components)}>"

    # ------------------------------------------------------------------
    # State protocol (see core.validation) and introspection
    # ------------------------------------------------------------------

    @property
    def component_ids(self):
        """Set of incorporated component ids."""
        return set(self._components)

    @property
    def dependencies(self):
        """Declared dependencies (list copy)."""
        return list(self.restrictions.dependencies)

    def entry(self, function, component_id):
        """The entry for (function, component) or None."""
        entries = self._table.get(component_id)
        if entries is None:
            return None
        return entries.get(function)

    def entries_for(self, function):
        """All entries implementing ``function``, in table order."""
        found = []
        for entries in self._table.values():
            entry = entries.get(function)
            if entry is not None:
                found.append(entry)
        return found

    def entries_in(self, component_id):
        """All entries implemented by ``component_id``, in table order."""
        entries = self._table.get(component_id)
        if entries is None:
            return []
        return list(entries.values())

    def is_enabled(self, function, component_id):
        """True if that particular implementation is enabled."""
        entry = self.entry(function, component_id)
        return entry is not None and entry.enabled

    def enabled_components_of(self, function):
        """Component ids with an enabled implementation of ``function``."""
        enabled = set()
        for component_id, entries in self._table.items():
            entry = entries.get(function)
            if entry is not None and entry.enabled:
                enabled.add(component_id)
        return enabled

    def marking(self, function):
        """The function's marking (FULLY_DYNAMIC by default)."""
        return self.restrictions.markings.get(function, Marking.FULLY_DYNAMIC)

    def markings_items(self):
        """(function, marking) pairs for non-default markings."""
        return list(self.restrictions.markings.items())

    def pin(self, function):
        """The permanent pin for ``function``, or None."""
        return self.restrictions.pins.get(function)

    def component(self, component_id):
        """The :class:`IncorporatedComponent` or raise."""
        incorporated = self._components.get(component_id)
        if incorporated is None:
            raise ComponentNotIncorporated(f"component {component_id!r} is not incorporated")
        return incorporated

    def function_names(self):
        """Sorted names of all mapped functions."""
        names = set()
        for entries in self._table.values():
            names.update(entries)
        return sorted(names)

    def exported_interface(self):
        """Sorted names of enabled, exported functions."""
        return sorted(
            function for function, entry in self._index.items() if entry.exported
        )

    def entry_count(self):
        """Total number of (function, component) entries."""
        return sum(len(entries) for entries in self._table.values())

    # ------------------------------------------------------------------
    # The memo
    # ------------------------------------------------------------------

    def _recall(self, key):
        """The memoized ``(configuration, extra)`` of step ``key``, or None."""
        memo = self._memo
        if memo is None:
            return None
        found = memo.get(key)
        if found is None:
            return None
        target, extra = found
        if target is None:
            return self, extra
        if self is _EMPTY:
            target = target()
            if target is None:
                return None
        _recent.append(target)
        return target, extra

    def _remember(self, key, target, extra=None):
        """Memoize step ``key``'s result; returns ``(target, extra)``."""
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        if target is self:
            # A step that changes nothing: no reference, no cycle.
            memo[key] = (None, extra)
            return target, extra
        if self is _EMPTY:
            for dead in [k for k, (ref, __) in memo.items() if ref is not None and ref() is None]:
                del memo[dead]
            memo[key] = (weakref.ref(target), extra)
        else:
            memo[key] = (target, extra)
        _recent.append(target)
        return target, extra

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------

    def adding(self, component, variant):
        """A new copy of ``component`` mapped in, its entries disabled.

        The step is keyed by the component object, which is not changed
        once built: the copy maps the functions, markings and
        dependencies it had when the step was first taken from here.
        """
        # The id is a sound key while the result lives: the result holds
        # the component.
        key = ("add", id(component), variant)
        found = self._recall(key)
        if found is not None:
            return found[0]
        component_id = component.component_id
        components = dict(self._components)
        components[component_id] = IncorporatedComponent(component, variant)
        entries = {}
        for name, function_def in component.functions.items():
            entries[name] = DFMEntry(
                name,
                component_id,
                function_def,
                False,
                function_def.exported,
                next(_slots),
                (name, component_id),
            )
        table = dict(self._table)
        table[component_id] = entries
        restrictions = self.restrictions
        declared = [
            dependency
            for dependency in component.declared_dependencies
            if dependency not in restrictions.dependencies
        ]
        if component.required_markings or declared:
            markings = dict(restrictions.markings)
            pins = dict(restrictions.pins)
            for name, demanded in component.required_markings.items():
                current = markings.get(name, Marking.FULLY_DYNAMIC)
                markings[name] = demanded if demanded.at_least(current) else current
                if demanded is Marking.PERMANENT:
                    pins[name] = component_id
            dependencies = restrictions.dependencies
            for dependency in declared:
                if dependency not in dependencies:
                    dependencies += (dependency,)
            restrictions = _Restrictions(markings, pins, dependencies)
        # New entries start disabled: the enabled-entry index is unchanged.
        target = DFMConfiguration(components, table, self._index, restrictions)
        return self._remember(key, target)[0]

    def removing(self, component_id):
        """``component_id`` unmapped, with the dependencies it declared."""
        key = ("remove", component_id)
        found = self._recall(key)
        if found is not None:
            return found[0]
        components = dict(self._components)
        del components[component_id]
        table = dict(self._table)
        removed = table.pop(component_id)
        index = dict(self._index)
        for name in removed:
            _reindex(table, index, name)
        restrictions = self.restrictions
        surviving = tuple(
            dependency
            for dependency in restrictions.dependencies
            if dependency.dependent_component != component_id
        )
        if surviving != restrictions.dependencies:
            restrictions = _Restrictions(
                restrictions.markings, restrictions.pins, surviving
            )
        target = DFMConfiguration(components, table, index, restrictions)
        return self._remember(key, target)[0]

    def enabling(self, function, component_id):
        """One implementation enabled (validated), made the indexed one."""
        key = ("enable", function, component_id)
        found = self._recall(key)
        if found is not None:
            return found[0]
        validation.check_can_enable(self, function, component_id)
        entry = self.entry(function, component_id)
        if entry.enabled and self._index.get(function) is entry:
            return self._remember(key, self)[0]
        draft = _Draft(self)
        if not entry.enabled:
            entry = draft.set_flags(entry, True, entry.exported)
        draft.index[function] = entry
        return self._remember(key, draft.build())[0]

    def swapping(self, function, component_id):
        """The currently enabled implementations of ``function`` swapped
        for the one in ``component_id``, atomically.

        Raises :class:`DependencyViolation` when the swap breaks a
        dependency; see :meth:`reindexing` for what a refused swap
        leaves behind.
        """
        key = ("swap", function, component_id)
        found = self._recall(key)
        if found is not None:
            return found[0]
        entry = self.entry(function, component_id)
        if entry is None:
            raise ComponentNotIncorporated(
                f"no implementation of {function!r} in component {component_id!r}"
            )
        pinned = self.pin(function)
        if pinned is not None and pinned != component_id:
            raise PermanenceViolation(
                f"{function!r} is permanently pinned to component {pinned!r}"
            )
        draft = _Draft(self)
        for other in self.enabled_components_of(function) - {component_id}:
            other_entry = self.entry(function, other)
            draft.set_flags(other_entry, False, other_entry.exported)
        if not entry.enabled:
            draft.set_flags(entry, True, entry.exported)
        draft.reindex(function)
        target = draft.build()
        check_dependencies(
            target.restrictions.dependencies,
            target.is_enabled,
            target.enabled_components_of,
        )
        return self._remember(key, target)[0]

    def reindexing(self, function):
        """The index re-pointed at ``function``'s later enabled entry."""
        key = ("reindex", function)
        found = self._recall(key)
        if found is not None:
            return found[0]
        index = dict(self._index)
        _reindex(self._table, index, function)
        if index.get(function) is self._index.get(function):
            return self._remember(key, self)[0]
        target = DFMConfiguration(self._components, self._table, index, self.restrictions)
        return self._remember(key, target)[0]

    def disabling(self, function, component_id, enforce_dependencies):
        """One implementation disabled (validated), dropped from the index."""
        key = ("disable", function, component_id, enforce_dependencies)
        found = self._recall(key)
        if found is not None:
            return found[0]
        validation.check_can_disable(
            self, function, component_id, enforce_dependencies=enforce_dependencies
        )
        entry = self.entry(function, component_id)
        draft = _Draft(self)
        draft.set_flags(entry, False, entry.exported)
        draft.index.pop(function, None)
        return self._remember(key, draft.build())[0]

    def exporting(self, function, component_id, exported):
        """One implementation moved between the interfaces."""
        key = ("export", function, component_id, exported)
        found = self._recall(key)
        if found is not None:
            return found[0]
        entry = self.entry(function, component_id)
        if entry is None:
            raise ComponentNotIncorporated(
                f"no implementation of {function!r} in component {component_id!r}"
            )
        if entry.exported == exported:
            return self._remember(key, self)[0]
        draft = _Draft(self)
        draft.set_flags(entry, entry.enabled, exported)
        return self._remember(key, draft.build())[0]

    def restricting(self, markings, pins, dependencies):
        """These restrictions in place of the current ones: markings and
        pins as tuples of pairs, in order, and a tuple of dependencies."""
        key = ("restrict", markings, pins, dependencies)
        found = self._recall(key)
        if found is not None:
            return found[0]
        if key[1:] == self.restrictions.content():
            return self._remember(key, self)[0]
        restrictions = _Restrictions(dict(markings), dict(pins), dependencies)
        target = DFMConfiguration(
            self._components, self._table, self._index, restrictions
        )
        return self._remember(key, target)[0]

    def restoring(self, restrictions):
        """A :meth:`DynamicFunctionMapper.restrictions_snapshot` back in
        place."""
        if restrictions is self.restrictions:
            return self
        # The id is a sound key while the result lives: it holds them.
        key = ("restore-restrictions", id(restrictions))
        found = self._recall(key)
        if found is not None:
            return found[0]
        target = DFMConfiguration(
            self._components, self._table, self._index, restrictions
        )
        return self._remember(key, target)[0]

    def applying(self, codes):
        """Entry states set per a descriptor; ``codes`` holds its packed
        flags for each entry in table order (``_ABSENT`` where it names
        none).  Returns ``(configuration, (changes, logged))``, where
        ``logged`` is the ``(key, prior flags)`` of each changed entry."""
        key = ("apply", codes)
        found = self._recall(key)
        if found is not None:
            return found
        draft = None
        logged = []
        position = 0
        for entries in self._table.values():
            for entry in entries.values():
                code = codes[position]
                position += 1
                if code == _ABSENT:
                    continue
                enabled, exported = _unpack_flags(code)
                if entry.enabled != enabled or entry.exported != exported:
                    if draft is None:
                        draft = _Draft(self)
                    logged.append((entry.key, _pack_flags(entry)))
                    draft.set_flags(entry, enabled, exported)
                    draft.reindex(entry.function)
        target = self if draft is None else draft.build()
        return self._remember(key, target, (len(logged), tuple(logged)))

    def restoring_entries(self, logged):
        """The flags in an undo log's ``(key, flags)`` pairs reinstated,
        for the entries that exist.  Returns ``(configuration, changed)``."""
        key = ("restore-entries", logged)
        found = self._recall(key)
        if found is not None:
            return found
        draft = None
        # Each key is logged once, so the source's entries are the ones
        # to compare against.
        for (function, component_id), flags in logged:
            entry = self.entry(function, component_id)
            if entry is None:
                continue
            enabled, exported = _unpack_flags(flags)
            if entry.enabled != enabled or entry.exported != exported:
                if draft is None:
                    draft = _Draft(self)
                draft.set_flags(entry, enabled, exported)
                draft.reindex(function)
        target = self if draft is None else draft.build()
        return self._remember(key, target, draft is not None)


_EMPTY = DFMConfiguration({}, {}, {}, _NO_RESTRICTIONS)


class DynamicFunctionMapper:
    """The per-object dispatch table for dynamic functions.

    Holds the configuration the object is in and what is the object's
    own: the epoch, the counts and the components' private state.
    """

    __slots__ = ("_config", "_epoch", "total_calls", "_counts", "_private")

    def __init__(self):
        self._config = _EMPTY
        # Monotonically increasing configuration epoch, bumped on every
        # mutation; piggybacked on replies so clients' interface leases
        # can validate cheaply (and invalidate promptly).
        self._epoch = 0
        self.total_calls = 0
        # entry slot -> packed counts (see enter), built on first use.
        self._counts = None
        # component id -> private state, built on first use.
        self._private = None

    @property
    def epoch(self):
        """The current configuration epoch."""
        return self._epoch

    @property
    def configuration(self):
        """The shared :class:`DFMConfiguration` this DFM is in."""
        return self._config

    def _bump(self):
        self._epoch += 1

    # ------------------------------------------------------------------
    # State-protocol accessors (shared validation, see core.validation)
    # ------------------------------------------------------------------

    @property
    def component_ids(self):
        """Set of incorporated component ids."""
        return self._config.component_ids

    def has_component(self, component_id):
        """True if ``component_id`` is incorporated."""
        return component_id in self._config._components

    @property
    def dependencies(self):
        """Declared dependencies (list copy)."""
        return self._config.dependencies

    def entry(self, function, component_id):
        """The entry for (function, component) or None."""
        return self._config.entry(function, component_id)

    def entries_for(self, function):
        """All entries implementing ``function``, in table order."""
        return self._config.entries_for(function)

    def entries_in(self, component_id):
        """All entries implemented by ``component_id``, in table order."""
        return self._config.entries_in(component_id)

    def is_enabled(self, function, component_id):
        """True if that particular implementation is enabled."""
        return self._config.is_enabled(function, component_id)

    def enabled_components_of(self, function):
        """Component ids with an enabled implementation of ``function``."""
        return self._config.enabled_components_of(function)

    def marking(self, function):
        """The function's marking (FULLY_DYNAMIC by default)."""
        return self._config.marking(function)

    def markings_items(self):
        """(function, marking) pairs for non-default markings."""
        return self._config.markings_items()

    def pin(self, function):
        """The permanent pin for ``function``, or None."""
        return self._config.pin(function)

    # ------------------------------------------------------------------
    # Introspection (status-reporting support, §2.2)
    # ------------------------------------------------------------------

    def component(self, component_id):
        """The :class:`IncorporatedComponent` or raise."""
        return self._config.component(component_id)

    def private_state(self, component_id):
        """Private per-object data for the component's internal
        structures (§2: "these data structures must be accessed from
        outside the component by calling the component's exported
        dynamic functions"), built on first use."""
        if component_id not in self._config._components:
            raise ComponentNotIncorporated(f"component {component_id!r} is not incorporated")
        private = self._private
        if private is None:
            private = self._private = {}
        state = private.get(component_id)
        if state is None:
            state = private[component_id] = {}
        return state

    def function_names(self):
        """Sorted names of all mapped functions."""
        return self._config.function_names()

    def exported_interface(self):
        """Sorted names of enabled, exported functions.

        Walks the enabled-entry index (at most one enabled entry per
        function), so the cost is O(enabled functions) rather than
        O(table entries) — this sits on the ``getInterface``/
        ``getStatus`` path every defensive client hits.
        """
        return self._config.exported_interface()

    def entry_count(self):
        """Total number of (function, component) entries."""
        return self._config.entry_count()

    def active_threads(self, entry):
        """Threads of this object now inside ``entry``'s function."""
        counts = self._counts
        if counts is None:
            return 0
        return counts.get(entry.slot, 0) & _THREADS

    def calls(self, entry):
        """Calls this object has dispatched to ``entry``."""
        counts = self._counts
        if counts is None:
            return 0
        return counts.get(entry.slot, 0) // _CALL

    def active_threads_in(self, component_id):
        """Sum of active thread counts across a component's functions."""
        return sum(self.active_threads(entry) for entry in self.entries_in(component_id))

    def functions_depending_on(self, function, component_id=None):
        """Names of enabled dependents of the given function/impl.

        Used with thread monitoring: "if function F1 depends on F2, and
        a thread is executing in F1, then the DCDO can postpone any
        request to disable F2 until the active thread count for F1 ...
        goes to zero" (§3.2).
        """
        dependents = set()
        for dependency in self._config.restrictions.dependencies:
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

    def check_consistent(self):
        """Validate the configuration as it stands (after atomic rebuilds).

        Each configuration is checked once; one that fails is checked
        (and raises) again for every DFM that reaches it.
        """
        config = self._config
        if not config._consistent:
            validation.check_state_consistent(config)
            config._consistent = True

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
        chosen = self._config._index.get(function)
        if chosen is None:
            raise FunctionNotEnabled(function)
        if external and not chosen.exported:
            raise FunctionNotExported(function)
        return chosen

    def enter(self, entry):
        """Record a thread entering the function (§3.2 monitoring)."""
        try:
            self._counts[entry.slot] += _ENTERED
        except (KeyError, TypeError):  # the entry's, or the DFM's, first call
            if self._counts is None:
                self._counts = {}
            self._counts[entry.slot] = _ENTERED
        self.total_calls += 1

    def leave(self, entry):
        """Record a thread leaving the function."""
        try:
            count = self._counts[entry.slot]
        except (KeyError, TypeError):
            count = 0
        if not count & _THREADS:
            raise RuntimeError(f"thread count underflow for {entry.function!r}")
        self._counts[entry.slot] = count - _THREAD

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
        config = self._config
        if validate:
            validation.check_can_incorporate(config, component)
        elif component.component_id in config._components:
            raise ComponentAlreadyIncorporated(
                f"component {component.component_id!r} is already incorporated"
            )
        self._config = config.adding(component, variant)
        self._bump()

    def remove_component(self, component_id, validate=True):
        """Unmap a component (thread checks are the caller's job).

        ``validate=False`` is used by atomic descriptor application,
        where the *final* state has already been validated and
        intermediate states may legitimately violate invariants.
        """
        config = self._config
        if validate:
            validation.check_can_remove_component(config, component_id)
        elif component_id not in config._components:
            raise ComponentNotIncorporated(
                f"component {component_id!r} is not incorporated"
            )
        # The copy's counts go with it, but for a thread still inside:
        # its count stays on the copy's entry until it leaves.
        counts = self._counts
        if counts:
            for entry in config._table[component_id].values():
                count = counts.get(entry.slot)
                if count is not None and not count & _THREADS:
                    del counts[entry.slot]
        if self._private:
            self._private.pop(component_id, None)
        self._config = config.removing(component_id)
        self._bump()

    def enable(self, function, component_id, replace_current=False):
        """Enable one implementation (validated).

        With ``replace_current``, atomically swaps out the currently
        enabled implementation — legal for mandatory functions (some
        implementation stays enabled throughout) but not permanent
        ones.
        """
        config = self._config
        if replace_current and config.enabled_components_of(function) - {component_id}:
            try:
                self._config = config.swapping(function, component_id)
            except DependencyViolation:
                # A refused swap leaves the flags as they were, with the
                # index pointed at the later enabled entry.
                self._config = config.reindexing(function)
                raise
        else:
            self._config = config.enabling(function, component_id)
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
        self._config = self._config.disabling(
            function, component_id, enforce_dependencies
        )
        self._bump()

    def set_exported(self, function, component_id, exported):
        """Move a function between public and private interfaces."""
        self._config = self._config.exporting(function, component_id, exported)
        self._bump()

    def mark_mandatory(self, function):
        """Mark ``function`` mandatory in this live DFM."""
        config = self._config
        if not config.marking(function).at_least(Marking.MANDATORY):
            __, pins, dependencies = config.restrictions.content()
            markings = dict(config.restrictions.markings)
            markings[function] = Marking.MANDATORY
            self._config = config.restricting(
                tuple(markings.items()), pins, dependencies
            )
            self._bump()

    def mark_permanent(self, function, component_id):
        """Mark ``function`` permanent, pinned to ``component_id``."""
        config = self._config
        restrictions = config.restrictions
        existing = restrictions.pins.get(function)
        if existing is not None and existing != component_id:
            raise PermanenceViolation(
                f"{function!r} is already permanently pinned to {existing!r}"
            )
        markings = dict(restrictions.markings)
        markings[function] = Marking.PERMANENT
        pins = dict(restrictions.pins)
        pins[function] = component_id
        self._config = config.restricting(
            tuple(markings.items()), tuple(pins.items()), restrictions.dependencies
        )
        self._bump()

    def add_dependency(self, dependency):
        """Declare a dependency; current state must satisfy it."""
        config = self._config
        markings, pins, dependencies = config.restrictions.content()
        dependencies += (dependency,)
        check_dependencies(dependencies, config.is_enabled, config.enabled_components_of)
        self._config = config.restricting(markings, pins, dependencies)
        self._bump()

    def remove_dependency(self, dependency):
        """Retract a declared dependency."""
        config = self._config
        markings, pins, dependencies = config.restrictions.content()
        if dependency in dependencies:
            dependencies = list(dependencies)
            dependencies.remove(dependency)
            self._config = config.restricting(markings, pins, tuple(dependencies))
            self._bump()

    def adopt_restrictions(self, descriptor):
        """Copy markings, pins, and dependencies from a descriptor."""
        markings = tuple(descriptor.markings_items())
        pins = tuple(
            (function, descriptor.pin(function))
            for function, __ in markings
            if descriptor.pin(function) is not None
        )
        self._config = self._config.restricting(
            markings, pins, tuple(descriptor.dependencies)
        )
        self._bump()

    def apply_entry_states(self, descriptor, undo=None):
        """Set enabled/exported per the descriptor; returns change count.

        Only touches (function, component) pairs present in both; the
        component add/remove steps are the DCDO's job because they
        carry real (download/link) costs.  With an ``undo`` log (see
        :meth:`record_entry_states`), each entry's flags are logged
        before they first change.
        """
        config = self._config
        codes = bytearray()
        for entries in config._table.values():
            for entry in entries.values():
                target = descriptor.entry(entry.function, entry.component_id)
                codes.append(_ABSENT if target is None else _pack_flags(target))
        self._config, (changes, logged) = config.applying(bytes(codes))
        if undo is not None:
            for key, flags in logged:
                if key not in undo:
                    undo[key] = flags
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
        entries = self._config._table.get(component_id)
        if entries is None:
            return
        for entry in entries.values():
            if entry.key not in undo:
                undo[entry.key] = _pack_flags(entry)

    def restore_entry_states(self, undo):
        """Reinstate the flags logged in ``undo``.

        Entries that no longer exist are skipped (the caller re-adds
        their components first when full restoration is needed).
        """
        self._config, changed = self._config.restoring_entries(tuple(undo.items()))
        if changed:
            self._bump()

    def restrictions_snapshot(self):
        """Capture markings, pins, and dependencies for rollback."""
        return self._config.restrictions

    def restore_restrictions(self, snapshot):
        """Reinstate a :meth:`restrictions_snapshot` capture."""
        self._config = self._config.restoring(snapshot)
        self._bump()

    def to_descriptor(self):
        """Snapshot this DFM as a :class:`DFMDescriptor` (for diffing)."""
        config = self._config
        descriptor = DFMDescriptor()
        for component_id, entries in config._table.items():
            descriptor._component_refs[component_id] = None  # refs live in the manager
            for function, entry in entries.items():
                descriptor._entries[(function, component_id)] = DescriptorEntry(
                    function=function,
                    component_id=component_id,
                    enabled=entry.enabled,
                    exported=entry.exported,
                )
        restrictions = config.restrictions
        descriptor._markings = dict(restrictions.markings)
        descriptor._pins = dict(restrictions.pins)
        descriptor._dependencies = list(restrictions.dependencies)
        return descriptor
