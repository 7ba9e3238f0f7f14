"""Unit tests for the live DynamicFunctionMapper (no simulation)."""

import pytest

from repro.core import (
    ComponentBuilder,
    ComponentNotIncorporated,
    Dependency,
    FunctionNotEnabled,
    FunctionNotExported,
    Marking,
)
from repro.core.dfm import DynamicFunctionMapper
from repro.core.impltype import NATIVE


def component(component_id, functions=("f",), internal=()):
    builder = ComponentBuilder(component_id)
    for name in functions:
        builder.function(name, lambda ctx: name)
    for name in internal:
        builder.internal_function(name, lambda ctx: name)
    return builder.build()


def add(dfm, comp):
    dfm.add_component(comp, comp.variants[NATIVE])
    return comp


def make_dfm(*components):
    dfm = DynamicFunctionMapper()
    for comp in components:
        add(dfm, comp)
    return dfm


def test_add_component_creates_disabled_entries():
    dfm = make_dfm(component("c1", functions=("f", "g")))
    assert dfm.entry_count() == 2
    assert dfm.function_names() == ["f", "g"]
    assert dfm.exported_interface() == []


def test_lookup_disabled_raises():
    dfm = make_dfm(component("c1"))
    with pytest.raises(FunctionNotEnabled):
        dfm.lookup("f")


def test_lookup_unknown_function_raises():
    dfm = make_dfm(component("c1"))
    with pytest.raises(FunctionNotEnabled):
        dfm.lookup("missing")


def test_lookup_enabled_returns_entry():
    dfm = make_dfm(component("c1"))
    dfm.enable("f", "c1")
    entry = dfm.lookup("f")
    assert entry.component_id == "c1"
    assert entry.function == "f"


def test_external_lookup_requires_exported():
    dfm = make_dfm(component("c1", functions=(), internal=("secret",)))
    dfm.enable("secret", "c1")
    assert dfm.lookup("secret").function == "secret"  # internal call fine
    with pytest.raises(FunctionNotExported):
        dfm.lookup("secret", external=True)


def test_enter_leave_tracks_active_threads():
    dfm = make_dfm(component("c1"))
    dfm.enable("f", "c1")
    entry = dfm.lookup("f")
    dfm.enter(entry)
    dfm.enter(entry)
    assert dfm.active_threads(entry) == 2
    assert dfm.active_threads_in("c1") == 2
    dfm.leave(entry)
    assert dfm.active_threads(entry) == 1
    assert dfm.calls(entry) == 2
    assert dfm.total_calls == 2


def test_leave_underflow_raises():
    dfm = make_dfm(component("c1"))
    dfm.enable("f", "c1")
    entry = dfm.lookup("f")
    with pytest.raises(RuntimeError, match="underflow"):
        dfm.leave(entry)


def test_remove_component_drops_entries():
    dfm = make_dfm(component("c1"), component("c2", functions=("g",)))
    dfm.remove_component("c1")
    assert dfm.component_ids == {"c2"}
    assert dfm.function_names() == ["g"]


def test_remove_unknown_component_raises():
    dfm = make_dfm(component("c1"))
    with pytest.raises(ComponentNotIncorporated):
        dfm.remove_component("ghost")


def test_remove_unvalidated_still_requires_presence():
    dfm = make_dfm(component("c1"))
    with pytest.raises(ComponentNotIncorporated):
        dfm.remove_component("ghost", validate=False)


def test_component_private_state_is_per_component():
    dfm = make_dfm(component("c1"), component("c2", functions=("g",)))
    dfm.private_state("c1")["x"] = 1
    assert dfm.private_state("c2") == {}


def test_component_required_markings_adopted():
    comp = (
        ComponentBuilder("c1")
        .function("f", lambda ctx: None)
        .require_mandatory("f")
        .build()
    )
    dfm = make_dfm(comp)
    assert dfm.marking("f") is Marking.MANDATORY


def test_functions_depending_on():
    dfm = make_dfm(component("c1", functions=("f1", "f2", "f3")))
    dfm.add_dependency(Dependency("f1", "f2"))
    dfm.add_dependency(Dependency("f3", "f2", required_component="c1"))
    assert dfm.functions_depending_on("f2") == {"f1", "f3"}
    assert dfm.functions_depending_on("f2", component_id="c1") == {"f1", "f3"}
    assert dfm.functions_depending_on("f2", component_id="other") == {"f1"}


def test_to_descriptor_snapshot_matches():
    dfm = make_dfm(component("c1", functions=("f", "g")))
    dfm.enable("f", "c1")
    dfm.mark_mandatory("f")
    snapshot = dfm.to_descriptor()
    assert snapshot.is_enabled("f", "c1")
    assert not snapshot.is_enabled("g", "c1")
    assert snapshot.marking("f") is Marking.MANDATORY


def test_apply_entry_states_syncs_enabled_bits():
    dfm = make_dfm(component("c1", functions=("f", "g")))
    target = dfm.to_descriptor()
    target.enable("f", "c1")
    changes = dfm.apply_entry_states(target)
    assert changes == 1
    assert dfm.is_enabled("f", "c1")
    # Applying again is a no-op.
    assert dfm.apply_entry_states(target) == 0


def test_mark_permanent_conflict_raises():
    from repro.core import PermanenceViolation

    dfm = make_dfm(component("c1"), component("c2"))
    dfm.mark_permanent("f", "c1")
    with pytest.raises(PermanenceViolation):
        dfm.mark_permanent("f", "c2")


def test_check_consistent_raises_for_every_dfm_in_an_inconsistent_configuration():
    from repro.core import AmbiguousFunction, DescriptorEntry

    components = (component("c1"), component("c2"))
    first, second = make_dfm(*components), make_dfm(*components)
    for dfm in (first, second):
        both = dfm.to_descriptor()
        for component_id in ("c1", "c2"):
            both._entries[("f", component_id)] = DescriptorEntry("f", component_id, True, True)
        assert dfm.apply_entry_states(both) == 2
    assert first.configuration is second.configuration
    for dfm in (first, second, first):
        with pytest.raises(AmbiguousFunction):
            dfm.check_consistent()
    # A consistent configuration is checked once and stays accepted.
    for dfm in (first, second):
        dfm.disable("f", "c1")
        dfm.check_consistent()
    assert first.configuration is second.configuration
