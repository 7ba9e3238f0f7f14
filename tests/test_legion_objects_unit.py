"""Unit-level tests for LegionObject details and the DCDO method table."""

import pytest

from repro.legion.errors import MethodNotFound
from tests.conftest import create_dcdo, make_counter_class, make_sorter_manager


# ----------------------------------------------------------------------
# LegionObject details
# ----------------------------------------------------------------------


def test_register_method_requires_callable(runtime):
    klass = make_counter_class(runtime)
    loid = runtime.sim.run_process(klass.create_instance())
    obj = klass.record(loid).obj
    with pytest.raises(TypeError):
        obj.register_method("bad", "not-callable")


def test_has_method_and_unregister(runtime):
    klass = make_counter_class(runtime)
    loid = runtime.sim.run_process(klass.create_instance())
    obj = klass.record(loid).obj
    assert obj.has_method("inc")
    obj.unregister_method("inc")
    assert not obj.has_method("inc")
    client = runtime.make_client()
    with pytest.raises(MethodNotFound):
        client.call_sync(loid, "inc")


def test_capture_state_returns_copy(runtime):
    klass = make_counter_class(runtime)
    loid = runtime.sim.run_process(klass.create_instance())
    obj = klass.record(loid).obj
    obj.state["x"] = 1
    state, size = obj.capture_state()
    state["x"] = 999
    assert obj.state["x"] == 1
    assert size == obj.state_bytes


def test_deactivate_is_idempotent(runtime):
    klass = make_counter_class(runtime)
    loid = runtime.sim.run_process(klass.create_instance())
    obj = klass.record(loid).obj
    obj.deactivate()
    obj.deactivate()  # must not raise
    assert not obj.is_active
    assert obj.address is None


def test_invoker_unavailable_when_inactive(runtime):
    klass = make_counter_class(runtime)
    loid = runtime.sim.run_process(klass.create_instance())
    obj = klass.record(loid).obj
    obj.deactivate()
    with pytest.raises(RuntimeError, match="not active"):
        obj.invoker


def test_method_names_sorted(runtime):
    klass = make_counter_class(runtime)
    loid = runtime.sim.run_process(klass.create_instance())
    obj = klass.record(loid).obj
    names = obj.method_names
    assert names == sorted(names)
    assert "inc" in names


def test_reply_size_charges_wire_time(runtime):
    """A method that sets a large reply size makes its reply slower."""
    klass = make_counter_class(runtime, name="BigReply")
    loid = runtime.sim.run_process(klass.create_instance())
    obj = klass.record(loid).obj

    def small(ctx):
        return "x"

    def big(ctx):
        ctx.set_reply_size(2_000_000)
        return "x"

    obj.register_method("small", small)
    obj.register_method("big", big)
    client = runtime.make_client("host03")
    client.call_sync(loid, "small")  # warm binding

    start = runtime.sim.now
    client.call_sync(loid, "small")
    small_time = runtime.sim.now - start
    start = runtime.sim.now
    client.call_sync(loid, "big")
    big_time = runtime.sim.now - start
    # 2 MB at 12.5 MB/s adds ~160 ms to the reply leg.
    assert big_time > small_time + 0.1


def test_requests_completed_counter(runtime):
    klass = make_counter_class(runtime)
    loid = runtime.sim.run_process(klass.create_instance())
    obj = klass.record(loid).obj
    client = runtime.make_client()
    for __ in range(3):
        client.call_sync(loid, "get")
    assert obj.requests_completed == 3
    assert obj.active_requests == 0


# ----------------------------------------------------------------------
# DCDO method-table interactions
# ----------------------------------------------------------------------


def test_config_functions_shadow_user_functions(runtime):
    """A dynamic function named like a core config function is
    unreachable — the DCDO core interface wins.  This mirrors the
    model: configuration functions are part of every DCDO's fixed
    interface (§2.2)."""
    from repro.core import ComponentBuilder
    from repro.core.manager import define_dcdo_type

    shady = (
        ComponentBuilder("shady")
        .function("getVersion", lambda ctx: "fake-version")
        .function("honest", lambda ctx: "ok")
        .build()
    )
    manager = define_dcdo_type(runtime, "Shadow")
    manager.register_component(shady)
    version = manager.new_version()
    manager.incorporate_into(version, "shady")
    descriptor = manager.descriptor_of(version)
    descriptor.enable("getVersion", "shady")
    descriptor.enable("honest", "shady")
    manager.mark_instantiable(version)
    manager.set_current_version(version)
    loid, __ = create_dcdo(runtime, manager)
    client = runtime.make_client()
    # The core status function answers, not the user function.
    assert client.call_sync(loid, "getVersion") == str(version)
    assert client.call_sync(loid, "honest") == "ok"


def test_remove_then_reincorporate_uses_cache(runtime):
    """Removing a component leaves its blob cached, so putting it back
    costs the ~200 us cached path — the round-trip evolution case."""
    manager = make_sorter_manager(runtime)
    loid, obj = create_dcdo(runtime, manager)
    client = runtime.make_client()
    client.call_sync(loid, "disableFunction", "compare", "compare-asc")
    client.call_sync(loid, "removeComponent", "compare-asc")
    ico = manager.component_ico("compare-asc")
    start = runtime.sim.now
    client.call_sync(loid, "incorporateComponent", ico, timeout_schedule=(120.0,))
    elapsed = runtime.sim.now - start
    # Metadata RPC + cached link: well under the uncached ~100 ms.
    assert elapsed < 0.05
    assert "compare-asc" in obj.dfm.component_ids


def test_dynamic_calls_counted_per_entry(runtime):
    manager = make_sorter_manager(runtime)
    loid, obj = create_dcdo(runtime, manager)
    client = runtime.make_client()
    client.call_sync(loid, "sort", [3, 1, 2])
    sort_entry = obj.dfm.entry("sort", "sorter")
    compare_entry = obj.dfm.entry("compare", "compare-asc")
    assert obj.dfm.calls(sort_entry) == 1
    assert obj.dfm.calls(compare_entry) >= 2
    assert obj.dfm.total_calls == obj.dfm.calls(sort_entry) + obj.dfm.calls(compare_entry)


def test_evolving_deactivated_instance_rejected(runtime):
    from repro.core.policies import GeneralEvolutionPolicy
    from repro.legion.errors import ObjectDeactivated

    manager = make_sorter_manager(runtime, evolution_policy=GeneralEvolutionPolicy())
    loid, __ = create_dcdo(runtime, manager)
    runtime.sim.run_process(manager.deactivate_instance(loid))
    version = manager.derive_version(manager.current_version)
    manager.descriptor_of(version).set_exported("compare", "compare-asc", False)
    manager.mark_instantiable(version)
    with pytest.raises(ObjectDeactivated):
        runtime.sim.run_process(manager.evolve_instance(loid, version))


def test_reactivated_instance_rebuilds_at_its_version(runtime):
    from repro.core.policies import GeneralEvolutionPolicy

    manager = make_sorter_manager(runtime, evolution_policy=GeneralEvolutionPolicy())
    loid, __ = create_dcdo(runtime, manager)
    v1 = manager.current_version
    # Cut a new current version while the instance sleeps.
    runtime.sim.run_process(manager.deactivate_instance(loid))
    version = manager.derive_version(v1)
    manager.descriptor_of(version).set_exported("compare", "compare-asc", False)
    manager.mark_instantiable(version)
    manager.set_current_version(version)
    runtime.sim.run_process(manager.activate_instance(loid))
    # The explicit-update default: the instance comes back at ITS
    # version, not silently at the new current one.
    assert manager.instance_version(loid) == v1
    client = runtime.make_client()
    assert client.call_sync(loid, "compare", 2, 1) == 1
