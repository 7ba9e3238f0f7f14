"""Integration tests for live DCDOs: dispatch, evolution, §3.1 hazards,
thread activity monitoring, and removal policies."""

import pytest

from repro.cluster import build_lan
from repro.core import (
    ComponentBuilder,
    ComponentBusy,
    Dependency,
    FunctionNotEnabled,
    RemovePolicy,
    define_dcdo_type,
)
from repro.legion import LegionRuntime
from repro.legion.errors import MethodNotFound
from tests.conftest import create_dcdo, make_sorter_manager


@pytest.fixture
def sorter(runtime):
    manager = make_sorter_manager(runtime)
    loid, obj = create_dcdo(runtime, manager)
    client = runtime.make_client("host03")
    return manager, loid, obj, client


# ----------------------------------------------------------------------
# Basic dispatch through the DFM
# ----------------------------------------------------------------------


def test_dynamic_function_roundtrip(sorter):
    __, loid, __, client = sorter
    assert client.call_sync(loid, "sort", [3, 1, 2]) == [1, 2, 3]


def test_intra_object_call_goes_through_dfm(sorter):
    __, loid, obj, client = sorter
    client.call_sync(loid, "sort", [2, 1])
    # sort called compare through the DFM: both have call counts.
    status = client.call_sync(loid, "getFunctionStatus", "compare")
    assert status[0]["calls"] >= 1
    assert obj.dfm.total_calls >= 2


def test_dynamic_call_overhead_is_10_to_15_microseconds(sorter):
    """§4 Overhead, measured at the DFM boundary."""
    __, __, obj, __ = sorter
    sim = obj.sim
    samples = []
    for __ in range(200):
        start = sim.now
        sim.run_process(obj._dispatch_local("compare", (1, 2)))
        samples.append(sim.now - start)
    assert all(10e-6 <= sample <= 15e-6 for sample in samples)


def test_status_reporting_functions(sorter):
    __, loid, __, client = sorter
    assert client.call_sync(loid, "getInterface") == ["compare", "sort"]
    assert client.call_sync(loid, "getVersion") == "1"
    assert client.call_sync(loid, "getComponents") == ["compare-asc", "sorter"]
    impl_type = client.call_sync(loid, "getImplementationType")
    assert impl_type.architecture == "x86-linux"


def test_internal_functions_hidden_from_interface(runtime):
    manager = make_sorter_manager(runtime, type_name="Hidden")
    helper = (
        ComponentBuilder("helper")
        .internal_function("helper_fn", lambda ctx: "secret")
        .build()
    )
    manager.register_component(helper)
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "helper")
    manager.descriptor_of(version).enable("helper_fn", "helper")
    manager.mark_instantiable(version)
    manager.set_current_version(version)
    loid, __ = create_dcdo(runtime, manager)
    client = runtime.make_client()
    assert "helper_fn" not in client.call_sync(loid, "getInterface")
    with pytest.raises(MethodNotFound):
        client.call_sync(loid, "helper_fn")


# ----------------------------------------------------------------------
# Direct configuration functions
# ----------------------------------------------------------------------


def test_enable_disable_via_remote_config_calls(sorter):
    __, loid, __, client = sorter
    client.call_sync(loid, "disableFunction", "sort", "sorter")
    with pytest.raises(MethodNotFound):
        client.call_sync(loid, "sort", [1])
    client.call_sync(loid, "enableFunction", "sort", "sorter")
    assert client.call_sync(loid, "sort", [2, 1]) == [1, 2]


def test_incorporate_component_via_remote_call(sorter):
    manager, loid, obj, client = sorter
    ico = manager.component_ico("compare-desc")
    client.call_sync(loid, "incorporateComponent", ico, timeout_schedule=(120.0,))
    assert "compare-desc" in client.call_sync(loid, "getComponents")
    # New component's functions arrive disabled.
    assert obj.dfm.enabled_components_of("compare") == {"compare-asc"}


def test_swap_compare_implementation_changes_sort_order(runtime):
    """The paper's behavioral-dependency motivating example: replacing
    compare() flips sort()'s output order without breaking anything."""
    manager = make_sorter_manager(runtime)
    loid, obj = create_dcdo(runtime, manager)
    client = runtime.make_client()
    ico = manager.component_ico("compare-desc")
    client.call_sync(loid, "incorporateComponent", ico, timeout_schedule=(120.0,))
    client.call_sync(loid, "disableFunction", "compare", "compare-asc")
    client.call_sync(loid, "enableFunction", "compare", "compare-desc")
    assert client.call_sync(loid, "sort", [3, 1, 2]) == [3, 2, 1]


def test_remove_component_via_remote_call(sorter):
    __, loid, obj, client = sorter
    client.call_sync(loid, "disableFunction", "compare", "compare-asc")
    client.call_sync(loid, "removeComponent", "compare-asc")
    assert client.call_sync(loid, "getComponents") == ["sorter"]


def test_set_exported_moves_function_private(sorter):
    __, loid, __, client = sorter
    client.call_sync(loid, "setExported", "compare", "compare-asc", False)
    assert client.call_sync(loid, "getInterface") == ["sort"]
    with pytest.raises(MethodNotFound):
        client.call_sync(loid, "compare", 1, 2)
    # sort still works: internal calls may use internal functions.
    assert client.call_sync(loid, "sort", [2, 1]) == [1, 2]


# ----------------------------------------------------------------------
# §3.1 hazards, reproduced and then prevented
# ----------------------------------------------------------------------


def test_disappearing_exported_function_problem(sorter):
    """A client builds an invocation against the interface it fetched;
    the function disappears before the call arrives."""
    __, loid, __, client = sorter
    interface = client.call_sync(loid, "getInterface")
    assert "sort" in interface
    client.call_sync(loid, "disableFunction", "sort", "sorter")
    with pytest.raises(MethodNotFound):
        client.call_sync(loid, "sort", [1, 2])


def test_missing_internal_function_problem(sorter):
    """sort calls compare through the DFM; with compare disabled the
    call fails inside the object."""
    __, loid, __, client = sorter
    client.call_sync(loid, "disableFunction", "compare", "compare-asc")
    with pytest.raises(FunctionNotEnabled):
        client.call_sync(loid, "sort", [2, 1])


def test_disappearing_internal_function_problem(runtime):
    """A thread blocked on an outcall resumes to find the function it
    needs was disabled while it slept (§3.1)."""
    manager = make_sorter_manager(runtime, type_name="Sleepy")
    worker = (
        ComponentBuilder("worker")
        .function(
            "outer",
            lambda ctx: (yield from _outer_body(ctx)),
        )
        .function("inner", lambda ctx: "inner-result")
        .build()
    )

    def _outer_body(ctx):
        yield ctx.work(5.0)  # the thread is inactive (blocked) here
        result = yield from ctx.call("inner")
        return result

    manager.register_component(worker)
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "worker")
    descriptor = manager.descriptor_of(version)
    descriptor.enable("outer", "worker")
    descriptor.enable("inner", "worker")
    manager.mark_instantiable(version)
    manager.set_current_version(version)
    loid, __ = create_dcdo(runtime, manager)
    client_a = runtime.make_client("host01")
    client_b = runtime.make_client("host02")
    outcomes = {}

    def slow_caller():
        try:
            outcomes["outer"] = yield from client_a.invoke(
                loid, "outer", timeout_schedule=(60.0,)
            )
        except FunctionNotEnabled as error:
            outcomes["outer"] = error

    def config_caller():
        yield runtime.sim.timeout(1.0)  # while outer's thread sleeps
        yield from client_b.invoke(loid, "disableFunction", "inner", "worker")

    runtime.sim.spawn(slow_caller())
    runtime.sim.spawn(config_caller())
    runtime.sim.run()
    assert isinstance(outcomes["outer"], FunctionNotEnabled)


def test_mandatory_marking_prevents_missing_internal_function(sorter):
    """§3.2: marking compare mandatory makes the disable fail instead
    of breaking sort later."""
    from repro.core import MandatoryViolation

    __, loid, obj, client = sorter
    obj.dfm.mark_mandatory("compare")
    with pytest.raises(MandatoryViolation):
        client.call_sync(loid, "disableFunction", "compare", "compare-asc")
    assert client.call_sync(loid, "sort", [2, 1]) == [1, 2]


def test_dependency_prevents_missing_internal_function(sorter):
    """§3.2 Type A: [sort, sorter] -> [compare] guards the call chain
    while still allowing compare upgrades."""
    from repro.core import DependencyViolation

    manager, loid, obj, client = sorter
    obj.dfm.add_dependency(Dependency("sort", "compare", dependent_component="sorter"))
    with pytest.raises(DependencyViolation):
        client.call_sync(loid, "disableFunction", "compare", "compare-asc")
    # But *replacing* compare with another implementation stays legal —
    # "this dependency alone does not preclude the possibility of
    # replacing the implementation of F2" (§3.2 Type A):
    ico = manager.component_ico("compare-desc")
    client.call_sync(loid, "incorporateComponent", ico, timeout_schedule=(120.0,))
    client.call_sync(loid, "enableFunction", "compare", "compare-desc", True)
    assert client.call_sync(loid, "sort", [1, 3, 2]) == [3, 2, 1]


def test_type_b_dependency_freezes_behavior(sorter):
    """§3.2 Type B: sort depends behaviorally on compare-asc's
    implementation, so the ascending order cannot be flipped."""
    from repro.core import DependencyViolation

    manager, loid, obj, client = sorter
    obj.dfm.add_dependency(
        Dependency(
            "sort",
            "compare",
            dependent_component="sorter",
            required_component="compare-asc",
        )
    )
    ico = manager.component_ico("compare-desc")
    client.call_sync(loid, "incorporateComponent", ico, timeout_schedule=(120.0,))
    with pytest.raises(DependencyViolation):
        client.call_sync(loid, "disableFunction", "compare", "compare-asc")


# ----------------------------------------------------------------------
# Thread activity monitoring and removal policies (§3.2)
# ----------------------------------------------------------------------


def make_slow_component():
    def slow_fn(ctx, seconds):
        yield ctx.work(seconds)
        return "done"

    return ComponentBuilder("slow").function("slow_fn", slow_fn).build()


def make_slow_dcdo(runtime, remove_policy, type_name="SlowType"):
    manager = make_sorter_manager(runtime, type_name=type_name, remove_policy=remove_policy)
    manager.register_component(make_slow_component())
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "slow")
    manager.descriptor_of(version).enable("slow_fn", "slow")
    manager.mark_instantiable(version)
    manager.set_current_version(version)
    loid, obj = create_dcdo(runtime, manager)
    return manager, loid, obj


def test_active_threads_visible_in_status(runtime):
    __, loid, obj = make_slow_dcdo(runtime, RemovePolicy.error())
    client = runtime.make_client()

    def caller():
        yield from client.invoke(loid, "slow_fn", 5.0, timeout_schedule=(60.0,))

    runtime.sim.spawn(caller())
    runtime.sim.run(until=runtime.sim.now + 1.0)
    assert obj.dfm.active_threads_in("slow") == 1
    runtime.sim.run()
    assert obj.dfm.active_threads_in("slow") == 0


def test_remove_policy_error_raises_component_busy(runtime):
    __, loid, obj = make_slow_dcdo(runtime, RemovePolicy.error())
    client_a = runtime.make_client("host01")
    client_b = runtime.make_client("host02")
    outcomes = {}

    def worker():
        outcomes["work"] = yield from client_a.invoke(
            loid, "slow_fn", 5.0, timeout_schedule=(60.0,)
        )

    def remover():
        yield runtime.sim.timeout(1.0)
        try:
            yield from client_b.invoke(loid, "removeComponent", "slow")
        except ComponentBusy as error:
            outcomes["remove"] = error

    runtime.sim.spawn(worker())
    runtime.sim.spawn(remover())
    runtime.sim.run()
    assert isinstance(outcomes["remove"], ComponentBusy)
    assert outcomes["work"] == "done"  # the thread was never yanked


def test_remove_policy_delay_waits_for_threads(runtime):
    __, loid, obj = make_slow_dcdo(runtime, RemovePolicy.delay())
    client_a = runtime.make_client("host01")
    client_b = runtime.make_client("host02")
    times = {}

    def worker():
        yield from client_a.invoke(loid, "slow_fn", 5.0, timeout_schedule=(60.0,))
        times["work_done"] = runtime.sim.now

    def remover():
        yield runtime.sim.timeout(1.0)
        yield from client_b.invoke(loid, "removeComponent", "slow", timeout_schedule=(60.0,))
        times["removed"] = runtime.sim.now

    runtime.sim.spawn(worker())
    runtime.sim.spawn(remover())
    runtime.sim.run()
    # Removal completed only after the worker thread drained.
    assert times["removed"] >= times["work_done"]
    assert "slow" not in obj.dfm.component_ids


def test_remove_policy_timeout_proceeds_after_grace(runtime):
    __, loid, obj = make_slow_dcdo(runtime, RemovePolicy.timeout(2.0))
    client_a = runtime.make_client("host01")
    client_b = runtime.make_client("host02")
    times = {}

    def worker():
        try:
            yield from client_a.invoke(loid, "slow_fn", 30.0, timeout_schedule=(90.0,))
        except Exception as error:  # noqa: BLE001 - hazard is the point
            times["work_error"] = error

    def remover():
        yield runtime.sim.timeout(1.0)
        yield from client_b.invoke(loid, "removeComponent", "slow", timeout_schedule=(60.0,))
        times["removed"] = runtime.sim.now

    start = runtime.sim.now
    runtime.sim.spawn(worker())
    runtime.sim.spawn(remover())
    runtime.sim.run(until=start + 10.0)
    # Removal went ahead ~3s in (1s delay + 2s grace), long before the
    # 30s worker finished: the disappearing-component hazard, accepted.
    assert times["removed"] == pytest.approx(start + 3.0, abs=0.5)
    assert "slow" not in obj.dfm.component_ids


def test_disable_wait_for_dependents_postpones(runtime):
    """§3.2: disable of a depended-on function waits for dependents'
    threads to drain when asked to."""
    manager = make_sorter_manager(runtime, type_name="DepWait")
    loid, obj = create_dcdo(runtime, manager)
    obj.dfm.add_dependency(Dependency("sort", "compare", dependent_component="sorter"))
    client_a = runtime.make_client("host01")
    client_b = runtime.make_client("host02")
    times = {}

    def sorter_caller():
        yield from client_a.invoke(
            loid, "sort", list(range(40, 0, -1)), timeout_schedule=(60.0,)
        )
        times["sort_done"] = runtime.sim.now

    def disabler():
        yield runtime.sim.timeout(0.001)
        # With wait_for_dependents the disable is postponed until
        # sort's active thread count drains, then proceeds (the
        # runtime guard replaces the static dependency veto).
        yield from client_b.invoke(
            loid,
            "disableFunction",
            "compare",
            "compare-asc",
            True,
            timeout_schedule=(60.0,),
        )
        times["disabled"] = runtime.sim.now

    runtime.sim.spawn(sorter_caller())
    runtime.sim.spawn(disabler())
    runtime.sim.run()
    assert times["disabled"] >= times["sort_done"]


def slow_work_body(ctx, seconds):
    yield ctx.work(seconds)
    return "slow"


def quick_work_body(ctx, seconds):
    return "quick"
    yield  # pragma: no cover - uniform generator shape


def note_body(ctx):
    ctx.component_state["noted"] = ctx.component_state.get("noted", 0) + 1
    return ctx.component_state["noted"]
    yield  # pragma: no cover - uniform generator shape


def test_rollback_adds_a_removed_component_again_at_the_end_with_fresh_counts():
    """v2 drops two components; the first goes, the second is busy, so
    the rollback maps the first in again.  It goes to the end of table
    order, and its call counts and private state start fresh."""
    runtime = LegionRuntime(build_lan(4, seed=7))
    manager = define_dcdo_type(runtime, "Pair")
    builds = {
        "note-a": ("note", note_body),
        "work-b": ("work", slow_work_body),
        "work-c": ("work", quick_work_body),
    }
    for component_id, (function, body) in builds.items():
        component = (
            ComponentBuilder(component_id)
            .function(function, body)
            .variant(size_bytes=64_000)
            .build()
        )
        manager.register_component(component, host_name="host00")
    v1 = manager.new_version()
    manager.incorporate_into(v1, "note-a")
    manager.incorporate_into(v1, "work-b")
    manager.descriptor_of(v1).enable("note", "note-a")
    manager.descriptor_of(v1).enable("work", "work-b")
    manager.mark_instantiable(v1)
    manager.set_current_version(v1)
    loid, obj = create_dcdo(runtime, manager, host_name="host01")
    v2 = manager.derive_version(v1)
    manager.incorporate_into(v2, "work-c")
    descriptor = manager.descriptor_of(v2)
    descriptor.enable("work", "work-c", replace_current=True)
    descriptor.remove_component("note-a")
    descriptor.remove_component("work-b")
    manager.mark_instantiable(v2)
    manager.set_current_version(v2)
    client = runtime.make_client("host02")
    assert client.call_sync(loid, "note") == 1
    assert obj.dfm.calls(obj.dfm.lookup("note")) == 1

    def scenario():
        runtime.sim.spawn(
            client.invoke(loid, "work", 30.0, timeout_schedule=(60.0,)),
            name="busy-caller",
        )
        yield runtime.sim.timeout(1.0)  # a thread is inside work-b
        with pytest.raises(ComponentBusy):
            yield from manager.evolve_instance(loid, v2)

    runtime.sim.run_process(scenario())
    assert obj.version == v1 and obj.rollbacks == 1
    assert list(obj.dfm.to_descriptor().component_refs()) == ["work-b", "note-a"]
    assert obj.dfm.enabled_components_of("note") == {"note-a"}
    assert obj.dfm.calls(obj.dfm.lookup("note")) == 0
    assert obj.dfm.private_state("note-a") == {}
    assert obj.dfm.total_calls == 2
    assert client.call_sync(loid, "note") == 1
