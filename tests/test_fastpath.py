"""The invocation fast path: epoch leases and windowed fan-out."""

import pytest

from tests.conftest import create_dcdo, make_sorter_components, make_sorter_manager

from repro.core.dfm import DynamicFunctionMapper
from repro.core.stub import DCDOStub
from repro.legion.errors import MethodNotFound
from repro.net import run_windowed
from repro.obs.metrics import Timer
from repro.sim import Simulator


# ----------------------------------------------------------------------
# DFM: configuration epoch and secondary indexes
# ----------------------------------------------------------------------


def make_dfm_with_sorter():
    dfm = DynamicFunctionMapper()
    sorter, compare_asc, compare_desc = make_sorter_components()
    for component in (sorter, compare_asc, compare_desc):
        dfm.add_component(component, next(iter(component.variants.values())))
    return dfm, (sorter, compare_asc, compare_desc)


def test_epoch_bumps_on_every_mutation():
    dfm, __ = make_dfm_with_sorter()
    epoch = dfm.epoch
    assert epoch >= 3  # one bump per add_component
    dfm.enable("sort", "sorter")
    assert dfm.epoch == epoch + 1
    dfm.enable("compare", "compare-asc")
    dfm.disable("compare", "compare-asc")
    assert dfm.epoch == epoch + 3
    dfm.set_exported("sort", "sorter", False)
    assert dfm.epoch == epoch + 4
    dfm.remove_component("compare-desc")
    assert dfm.epoch == epoch + 5


def test_epoch_untouched_by_reads():
    dfm, __ = make_dfm_with_sorter()
    epoch = dfm.epoch
    dfm.entries_for("compare")
    dfm.enabled_components_of("compare")
    dfm.exported_interface()
    dfm.function_names()
    assert dfm.epoch == epoch


def test_secondary_indexes_track_add_and_remove():
    dfm, __ = make_dfm_with_sorter()
    assert {entry.component_id for entry in dfm.entries_for("compare")} == {
        "compare-asc",
        "compare-desc",
    }
    assert [entry.function for entry in dfm.entries_in("sorter")] == ["sort"]
    assert dfm.function_names() == ["compare", "sort"]
    dfm.remove_component("compare-asc")
    assert {entry.component_id for entry in dfm.entries_for("compare")} == {
        "compare-desc"
    }
    assert dfm.entries_in("compare-asc") == []
    dfm.remove_component("compare-desc")
    assert dfm.entries_for("compare") == []
    assert dfm.function_names() == ["sort"]


def test_enabled_components_uses_index():
    dfm, __ = make_dfm_with_sorter()
    dfm.enable("compare", "compare-asc")
    assert dfm.enabled_components_of("compare") == {"compare-asc"}
    dfm.enable("compare", "compare-desc", replace_current=True)
    assert dfm.enabled_components_of("compare") == {"compare-desc"}


# ----------------------------------------------------------------------
# Epoch piggyback and the lease-caching stub
# ----------------------------------------------------------------------


def make_target(runtime):
    manager = make_sorter_manager(runtime)
    loid, obj = create_dcdo(runtime, manager, host_name="host00")
    client = runtime.make_client("host01")
    return manager, loid, obj, client


def test_replies_piggyback_epoch(runtime):
    __, loid, obj, client = make_target(runtime)
    assert client.invoker.observed_epoch(loid) is None
    client.call_sync(loid, "getVersion")
    assert client.invoker.observed_epoch(loid) == obj.dfm.epoch
    assert client.invoker.stats.epoch_observations == 1
    client.call_sync(loid, "disableFunction", "sort", "sorter")
    assert client.invoker.observed_epoch(loid) == obj.dfm.epoch


def test_refresh_interface_is_one_rpc_with_epoch(runtime):
    __, loid, obj, client = make_target(runtime)
    stub = DCDOStub(client, loid, lease_ttl_s=10.0)
    before = client.invoker.stats.invocations
    functions = runtime.sim.run_process(stub.refresh_interface())
    assert client.invoker.stats.invocations - before == 1
    assert functions == {"sort", "compare"}
    assert stub.interface.version == "1"
    assert stub.interface.epoch == obj.dfm.epoch


def test_refresh_interface_falls_back_to_two_rpcs(runtime):
    __, loid, obj, client = make_target(runtime)
    obj.unregister_method("getStatus")  # an object predating getStatus
    stub = DCDOStub(client, loid)
    before = client.invoker.stats.invocations
    functions = runtime.sim.run_process(stub.refresh_interface())
    # getStatus (bounced) + getInterface + getVersion.
    assert client.invoker.stats.invocations - before == 3
    assert functions == {"sort", "compare"}
    assert stub.interface.version == "1"
    assert stub.interface.epoch is None  # no epoch -> never lease-valid


def test_warm_lease_answers_supports_without_rpc(runtime):
    __, loid, __, client = make_target(runtime)
    stub = DCDOStub(client, loid, lease_ttl_s=10.0)
    runtime.sim.run_process(stub.refresh_interface())
    before = client.invoker.stats.invocations
    assert runtime.sim.run_process(stub.supports("sort")) is True
    assert runtime.sim.run_process(stub.supports("missing")) is False
    assert client.invoker.stats.invocations == before
    assert stub.lease_hits == 2 and stub.lease_misses == 0


def test_lease_expires_by_ttl(runtime):
    __, loid, __, client = make_target(runtime)
    stub = DCDOStub(client, loid, lease_ttl_s=0.5)

    def scenario():
        yield from stub.refresh_interface()
        yield runtime.sim.timeout(1.0)
        return (yield from stub.supports("sort"))

    before = client.invoker.stats.invocations
    assert runtime.sim.run_process(scenario()) is True
    assert client.invoker.stats.invocations > before
    assert stub.lease_misses == 1


def test_lease_invalidated_by_epoch_change(runtime):
    __, loid, __, client = make_target(runtime)
    stub = DCDOStub(client, loid, lease_ttl_s=60.0)
    runtime.sim.run_process(stub.refresh_interface())
    # A mutation observed through the same invoker (the piggybacked
    # epoch on the config call's own reply) invalidates the lease.
    client.call_sync(loid, "disableFunction", "sort", "sorter")
    before = client.invoker.stats.invocations
    assert runtime.sim.run_process(stub.supports("sort")) is False
    assert client.invoker.stats.invocations == before + 1
    assert stub.lease_misses == 1


def test_without_lease_supports_requeries(runtime):
    __, loid, __, client = make_target(runtime)
    stub = DCDOStub(client, loid)  # seed behavior: no lease
    runtime.sim.run_process(stub.refresh_interface())
    before = client.invoker.stats.invocations
    assert runtime.sim.run_process(stub.supports("sort")) is True
    assert client.invoker.stats.invocations == before + 1
    assert stub.lease_hits == 0


def test_check_first_hits_warm_lease(runtime):
    __, loid, __, client = make_target(runtime)
    stub = DCDOStub(client, loid, lease_ttl_s=60.0)
    stub.call_sync("sort", [3, 1, 2], check_first=True)  # cold: refresh + call
    before = client.invoker.stats.invocations
    assert stub.call_sync("sort", [3, 1, 2], check_first=True) == [1, 2, 3]
    assert client.invoker.stats.invocations == before + 1


def test_stale_lease_backstop_never_succeeds_on_removed_function(runtime):
    """A warm lease gone stale cannot make a removed function 'work'."""
    __, loid, __, client = make_target(runtime)
    stub = DCDOStub(client, loid, lease_ttl_s=60.0)
    runtime.sim.run_process(stub.refresh_interface())
    # Disable through a DIFFERENT client: our invoker never sees the
    # epoch change, so the lease stays (wrongly) warm.
    other = runtime.make_client("host02")
    other.call_sync(loid, "disableFunction", "sort", "sorter")
    assert runtime.sim.run_process(stub.supports("sort")) is True  # stale hit
    with pytest.raises(MethodNotFound):
        stub.call_sync("sort", [2, 1], check_first=True)
    assert stub.disappearances == 1


def test_binding_hit_miss_counters(runtime):
    __, loid, __, client = make_target(runtime)
    client.call_sync(loid, "getVersion")
    assert client.invoker.stats.binding_misses == 1
    assert client.invoker.stats.binding_hits == 0
    client.call_sync(loid, "getVersion")
    client.call_sync(loid, "getVersion")
    assert client.invoker.stats.binding_misses == 1
    assert client.invoker.stats.binding_hits == 2
    client.invoker.stats.reset()
    assert client.invoker.stats.binding_hits == 0


# ----------------------------------------------------------------------
# run_windowed
# ----------------------------------------------------------------------


def test_run_windowed_bounds_concurrency():
    sim = Simulator()
    in_flight = {"now": 0, "peak": 0}

    def job(index):
        def body():
            in_flight["now"] += 1
            in_flight["peak"] = max(in_flight["peak"], in_flight["now"])
            yield sim.timeout(0.01)
            in_flight["now"] -= 1
            return index * 10

        return body

    def scenario():
        outcomes = yield from run_windowed(sim, [job(i) for i in range(10)], 3)
        return outcomes

    outcomes = sim.run_process(scenario())
    assert outcomes == [(True, i * 10) for i in range(10)]
    assert in_flight["peak"] == 3


def test_run_windowed_captures_errors_in_order():
    sim = Simulator()

    def ok():
        yield sim.timeout(0.001)
        return "fine"

    def bad():
        yield sim.timeout(0.001)
        raise ValueError("nope")

    def scenario():
        return (yield from run_windowed(sim, [ok, bad, ok], 2))

    outcomes = sim.run_process(scenario())
    assert outcomes[0] == (True, "fine")
    assert outcomes[2] == (True, "fine")
    ok_flag, error = outcomes[1]
    assert not ok_flag and isinstance(error, ValueError)


def test_run_windowed_rejects_bad_window():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.run_process(run_windowed(sim, [], 0))


# ----------------------------------------------------------------------
# Windowed manager fan-out
# ----------------------------------------------------------------------


def derive_desc_version(manager):
    v2 = manager.derive_version(manager.current_version)
    manager.incorporate_into(v2, "compare-desc")
    descriptor = manager.descriptor_of(v2)
    descriptor.enable("compare", "compare-desc", replace_current=True)
    manager.mark_instantiable(v2)
    return v2


def test_propagate_version_windowed_faster_than_sequential():
    from repro.cluster import build_lan
    from repro.legion import LegionRuntime

    def wave(window):
        runtime = LegionRuntime(build_lan(4, seed=11))
        manager = make_sorter_manager(runtime, type_name=f"SorterW{window}")
        for index in range(8):
            create_dcdo(runtime, manager, host_name=f"host{index % 4:02d}")
        v2 = derive_desc_version(manager)
        manager.set_current_version(v2)
        started = runtime.sim.now
        tracker = runtime.sim.run_process(
            manager.propagate_version(v2, window=window)
        )
        assert tracker.complete
        assert not tracker.pending_loids()
        return runtime.sim.now - started

    sequential = wave(1)
    windowed = wave(8)
    assert windowed < sequential


def test_manager_rejects_bad_fanout_window(runtime):
    with pytest.raises(ValueError):
        make_sorter_manager(runtime, fanout_window=0)


# ----------------------------------------------------------------------
# Timer extremes
# ----------------------------------------------------------------------


def test_timer_max_min():
    timer = Timer("t")
    assert timer.max() is None and timer.min() is None
    for sample in (0.3, 0.1, 0.2):
        timer.record(sample)
    assert timer.max() == 0.3
    assert timer.min() == 0.1
