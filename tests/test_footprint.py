"""What a resident DCDO holds: traced bytes per instance at rest.

Builds P6's fleet (64 instances per host, two components of two
functions each, v2 staged) at 128 instances with tracemalloc on, and
checks the bytes per instance left after the build against a committed
ceiling, with P6's 5% tolerance.  P6 gates the same figure at 1,024
instances (``BYTES_COMMITTED``); at 128 the deployment's fixed share
(runtime, hosts, manager, class objects) weighs eight times more per
instance, so this guard commits its own figure.  It is the larger of
the Python 3.11 and 3.12 readings in a fresh interpreter.

Most of what an instance would hold is its DFM's table, which every
instance in one configuration shares (:mod:`repro.core.dfm`).  The
other tests check that sharing: after a wave, relayed or direct, the
fleet holds one configuration; waves leave no configurations behind;
and one instance's configuration call changes no other instance.
"""

import gc
import tracemalloc

from repro.bench.experiments.p6_scale import (
    OBJECTS_TOLERANCE,
    UPGRADE_BYTES,
    WINDOW,
    _build_fleet,
    tree_fanout,
)
from repro.cluster import deploy_relays
from repro.core import ComponentBuilder, DFMConfiguration

from tests.conftest import create_dcdo, make_sorter_manager

INSTANCES = 128
#: Traced bytes per instance at rest for the 128-instance fleet.
AT_REST_BYTES = 3196.5


def _bytes_at_rest(seed, scale):
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        fleet = _build_fleet(seed, scale)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    return held / scale


def test_a_resident_dcdo_stays_under_its_byte_ceiling():
    per_instance = _bytes_at_rest(0, INSTANCES)
    ceiling = AT_REST_BYTES * (1 + OBJECTS_TOLERANCE)
    assert per_instance <= ceiling, (
        f"{per_instance:,.0f} traced bytes per instance at rest, more than "
        f"{OBJECTS_TOLERANCE:.0%} above the committed {AT_REST_BYTES:,.0f}"
    )


def _noop_body(ctx):
    return None


def _stage_upgrade(runtime, manager, number, previous):
    """Make current a version whose new component replaces
    ``previous``, pre-seeded in every host cache; returns the version
    and the new component's id."""
    component = (
        ComponentBuilder(f"upgrade{number:02d}")
        .function("upgrade_fn", _noop_body)
        .variant(size_bytes=UPGRADE_BYTES)
        .build()
    )
    manager.register_component(component)
    for host in runtime.hosts.values():
        variant = component.variant_for_host(host)
        host.cache.insert(variant.blob_id, variant.size_bytes)
    version = manager.derive_version(manager.current_version)
    descriptor = manager.descriptor_of(version)
    descriptor.remove_component(previous)
    manager.incorporate_into(version, component.component_id)
    descriptor.enable("upgrade_fn", component.component_id)
    manager.mark_instantiable(version)
    manager.set_current_version(version)
    return version, component.component_id


def _wave(runtime, manager, version):
    tracker = runtime.sim.run_process(manager.propagate_version(version, window=WINDOW))
    assert tracker.complete and tracker.all_acked, tracker.summary()


def _configurations(manager):
    """The distinct DFM configurations the fleet's instances are in."""
    return {
        id(manager.record(loid).obj.dfm.configuration) for loid in manager.instance_loids()
    }


def _live_configurations():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is DFMConfiguration)


def test_a_relayed_and_a_direct_wave_each_leave_the_fleet_in_one_configuration():
    runtime, manager, v2 = _build_fleet(0, INSTANCES)
    assert len(_configurations(manager)) == 1
    # Direct delivery: every instance gets its own diff and descriptor.
    _wave(runtime, manager, v2)
    assert len(_configurations(manager)) == 1
    manager.use_relays(deploy_relays(runtime), fanout_k=tree_fanout(len(runtime.hosts)))
    v3, __ = _stage_upgrade(runtime, manager, 3, "upgrade")
    _wave(runtime, manager, v3)
    assert len(_configurations(manager)) == 1
    obj = manager.record(manager.instance_loids()[0]).obj
    assert obj.version == v3
    assert obj.dfm.lookup("upgrade_fn").component_id == "upgrade03"


def test_waves_leave_no_configurations_behind():
    runtime, manager, v2 = _build_fleet(0, INSTANCES)
    manager.use_relays(deploy_relays(runtime), fanout_k=tree_fanout(len(runtime.hosts)))
    _wave(runtime, manager, v2)
    previous = "upgrade"
    for number in range(2, 31):
        version, previous = _stage_upgrade(runtime, manager, number, previous)
        _wave(runtime, manager, version)
        if number == 2:
            after_two = _live_configurations()
    assert _live_configurations() == after_two
    assert len(_configurations(manager)) == 1


def test_one_instance_configuration_call_changes_that_instance_only(runtime):
    manager = make_sorter_manager(runtime)
    objects = [create_dcdo(runtime, manager, host_name="host01")[1] for __ in range(3)]
    shared = objects[0].dfm.configuration
    assert all(obj.dfm.configuration is shared for obj in objects)
    epoch = objects[1].dfm.epoch
    client = runtime.make_client("host02")
    changed = objects[0]
    client.call_sync(
        changed.loid, "incorporateComponent", manager.component_ico("compare-desc"),
        timeout_schedule=(120.0,),
    )
    client.call_sync(changed.loid, "enableFunction", "compare", "compare-desc", True)
    assert changed.dfm.configuration is not shared
    assert changed.dfm.lookup("compare").component_id == "compare-desc"
    assert client.call_sync(changed.loid, "sort", [1, 3, 2]) == [3, 2, 1]
    for obj in objects[1:]:
        assert obj.dfm.configuration is shared and obj.dfm.epoch == epoch
        assert obj.dfm.lookup("compare").component_id == "compare-asc"
        assert client.call_sync(obj.loid, "sort", [1, 3, 2]) == [1, 2, 3]
