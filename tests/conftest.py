"""Shared fixtures and builders for the test suite."""

import pytest

from repro.cluster import build_lan
from repro.core import ComponentBuilder, define_dcdo_type
from repro.legion import Implementation, LegionRuntime
from repro.net import RetryPolicy

from tests.invariants import replay_sampling

#: The shadow-replay invariant is checked after every this-many-th
#: journaled manager record, counted per test.
REPLAY_CHECK_EVERY = 7

#: Tight-ish retry policy so chaos runs converge in bounded sim time.
FAST_RETRY = RetryPolicy(
    base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8
)


@pytest.fixture(autouse=True)
def shadow_replay_check():
    """Fold the journal at sampled records; it must equal the live state.

    The test fails at teardown on the first mismatch.
    """
    with replay_sampling(REPLAY_CHECK_EVERY) as mismatches:
        yield
    assert not mismatches, f"shadow replay differs {mismatches[0]}"


@pytest.fixture
def runtime():
    """A 4-host LAN runtime with default calibration."""
    return LegionRuntime(build_lan(4, seed=7))


@pytest.fixture
def centurion_runtime():
    """The paper's 16-node testbed."""
    from repro.cluster import build_centurion

    return LegionRuntime(build_centurion(seed=7))


def counter_functions():
    """A tiny member-function set used across tests.

    Functions follow the ``body(ctx, *args)`` convention: ``inc`` and
    ``get`` manipulate the object's state dict; ``slow`` charges CPU.
    """

    def inc(ctx, amount=1):
        ctx.state["count"] = ctx.state.get("count", 0) + amount
        return ctx.state["count"]

    def get(ctx):
        return ctx.state.get("count", 0)

    def slow(ctx, seconds):
        yield ctx.work(seconds)
        return "done"

    def add_twice(ctx, amount):
        first = yield from ctx.call("inc", amount)
        second = yield from ctx.call("inc", amount)
        return (first, second)

    return {"inc": inc, "get": get, "slow": slow, "add_twice": add_twice}


def make_counter_class(runtime, name="Counter", function_count=None, size_bytes=550_000):
    """Define a class with the counter functions, optionally padded.

    ``function_count`` pads the implementation with no-op functions so
    creation-cost experiments can sweep the method-table size.
    """
    functions = counter_functions()
    if function_count is not None:
        for index in range(max(0, function_count - len(functions))):
            functions[f"pad_{index}"] = lambda ctx: None
    implementation = Implementation(
        impl_id=f"{name}-v1",
        size_bytes=size_bytes,
        functions=functions,
        version_tag="1",
    )
    # Pre-seed every host cache so creation tests measure spawn +
    # registration, not downloads (matching the paper's 2.2 s setup).
    for host in runtime.hosts.values():
        host.cache.insert(implementation.impl_id, implementation.size_bytes)
    return runtime.define_class(name, implementations=[implementation])


# ----------------------------------------------------------------------
# DCDO builders: the paper's sort/compare behavioral-dependency example
# ----------------------------------------------------------------------


def sort_body(ctx, values):
    """Insertion sort built on the object's ``compare`` function.

    The §3.2 example: swapping the ``compare`` implementation changes
    ``sort``'s output without breaking any structural dependency.
    """
    result = list(values)
    for i in range(1, len(result)):
        j = i
        while j > 0:
            smaller = yield from ctx.call("compare", result[j - 1], result[j])
            if smaller == result[j] and result[j - 1] != result[j]:
                result[j - 1], result[j] = result[j], result[j - 1]
                j -= 1
            else:
                break
    return result


def compare_asc_body(ctx, a, b):
    """Returns the smaller of two integers (ascending sorts)."""
    return min(a, b)


def compare_desc_body(ctx, a, b):
    """Returns the larger of two integers (descending sorts)."""
    return max(a, b)


def make_sorter_components(size_bytes=64_000):
    """(sorter, compare-asc, compare-desc) components."""
    sorter = (
        ComponentBuilder("sorter")
        .function("sort", sort_body, signature="Integer[] sort(Integer[])")
        .variant(size_bytes=size_bytes)
        .build()
    )
    compare_asc = (
        ComponentBuilder("compare-asc")
        .function("compare", compare_asc_body, signature="Integer compare(Integer, Integer)")
        .variant(size_bytes=size_bytes)
        .build()
    )
    compare_desc = (
        ComponentBuilder("compare-desc")
        .function("compare", compare_desc_body, signature="Integer compare(Integer, Integer)")
        .variant(size_bytes=size_bytes)
        .build()
    )
    return sorter, compare_asc, compare_desc


def make_sorter_manager(runtime, type_name="Sorter", component_hosts=None, **policy_kwargs):
    """A DCDO manager with the sorter components and version 1 current.

    Version 1 incorporates ``sorter`` + ``compare-asc`` with both
    functions enabled; ``compare-desc`` is registered but unused, ready
    for evolution tests.  Component blobs are left uncached so creation
    pays the fetch path (callers can pre-seed caches when they need
    the cached numbers).  ``component_hosts`` pins ICO placement
    (``component_id -> host_name``) for tests that partition or crash a
    specific component server.
    """
    manager = define_dcdo_type(runtime, type_name, **policy_kwargs)
    sorter, compare_asc, compare_desc = make_sorter_components()
    component_hosts = component_hosts or {}
    for component in (sorter, compare_asc, compare_desc):
        manager.register_component(
            component, host_name=component_hosts.get(component.component_id)
        )
    version = manager.new_version()
    manager.incorporate_into(version, "sorter")
    manager.incorporate_into(version, "compare-asc")
    descriptor = manager.descriptor_of(version)
    descriptor.enable("sort", "sorter")
    descriptor.enable("compare", "compare-asc")
    manager.mark_instantiable(version)
    manager.set_current_version(version)
    return manager


def derive_v2(manager):
    """Derive the descending-sort version from the current version."""
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "compare-desc")
    manager.descriptor_of(version).enable(
        "compare", "compare-desc", replace_current=True
    )
    manager.mark_instantiable(version)
    return version


def lan_host_names(count):
    """The host names :func:`~repro.cluster.build_lan` gives ``count`` hosts."""
    return [f"host{index:02d}" for index in range(count)]


def create_dcdo(runtime, manager, host_name=None):
    """Create one DCDO instance and return (loid, live object)."""
    loid = runtime.sim.run_process(manager.create_instance(host_name=host_name))
    return loid, manager.record(loid).obj
