"""Unit tests for LOIDs and the context space."""

import pytest

from repro.legion import ContextSpace, LOID
from repro.legion.errors import UnknownObject
from repro.legion.loid import class_loid, mint_loid


# ----------------------------------------------------------------------
# LOIDs
# ----------------------------------------------------------------------


def test_loids_survive_copies_and_pickles():
    import copy
    import pickle

    loid = mint_loid("d", "T")
    for clone in (copy.deepcopy(loid), pickle.loads(pickle.dumps(loid))):
        assert clone == loid
        assert hash(clone) == hash(loid)
        assert str(clone) == str(loid)


def test_minted_loids_are_unique():
    a = mint_loid("d", "T")
    b = mint_loid("d", "T")
    assert a != b
    assert a.instance != b.instance


def test_loids_are_hashable_and_ordered():
    a = mint_loid("d", "T")
    b = mint_loid("d", "T")
    assert len({a, b}) == 2
    assert a < b


def test_class_loid_is_instance_zero():
    loid = class_loid("d", "T")
    assert loid.instance == 0
    assert loid.is_class


def test_minted_loid_is_not_class():
    assert not mint_loid("d", "T").is_class


def test_loid_str_is_readable():
    assert str(LOID("legion", "Counter", 3)) == "legion/Counter#3"


def test_loids_in_different_types_are_distinct():
    a = mint_loid("d", "A")
    b = mint_loid("d", "B")
    assert a != b


# ----------------------------------------------------------------------
# Context space
# ----------------------------------------------------------------------


def test_bind_and_lookup():
    space = ContextSpace()
    loid = mint_loid("d", "T")
    space.bind("/home/things/one", loid)
    assert space.lookup("/home/things/one") == loid


def test_lookup_unbound_raises():
    space = ContextSpace()
    with pytest.raises(UnknownObject):
        space.lookup("/missing")


def test_bind_creates_intermediate_contexts():
    space = ContextSpace()
    space.bind("/a/b/c/d", mint_loid("d", "T"))
    assert space.list_context("/a/b/c") == ["d"]


def test_rebind_replaces():
    space = ContextSpace()
    first = mint_loid("d", "T")
    second = mint_loid("d", "T")
    space.bind("/x", first)
    space.bind("/x", second)
    assert space.lookup("/x") == second


def test_cannot_bind_through_leaf():
    space = ContextSpace()
    space.bind("/x", mint_loid("d", "T"))
    with pytest.raises(ValueError, match="leaf"):
        space.bind("/x/y", mint_loid("d", "T"))


def test_cannot_bind_over_context():
    space = ContextSpace()
    space.bind("/dir/leaf", mint_loid("d", "T"))
    with pytest.raises(ValueError, match="context"):
        space.bind("/dir", mint_loid("d", "T"))


def test_unbind_removes():
    space = ContextSpace()
    loid = mint_loid("d", "T")
    space.bind("/x", loid)
    assert space.unbind("/x") == loid
    assert "/x" not in space


def test_unbind_missing_raises():
    space = ContextSpace()
    with pytest.raises(UnknownObject):
        space.unbind("/nope")


def test_lookup_context_path_raises():
    space = ContextSpace()
    space.bind("/dir/leaf", mint_loid("d", "T"))
    with pytest.raises(UnknownObject, match="context"):
        space.lookup("/dir")


def test_list_context_sorted():
    space = ContextSpace()
    for name in ("zebra", "apple", "mango"):
        space.bind(f"/fruit/{name}", mint_loid("d", "T"))
    assert space.list_context("/fruit") == ["apple", "mango", "zebra"]


def test_contains_protocol():
    space = ContextSpace()
    space.bind("/x", mint_loid("d", "T"))
    assert "/x" in space
    assert "/y" not in space


def test_empty_path_invalid():
    space = ContextSpace()
    with pytest.raises(ValueError):
        space.bind("///", mint_loid("d", "T"))


def test_loids_are_freed_with_their_runtime():
    import gc

    from repro.cluster import build_lan, deploy_relays
    from repro.legion import LegionRuntime
    from tests.conftest import create_dcdo, make_sorter_manager

    def live_loids():
        gc.collect()
        return sum(1 for obj in gc.get_objects() if type(obj) is LOID)

    def build_and_drop():
        runtime = LegionRuntime(build_lan(4, seed=7))
        manager = make_sorter_manager(runtime)
        loids = [create_dcdo(runtime, manager)[0] for __ in range(8)]
        deploy_relays(runtime)
        # A second class LOID of a type is the live canonical one.
        assert class_loid(runtime.domain, "Sorter") is manager.loid
        return len(set(loids))

    baseline = live_loids()
    for __ in range(2):
        assert build_and_drop() == 8
        assert live_loids() == baseline
