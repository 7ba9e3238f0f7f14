"""A1 — ablation: real (wall-clock) cost of the DFM indirection.

The simulated experiments charge the paper's calibrated 10-15 us; this
ablation measures what the indirection costs in *this* implementation:
a hot :meth:`DynamicFunctionMapper.lookup` against a direct Python
call, across DFM sizes, and the per-call thread accounting
(``enter``/``leave``, which count per instance).  The claim being
checked is structural: the lookup is one probe of the enabled-entry
index, so its cost stays flat from 10 to 500 functions (the paper's
scales).
"""

import pytest

from repro.core import ComponentBuilder
from repro.core.dfm import DynamicFunctionMapper
from repro.core.impltype import NATIVE


def build_dfm(function_count):
    builder = ComponentBuilder("bench-comp")
    for index in range(function_count):
        builder.function(f"fn_{index:04d}", lambda ctx: None)
    component = builder.build()
    dfm = DynamicFunctionMapper()
    dfm.add_component(component, component.variants[NATIVE])
    for index in range(function_count):
        dfm.enable(f"fn_{index:04d}", "bench-comp")
    return dfm


@pytest.mark.parametrize("function_count", [10, 100, 500])
def test_a1_dfm_lookup(benchmark, function_count):
    dfm = build_dfm(function_count)
    target = f"fn_{function_count // 2:04d}"
    entry = benchmark(dfm.lookup, target)
    assert entry.function == target
    benchmark.extra_info["function_count"] = function_count


def test_a1_direct_call_baseline(benchmark):
    def direct(ctx):
        return None

    result = benchmark(direct, None)
    assert result is None


def test_a1_dispatch_with_thread_accounting(benchmark):
    """Full enter/lookup/leave cycle — the per-call DFM work."""
    dfm = build_dfm(100)

    def dispatch():
        entry = dfm.lookup("fn_0050")
        dfm.enter(entry)
        dfm.leave(entry)

    benchmark(dispatch)
