"""The P6 young-object and traced-byte gates of
``benchmarks/check_regression.py``, driven through its command line on
synthetic results."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.experiments.p6_scale import (
    BYTES_COMMITTED,
    OBJECTS_COMMITTED,
    OBJECTS_TOLERANCE,
)

ROOT = Path(__file__).resolve().parents[1]


def load_gate():
    path = ROOT / "benchmarks" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_p6(wave_young, at_rest_bytes=BYTES_COMMITTED["at_rest"]):
    """A passing P6 result whose young-object count is ``wave_young``
    and whose traced bytes per instance at rest are ``at_rest_bytes``."""
    objects = dict(OBJECTS_COMMITTED)
    objects.update(
        instances=1024,
        cyclic_garbage=0.0,
        wave_young=wave_young,
        wave_collections=[29, 2, 0],
        committed=dict(OBJECTS_COMMITTED),
        tolerance=OBJECTS_TOLERANCE,
        bytes=dict(
            BYTES_COMMITTED, at_rest=at_rest_bytes, committed=dict(BYTES_COMMITTED)
        ),
    )
    return {
        "extra": {
            "storm": {"speedup": 6.0},
            "speedup_floor": 5.0,
            "wave_flatness": 1.0,
            "flatness_tolerance": 0.2,
            "max_instances": 1024,
            "scales": {
                "1024": {
                    "hosts": 16,
                    "wave_s": 0.039,
                    "events_per_s": 200_000.0,
                    "fallback_instances": 0,
                }
            },
            "objects": objects,
        }
    }


@pytest.mark.parametrize("rise, exit_code", [(0.04, 0), (0.06, 1)])
def test_wave_young_more_than_five_percent_up_fails_the_gate(
    tmp_path, capsys, rise, exit_code
):
    scale = tmp_path / "BENCH_scale.json"
    young = OBJECTS_COMMITTED["wave_young"] * (1 + rise)
    scale.write_text(json.dumps(synthetic_p6(young)))
    baseline = str(ROOT / "BENCH_propagation.json")
    argv = [baseline, baseline, "--scale", str(scale), "--scale-floor", "1024"]
    assert load_gate().main(argv) == exit_code
    report = capsys.readouterr()
    assert ("wave young" in report.err) is bool(exit_code)
    assert f"{young:.2f} young in a wave (29/2/0 gen-0/1/2 collections)" in report.out


@pytest.mark.parametrize("rise, exit_code", [(0.04, 0), (0.06, 1)])
def test_bytes_at_rest_more_than_five_percent_up_fail_the_gate(
    tmp_path, capsys, rise, exit_code
):
    scale = tmp_path / "BENCH_scale.json"
    at_rest = BYTES_COMMITTED["at_rest"] * (1 + rise)
    scale.write_text(json.dumps(synthetic_p6(OBJECTS_COMMITTED["wave_young"], at_rest)))
    baseline = str(ROOT / "BENCH_propagation.json")
    argv = [baseline, baseline, "--scale", str(scale), "--scale-floor", "1024"]
    assert load_gate().main(argv) == exit_code
    report = capsys.readouterr()
    assert ("traced bytes" in report.err) is bool(exit_code)
    assert f"{at_rest:,.0f} at rest" in report.out
