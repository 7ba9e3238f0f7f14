"""P1 — invocation fast path (interface leases); writes BENCH_invocation.json."""

import json
from pathlib import Path

from conftest import run_experiment

from repro.bench.experiments import run_p1

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_invocation.json"


def test_p1_fastpath(benchmark):
    result = run_experiment(benchmark, run_p1)
    benchmark.extra_info["round_trips"] = result.extra["round_trips"]
    benchmark.extra_info["throughput"] = result.extra["throughput"]
    BENCH_PATH.write_text(
        json.dumps(
            {
                "experiment": result.experiment_id,
                "title": result.title,
                "rows": [row.as_tuple() for row in result.rows],
                "extra": result.extra,
                "all_ok": result.all_ok,
            },
            indent=2,
        )
        + "\n"
    )
