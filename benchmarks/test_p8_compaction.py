"""P8 — one announce manager with journal compaction; writes BENCH_compaction.json.

The full 10,240-instance fleet takes under a minute of wall time; CI
smoke runs set ``P8_FLEET=2048`` to measure a reduced fleet (every gate
scales with the fleet it is given).
"""

import json
import os
from pathlib import Path

from conftest import run_experiment

from repro.bench.experiments import run_p8
from repro.bench.experiments.p8_compaction import FLEET

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_compaction.json"


def _fleet():
    spec = os.environ.get("P8_FLEET", "").strip()
    return int(spec) if spec else FLEET


def test_p8_compaction(benchmark):
    result = run_experiment(
        benchmark, lambda seed: run_p8(seed=seed, fleet=_fleet())
    )
    benchmark.extra_info["recovery"] = result.extra["recovery"]
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
