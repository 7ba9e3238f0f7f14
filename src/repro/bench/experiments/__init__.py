"""Experiment implementations, one module per table/figure (see DESIGN.md §4)."""

from repro.bench.experiments.e1_invocation import run_e1
from repro.bench.experiments.e2_remote import run_e2
from repro.bench.experiments.e3_creation import run_e3
from repro.bench.experiments.e4_stale_binding import run_e4
from repro.bench.experiments.e5_download import run_e5
from repro.bench.experiments.e6_evolution import run_e6
from repro.bench.experiments.e7_comparison import run_e7
from repro.bench.experiments.a2_policies import run_a2
from repro.bench.experiments.a3_sensitivity import run_a3
from repro.bench.experiments.a4_wan import run_a4
from repro.bench.experiments.p1_fastpath import run_p1
from repro.bench.experiments.p2_fanout import run_p2
from repro.bench.experiments.p3_scaleout import run_p3
from repro.bench.experiments.p4_availability import run_p4
from repro.bench.experiments.p5_slo_waves import run_p5
from repro.bench.experiments.p6_scale import run_p6
from repro.bench.experiments.p7_gray import run_p7
from repro.bench.experiments.p8_compaction import run_p8
from repro.bench.experiments.p9_selfheal import run_p9

__all__ = [
    "run_a2",
    "run_a3",
    "run_a4",
    "run_p1",
    "run_p2",
    "run_p3",
    "run_p4",
    "run_p5",
    "run_p6",
    "run_p7",
    "run_p8",
    "run_p9",
    "run_e1",
    "run_e2",
    "run_e3",
    "run_e4",
    "run_e5",
    "run_e6",
    "run_e7",
]
