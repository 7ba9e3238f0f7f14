"""The chaos sweeps' schedules, pinned per sweep and seed.

Seeds 0 and 1 of each of the eleven seeded chaos sweeps (every
``run_<sweep>(seed, schedule)`` scenario with its schedule generator)
run in a fresh interpreter.  Every fabric delivery of a run (simulated
time, source and destination without their ``@N`` incarnation suffix,
kind, wire bytes) feeds one SHA-256 digest, exactly as in
``tests/test_schedule_fingerprint.py``, and :data:`SCHEDULES` holds the
digest and delivery count of each run.

The chaos sweeps assert invariants, not schedules, so a change that
moves one delivery still passes them; this table is what catches it.
A change that only makes the runtime cheaper must leave the table
alone.  A change that moves the schedule on purpose updates the table
and says so in CHANGES.md.
"""

import json

from tests.test_schedule_fingerprint import run_fresh

#: sweep -> (module, runner, schedule generator, its keyword arguments).
SWEEPS = {
    "controller": ("test_chaos_controller", "run_controller", "controller_schedule", {}),
    "evolution": ("test_chaos_evolution", "run_evolution", "evolution_schedule", {}),
    "lease_stub": ("test_chaos_evolution", "run_lease_stub", "evolution_schedule", {}),
    "failover": ("test_chaos_failover", "run_failover", "failover_schedule", {}),
    "gray": ("test_chaos_gray", "run_gray", "gray_schedule", {}),
    "relay_crash": ("test_chaos_relays", "run_relay_crash", "relay_schedule", {"drops": 1}),
    "relay_abort": ("test_chaos_relays", "run_relay_abort", "relay_schedule", {"drops": 0}),
    "slo": ("test_chaos_slo", "run_slo", "slo_schedule", {}),
    "transactions": ("test_chaos_transactions", "run_transactions", "transaction_schedule", {}),
    "abortive": ("test_chaos_transactions", "run_abortive", "abortive_schedule", {}),
    "compaction": ("test_journal_compaction", "run_compaction", "compaction_schedule", {}),
}

SEEDS = (0, 1)

#: "<sweep>:<seed>" -> [digest of every fabric delivery, deliveries].
SCHEDULES = {
    "controller:0": ["d36177acbed1b2c686f5e6a7dae36a45cc0bdabe9036cfa81d85666676998baf", 2172],
    "controller:1": ["098222730ac1ac4fd170de0bfeb6010fdb0219319a05e99f53e70ead41ad2b50", 3328],
    "evolution:0": ["16d5ab79833c782db83debd22f17b3bd0af698419c21c81b3ccba92d67c8a119", 80],
    "evolution:1": ["16e0e9666ac643d124eb024f78a9188be3c3a7f3540a1eeb54dda06e7de0bdc1", 104],
    "lease_stub:0": ["6e621f765d3ef53a7c06eaf08b2cd3cb9c281b100e8a7deaf5c6a6714b681ca7", 1798],
    "lease_stub:1": ["1bb9ee7fc7777d67bf9e1ae8d11a33a11add0b3d633b5c73ab6ff2ad96c24a2c", 1028],
    "failover:0": ["62dd093ca17fd142d83c503698d326bcb2f187c05d2e08f9f0462258d59181dd", 285],
    "failover:1": ["2df00153274f1a62c7fcce1a3349264ae349cb2eac7ea95c0d607fc5b326871d", 463],
    "gray:0": ["688037a970855a11a9c28c2d14558e70327c895f332837e63a26f6f25f4abc3f", 368],
    "gray:1": ["46cdcfef84f8392e7dba7df8b674bc3b358822a1e26b3f21470335ddfb493185", 404],
    "relay_crash:0": ["66aa1cb6d178c6e83d78a7637e2bcbe27e1af952d795c2471b24e43714c56fd7", 176],
    "relay_crash:1": ["b258c67adee5639df99d4c837f6c1c144c98de2b8e0caaf255917bbf20cdc6fa", 187],
    "relay_abort:0": ["e2bd03da2ea7ec1cf200b9658596204858a39ca15158bcb57b89feb23a21d838", 176],
    "relay_abort:1": ["c77e59566f62f55e02acfa9646aae2b954be9c880227c301a32e6f2711c5e3a1", 219],
    "slo:0": ["31390a5195e75014434ccbe419dc5308a60ef1c89ae90b5005cd1981ce91b961", 2010],
    "slo:1": ["9f158cb3d2a5fef2b08f71040383ab92d8346f8780c20d05e5587a0249ca61ab", 2358],
    "transactions:0": ["2ad8d3c4f703a7282c02a81cf2b6f9009ac7bbacca055f4e0c26328d4d4d22e9", 108],
    "transactions:1": ["b9b2c2455801c4d4bd8a607b6a6011e5fb3ceb3ec6bf7005ddc81dd27069b355", 112],
    "abortive:0": ["55fa6ca9ddf0a0ed2fdf9bdf79b83f3c276af3d7a77c9c9e9c6eb375f0a6a66f", 124],
    "abortive:1": ["1f2e7f3c4690d32fd7b89c16dab638f4b40cbce2bf5cdb75438d6f69892a3378", 136],
    "compaction:0": ["ceabacb254c62f64f1c71021958c002e60e1d18901bf4423533cc53291236c37", 350],
    "compaction:1": ["cbac65270a6d17bdf20fd178d9f2d1273b3ee4a0f9f6f5ec6390b3a338846194", 535],
}

SCRIPT = """
import importlib
import json

from tests.test_schedule_fingerprint import delivery_digest
from tests.test_sweep_schedules import SEEDS, SWEEPS

schedules = {}
for sweep, (module, runner, generator, kwargs) in SWEEPS.items():
    module = importlib.import_module(f"tests.{module}")
    run, schedule = getattr(module, runner), getattr(module, generator)
    for seed in SEEDS:
        digest, deliveries, __ = delivery_digest(
            [lambda: run(seed, schedule(seed, **kwargs))]
        )
        schedules[f"{sweep}:{seed}"] = [digest, deliveries]
print(json.dumps(schedules))
"""


def test_every_sweep_delivers_the_recorded_schedule():
    schedules = run_fresh(SCRIPT, "0")
    assert len(schedules) == len(SWEEPS) * len(SEEDS)
    moved = {
        run: (schedules[run], SCHEDULES.get(run))
        for run in schedules
        if schedules[run] != SCHEDULES.get(run)
    }
    assert not moved, json.dumps(moved, indent=1)
