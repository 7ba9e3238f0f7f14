"""Gate benchmark runs against a committed baseline.

Usage::

    python benchmarks/check_regression.py BASELINE CURRENT [--threshold 0.25]
        [--scaleout BENCH_scaleout.json]

Compares the P2 propagation benchmark's windowed wave latencies
(``extra.waves.<size>.windowed_s``) between a baseline JSON (the
committed ``BENCH_propagation.json``) and a freshly produced one.
Exits non-zero if any wave size regressed by more than the threshold
(default 25%), so CI fails instead of silently uploading a slower
result.  The simulator is deterministic, so any movement here is a
genuine behavior change in the delivery path, not noise.

``--scaleout`` additionally gates the P3 scale-out invariants on a
freshly produced ``BENCH_scaleout.json``: the flat announce wave must
beat the direct wave at 256 instances and up, and the blob-cache hit
rate must reach ``(iph - 1) / iph`` for ``iph`` instances per host —
i.e. every colocated incorporation after a host's first is served
locally.

``--availability`` gates the P4 availability invariants on a freshly
produced ``BENCH_availability.json``: every supervised hot-takeover
MTTR must land well under the restart-and-recover baseline (under a
third of it), MTTR must grow with the heartbeat interval (detection
dominates), and the split-brain run must show the zombie primary
actually fenced — at least one stale-term rejection and zero duplicate
applications.

``--slo`` gates the P5 SLO-gated canary invariants on a freshly
produced ``BENCH_slo.json``: the healthy rollout must ramp to full
adoption with client p99 inside the objective, the gated degraded
rollout must stop at the canary (blast radius far below the ungated
baseline's full-fleet infection) and recover within 60 simulated
seconds of the breach.

``--gray`` gates the P7 gray-failure tolerance invariants on a freshly
produced ``BENCH_gray.json``: the unhardened wave behind a limping
root relay must degrade p99 by at least the recorded floor (the
scenario stays painful), the hardened wave must recover to within the
recorded ceiling of healthy with the limper actually quarantined and
skipped, exactly-once must hold across all waves, and the phi-accrual
supervisor must ride out a gray manager link with zero promotions
where the fixed-threshold one flaps.

``--compaction`` gates the P8 one-manager invariants on a freshly
produced ``BENCH_compaction.json``: announcement wave latency must stay
flat across waves (within the recorded tolerance), every compacted
checkpoint, the live-path standby bootstrap and the cold recovery
replay must stay within the recorded bound of one entry per live
instance plus a constant, and the recovered manager must hold an
identical DCDO table and converge one more wave with no duplicate
application.

``--selfheal`` gates the P9 self-healing invariants on a freshly
produced ``BENCH_selfheal.json``: both the controller-driven run and
the operator-cadence baseline must fully heal the compound incident
(rollback converged *and* limper drained), the controller's MTTR must
beat the operator's by at least the recorded ``mttr_floor`` (3x), and
hygiene must hold across both runs — zero duplicate applications and
zero dangling remediation intents.

``--scale`` gates the P6 kernel/runtime scale invariants on a freshly
produced ``BENCH_scale.json``: the largest measured fleet must reach
``--scale-floor`` live instances (default 100,000; CI smoke runs pass
a reduced floor matching their reduced ladder), the message-storm
speedup over the reproduced pre-PR stack must hold at >= 5x, the
announcement wave must stay flat (within the experiment's recorded
tolerance) from the smallest to the largest fleet, one wave must leave
no cyclic garbage, and neither the GC-tracked objects per instance at
rest nor those surviving one wave may rise more than the recorded
tolerance (5%) above their committed values.
"""

import argparse
import json
import sys


def load_waves(path):
    with open(path) as handle:
        data = json.load(handle)
    try:
        waves = data["extra"]["waves"]
    except KeyError:
        raise SystemExit(f"{path}: no extra.waves section — not a P2 result?")
    return {size: entry["windowed_s"] for size, entry in waves.items()}


def check_p2(baseline_path, current_path, threshold):
    """Gate P2 windowed wave latencies; returns failure strings."""
    baseline = load_waves(baseline_path)
    current = load_waves(current_path)
    failures = []
    for size in sorted(baseline, key=int):
        base = baseline[size]
        if size not in current:
            failures.append(f"wave size {size}: missing from current results")
            continue
        now = current[size]
        ratio = (now - base) / base if base else float("inf")
        status = "OK"
        if ratio > threshold:
            status = "REGRESSED"
            failures.append(
                f"wave size {size}: windowed {base * 1000:.2f} ms -> "
                f"{now * 1000:.2f} ms ({ratio:+.1%} > {threshold:.0%})"
            )
        print(
            f"P2 wave {size:>3} instances: baseline {base * 1000:8.2f} ms, "
            f"current {now * 1000:8.2f} ms ({ratio:+.1%}) {status}"
        )
    return failures


def check_p3(path):
    """Gate the P3 scale-out invariants; returns failure strings."""
    with open(path) as handle:
        data = json.load(handle)
    try:
        scales = data["extra"]["scales"]
    except KeyError:
        raise SystemExit(f"{path}: no extra.scales section — not a P3 result?")
    failures = []
    for size in sorted(scales, key=int):
        entry = scales[size]
        direct_s = entry["direct"]["wave_s"]
        announce_s = entry["announce"]["wave_s"]
        iph = entry["instances_per_host"]
        expected_hit_rate = (iph - 1) / iph if iph else 0.0
        hit_rate = entry["announce"]["hit_rate"]
        status = "OK"
        if int(size) >= 256 and announce_s >= direct_s:
            status = "REGRESSED"
            failures.append(
                f"scale {size}: announce wave {announce_s * 1000:.2f} ms did "
                f"not beat direct {direct_s * 1000:.2f} ms"
            )
        if hit_rate < expected_hit_rate - 1e-9:
            status = "REGRESSED"
            failures.append(
                f"scale {size}: blob-cache hit rate {hit_rate:.3f} below "
                f"(iph-1)/iph = {expected_hit_rate:.3f}"
            )
        print(
            f"P3 scale {size:>4} instances: direct {direct_s * 1000:8.2f} ms, "
            f"announce {announce_s * 1000:8.2f} ms, hit rate {hit_rate:.3f} "
            f"(floor {expected_hit_rate:.3f}) {status}"
        )
    return failures


def check_p4(path):
    """Gate the P4 availability invariants; returns failure strings."""
    with open(path) as handle:
        data = json.load(handle)
    try:
        extra = data["extra"]
        baseline_mttr = extra["baseline"]["mttr_s"]
        intervals = extra["intervals"]
        split = extra["split_brain"]
    except KeyError as exc:
        raise SystemExit(f"{path}: missing {exc} — not a P4 result?")
    failures = []
    previous = None
    for interval in sorted(intervals, key=float):
        mttr = intervals[interval]["mttr_s"]
        status = "OK"
        if mttr >= baseline_mttr / 3:
            status = "REGRESSED"
            failures.append(
                f"heartbeat {interval}s: takeover MTTR {mttr:.2f} s not well "
                f"under restart baseline {baseline_mttr:.2f} s"
            )
        if previous is not None and mttr < previous:
            status = "REGRESSED"
            failures.append(
                f"heartbeat {interval}s: MTTR {mttr:.2f} s below the "
                f"shorter interval's {previous:.2f} s — detection no longer "
                f"dominates takeover time"
            )
        previous = mttr
        print(
            f"P4 heartbeat {interval:>4}s: takeover MTTR {mttr:6.2f} s "
            f"(baseline {baseline_mttr:.2f} s) {status}"
        )
    if split["stale_term_rejections"] < 1:
        failures.append(
            "split brain: no stale-term rejections — the zombie primary "
            "was never fenced"
        )
    if split["duplicate_applications"] != 0:
        failures.append(
            f"split brain: {split['duplicate_applications']} duplicate "
            f"applications — exactly-once broken"
        )
    print(
        f"P4 split brain: {split['stale_term_rejections']} stale-term "
        f"rejections, {split['duplicate_applications']} duplicates "
        f"{'OK' if not any('split brain' in f for f in failures) else 'REGRESSED'}"
    )
    return failures


def check_p5(path):
    """Gate the P5 SLO-gated wave invariants; returns failure strings."""
    with open(path) as handle:
        data = json.load(handle)
    try:
        extra = data["extra"]
        healthy = extra["healthy"]
        gated = extra["gated"]
        ungated = extra["ungated"]
    except KeyError as exc:
        raise SystemExit(f"{path}: missing {exc} — not a P5 result?")
    failures = []
    if healthy["admitted"] != extra["instances"]:
        failures.append(
            f"healthy rollout stopped at {healthy['admitted']}/"
            f"{extra['instances']} instances"
        )
    if healthy["during_p99_s"] > 0.200:
        failures.append(
            f"healthy rollout p99 {healthy['during_p99_s'] * 1000:.1f} ms "
            f"breached the 200 ms objective"
        )
    if gated["blast_radius"] >= ungated["blast_radius"]:
        failures.append(
            f"gate stopped containing the blast: gated "
            f"{gated['blast_radius']:.3f} vs ungated "
            f"{ungated['blast_radius']:.3f}"
        )
    if gated["infected"] != 1:
        failures.append(
            f"gated rollout infected {gated['infected']} instances — the "
            f"breach should land during the canary bake"
        )
    if not 0.0 < gated["mttr_s"] <= 60.0:
        failures.append(
            f"gated rollback MTTR {gated['mttr_s']:.1f} s outside (0, 60]"
        )
    if ungated["infected"] != extra["instances"]:
        failures.append(
            f"ungated baseline infected {ungated['infected']}/"
            f"{extra['instances']} — the comparison fleet changed"
        )
    status = "OK" if not failures else "REGRESSED"
    print(
        f"P5 gated blast {gated['blast_radius']:.3f} "
        f"(ungated {ungated['blast_radius']:.3f}), rollback MTTR "
        f"{gated['mttr_s']:.1f} s, healthy-rollout p99 "
        f"{healthy['during_p99_s'] * 1000:.1f} ms {status}"
    )
    return failures


def check_p6(path, instance_floor):
    """Gate the P6 kernel/runtime scale invariants; returns failures."""
    with open(path) as handle:
        data = json.load(handle)
    try:
        extra = data["extra"]
        speedup = extra["storm"]["speedup"]
        speedup_floor = extra["speedup_floor"]
        flatness = extra["wave_flatness"]
        tolerance = extra["flatness_tolerance"]
        max_instances = extra["max_instances"]
        scales = extra["scales"]
        objects = extra["objects"]
    except KeyError as exc:
        raise SystemExit(f"{path}: missing {exc} — not a P6 result?")
    failures = []
    if objects["cyclic_garbage"] > 0:
        failures.append(
            f"one wave over {objects['instances']} instances left "
            f"{round(objects['cyclic_garbage'] * objects['instances'])} "
            f"objects of cyclic garbage (must be 0)"
        )
    for key in ("at_rest", "wave_survivors"):
        committed = objects["committed"][key]
        if objects[key] > committed * (1 + objects["tolerance"]):
            failures.append(
                f"{key.replace('_', ' ')}: {objects[key]:.2f} GC-tracked objects "
                f"per instance, more than {objects['tolerance']:.0%} above the "
                f"committed {committed}"
            )
    if max_instances < instance_floor:
        failures.append(
            f"largest fleet held {max_instances} live instances, below "
            f"the {instance_floor} floor"
        )
    if speedup < speedup_floor:
        failures.append(
            f"storm speedup {speedup:.2f}x fell below the "
            f"{speedup_floor:.0f}x floor over the pre-PR stack"
        )
    if abs(flatness - 1.0) > tolerance:
        failures.append(
            f"wave latency ratio {flatness:.3f}x across the scale ladder "
            f"is outside ±{tolerance:.0%}"
        )
    for size in sorted(scales, key=int):
        entry = scales[size]
        if entry["fallback_instances"]:
            failures.append(
                f"scale {size}: {entry['fallback_instances']} instances "
                f"fell back off the announcement path"
            )
        print(
            f"P6 scale {size:>6} instances / {entry['hosts']:>4} hosts: "
            f"wave {entry['wave_s'] * 1000:8.2f} ms, "
            f"{entry['events_per_s']:12,.0f} ev/s"
        )
    print(
        f"P6 objects at {objects['instances']} instances, per instance: "
        f"{objects['at_rest']:.2f} at rest, {objects['wave_survivors']:.2f} "
        f"surviving a wave, {objects['cyclic_garbage']:.2f} cyclic garbage"
    )
    status = "OK" if not failures else "REGRESSED"
    print(
        f"P6 storm speedup {speedup:.2f}x (floor {speedup_floor:.0f}x), "
        f"wave flatness {flatness:.3f}x (±{tolerance:.0%}), "
        f"max fleet {max_instances} (floor {instance_floor}) {status}"
    )
    return failures


def check_p7(path):
    """Gate the P7 gray-failure tolerance invariants; returns failures."""
    with open(path) as handle:
        data = json.load(handle)
    try:
        extra = data["extra"]
        unhardened_ratio = extra["unhardened_ratio"]
        hardened_ratio = extra["hardened_ratio"]
        unhardened_floor = extra["unhardened_floor"]
        hardened_ceiling = extra["hardened_ceiling"]
        hardened = extra["hardened"]
        fixed = extra["fixed_detector"]
        phi = extra["phi_detector"]
    except KeyError as exc:
        raise SystemExit(f"{path}: missing {exc} — not a P7 result?")
    failures = []
    if unhardened_ratio < unhardened_floor:
        failures.append(
            f"unhardened gray wave p99 only {unhardened_ratio:.1f}x healthy "
            f"(floor {unhardened_floor:.0f}x) — the limping-relay scenario "
            f"no longer hurts, so the hardened comparison proves nothing"
        )
    if hardened_ratio > hardened_ceiling:
        failures.append(
            f"hardened gray wave p99 {hardened_ratio:.1f}x healthy, above "
            f"the {hardened_ceiling:.0f}x ceiling — quarantine routing "
            f"stopped recovering the wave"
        )
    if not hardened["limper_quarantined"] or hardened["quarantine_skips"] < 1:
        failures.append(
            "hardened run never quarantined-and-skipped the limping relay "
            f"(quarantined={hardened['limper_quarantined']}, "
            f"skips={hardened['quarantine_skips']})"
        )
    duplicates = sum(
        extra[mode]["duplicate_applications"]
        for mode in ("healthy", "unhardened", "hardened")
    )
    if duplicates != 0:
        failures.append(
            f"{duplicates} duplicate applications under gray faults — "
            f"exactly-once broken"
        )
    if fixed["promotions"] < 1:
        failures.append(
            "fixed-threshold supervisor no longer flaps on a slow manager "
            "— the phi comparison proves nothing"
        )
    if phi["promotions"] != 0 or phi["false_positives"] != 0:
        failures.append(
            f"phi supervisor failed over a live-but-slow manager "
            f"({phi['promotions']} promotions, "
            f"{phi['false_positives']} false positives)"
        )
    status = "OK" if not failures else "REGRESSED"
    print(
        f"P7 gray wave p99: unhardened {unhardened_ratio:.1f}x / hardened "
        f"{hardened_ratio:.1f}x healthy (floor {unhardened_floor:.0f}x, "
        f"ceiling {hardened_ceiling:.0f}x), quarantine skips "
        f"{hardened['quarantine_skips']}, detector failovers fixed "
        f"{fixed['promotions']} / phi {phi['promotions']} {status}"
    )
    return failures


def check_p8(path):
    """Gate the P8 compaction invariants; returns failure strings."""
    with open(path) as handle:
        data = json.load(handle)
    try:
        extra = data["extra"]
        waves = extra["waves"]
        spread = extra["wave_spread"]
        tolerance = extra["flatness_tolerance"]
        bound = extra["replay_bound"]
        bootstrap = extra["bootstrap"]
        recovery = extra["recovery"]
    except KeyError as exc:
        raise SystemExit(f"{path}: missing {exc} — not a P8 result?")
    failures = []
    for index, wave in enumerate(waves, start=1):
        print(
            f"P8 wave {index}: {wave['wave_s'] * 1000:8.2f} ms, checkpoint "
            f"{wave['checkpoint_entries']} entries (uncompacted "
            f"{wave['uncompacted_entries']})"
        )
    if spread > tolerance:
        failures.append(
            f"announce wave latency spread {spread:.1%} across waves "
            f"(tolerance {tolerance:.0%})"
        )
    worst = max(wave["checkpoint_entries"] for wave in waves)
    if worst > bound:
        failures.append(
            f"compacted checkpoint held {worst} entries (bound {bound}) — "
            f"replay grows with history again"
        )
    if bootstrap["entries"] > bound:
        failures.append(
            f"live-path standby bootstrap shipped {bootstrap['entries']} "
            f"entries (bound {bound}) — a standby replays the history again"
        )
    if recovery["replayed_entries"] > bound:
        failures.append(
            f"cold recovery replayed {recovery['replayed_entries']} entries "
            f"(bound {bound})"
        )
    if not recovery["table_intact"] or recovery["duplicated_applies"] != 0:
        failures.append(
            f"recovery from the compacted journal: table intact "
            f"{recovery['table_intact']}, {recovery['duplicated_applies']} "
            f"duplicated applies"
        )
    status = "OK" if not failures else "REGRESSED"
    print(
        f"P8 standby bootstrap: {bootstrap['entries']} entries, hot after "
        f"{bootstrap['hot_s'] * 1000:.2f} ms"
    )
    print(
        f"P8 wave spread {spread:.1%} (tolerance {tolerance:.0%}), recovery "
        f"replayed {recovery['replayed_entries']} of "
        f"{recovery['uncompacted_entries']} uncompacted entries (bound "
        f"{bound}) {status}"
    )
    return failures


def check_p9(path):
    """Gate the P9 self-healing invariants; returns failure strings."""
    with open(path) as handle:
        data = json.load(handle)
    try:
        extra = data["extra"]
        controller = extra["controller"]
        operator = extra["operator"]
        ratio = extra["mttr_ratio"]
        floor = extra["mttr_floor"]
    except KeyError as exc:
        raise SystemExit(f"{path}: missing {exc} — not a P9 result?")
    failures = []
    for run in (controller, operator):
        label = run["mode"]
        if not run["healed"]:
            failures.append(
                f"{label} run never healed the compound incident "
                f"(rollback {run['rollback_mttr_s']}, "
                f"migrate {run['migrate_mttr_s']})"
            )
        if run["rollbacks"] < 1:
            failures.append(f"{label} run completed no rollback wave")
        if run["migrations"] < 1:
            failures.append(f"{label} run migrated nothing off the limper")
        if run["duplicate_applications"] != 0:
            failures.append(
                f"{label} run applied a version "
                f"{run['duplicate_applications']} extra time(s) — "
                f"exactly-once broken"
            )
        if run["open_intents"] != 0:
            failures.append(
                f"{label} run left {run['open_intents']} remediation "
                f"intent(s) dangling open in the journal"
            )
    if ratio is None:
        failures.append("MTTR ratio unavailable — a run failed to heal")
    elif ratio < floor:
        failures.append(
            f"controller MTTR only {ratio:.2f}x faster than the operator "
            f"runbook (floor {floor:.0f}x)"
        )
    status = "OK" if not failures else "REGRESSED"

    def mttr_text(run):
        return f"{run['mttr_s']:.1f}s" if run["healed"] else "unhealed"

    ratio_text = f"{ratio:.2f}x" if ratio is not None else "n/a"
    print(
        f"P9 controller MTTR {mttr_text(controller)} vs operator "
        f"{mttr_text(operator)} (ratio {ratio_text}, floor {floor:.0f}x) "
        f"{status}"
    )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_propagation.json")
    parser.add_argument("current", help="freshly generated BENCH_propagation.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    parser.add_argument(
        "--scaleout",
        default=None,
        help="freshly generated BENCH_scaleout.json to gate P3 invariants",
    )
    parser.add_argument(
        "--availability",
        default=None,
        help="freshly generated BENCH_availability.json to gate P4 invariants",
    )
    parser.add_argument(
        "--slo",
        default=None,
        help="freshly generated BENCH_slo.json to gate P5 invariants",
    )
    parser.add_argument(
        "--scale",
        default=None,
        help="freshly generated BENCH_scale.json to gate P6 invariants",
    )
    parser.add_argument(
        "--gray",
        default=None,
        help="freshly generated BENCH_gray.json to gate P7 invariants",
    )
    parser.add_argument(
        "--compaction",
        default=None,
        help="freshly generated BENCH_compaction.json to gate P8 invariants",
    )
    parser.add_argument(
        "--selfheal",
        default=None,
        help="freshly generated BENCH_selfheal.json to gate P9 invariants",
    )
    parser.add_argument(
        "--scale-floor",
        type=int,
        default=100_000,
        help="minimum live instances the largest P6 fleet must reach "
        "(default 100000; CI smoke ladders pass their own top scale)",
    )
    args = parser.parse_args(argv)

    failures = check_p2(args.baseline, args.current, args.threshold)
    if args.scaleout:
        failures += check_p3(args.scaleout)
    if args.availability:
        failures += check_p4(args.availability)
    if args.slo:
        failures += check_p5(args.slo)
    if args.scale:
        failures += check_p6(args.scale, args.scale_floor)
    if args.gray:
        failures += check_p7(args.gray)
    if args.compaction:
        failures += check_p8(args.compaction)
    if args.selfheal:
        failures += check_p9(args.selfheal)
    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nbenchmark regression gate passed (threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
