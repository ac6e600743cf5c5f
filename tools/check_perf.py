#!/usr/bin/env python3
"""Schema and regression check for BENCH_PERF.json written by `bench_perf`.

Validates the mgcomp-bench-perf-v1 schema (docs/architecture.md,
"Performance"): header fields, one result row per workload x policy with
positive wall time and event counts, derived rates consistent with the
raw numbers, and aggregate totals that match the sum of the rows. Exits
non-zero on the first violation so CI fails loudly.

With --baseline, additionally compares the run's total and adaptive
events_per_sec against an older BENCH_PERF.json and fails when either
regressed by more than --tolerance (a fraction: 0.5 = new must reach at
least half the baseline rate). CI compares against the committed
baseline, which was recorded on different hardware, so its tolerance is
deliberately loose — the check is a guard against catastrophic
regressions (an accidentally quadratic hot path), not a benchmark.

Usage: check_perf.py BENCH_PERF.json [--baseline OLD.json] [--tolerance 0.5]
"""

import argparse
import json
import sys

EXPECTED_POLICIES = {"raw", "FPC", "BDI", "C-Pack+Z", "adaptive"}
RESULT_FIELDS = {
    "workload": str,
    "policy": str,
    "wall_ms": float,
    "events": int,
    "sim_ticks": int,
    "events_per_sec": float,
    "sim_ticks_per_sec": float,
}


def fail(msg: str) -> None:
    print(f"check_perf: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_rate(label: str, rate: float, count: int, wall_ms: float) -> None:
    expected = count / (wall_ms / 1e3)
    # The producer rounds to one decimal; allow generous slack.
    if abs(rate - expected) > max(1.0, expected * 1e-3):
        fail(f"{label}: rate {rate} inconsistent with {count} / {wall_ms} ms")


def load_doc(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")
    raise AssertionError("unreachable")


def aggregate_rate(doc: dict, name: str, path: str) -> float:
    agg = doc.get(name)
    if not isinstance(agg, dict) or \
            not isinstance(agg.get("events_per_sec"), (int, float)):
        fail(f"{path}: missing {name}.events_per_sec")
    return float(agg["events_per_sec"])


def compare_to_baseline(doc: dict, baseline_path: str, tolerance: float) -> None:
    base = load_doc(baseline_path)
    if base.get("schema") != doc.get("schema"):
        fail(f"baseline schema {base.get('schema')!r} != {doc.get('schema')!r}")
    if base.get("scale") != doc.get("scale"):
        print(f"check_perf: WARNING: baseline scale {base.get('scale')!r} != "
              f"{doc.get('scale')!r}; rates are not directly comparable",
              file=sys.stderr)
    for name in ("total", "adaptive"):
        old = aggregate_rate(base, name, baseline_path)
        new = aggregate_rate(doc, name, "current run")
        floor = old * (1.0 - tolerance)
        ratio = new / old if old > 0 else float("inf")
        line = (f"{name}.events_per_sec: baseline {old:.0f}, "
                f"current {new:.0f} ({ratio:.2f}x), floor {floor:.0f}")
        if new < floor:
            fail(f"regression: {line}")
        print(f"check_perf: OK: {line}")


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Validate BENCH_PERF.json; optionally compare to a baseline.")
    parser.add_argument("json", help="BENCH_PERF.json to validate")
    parser.add_argument("--baseline", metavar="OLD.json",
                        help="older BENCH_PERF.json to compare rates against")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional events_per_sec regression "
                             "vs the baseline (default 0.15)")
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        fail(f"tolerance {args.tolerance} outside [0, 1)")

    doc = load_doc(args.json)

    if doc.get("schema") != "mgcomp-bench-perf-v1":
        fail(f"unexpected schema {doc.get('schema')!r}")
    if not isinstance(doc.get("scale"), (int, float)) or doc["scale"] <= 0:
        fail(f"bad scale {doc.get('scale')!r}")
    if not isinstance(doc.get("repeats"), int) or doc["repeats"] < 1:
        fail(f"bad repeats {doc.get('repeats')!r}")

    results = doc.get("results")
    if not isinstance(results, list) or not results:
        fail("missing or empty results array")

    seen = set()
    sum_ms = 0.0
    sum_events = 0
    adaptive_ms = 0.0
    adaptive_events = 0
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            fail(f"result {i}: not an object")
        for field, kind in RESULT_FIELDS.items():
            v = row.get(field)
            if kind is float:
                ok = isinstance(v, (int, float))
            else:
                ok = isinstance(v, kind)
            if not ok:
                fail(f"result {i}: bad {field} {v!r}")
        if row["policy"] not in EXPECTED_POLICIES:
            fail(f"result {i}: unknown policy {row['policy']!r}")
        key = (row["workload"], row["policy"])
        if key in seen:
            fail(f"result {i}: duplicate case {key}")
        seen.add(key)
        if row["wall_ms"] <= 0 or row["events"] <= 0 or row["sim_ticks"] <= 0:
            fail(f"result {i}: non-positive measurement in {key}")
        check_rate(f"result {i} events_per_sec", row["events_per_sec"],
                   row["events"], row["wall_ms"])
        check_rate(f"result {i} sim_ticks_per_sec", row["sim_ticks_per_sec"],
                   row["sim_ticks"], row["wall_ms"])
        sum_ms += row["wall_ms"]
        sum_events += row["events"]
        if row["policy"] == "adaptive":
            adaptive_ms += row["wall_ms"]
            adaptive_events += row["events"]

    workloads = {w for (w, _) in seen}
    policies = {p for (_, p) in seen}
    if len(seen) != len(workloads) * len(policies):
        fail("results grid is not a full workload x policy cross product")
    if "adaptive" not in policies:
        fail("no adaptive rows — the hot-path target configuration is missing")

    for name, want_ms, want_events in (
        ("total", sum_ms, sum_events),
        ("adaptive", adaptive_ms, adaptive_events),
    ):
        agg = doc.get(name)
        if not isinstance(agg, dict):
            fail(f"missing {name} aggregate")
        if agg.get("events") != want_events:
            fail(f"{name}.events {agg.get('events')!r} != sum of rows {want_events}")
        if not isinstance(agg.get("wall_ms"), (int, float)) or \
                abs(agg["wall_ms"] - want_ms) > 0.01 * len(results):
            fail(f"{name}.wall_ms {agg.get('wall_ms')!r} != sum of rows {want_ms:.3f}")
        check_rate(f"{name}.events_per_sec", agg.get("events_per_sec", -1.0),
                   want_events, agg["wall_ms"])

    bulk = doc.get("bulk_collective")
    if bulk is not None:
        if not isinstance(bulk, dict):
            fail("bulk_collective is not an object")
        for field in ("ranks", "lines_per_rank", "lines_per_block"):
            if not isinstance(bulk.get(field), int) or bulk[field] <= 0:
                fail(f"bulk_collective.{field} {bulk.get(field)!r}")
        for field in ("per_line_alg_bytes_per_cycle", "bulk_alg_bytes_per_cycle"):
            if not isinstance(bulk.get(field), (int, float)) or bulk[field] <= 0:
                fail(f"bulk_collective.{field} {bulk.get(field)!r}")
        if bulk.get("verified") is not True:
            fail("bulk_collective: collective runs did not verify")
        speedup = bulk.get("alg_speedup")
        expected = (bulk["bulk_alg_bytes_per_cycle"]
                    / bulk["per_line_alg_bytes_per_cycle"])
        if not isinstance(speedup, (int, float)) or \
                abs(speedup - expected) > max(0.01, expected * 1e-2):
            fail(f"bulk_collective.alg_speedup {speedup!r} inconsistent with "
                 f"bandwidths ({expected:.3f})")
        # The headline claim — bulk >= 3x per-line algorithm bandwidth —
        # holds at page-granularity blocks, which need each ring chunk to
        # span at least a page (64 lines). Smaller CI scales clamp blocks
        # to the chunk size, so there the bar is just "bulk must not lose".
        page_chunks = bulk["lines_per_rank"] >= 64 * bulk["ranks"]
        floor = 3.0 if page_chunks else 1.0
        if speedup < floor:
            fail(f"bulk_collective: alg_speedup {speedup:.2f}x below the "
                 f"{floor:.1f}x floor (lines_per_rank {bulk['lines_per_rank']}, "
                 f"{bulk['ranks']} ranks)")
        print(f"check_perf: OK: bulk_collective {bulk['ranks']} ranks "
              f"lpb={bulk['lines_per_block']}: {speedup:.2f}x per-line alg "
              f"bandwidth (floor {floor:.1f}x)")

    print(f"check_perf: OK: {len(results)} cases over {len(workloads)} workloads x "
          f"{len(policies)} policies, {sum_events} events in {sum_ms:.1f} ms")

    if args.baseline:
        compare_to_baseline(doc, args.baseline, args.tolerance)


if __name__ == "__main__":
    main()
