#!/usr/bin/env python3
"""Builds and runs the mgcomp benchmark.

Full set (every workload in BENCHMARK.json timed, then one traced run of
each), a human-readable report and a results JSON for compare.py:

    python3 benchmark/run.py [--seed S] [--seconds T] [--out FILE]

One workload, with the last stdout line one JSON object
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones:

    python3 benchmark/run.py --workload NAME --seed S --seconds T --trace 0|1

The benchmark is built from source into build-bench/ (CMake, Release) on
first use. Exits nonzero when a run fails, a check does not hold, or the
build is not an optimized NDEBUG build.
"""

import argparse
import datetime
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / "build-bench"
RESULTS_DIR = BUILD_DIR / "results"
MGBENCH = BUILD_DIR / "mgbench"

# Environment overrides the library honours; a benchmark run must not be
# steered by any of them (each config also pins its fabric and shards).
PINNED_ENV = ("MGCOMP_SHARDS", "MGCOMP_TOPOLOGY", "MGCOMP_GPUS_PER_NODE", "MGCOMP_SIMD")
# Modelled-machine metrics: a pure function of the config and seed, so two
# runs of one commit must agree exactly (compare.py holds them to that).
DETERMINISTIC = ("sim_cycles", "wire_bytes", "link_energy_uj")
# Host-time metrics come from mgbench's segment minima: every timed pass is
# cut into the same short segments, and the fastest copy of each is summed.
# They are then scaled to a reference core clock, at which mgbench's
# multiply-add chain takes REFERENCE_CHAIN_NS per step (the top turbo bin of
# the reference host), because the host's clock moves by up to 50% with its
# neighbours' load (README, "How host time is measured"). The same sums over
# the even and the odd passes alone, scaled alike, are the two halves whose
# distance is the reported spread.
SEGMENT_MINIMA = {"wall_s": ("best_wall_s", "half_wall_s"),
                  "setup_s": ("best_setup_s", "half_setup_s")}
REFERENCE_CHAIN_NS = 1.0
# Layer shares measured in the traced pass must cover the pass to within this.
COVERAGE_TOLERANCE = 0.02
RUN_TIMEOUT_S = 170
# Paper-accuracy references: adaptive (lambda = 6) vs no compression,
# reductions in execution time, inter-GPU traffic and link energy.
PAPER_REDUCTIONS = {"sim_cycles": 0.33, "wire_bytes": 0.62, "link_energy_uj": 0.45}
EXPERIMENTS_REDUCTIONS = {"sim_cycles": 0.337, "wire_bytes": 0.43, "link_energy_uj": 0.423}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def check_environment():
    pinned = [v for v in PINNED_ENV if v in os.environ]
    if pinned:
        fail("refusing to run with " + ", ".join(pinned) + " set: unset them first")


def build():
    """Configures (once) and builds mgbench; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"mgcomp sources not found under {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "mgbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_mgbench(workload, seed, seconds, trace, trace_out=None):
    """Runs one mgbench process; returns its JSON, or None if it failed."""
    cmd = [str(MGBENCH), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"run.py: mgbench {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    raw = json.loads(proc.stdout)
    if not raw["ndebug"]:
        fail(f"mgbench was built without NDEBUG ({raw['build_type']}); rebuild in Release")
    return raw


def end_to_end(raw, spec):
    """Host-time metrics over the timed passes, modelled totals of one pass.

    Each metric carries its value and two halves: for host times the
    estimates from the even and the odd passes alone, for the rest the value
    twice. spread is their distance relative to the value.
    """
    scale = REFERENCE_CHAIN_NS / raw["chain_ns_per_step"]
    events = raw["passes"][0]["events"]
    values = {"peak_rss_mb": (raw["peak_rss_mb"], [raw["peak_rss_mb"]] * 2)}
    for name, (best, halves) in SEGMENT_MINIMA.items():
        values[name] = (raw[best] * scale, [h * scale for h in raw[halves]])
    wall, halves = values["wall_s"]
    values["events_per_s"] = (events / wall, [events / h for h in halves])
    for name in DETERMINISTIC:
        total = sum(r[name] for r in raw["runs"])
        values[name] = (total, [total] * 2)
    out = {}
    for m in spec["end_to_end"]:
        value, halves = values[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"], "better": m["better"],
                          "bound": m["bound"], "passes": len(raw["passes"]),
                          "halves": halves, "spread": (max(halves) - min(halves)) / value}
    return out


def per_layer(raw, spec):
    layers = raw["layers"]
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def coverage_ok(raw):
    return abs(raw["layers"]["trace.coverage"] - 1.0) <= COVERAGE_TOLERANCE


def fmt(v):
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.6g}"
    return f"{int(v)}" if abs(v) < 1e15 else f"{v:.6g}"


def single(args, spec):
    """One workload, one seed, last line the result JSON."""
    raw = run_mgbench(args.workload, args.seed, args.seconds, args.trace,
                      RESULTS_DIR / f"trace-{args.workload}.json" if args.trace else None)
    if raw is None:
        sys.exit(1)
    failed = len(raw["failures"])
    for f in raw["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(raw, spec)
        correct = failed == 0 and coverage_ok(raw)
    else:
        metrics = end_to_end(raw, spec)
        correct = failed == 0
    for name, m in metrics.items():
        print(f"{name:40s} {fmt(m['value']):>18s} {m['unit']}")
    result = {"correct": correct, "attempted": raw["attempted"], "failed": failed,
              "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                          for k, m in metrics.items()}}
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


def host_info(first_raw):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "simd": first_raw["simd"],
            "compiler": first_raw["compiler"], "build_type": first_raw["build_type"],
            "git_commit": commit}


def paper_accuracy(results):
    """Geomean adaptive/raw ratio per modelled metric over the Table IV runs."""
    if "paper_adaptive" not in results or "paper_raw" not in results:
        return None
    adaptive = {r["name"]: r for r in results["paper_adaptive"]["runs"]}
    raw = {r["name"]: r for r in results["paper_raw"]["runs"]}
    out = {}
    for metric in DETERMINISTIC:
        ratios = [adaptive[n][metric] / raw[n][metric] for n in raw]
        gmean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        out[metric] = {"normalized": gmean, "reduction": 1 - gmean,
                       "paper": PAPER_REDUCTIONS[metric],
                       "experiments_md": EXPERIMENTS_REDUCTIONS[metric]}
    return out


def full(args, spec):
    """Every workload timed, then one traced run of each."""
    names = [w["name"] for w in spec["workloads"]]
    untraced, traced = {}, {}
    for name in names:
        print(f"running {name} (seed {args.seed}, {args.seconds} s) ...", file=sys.stderr)
        untraced[name] = run_mgbench(name, args.seed, args.seconds, False)
    for name in names:
        print(f"tracing {name} ...", file=sys.stderr)
        traced[name] = run_mgbench(name, args.seed, args.seconds, True,
                                   RESULTS_DIR / f"trace-{name}.json")

    now = datetime.datetime.now(datetime.timezone.utc)
    report = {"schema": "mgcomp-benchmark-results-v1", "seed": args.seed,
              "seconds": args.seconds, "date": now.isoformat(timespec="seconds"),
              "host": {}, "workloads": {}, "failures": []}
    for name in names:
        raw, tr = untraced[name], traced[name]
        if raw is None or tr is None:
            report["failures"].append(f"{name}: mgbench failed")
            continue
        report["host"] = report["host"] or host_info(raw)
        failures = raw["failures"] + tr["failures"]
        if [r["fingerprint"] for r in tr["runs"]] != [r["fingerprint"] for r in raw["runs"]]:
            failures.append("traced process fingerprints differ from untraced")
        if not coverage_ok(tr):
            failures.append(f"layer shares cover {tr['layers']['trace.coverage']:.4f} "
                            "of the traced pass")
        report["failures"] += [f"{name}: {f}" for f in failures]
        attempted = raw["attempted"] + tr["attempted"]
        report["workloads"][name] = {
            "attempted": attempted, "failed": len(failures),
            "failed_frac": len(failures) / attempted,
            "chain_ns_per_step": raw["chain_ns_per_step"], "runs": raw["runs"],
            "end_to_end": end_to_end(raw, spec), "per_layer": per_layer(tr, spec)}
    report["paper_accuracy"] = paper_accuracy(report["workloads"])

    print_report(report)
    out = Path(args.out) if args.out else RESULTS_DIR / f"results-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {out}")
    for f in report["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    if report["failures"]:
        sys.exit(1)


def print_report(report):
    h = report["host"]
    print(f"host: {h.get('cpu_model')}, {h.get('nproc')} cores, simd {h.get('simd')}, "
          f"{h.get('compiler')} {h.get('build_type')}, commit {h.get('git_commit', '')[:12]}")
    print(f"seed {report['seed']}, {report['seconds']} s per workload; host times are sums of"
          " per-segment minima over the n timed passes, at the reference clock"
          f" ({REFERENCE_CHAIN_NS} ns per chain step); the halves are the same sums over the"
          " even and the odd passes\n")
    for name, w in report["workloads"].items():
        print(f"== {name}: {w['attempted']} runs, failed_frac {w['failed_frac']:.3g}, "
              f"host clock {w['chain_ns_per_step']:.4f} ns per chain step")
        for metric, m in w["end_to_end"].items():
            spread = ""
            if m["spread"] > 0:
                spread = (f"n={m['passes']} halves {fmt(m['halves'][0])} {fmt(m['halves'][1])}"
                          f" spread {m['spread']:.2%}")
            print(f"  {metric:36s} {fmt(m['value']):>18s} {m['unit']:8s} "
                  f"({m['better']} is better, bound {m['bound']:.0%}) {spread}")
        for metric, m in w["per_layer"].items():
            print(f"  {metric:36s} {fmt(m['value']):>18s} {m['unit']}")
        print()
    acc = report["paper_accuracy"]
    if acc:
        print("paper accuracy (not gated): geomean paper_adaptive / paper_raw over the 7"
              " Table IV runs; modelled caches start cold in every run and are flushed at"
              " kernel boundaries")
        for metric, a in acc.items():
            paper_pt = 100 * (a["reduction"] - a["paper"])
            experiments_pt = 100 * (a["reduction"] - a["experiments_md"])
            print(f"  {metric:16s} normalized {a['normalized']:.3f}"
                  f"  reduction {a['reduction']:.1%}"
                  f"  paper {a['paper']:.0%} (error {paper_pt:+.1f} pt)"
                  f"  EXPERIMENTS.md {a['experiments_md']:.1%}"
                  f" (error {experiments_pt:+.1f} pt)")


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="results JSON path (full set only)")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    check_environment()
    build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    if args.workload:
        single(args, spec)
    else:
        full(args, spec)


if __name__ == "__main__":
    main()
