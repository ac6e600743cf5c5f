#!/usr/bin/env python3
"""Checks short benchmark runs against the committed seed-0 baseline.

    python3 tools/check_bench_smoke.py DIR

DIR holds one file per workload in BENCHMARK.json, DIR/<workload>.json:
the last stdout line of

    python3 benchmark/run.py --workload <workload> --seed 0 --seconds 1 --trace 0

The modelled-machine metrics (sim_cycles, wire_bytes, link_energy_uj) are a
pure function of config and seed, so even a one-second run must reproduce
the seed-0 "Set 1" table of benchmark/README.md exactly (link energy to the
three decimals the table prints). Exits 1 naming every workload that
failed a run or moved a metric, 2 on a missing file or an unreadable table.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "benchmark" / "README.md"
TABLE_HEADING = "**Set 1** (seed 0):"
METRICS = ("sim_cycles", "wire_bytes", "link_energy_uj")


def die(msg):
    print(f"check_bench_smoke: {msg}", file=sys.stderr)
    sys.exit(2)


def cells(line):
    return [c.strip() for c in line.strip().strip("|").split("|")]


def baseline():
    """{workload: {metric: cell text}} from the README's Set 1 table."""
    lines = README.read_text().splitlines()
    try:
        start = lines.index(TABLE_HEADING)
    except ValueError:
        die(f"no '{TABLE_HEADING}' table in {README}")
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            rows.append(cells(line))
        elif rows:
            break
    if len(rows) < 3:
        die(f"the '{TABLE_HEADING}' table in {README} has no rows")
    header = rows[0]
    missing = [m for m in METRICS if m not in header]
    if missing:
        die(f"the '{TABLE_HEADING}' table lacks columns {missing}")
    return {row[0].strip("`"): {m: row[header.index(m)] for m in METRICS}
            for row in rows[2:]}


def matches(metric, value, expected):
    if metric == "link_energy_uj":
        return f"{value:.3f}" == expected
    return value == int(expected)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    out_dir = Path(sys.argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = baseline()
    bad = 0
    for w in spec["workloads"]:
        name = w["name"]
        if name not in expected:
            die(f"{name} has no row in the '{TABLE_HEADING}' table")
        path = out_dir / f"{name}.json"
        if not path.is_file():
            die(f"{path} not found")
        result = json.loads(path.read_text().strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"{name}: {result['failed']} of {result['attempted']} runs failed")
            bad += 1
        for m in METRICS:
            value = result["metrics"][m]["value"]
            ok = matches(m, value, expected[name][m])
            bad += not ok
            shown = f"{value:.3f}" if m == "link_energy_uj" else f"{value}"
            print(f"{name:16s} {m:16s} {shown:>12s} baseline {expected[name][m]:>12s}  "
                  f"{'ok' if ok else 'DIFFERS'}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
