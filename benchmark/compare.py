#!/usr/bin/env python3
"""Compares two benchmark result sets written by benchmark/run.py.

    python3 benchmark/compare.py A.json B.json

For every workload and end-to-end metric it prints both values as run.py
reports them (host times: sums of per-segment minima at the reference
clock), each value's spread (the distance between the estimates from the
even and the odd passes alone, relative to the value), the change, the
bound from BENCHMARK.json and a verdict for B against A:

  better / worse   B's value moved by more than the bound (deterministic
                   metrics: by any amount; they must match exactly)
  within bound     the values differ by no more than the bound
  unresolved       the spread of A or B exceeds the bound, and neither
                   every half of B beats every half of A nor the reverse

Exits 1 if any verdict is "worse" or either set recorded failed runs.
"""

import json
import sys
from pathlib import Path

DETERMINISTIC = ("sim_cycles", "wire_bytes", "link_energy_uj")


def verdict(name, a, b, bound, better):
    sign = 1 if better == "higher" else -1
    gain = sign * (b["value"] - a["value"]) / a["value"]
    if name in DETERMINISTIC:
        return "identical" if b["value"] == a["value"] else ("better" if gain > 0 else "worse")
    if max(a["spread"], b["spread"]) > bound:
        if all(sign * vb > sign * va for vb in b["halves"] for va in a["halves"]):
            return "better"
        if all(sign * vb < sign * va for vb in b["halves"] for va in a["halves"]):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "within bound"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    a_set, b_set = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    worse = 0
    for label, s in (("A", a_set), ("B", b_set)):
        h = s.get("host", {})
        print(f"{label}: {sys.argv[1 if label == 'A' else 2]}  seed {s['seed']}, "
              f"{h.get('cpu_model')}, {h.get('nproc')} cores, "
              f"commit {h.get('git_commit', '')[:12]}")
        if s.get("failures"):
            print(f"  {label} recorded failures: {s['failures']}")
            worse += 1
    if a_set["seed"] != b_set["seed"]:
        print("note: the sets used different seeds; modelled metrics are not comparable")
    print(f"\n{'workload':16s} {'metric':16s} {'A':>14s} {'spread':>9s} "
          f"{'B':>14s} {'spread':>9s} {'change':>8s} {'bound':>6s}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a_set["workloads"] or name not in b_set["workloads"]:
            print(f"{name:16s} missing from one set")
            worse += 1
            continue
        for m in spec["end_to_end"]:
            a = a_set["workloads"][name]["end_to_end"][m["name"]]
            b = b_set["workloads"][name]["end_to_end"][m["name"]]
            v = verdict(m["name"], a, b, m["bound"], m["better"])
            worse += v == "worse"
            change = (b["value"] - a["value"]) / a["value"]
            print(f"{name:16s} {m['name']:16s} {a['value']:14.6g} "
                  f"{a['spread']:9.2%} {b['value']:14.6g} {b['spread']:9.2%} {change:+8.2%} "
                  f"{m['bound']:6.0%}  {v}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
