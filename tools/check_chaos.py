#!/usr/bin/env python3
"""Schema and property check for BENCH_CHAOS.json from `bench_chaos`.

Validates the mgcomp-bench-chaos-v2 schema and the properties the chaos
soak exists to prove:

  * every (fabric, collective, policy, rate) cell is present exactly once,
    on each of the switch, hier-fattree and hier-torus fabrics, and carries
    an explicit verdict — the harness terminated everywhere, no watchdog
    dump truncated the sweep;
  * the swept non-zero episode rates span at least three orders of
    magnitude, and the rate-0 control rows are pristine (completed on the
    first attempt, full ring, not partial);
  * verdicts are consistent: completed and degraded rows are verified
    against the host-side reference, failed rows carry a non-"none"
    structured error kind, and only shrunk (partial) rows lose survivors.

Usage: check_chaos.py BENCH_CHAOS.json
"""

import json
import sys

EXPECTED_FABRICS = {"switch", "hier-fattree", "hier-torus"}
EXPECTED_COLLECTIVES = {"allreduce", "allgather", "reducescatter", "broadcast"}
EXPECTED_POLICIES = {"raw", "adaptive"}
EXPECTED_VERDICTS = {"completed", "degraded", "failed"}
EXPECTED_ERRORS = {"none", "peer_down", "pull_failed", "shrink_rejected",
                   "retries_exhausted"}
RESULT_FIELDS = {
    "fabric": str,
    "collective": str,
    "policy": str,
    "rate": float,
    "episodes": int,
    "verdict": str,
    "error_kind": str,
    "attempts": int,
    "partial": bool,
    "verified": bool,
    "survivors": int,
    "duration_cycles": int,
    "line_transfers": int,
    "hard_failures": int,
    "link_errors_dropped": int,
    "health_transitions": int,
    "probes_sent": int,
    "rerouted": int,
    "episode_drops": int,
    "data_digest": str,
}


def fail(msg: str) -> None:
    print(f"check_chaos: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: check_chaos.py BENCH_CHAOS.json")
    try:
        with open(sys.argv[1], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {sys.argv[1]}: {e}")

    if doc.get("schema") != "mgcomp-bench-chaos-v2":
        fail(f"unexpected schema {doc.get('schema')!r}")
    if not isinstance(doc.get("scale"), (int, float)) or doc["scale"] <= 0:
        fail(f"bad scale {doc.get('scale')!r}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        fail("missing or empty results array")

    seen = {}
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            fail(f"result {i}: not an object")
        for field, kind in RESULT_FIELDS.items():
            v = row.get(field)
            ok = isinstance(v, (int, float)) if kind is float else isinstance(v, kind)
            # bool is an int subclass; keep int fields strictly integral.
            if kind is int and isinstance(v, bool):
                ok = False
            if not ok:
                fail(f"result {i}: bad {field} {v!r}")
        if row["fabric"] not in EXPECTED_FABRICS:
            fail(f"result {i}: unknown fabric {row['fabric']!r}")
        if row["collective"] not in EXPECTED_COLLECTIVES:
            fail(f"result {i}: unknown collective {row['collective']!r}")
        if row["policy"] not in EXPECTED_POLICIES:
            fail(f"result {i}: unknown policy {row['policy']!r}")
        if row["verdict"] not in EXPECTED_VERDICTS:
            fail(f"result {i}: unknown verdict {row['verdict']!r}")
        if row["error_kind"] not in EXPECTED_ERRORS:
            fail(f"result {i}: unknown error_kind {row['error_kind']!r}")
        if row["attempts"] < 1:
            fail(f"result {i}: attempts {row['attempts']} < 1")
        key = (row["fabric"], row["collective"], row["policy"], row["rate"])
        if key in seen:
            fail(f"result {i}: duplicate cell {key}")
        seen[key] = row

        # Verdict consistency.
        if row["verdict"] in ("completed", "degraded") and not row["verified"]:
            fail(f"result {i}: {row['verdict']} but not verified")
        if row["verdict"] == "failed" and row["error_kind"] == "none":
            fail(f"result {i}: failed without an error kind")
        if row["verdict"] == "completed" and row["attempts"] != 1:
            fail(f"result {i}: completed in {row['attempts']} attempts")
        if row["partial"] != (row["survivors"] < 4) and row["verdict"] != "failed":
            fail(f"result {i}: partial={row['partial']} inconsistent with "
                 f"survivors={row['survivors']}")

        # Rate-0 control rows must be untouched by the fault subsystem.
        if row["rate"] == 0:
            if row["verdict"] != "completed" or row["attempts"] != 1:
                fail(f"result {i}: rate-0 control not pristine")
            if row["partial"] or row["episodes"] != 0:
                fail(f"result {i}: rate-0 control saw episodes")
            if row["health_transitions"] != 0 or row["hard_failures"] != 0:
                fail(f"result {i}: rate-0 control saw fault activity")

    # Full grid: every fabric, and every (collective, policy) cell at every
    # swept rate on each of them.
    fabrics = sorted({k[0] for k in seen})
    if set(fabrics) != EXPECTED_FABRICS:
        fail(f"fabrics {fabrics} != {sorted(EXPECTED_FABRICS)}")
    colls = sorted({k[1] for k in seen})
    pols = sorted({k[2] for k in seen})
    rates = sorted({k[3] for k in seen})
    for f in fabrics:
        for c in colls:
            for p in pols:
                for r in rates:
                    if (f, c, p, r) not in seen:
                        fail(f"missing cell ({f}, {c}, {p}, {r})")

    nonzero = [r for r in rates if r > 0]
    if 0 not in rates and 0.0 not in rates:
        fail("no rate-0 control rows")
    if len(nonzero) < 2 or max(nonzero) / min(nonzero) < 1000:
        fail(f"episode rates {nonzero} span less than 3 orders of magnitude")

    verdicts = {v: sum(1 for r in seen.values() if r["verdict"] == v)
                for v in EXPECTED_VERDICTS}
    print(f"check_chaos: OK: {len(results)} rows over fabrics {fabrics} and rates {rates}; verdicts "
          f"completed={verdicts['completed']} degraded={verdicts['degraded']} "
          f"failed={verdicts['failed']}; all cells terminated")


if __name__ == "__main__":
    main()
