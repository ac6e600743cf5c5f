#!/usr/bin/env python3
"""Checks that EXPERIMENTS.md carries every table bench_paper prints.

    python3 tools/check_experiments.py BENCH_PAPER

Runs `BENCH_PAPER 1.0` (the build's bench/bench_paper) and reads its output
as captioned Markdown tables: a caption line `**Name**: ...`, then the
table's `|` lines. EXPERIMENTS.md must hold each caption line and, after
it, the same table line for line, so a change that moves a paper number
edits EXPERIMENTS.md in the same diff. Exits 1 naming every table that is
missing or has a line that differs, 2 when bench_paper fails or prints no
captioned table.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
SCALE = "1.0"
CAPTION = re.compile(r"^\*\*(?P<name>[^*]+)\*\*: ")


def die(msg):
    print(f"check_experiments: {msg}", file=sys.stderr)
    sys.exit(2)


def table_after(lines, caption):
    """(index, line) of each `|` line of the table that follows lines[caption]."""
    rows = []
    for i in range(caption + 1, len(lines)):
        if lines[i].startswith("|"):
            rows.append((i, lines[i]))
        elif rows or lines[i].strip():
            break
    return rows


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    run = subprocess.run([sys.argv[1], SCALE], capture_output=True, text=True)
    if run.returncode != 0:
        die(f"{sys.argv[1]} {SCALE} exited {run.returncode}: {run.stderr.strip()}")
    printed = run.stdout.splitlines()
    captions = [(m["name"], i) for i, line in enumerate(printed) if (m := CAPTION.match(line))]
    if not captions:
        die(f"{sys.argv[1]} {SCALE} printed no captioned table")
    doc = EXPERIMENTS.read_text().splitlines()
    bad = 0
    for name, i in captions:
        if printed[i] not in doc:
            print(f"{name}: MISSING, EXPERIMENTS.md has no line '{printed[i]}'")
            bad += 1
            continue
        at = doc.index(printed[i])
        want = [line for _, line in table_after(printed, i)]
        have = table_after(doc, at)
        end = have[-1][0] + 1 if have else at + 1
        differs = False
        for n in range(max(len(want), len(have))):
            found = have[n][1] if n < len(have) else "(no line)"
            expected = want[n] if n < len(want) else "(no line)"
            if found != expected:
                line_no = (have[n][0] if n < len(have) else end) + 1
                print(f"{name}: EXPERIMENTS.md line {line_no} DIFFERS\n"
                      f"  EXPERIMENTS.md: {found}\n  bench_paper:    {expected}")
                differs = True
        bad += differs
        if not differs:
            print(f"{name}: ok ({len(want)} lines)")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
