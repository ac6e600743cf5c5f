#!/usr/bin/env python3
"""Tests of tools/check_experiments.py.

    python3 tests/check_experiments_test.py [CheckExperiments.test_NAME ...]

Each case copies the checker into a temporary tree next to its own
EXPERIMENTS.md and runs it against a stub bench_paper that prints two
captioned tables, so no simulation runs. tests/CMakeLists.txt registers
each case as its own ctest.
"""

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

CHECKER = Path(__file__).resolve().parent.parent / "tools" / "check_experiments.py"

# What the stub bench_paper prints at scale 1.0.
PRINTED = """\
# bench_paper (scale 1.00)

**Fig. 5**: normalized inter-GPU traffic, 1.0 = no compression

| Bench | FPC   | BDI   |
|-------|-------|-------|
| AES   | 1.010 | 1.001 |
| BS    | 0.312 | 0.291 |

**Latency**: remote completion latency at adaptive l=6 (cycles)

| Bench | l=6 |
|-------|-----|
| KM    | 412 |
"""

# EXPERIMENTS.md holding those tables between prose and a table of its own,
# which the checker leaves alone.
DOC = """\
# Experiments

Fig. 5 in prose: BS moves about a third of its raw traffic.

**Fig. 5**: normalized inter-GPU traffic, 1.0 = no compression

| Bench | FPC   | BDI   |
|-------|-------|-------|
| AES   | 1.010 | 1.001 |
| BS    | 0.312 | 0.291 |

A hand-written table:

| Setting | Value |
|---------|-------|
| GPUs    | 4     |

**Latency**: remote completion latency at adaptive l=6 (cycles)

| Bench | l=6 |
|-------|-----|
| KM    | 412 |
"""

BS_ROW = "| BS    | 0.312 | 0.291 |"


def line_of(doc, line):
    """1-based number of `line` in `doc`."""
    return doc.splitlines().index(line) + 1


class CheckExperiments(unittest.TestCase):
    def setUp(self):
        self.root = Path(tempfile.mkdtemp(prefix="check_experiments_test."))
        self.addCleanup(shutil.rmtree, self.root)
        (self.root / "tools").mkdir()
        shutil.copy(CHECKER, self.root / "tools")

    def check(self, doc, printed=PRINTED, bench_exit=0):
        """Exit code and output of the checker on `doc`, with a stub bench_paper
        that prints `printed` and exits `bench_exit`."""
        (self.root / "EXPERIMENTS.md").write_text(doc)
        (self.root / "printed.md").write_text(printed)
        stub = self.root / "bench_paper"
        stub.write_text(f"#!{sys.executable}\n"
                        "import sys\n"
                        "assert sys.argv[1:] == ['1.0'], sys.argv\n"
                        f"sys.stdout.write(open({str(self.root / 'printed.md')!r}).read())\n"
                        f"sys.exit({bench_exit})\n")
        stub.chmod(0o755)
        run = subprocess.run(
            [sys.executable, str(self.root / "tools" / "check_experiments.py"), str(stub)],
            capture_output=True, text=True, timeout=60)
        return run.returncode, run.stdout + run.stderr

    def test_matching_tables_pass(self):
        code, out = self.check(DOC)
        self.assertEqual(code, 0, out)
        self.assertIn("Fig. 5: ok (4 lines)", out)
        self.assertIn("Latency: ok (3 lines)", out)

    def test_edited_digit_names_table_and_line(self):
        code, out = self.check(DOC.replace("0.312", "0.313"))
        self.assertEqual(code, 1, out)
        self.assertIn(f"Fig. 5: EXPERIMENTS.md line {line_of(DOC, BS_ROW)} DIFFERS", out)
        self.assertIn("  EXPERIMENTS.md: | BS    | 0.313 | 0.291 |", out)
        self.assertIn(f"  bench_paper:    {BS_ROW}", out)
        self.assertIn("Latency: ok", out)

    def test_missing_table_is_named(self):
        code, out = self.check(DOC[:DOC.index("**Latency**")])
        self.assertEqual(code, 1, out)
        self.assertIn("Latency: MISSING, EXPERIMENTS.md has no line '**Latency**: remote", out)
        self.assertIn("Fig. 5: ok", out)

    def test_row_count_change_is_named(self):
        with self.subTest("bench_paper drops a row"):
            code, out = self.check(DOC, printed=PRINTED.replace(BS_ROW + "\n", ""))
            self.assertEqual(code, 1, out)
            self.assertIn(f"Fig. 5: EXPERIMENTS.md line {line_of(DOC, BS_ROW)} DIFFERS", out)
            self.assertIn("  bench_paper:    (no line)", out)
        with self.subTest("EXPERIMENTS.md lacks a row"):
            doc = DOC.replace(BS_ROW + "\n", "")
            code, out = self.check(doc)
            self.assertEqual(code, 1, out)
            # Reported at the line after the table's last row.
            after = line_of(doc, "| AES   | 1.010 | 1.001 |") + 1
            self.assertIn(f"Fig. 5: EXPERIMENTS.md line {after} DIFFERS", out)
            self.assertIn("  EXPERIMENTS.md: (no line)", out)

    def test_failing_bench_exits_2(self):
        code, out = self.check(DOC, bench_exit=3)
        self.assertEqual(code, 2, out)
        self.assertIn("1.0 exited 3", out)

    def test_no_captioned_table_exits_2(self):
        code, out = self.check(DOC, printed="# bench_paper (scale 1.00)\n")
        self.assertEqual(code, 2, out)
        self.assertIn("printed no captioned table", out)


if __name__ == "__main__":
    unittest.main()
