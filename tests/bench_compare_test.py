#!/usr/bin/env python3
"""Tests for tools/bench_compare.py, the gate that declares two bench runs
modeled-identical.

Feeds the tool synthetic google-benchmark JSON and checks its exit status and
report. Run directly or through CTest:

    python3 tests/bench_compare_test.py [PATH/TO/bench_compare.py]
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
TOOL = HERE.parent / "tools" / "bench_compare.py"

FILE = "BENCH_fig4_chain_revocation.json"
BASELINE = [
    {"name": "BM_ChainRevoke/8", "real_time": 12345.0, "revokes_per_s": 81004.45},
    {"name": "BM_ChainRevoke/16", "real_time": 24690.0, "revokes_per_s": 40502.23},
]


def write_bench(directory, benchmarks):
    rows = []
    for bench in benchmarks:
        row = {"run_type": "iteration", "iterations": 1, "cpu_time": 7.0, "time_unit": "ns"}
        row.update(bench)
        rows.append(row)
    (directory / FILE).write_text(json.dumps({"context": {}, "benchmarks": rows}))


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.base = pathlib.Path(tmp.name) / "baseline"
        self.new = pathlib.Path(tmp.name) / "new"
        self.base.mkdir()
        self.new.mkdir()
        write_bench(self.base, BASELINE)

    def compare(self, new_benchmarks, *extra):
        write_bench(self.new, new_benchmarks)
        proc = subprocess.run(
            [sys.executable, str(TOOL), str(self.base), str(self.new),
             "--threshold", "0.0000001", *extra],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def test_identical_files_pass(self):
        code, out = self.compare(BASELINE)
        self.assertEqual(code, 0, out)
        self.assertIn("compared 2 benchmarks", out)

    def test_moved_counter_is_modeled_drift(self):
        moved = [dict(BASELINE[0], revokes_per_s=81004.46), BASELINE[1]]
        code, out = self.compare(moved)
        self.assertEqual(code, 1, out)
        self.assertIn("MODELED DRIFT", out)

    def test_dropped_benchmark_fails(self):
        code, out = self.compare(BASELINE[:1])
        self.assertEqual(code, 1, out)
        self.assertIn("disappeared", out)

    def test_new_benchmark_passes(self):
        added = BASELINE + [{"name": "BM_ChainRevoke/32", "real_time": 49380.0,
                             "revokes_per_s": 20251.11}]
        code, out = self.compare(added)
        self.assertEqual(code, 0, out)
        self.assertIn("new benchmark", out)

    def test_rebaseline_of_unchanged_file_fails(self):
        code, out = self.compare(BASELINE, "--allow-rebaselined", FILE)
        self.assertEqual(code, 1, out)
        self.assertIn("identical to the baseline", out)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        TOOL = pathlib.Path(sys.argv.pop(1)).resolve()
    unittest.main()
