#!/usr/bin/env python3
"""Self-check of the benchmark at tiny sizes: every workload, both modes.

    python3 perfbench/tests/smoke_test.py

Runs perfbench/run.py --smoke for each workload in BENCHMARK.json with
--trace 0 and --trace 1 and checks the last stdout line against the
result contract: every job correct, nothing failed, and exactly the
metrics the mode promises (end_to_end with tracing off, per_layer with it
on), each a finite number in its declared unit. A checkout holding only
BENCHMARK.json and perfbench/ must fail without printing a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, last = run_bench(ROOT, workload, trace)
        self.assertEqual(code, 0, last)
        result = json.loads(last)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
        got = result["metrics"]
        self.assertEqual(set(got), set(want))
        for name, unit in want.items():
            self.assertEqual(got[name]["unit"], unit, name)
            self.assertTrue(math.isfinite(got[name]["value"]), name)

    def test_fails_without_library_sources(self):
        scratch = os.path.join(ROOT, ".bench_out")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, last = run_bench(tmp, "serve", 0, smoke=False)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"correct"', last)


for _w in SPEC["workloads"]:
    for _t in (0, 1):
        setattr(SmokeTest, f"test_{_w['name']}_trace{_t}",
                lambda self, w=_w["name"], t=_t: self.check(w, t))

if __name__ == "__main__":
    unittest.main()
