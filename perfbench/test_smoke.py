#!/usr/bin/env python3
"""The benchmark's own test: smoke mode of every workload, both modes.

    python3 perfbench/test_smoke.py

Runs `run.py --smoke` (seconds-long workloads) for each workload with
--trace 0 and --trace 1 and asserts that the correctness checks pass and
that every metric BENCHMARK.json names is printed with its unit and
nothing else.  Also checks that compare.py refuses reports from
different hosts.  Builds the benchmark binary first, like run.py does.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import compare  # noqa: E402


def run_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=1200)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


class SmokeTest(unittest.TestCase):
    def check(self, trace, spec):
        want = {m["name"]: m["unit"] for m in spec}
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                result, lines = run_smoke(w["name"], trace)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                problems = [l for l in lines if l.startswith("# problem")]
                self.assertTrue(result["correct"], problems)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for k, v in result["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), k)

    def test_end_to_end_metrics(self):
        self.check(0, BENCH["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, BENCH["per_layer"])

    def test_compare_refuses_other_host(self):
        def report(cores):
            return {"host": {"cores": cores, "cpu_model": "x", "compiler": "c",
                             "build_type": "Release"},
                    "workload": "paper_grid", "trace": 0, "smoke": False,
                    "result": {"metrics": {"setup_s": {"value": 1.0,
                                                       "unit": "s"}}}}
        code, _ = compare.compare([report(4)], [report(8)], BENCH)
        self.assertEqual(code, 2)
        code, _ = compare.compare([report(4)], [report(4)], BENCH)
        self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
