"""Self-test of the benchmark: determinism of the exact metrics and the
shape of its output.

    python3 perfbench/selftest.py          (about three minutes)

* Every metric marked exact repeats bit-for-bit for a fixed seed, bare
  or traced (so the tracer does not perturb the run).
* The exact metrics change with the seed, so the seed reaches the
  generator and the fault schedule.
* A run of each workload prints every metric BENCHMARK.json names, with
  its unit, and passes its correctness gates.

Wall-clock metrics do not repeat; measure their spread over seeds with
``spread.py`` instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from common import ROOT  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def episode(workload: str, seed: int, mode: str, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "sim_episode.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ExactMetricsTest(unittest.TestCase):
    seed = 7

    def test_repeat_for_a_seed_bare_or_traced(self):
        for workload in run.SIM_WORKLOADS:
            with self.subTest(workload=workload):
                bare = episode(workload, self.seed, "bare", self.seed)
                traced = episode(workload, self.seed, "traced", self.seed)
                self.assertEqual(bare["exact"], traced["exact"])
                self.assertEqual(bare["failures"], [])

    def test_follow_the_seed(self):
        for workload in run.SIM_WORKLOADS:
            with self.subTest(workload=workload):
                one = episode(workload, self.seed, "bare", 0)["exact"]
                other = episode(workload, self.seed + 1, "bare", 0)["exact"]
                for key in ("commit_ratio", "commit_ms_p50", "commit_ms_p99"):
                    self.assertNotEqual(one[key], other[key], key)

    @unittest.expectedFailure
    def test_independent_of_the_hash_seed(self):
        """Known defect: under indoubt-storm the polyvalue-resolution
        timing depends on the interpreter's string-hash seed, so the
        benchmark fixes PYTHONHASHSEED from --seed.  This test starts
        passing once the simulator's event order stops depending on it."""
        one = episode("indoubt-storm", self.seed, "bare", 1)["exact"]
        other = episode("indoubt-storm", self.seed, "bare", 2)["exact"]
        self.assertEqual(one, other)


class OutputTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {metric["name"]: metric["unit"] for metric in spec[section]}
            for workload in (w["name"] for w in spec["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                        capture_output=True, text=True, cwd=ROOT, timeout=180,
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed", "metrics"]
                    )
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {name: m["unit"] for name, m in result["metrics"].items()}, wanted
                    )


if __name__ == "__main__":
    unittest.main()
