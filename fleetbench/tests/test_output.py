#!/usr/bin/env python3
"""The benchmark's output carries every metric BENCHMARK.json names.

    python3 test_output.py <fleetbench binary> <BENCHMARK.json>

Runs each workload briefly in both modes and checks the last stdout line:
exactly the end-to-end (--trace 0) or per-layer (--trace 1) metrics, each
with its unit and a finite value, a clean audit, and a metadata line that
records build type, commit, nproc, seed and sample counts.
"""

import json
import math
import subprocess
import sys
import unittest

BINARY, SPEC = sys.argv[1], sys.argv[2]


class OutputCarriesEveryMetric(unittest.TestCase):
    def run_bench(self, workload, trace, seed=7):
        out = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "2",
             "--trace", str(trace), "--commit", "test"],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.splitlines()
        return json.loads(lines[-2])["fleetbench"], json.loads(lines[-1])

    def check(self, workload, trace):
        with open(SPEC) as f:
            spec = json.load(f)
        want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        meta, result = self.run_bench(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        for name, m in result["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)
        for key in ("build_type", "commit", "nproc", "seed", "samples"):
            self.assertIn(key, meta)
        self.assertEqual(meta["workload"], workload)
        if not trace:
            for name in ("jobs_per_s", "cpu_ms_per_job", "setup_s", "e2e_p50_ms"):
                self.assertGreater(result["metrics"][name]["value"], 0, name)
            self.assertGreater(meta["samples"]["e2e_p50_ms"], 0)

    def test_farm_distinct(self):
        self.check("farm_distinct", 0)
        self.check("farm_distinct", 1)

    def test_node_progs(self):
        self.check("node_progs", 0)
        self.check("node_progs", 1)

    def test_gate_open(self):
        self.check("gate_open", 0)
        self.check("gate_open", 1)

    def test_unknown_workload_is_refused(self):
        out = subprocess.run([BINARY, "--workload", "nope", "--seed", "1"],
                             capture_output=True, text=True, timeout=30)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1])
