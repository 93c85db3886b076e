#!/usr/bin/env python3
"""Smoke test of the repository benchmark: every workload at a tiny size.

    python3 perfbench/test_smoke.py

For each workload, both --trace modes and both golden seeds (0 and the
held-out 1), runs perfbench/run.py with --scale tiny and asserts that
the run is correct with no failed point, that the goldens covered it (so
every digest was compared), and that every metric BENCHMARK.json names
for the mode is printed with its unit, in the JSON and as a text line.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--scale", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    return out


class Smoke(unittest.TestCase):
    def check(self, workload, seed, trace):
        out = run(workload, seed, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], out.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertIn(f"goldens: covered for scale tiny seed {seed}",
                      out.stdout)
        self.assertTrue(any(l.startswith("provenance: git_sha=")
                            for l in lines))

        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in wanted))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertTrue(any(l.split()[:2] == ["metric", m["name"]]
                                and l.split()[-1] == m["unit"]
                                for l in lines), m["name"])

        if workload == "figset" and not trace:
            self.assertIn("fidelity (Fig 10", out.stdout)
            self.assertIn("never against hardware", out.stdout)
        if workload == "explain" and trace:
            self.assertIn("pillar overhead (explain points", out.stdout)


def add_case(workload, seed, trace):
    def test(self):
        self.check(workload, seed, trace)
    name = f"test_{workload.replace('-', '_')}_seed{seed}_trace{trace}"
    setattr(Smoke, name, test)


for w in SPEC["workloads"]:
    for seed in (0, 1):
        for trace in (0, 1):
            add_case(w["name"], seed, trace)


if __name__ == "__main__":
    unittest.main()
