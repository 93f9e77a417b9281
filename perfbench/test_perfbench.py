#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py        # from the checkout root

Checks the shape of BENCHMARK.json (keys, name and unit syntax, bounds),
then runs every workload at a tiny size (--tiny) in both modes through
run.py and checks that each named metric is emitted with its unit, that
the correctness gate passed, and that the workload-specific metrics show
up in the report lines.  Takes about ten seconds plus the first build.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Report-only metrics each workload must print besides BENCHMARK.json's.
EXTRA = {
    (w, 0): ["fail_ratio"] for w in
    ("dense_udg", "large_udg", "lossy_pipeline", "halfslot_big")
}
EXTRA[("lossy_pipeline", 0)] += ["capture_s", "explain_s",
                                 "checkpoint_run_s", "resume_s"]
EXTRA[("lossy_pipeline", 1)] = [
    "obs.events", "obs.trace_bytes", "obs.capture_ns_per_event",
    "obs.read_s", "obs.explain_trace_s", "obs.explain_exact_nodes",
    "obs.checkpoint_bytes", "core.load_checkpoint_s", "core.resume_run_s",
    "obs.resumed_slots", "radio.edge_visits"]
EXTRA[("halfslot_big", 1)] = ["radio.halfslot_loop_s"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertIn(spec["run_seconds"], range(1, 61))
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class TinyRunTest(unittest.TestCase):
    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "7", "--seconds", "0.5", "--trace",
             str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-1]), "\n".join(lines[:-1])

    def test_every_workload_emits_every_metric(self):
        spec = load_spec()
        for w in spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    result, report = self.run_bench(w["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], report)
                    self.assertEqual(result["failed"], 0, report)
                    self.assertGreaterEqual(result["attempted"], 1)
                    listed = spec["per_layer" if trace else "end_to_end"]
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in listed})
                    for m in listed:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                    for extra in EXTRA.get((w["name"], trace), []):
                        self.assertRegex(report, rf"\n  {re.escape(extra)} = ")

    def test_bare_directory_fails_without_result(self):
        # Without the library sources run.py must fail: non-zero exit and
        # no result line.
        with tempfile.TemporaryDirectory(dir=ROOT) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "dense_udg", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    unittest.main()
