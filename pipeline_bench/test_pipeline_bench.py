#!/usr/bin/env python3
"""Smoke tests of the pipeline benchmark at tiny scale.

    python3 pipeline_bench/test_pipeline_bench.py

Builds the benchmark (as run.py does), then runs every workload at
--scale 0.01 and checks that every metric prints by name with its unit,
that a flipped byte in a written shard makes exactly that rep fail without
aborting the run, and that the timing decorator leaves the output digest
unchanged.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
with open(os.path.join(HERE, "layers.json")) as f:
    LAYERS = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer times printed in the table but kept out of the result line,
# because they read exactly 0 on a workload that bypasses the layer.
TABLE_ONLY = ["gen.prop_window_s", "store.put_props_busy_s", "store.open_s",
              "store.verify_s"]
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()


def bench(workload, trace, *extra):
    work = os.path.join(run.ROOT, ".bench_work", "test")
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", "7", "--seconds", "0.3",
         "--trace", str(trace), "--scale", "0.01", "--work-dir", work] +
        list(extra),
        capture_output=True, text=True, timeout=120, cwd=run.ROOT)
    return proc


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rep_digests(stdout, kind):
    return re.findall(r"^rep \d+ " + kind + r": .* digest=([0-9a-f]+) ok$",
                      stdout, re.M)


class MetricsTest(unittest.TestCase):
    def check_metrics(self, proc, expected):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        r = result(proc)
        self.assertEqual(sorted(r), ["attempted", "correct", "failed",
                                     "metrics"])
        self.assertTrue(r["correct"], proc.stdout)
        self.assertEqual(r["failed"], 0)
        self.assertGreaterEqual(r["attempted"], 1)
        self.assertEqual(list(r["metrics"]), [m["name"] for m in expected])
        for m in expected:
            got = r["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertRegex(proc.stdout, r"(?m)^  " + re.escape(m["name"]) +
                             r" +\S+ " + re.escape(m["unit"]) + r"\b")

    def test_every_metric_prints_by_name_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                proc = bench(workload, 0)
                self.check_metrics(proc, SPEC["end_to_end"])
                self.assertIn("host cpu steal during the reps:", proc.stdout)
            with self.subTest(workload=workload, trace=1):
                proc = bench(workload, 1)
                self.check_metrics(proc, SPEC["per_layer"])
                for name in TABLE_ONLY:
                    self.assertRegex(proc.stdout, r"(?m)^  " +
                                     re.escape(name) + r" .*\(table only\)$")
                self.assertIn("tracing overhead: pipeline_s of", proc.stdout)
                self.assertIn("(csb.trace.v1, valid)", proc.stdout)

    def test_every_end_to_end_metric_is_positive(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                for name, m in result(bench(workload, 0))["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_layer_map_covers_every_per_layer_metric(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        self.assertEqual(sorted(LAYERS),
                         sorted(m["name"] for m in SPEC["per_layer"]))
        for name, entry in LAYERS.items():
            self.assertTrue(set(entry["moves"]) <= e2e, name)
            self.assertTrue(entry["most_work"], name)


class FailureAccountingTest(unittest.TestCase):
    def test_flipped_shard_byte_fails_that_rep_only(self):
        proc = bench("pgsk-fast-shards", 0, "--corrupt-rep", "2")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        r = result(proc)
        self.assertEqual(r["failed"], 1, proc.stdout)
        self.assertFalse(r["correct"])
        self.assertRegex(proc.stdout, r"(?m)^rep 2 plain FAILED: .*checksum")
        self.assertTrue(rep_digests(proc.stdout, "plain"))

    def test_corrupting_a_memory_workload_is_a_failed_rep(self):
        proc = bench("pgsk-memory", 0, "--corrupt-rep", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(result(proc)["failed"], 1, proc.stdout)


class DecoratorTest(unittest.TestCase):
    def test_decorated_sink_matches_undecorated_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                plain = rep_digests(proc.stdout, "plain")
                traced = rep_digests(proc.stdout, "traced")
                self.assertTrue(plain and traced, proc.stdout)
                self.assertEqual(set(plain), set(traced))
                self.assertEqual(len(set(plain)), 1)
                self.assertTrue(result(proc)["correct"])


class OutsideCheckoutTest(unittest.TestCase):
    def test_fails_without_printing_a_result_outside_a_checkout(self):
        import shutil
        import tempfile
        with tempfile.TemporaryDirectory(
                dir=os.path.join(run.ROOT, ".bench_work")) as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "pipeline_bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "pipeline_bench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=120,
                env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
