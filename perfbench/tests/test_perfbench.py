#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulator).

    python3 perfbench/tests/test_perfbench.py

Builds the driver through run.py's build step (so $CARGO_TARGET_DIR
applies), then runs it for one second per case.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
REFS = os.path.join(PERFBENCH, "refs.json")
DRIVER = None


def setUpModule():
    global DRIVER
    DRIVER = run.build()


def drive(*args, refs=REFS, tmp=None):
    """Run the driver; returns (exit code, stdout lines)."""
    spans = os.path.join(tmp or tempfile.gettempdir(), "spans.json")
    p = subprocess.run([DRIVER, "--refs", refs, "--spans-out", spans]
                       + list(args), cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=170)
    return p.returncode, p.stdout.splitlines()


class MetricsPrintWithUnits(unittest.TestCase):
    def check(self, trace, declared):
        with tempfile.TemporaryDirectory() as tmp:
            for w in WORKLOADS:
                with self.subTest(workload=w):
                    code, lines = drive("--workload", w, "--seed", "3",
                                        "--seconds", "1", "--trace",
                                        str(trace), tmp=tmp)
                    self.assertEqual(code, 0)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(list(metrics),
                                     [m["name"] for m in declared])
                    for m in declared:
                        got = metrics[m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                        # The human summary names it with its unit too.
                        self.assertTrue(any(
                            l.strip().startswith(m["name"] + " = ")
                            and l.strip().split(" ")[3] == m["unit"]
                            for l in lines[:-1]), m["name"])
                        if not trace:
                            self.assertGreater(got["value"], 0, m["name"])

    def test_end_to_end(self):
        self.check(0, BENCH["end_to_end"])

    def test_per_layer(self):
        self.check(1, BENCH["per_layer"])


class SeedChangesInputs(unittest.TestCase):
    def inputs(self, w, seed):
        code, lines = drive("--workload", w, "--seed", str(seed),
                            "--print-inputs")
        self.assertEqual(code, 0)
        return lines

    def test_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                one = self.inputs(w, 1)
                self.assertEqual(one, self.inputs(w, 1))
                self.assertNotEqual(one, self.inputs(w, 2))


class CorruptedReferenceFails(unittest.TestCase):
    """At the reference seed a wrong or missing digest is a failure."""

    KEYS = {
        "figure-cells": "figure-cells/2dconv.base/stats",
        "fault-campaign": "fault-campaign/csv",
        "serve-curve": "serve-curve/csv",
    }

    def run_with(self, w, refs_doc, tmp):
        path = os.path.join(tmp, "refs.json")
        with open(path, "w") as f:
            json.dump(refs_doc, f)
        code, lines = drive("--workload", w, "--seed", "42", "--seconds",
                            "1", "--trace", "0", refs=path, tmp=tmp)
        self.assertEqual(code, 0)
        return json.loads(lines[-1])

    def test_corrupted_digest(self):
        with open(REFS) as f:
            good = json.load(f)
        with tempfile.TemporaryDirectory() as tmp:
            for w in WORKLOADS:
                with self.subTest(workload=w):
                    self.assertTrue(self.run_with(w, good, tmp)["correct"])
                    bad = json.loads(json.dumps(good))
                    digest = bad["digests"][self.KEYS[w]]
                    bad["digests"][self.KEYS[w]] = (
                        ("0" if digest[0] != "0" else "1") + digest[1:])
                    result = self.run_with(w, bad, tmp)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    del bad["digests"][self.KEYS[w]]
                    self.assertFalse(self.run_with(w, bad, tmp)["correct"])


class RefusesWithoutSources(unittest.TestCase):
    def test_benchmark_files_only(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(PERFBENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            p = subprocess.run(BENCH["command"] + [
                "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=170)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")

    def test_bad_flags(self):
        for args in (["--workload", "nope"], ["--seed", "1"],
                     ["--workload", WORKLOADS[0], "--trace", "2"]):
            with self.subTest(args=args):
                self.assertEqual(drive(*args)[0], 2)


if __name__ == "__main__":
    unittest.main()
