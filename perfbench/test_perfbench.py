#!/usr/bin/env python3
"""Tests for the benchmark's own code.

Run from the repository root (builds the benchmark on first use):

    python3 -m unittest perfbench/test_perfbench.py

Each workload runs at a tiny size: it must complete with error rate 0 and
report exactly the metrics BENCHMARK.json lists, and a perturbed stored
reference must make the output check fail.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TINY_SIZE = 40000
SEED = 3


def run_bench(workload, trace=0, reference=None, update=False, seconds=0.1):
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", str(trace), "--size", str(TINY_SIZE)]
    if reference is not None:
        command += ["--reference", reference]
    if update:
        command.append("--update-reference")
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s" % (workload, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_record(workload, trace):
    path = os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d.json" % (workload, SEED, trace))
    with open(path) as f:
        return json.load(f)


def metric_names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {metric["name"] for metric in json.load(f)[section]}


class TinyRunTest(unittest.TestCase):
    def setUp(self):
        handle, self.reference = tempfile.mkstemp(suffix=".json")
        os.close(handle)
        os.remove(self.reference)

    def tearDown(self):
        if os.path.exists(self.reference):
            os.remove(self.reference)

    def check_clean(self, result, section):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), metric_names(section))
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))

    def test_every_workload_runs_clean_and_reports_every_metric(self):
        for workload in ("sprite_long", "auspex_sweep", "serve_mixed"):
            with self.subTest(workload=workload):
                self.check_clean(run_bench(workload, trace=0, reference=self.reference),
                                 "end_to_end")
                self.check_clean(run_bench(workload, trace=1, reference=self.reference),
                                 "per_layer")
                # Simulated behaviour is recorded beside the per-layer
                # metrics, never among them, and the record names its code.
                record = load_record(workload, trace=1)
                self.assertIn("out.local_frac", record["simulated"])
                self.assertIn("core.recirculations", record["simulated"])
                self.assertFalse(set(record["simulated"]) & metric_names("per_layer"))
                self.assertEqual(len(record["context"]["source_sha256"]), 64)
                self.assertIn("git_sha", record["context"])

    def test_perturbed_reference_fails_the_output_check(self):
        for workload, key in (("sprite_long", "t0.nchance.reads_disk"),
                              ("auspex_sweep", "greedy.avg_read_us")):
            with self.subTest(workload=workload):
                # --seconds 0: the fewest calls, so both runs attempt the same
                # number of checks.
                run_bench(workload, reference=self.reference, update=True, seconds=0)
                clean = run_bench(workload, reference=self.reference, seconds=0)
                self.assertEqual(clean["failed"], 0)
                with open(self.reference) as f:
                    stored = json.load(f)
                entry = next(v for k, v in stored.items() if k.startswith(workload + "/"))
                entry[key] = entry[key] * 1.0001 + 1
                with open(self.reference, "w") as f:
                    json.dump(stored, f)
                perturbed = run_bench(workload, reference=self.reference, seconds=0)
                self.assertFalse(perturbed["correct"])
                self.assertEqual(perturbed["failed"], 1)
                self.assertEqual(perturbed["attempted"], clean["attempted"])


if __name__ == "__main__":
    unittest.main()
