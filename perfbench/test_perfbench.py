"""Tests for the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The harness tests build perfbench_harness first (as run.py does), so the
first run takes as long as a build.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_median_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(range(19), 50))
        self.assertEqual(run.percentile(range(21), 50), (10, 10))

    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(range(99), 90))
        self.assertEqual(run.percentile(range(100), 90), (89, 10))

    def test_ties_do_not_count_as_beyond(self):
        self.assertIsNone(run.percentile([1.0] * 15 + [2.0] * 9, 50))

    def test_end_to_end_prints_n_and_refuses_thin_samples(self):
        raw = {"op_ms": [float(x) for x in range(30)], "setup_s": [1.0, 2.0, 3.0],
               "attempted": 30, "failed": 0, "timed_s": 3.0,
               "timed_cpu_s": 6.0, "peak_rss_mb": 10.0}
        metrics = run.end_to_end(raw)
        self.assertEqual(metrics["op_p50_ms"], (14.0, 30))
        self.assertEqual(metrics["setup_s"], (2.0, 3))
        self.assertEqual(metrics["ok_per_s"], (10.0, 30))
        self.assertEqual(metrics["cpu_ms_per_op"], (200.0, 30))
        raw["op_ms"] = raw["op_ms"][:15]
        with self.assertRaises(RuntimeError):
            run.end_to_end(raw)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.harness = run.build()

    def harness_output(self, *args):
        proc = subprocess.run([str(self.harness), *args], cwd=run.ROOT,
                              stdout=subprocess.PIPE, text=True, check=True,
                              timeout=170)
        return proc.stdout

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in ("serve", "dse_shard"):
            first = self.harness_output("--print-inputs", workload,
                                        "--seed", "5")
            again = self.harness_output("--print-inputs", workload,
                                        "--seed", "5")
            self.assertEqual(first, again, workload)
        other = self.harness_output("--print-inputs", "serve",
                                    "--seed", "6")
        self.assertNotEqual(first, other)

    def test_request_rounds_have_exact_proportions(self):
        text = self.harness_output("--print-inputs", "serve",
                                   "--seed", "7")
        for line in text.splitlines():
            # A write token carries its dim, as in "write13".
            classes = [re.sub(r"^write\d+$", "write", token)
                       for token in line.split(":")[1].split()]
            self.assertEqual(len(classes), 100)
            self.assertEqual(classes.count("read"), 70)
            self.assertEqual(classes.count("sim"), 15)
            self.assertEqual(classes.count("write"), 10)
            self.assertEqual(classes.count("hop3"), 5)

    def test_perturbed_output_is_counted_as_failed(self):
        out = self.harness_output(
            "--workload", "sim_sweep", "--seed", "3", "--seconds", "0",
            "--trace", "0", "--out-dir", str(run.OUT_DIR),
            "--perturb-every", "4")
        raw = json.loads(out.strip().splitlines()[-1])
        # Every fourth output is damaged and counted; the rest pass.
        self.assertGreaterEqual(raw["attempted"], 21)
        self.assertEqual(raw["failed"], raw["attempted"] // 4)


if __name__ == "__main__":
    unittest.main()
