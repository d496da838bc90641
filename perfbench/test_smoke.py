#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload and output check once, at tiny
sizes, untraced and traced, and the printed metrics match BENCHMARK.json.

  python3 perfbench/test_smoke.py      (from the repository root)
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(*args):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def records(lines):
    return [json.loads(l[len("record: "):]) for l in lines if l.startswith("record: ")]


class PerfbenchSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result_line(self, lines, section):
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        listed = {m["name"]: m["unit"] for m in self.spec[section]}
        self.assertEqual(set(result["metrics"]), set(listed))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], listed[name], name)
        return result

    def test_every_workload_untraced(self):
        for workload in ("cell_sweep", "campus_bursty", "campaign_small_jobs"):
            with self.subTest(workload=workload):
                code, lines = run("--workload", workload, "--seed", "5", "--trace",
                                  "0", "--smoke")
                self.assertEqual(code, 0, lines[-5:])
                result = self.check_result_line(lines, "end_to_end")
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                (record,) = records(lines)
                self.assertEqual(record["workload"], workload)
                self.assertEqual(record["seed"], 5)
                for key in ("git_sha", "source_digest", "cmake_build_type", "compiler",
                            "cxx_flags", "nproc", "threads", "allocator", "run_tag"):
                    self.assertIn(key, record)

    def test_every_workload_traced(self):
        for workload in ("cell_sweep", "campus_bursty", "campaign_small_jobs"):
            with self.subTest(workload=workload):
                code, lines = run("--workload", workload, "--seed", "5", "--trace",
                                  "1", "--smoke")
                self.assertEqual(code, 0, lines[-5:])
                self.check_result_line(lines, "per_layer")

    def test_same_seed_same_digest(self):
        digests = []
        for _ in range(2):
            code, lines = run("--workload", "campus_bursty", "--seed", "9", "--smoke")
            self.assertEqual(code, 0)
            digests.append(records(lines)[0]["digest"])
        self.assertEqual(digests[0], digests[1])

    def test_all_prints_every_workload(self):
        code, lines = run("--all", "--smoke", "--seed", "2")
        self.assertEqual(code, 0)
        self.assertEqual([r["workload"] for r in records(lines)],
                         ["cell_sweep", "campus_bursty", "campaign_small_jobs"])
        table = "\n".join(lines)
        for m in self.spec["end_to_end"]:
            self.assertIn(m["name"], table)
        for name in ("job_p50_ms", "job_p95_ms", "failed_frac", "tf_gain",
                     "results_digest"):
            self.assertIn(name, table)


if __name__ == "__main__":
    unittest.main()
