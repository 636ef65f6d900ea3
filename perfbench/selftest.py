"""Self-tests of the benchmark harness (not of the program).

    python3 perfbench/selftest.py

They check that a wrong value is counted as a failure, that a run with no
operations does not pass, that a traced repetition reaches the same
verdicts and digests as an untraced one, and that BENCHMARK.json declares
exactly the metrics and workloads the code produces.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Tally  # noqa: E402

SEED = 5


class HarnessTest(unittest.TestCase):
    def test_perturbed_value_is_a_failure(self):
        from loopsum import schur

        exact = schur.z_partition_function
        with mock.patch.object(schur, "z_partition_function",
                               side_effect=lambda n, zs: exact(n, zs) + 1):
            tally = Tally()
            workloads.sumrule_points_n6(SEED, 0, 1, tally, points=1)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        rep = {"attempted": tally.attempted, "failed": tally.failed,
               "correct": tally.correct}
        self.assertEqual(run.summarise([rep], 0),
                         {"correct": False, "attempted": 1, "failed": 1})

    def test_zero_operations_do_not_pass(self):
        self.assertFalse(Tally().correct)
        self.assertFalse(run.summarise([], 0)["correct"])
        self.assertFalse(run.summarise([], 1)["correct"])

    def test_check_without_cases_is_a_failure(self):
        # the CLI itself passes a check whose report has no cases
        from loopsum import cli
        from loopsum.report import CheckReport

        with mock.patch.object(cli, "check_factorization",
                               side_effect=lambda g: CheckReport("factorization(n=3)")):
            tally = Tally()
            workloads.check_all_n3(SEED, 0, 1, tally)
        self.assertEqual([n for n, ok in tally.verdicts if not ok],
                         ["factorization(n=3)"])

    def test_filled_cache_is_detected(self):
        from loopsum import linkpat

        linkpat.enumerate_patterns(2)
        self.assertIn("loopsum.linkpat.enumerate_patterns",
                      workloads.cold_cache_faults())

    def test_traced_repetition_matches_untraced(self):
        deadline = run.time.monotonic() + 120
        run.OUT.mkdir(exist_ok=True)
        plain = run.spawn("check-all-n3", SEED, 0, 2, deadline)
        traced = run.spawn("check-all-n3", SEED, 0, 1, deadline,
                           trace_out=run.OUT / "selftest-trace.json")
        self.assertTrue(plain["correct"] and traced["correct"])
        self.assertEqual(plain["verdicts"], traced["verdicts"])
        self.assertEqual(plain["digests"], traced["digests"])

    def test_benchmark_json_declares_what_the_code_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec[key]},
                             table)

    def test_fails_without_program_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        got = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                              "check-all-n3", "--seed", "1", "--seconds", "1",
                              "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(got.returncode, 0)
        self.assertEqual(got.stdout, "")


if __name__ == "__main__":
    unittest.main()
