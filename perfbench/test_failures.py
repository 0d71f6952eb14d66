"""Failure accounting of the slx benchmark, tested with two real defects.

Run from the repository root (builds slx first):

    python3 perfbench/test_failures.py

Neither query belongs in a workload; both are known defects of slx:

- live-explore at n=3, depth 14 with one crash branch outgrows the
  benchmark's 1.5 GiB address-space cap within about ten seconds (the
  crash-free search completes, at a 1.1 GB peak), so the cap or the
  timeout must end it;
- explore --store into a directory that does not exist explores fully,
  then dies with an uncaught Sys_error (exit 125).

Each must be counted as a failed query, not dropped from the tally.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

OVERSIZED = "live-explore --procs 3 --depth 14 -p 1,1 --crashes 1 --json"
MISSING_STORE = "explore -i cas --depth 8 --json --store perfbench/_work/missing/s"


class FailureAccounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build(False)
        os.makedirs(bench.WORK, exist_ok=True)

    def test_defects_are_counted_as_failures(self):
        # The real measurement path, on a one-pass workload made of the
        # two defects and one healthy query.
        bench.CLI_WORKLOADS["defects"] = [
            ("oversized", OVERSIZED),
            ("missing-store", MISSING_STORE),
            ("es-cas-d8", "explore -i cas --depth 8 --json"),
        ]
        bench.MIN_SAMPLES = 3
        try:
            tally, metrics, _ = bench.end_to_end("defects", seed=1, seconds=0)
        finally:
            del bench.CLI_WORKLOADS["defects"]
        self.assertEqual(tally.attempted, 3)
        self.assertEqual(tally.failed, 2)
        self.assertEqual(len(tally.walls), 1)
        self.assertEqual(tally.wrong, 0)
        self.assertGreater(metrics["queries_per_s"][0], 0)

    def test_memory_cap_ends_the_oversized_query(self):
        p = bench.run_proc([bench.SLX] + OVERSIZED.split())
        self.assertTrue(p.failed)
        self.assertFalse(p.timed_out)
        self.assertNotEqual(p.rc, 0)

    def test_timeout_ends_the_oversized_query(self):
        p = bench.run_proc([bench.SLX] + OVERSIZED.split(), timeout=2.0)
        self.assertTrue(p.failed)
        self.assertTrue(p.timed_out)
        self.assertLess(p.wall, 10.0)

    def test_missing_store_directory_exits_nonzero(self):
        p = bench.run_proc([bench.SLX] + MISSING_STORE.split())
        self.assertTrue(p.failed)
        self.assertEqual(p.rc, 125)
        self.assertIn("Sys_error", p.err)


if __name__ == "__main__":
    unittest.main()
