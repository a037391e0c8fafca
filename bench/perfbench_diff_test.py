#!/usr/bin/env python3
"""Runs bench/perfbench_diff.py on its fixtures (bench/testdata/
perfbench_diff): a change that improves disk_point and holds
mem_dashboard must pass, one whose mem_dashboard groupby median worsens
by 39% (bound 25%) must exit 1 and name that metric.

    python3 bench/perfbench_diff_test.py
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "testdata", "perfbench_diff")


def diff(change):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "perfbench_diff.py"),
         os.path.join(FIXTURES, "parent"), os.path.join(FIXTURES, change),
         "--benchmark", os.path.join(FIXTURES, "benchmark.json")],
        capture_output=True, text=True, timeout=60)


class PerfbenchDiffTest(unittest.TestCase):
    def test_improvement_passes(self):
        done = diff("change_pass")
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("disk_point: 3 parent runs, 3 change runs, 3 pairs", done.stdout)
        # groupby_p50_us: median 1120 -> 570, every pair won.
        line = next(l for l in done.stdout.splitlines()
                    if l.strip().startswith("groupby_p50_us"))
        self.assertIn("1120 [1100, 1150]", line)
        self.assertIn("570 [560, 575]", line)
        self.assertIn("3/3", line)

    def test_regression_fails(self):
        done = diff("change_regress")
        self.assertEqual(done.returncode, 1, done.stdout + done.stderr)
        self.assertIn("mem_dashboard groupby_p50_us: median 505 -> 700", done.stdout)
        self.assertNotIn("disk_point groupby_p50_us", done.stdout.split("regressions:")[1])


if __name__ == "__main__":
    unittest.main()
