#!/usr/bin/env python3
"""Experiment selection tests for tools/refresh_baselines.

Part of offload-mm, a reproduction of "The Impact of Diverse Memory
Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).

An experiment argument names bench_<experiment> exactly or as the start
of bench_<experiment>_..., so `e1` refreshes E1 alone and never E10-E16.
Each test builds a bench directory of fake bench_e* scripts (each writes
a one-line JSON naming itself to its --json path) and drives the tool as
a subprocess, asserting on exit status and on which snapshots appear.

Run directly or via ctest (registered under the `unit` label):
    python3 tests/refresh_baselines_test.py [REFRESH_BASELINES_PATH]
"""

import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFRESH_BASELINES = os.environ.get(
    "OMM_REFRESH_BASELINES",
    os.path.join(REPO_ROOT, "tools", "refresh_baselines"))

FAKE_BENCH = """#!/bin/sh
for arg; do
  case "$arg" in
    --json=*) printf '{{"experiment": "%s"}}\\n' "{experiment}" \
                  > "${{arg#--json=}}" ;;
  esac
done
exit {status}
"""


class RefreshBaselinesTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory(prefix="refresh-baselines-test-")
        self.addCleanup(tmp.cleanup)
        self.bench_dir = os.path.join(tmp.name, "bench")
        self.baseline_dir = os.path.join(tmp.name, "baselines")
        os.makedirs(self.bench_dir)
        for experiment in ("e1_x", "e10_y"):
            self.add_bench(experiment)

    def add_bench(self, experiment, status=0):
        path = os.path.join(self.bench_dir, f"bench_{experiment}")
        with open(path, "w", encoding="utf-8") as f:
            f.write(FAKE_BENCH.format(experiment=experiment, status=status))
        os.chmod(path, 0o755)

    def refresh(self, *experiments):
        return subprocess.run(
            [sys.executable, REFRESH_BASELINES, "--bench-dir", self.bench_dir,
             "--baseline-dir", self.baseline_dir, *experiments],
            capture_output=True, text=True)

    def snapshots(self):
        if not os.path.isdir(self.baseline_dir):
            return []
        return sorted(os.listdir(self.baseline_dir))

    def test_short_name_does_not_match_a_longer_experiment_number(self):
        proc = self.refresh("e1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(self.snapshots(), ["e1_x.json"])

    def test_short_name_selects_its_own_experiment(self):
        proc = self.refresh("e10")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(self.snapshots(), ["e10_y.json"])

    def test_full_name_matches_exactly(self):
        proc = self.refresh("e1_x", "e10_y")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(self.snapshots(), ["e10_y.json", "e1_x.json"])

    def test_no_argument_refreshes_every_bench(self):
        proc = self.refresh()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(self.snapshots(), ["e10_y.json", "e1_x.json"])

    def test_partial_name_matches_nothing(self):
        proc = self.refresh("e1_")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no bench binary matches experiment 'e1_'",
                      proc.stderr)
        self.assertEqual(self.snapshots(), [])

    def test_failed_bench_touches_no_snapshot(self):
        self.add_bench("e2_z", status=1)
        proc = self.refresh("e1", "e2")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("bench_e2_z failed; no snapshot was touched",
                      proc.stderr)
        self.assertEqual(self.snapshots(), [])


if __name__ == "__main__":
    if len(sys.argv) > 1 and not sys.argv[1].startswith("-"):
        REFRESH_BASELINES = os.path.abspath(sys.argv.pop(1))
    unittest.main(verbosity=2)
