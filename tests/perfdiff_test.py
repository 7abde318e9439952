#!/usr/bin/env python3
"""Tests for tools/perfdiff.py, the golden checker of bench `--json` runs.

    python3 -m unittest tests/perfdiff_test.py            # every case
    python3 -m unittest perfdiff_test.PerfdiffTest.test_identical_run_passes

Each case writes a small snapshot and a fresh run to a temporary directory
and runs the checker as a script, so the exit status and the DIFF lines are
what a CI step sees.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

PERFDIFF = Path(__file__).resolve().parent.parent / "tools" / "perfdiff.py"

SNAPSHOT = {
    "schema": "mcio-bench-v2",
    "bench": "fig8_ior1080",
    "wall_s": 12.5,
    "run_peak_rss_bytes": 127094784,
    "audit": {"runs": 14, "slices": 13269328, "messages": 4408506,
              "collectives": 28, "findings": 0},
    "points": [
        {"label": "128 MiB", "wall_s": 2.7, "peak_rss_bytes": 98162920,
         "mem_bytes": 134217728, "normal_write_mbs": 1319.6831773164656,
         "mccio_write_mbs": 1408.1060107709243, "mccio_aggregators": 74,
         "mccio_write_msgs_inter_node": 111497},
        {"label": "16 MiB", "wall_s": 1.9, "peak_rss_bytes": 97000000,
         "mem_bytes": 16777216, "normal_write_mbs": 402.25,
         "mccio_write_mbs": 655.5, "mccio_aggregators": 90,
         "mccio_write_msgs_inter_node": 130112},
    ],
}


class PerfdiffTest(unittest.TestCase):
    def setUp(self) -> None:
        self._dir = tempfile.TemporaryDirectory()
        self.dir = Path(self._dir.name)
        self.fresh = copy.deepcopy(SNAPSHOT)

    def tearDown(self) -> None:
        self._dir.cleanup()

    def run_perfdiff(self, fresh=None, snapshot=None):
        fresh_path = self.dir / "fresh.json"
        snap_path = self.dir / "snapshot.json"
        fresh_path.write_text(json.dumps(self.fresh if fresh is None
                                         else fresh))
        snap_path.write_text(json.dumps(SNAPSHOT if snapshot is None
                                        else snapshot))
        return self.run_args(str(fresh_path), str(snap_path))

    def run_args(self, *args):
        proc = subprocess.run([sys.executable, str(PERFDIFF), *args],
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def diff_lines(self, output: str) -> list[str]:
        return [l for l in output.splitlines() if l.startswith("DIFF ")]

    def test_identical_run_passes(self) -> None:
        rc, out = self.run_perfdiff()
        self.assertEqual(rc, 0, out)
        self.assertEqual(self.diff_lines(out), [])
        self.assertIn("0 differing simulated field(s) over 2 snapshot", out)

    def test_simulated_point_field_differs(self) -> None:
        self.fresh["points"][1]["mccio_write_mbs"] = 655.5000000000001
        rc, out = self.run_perfdiff()
        self.assertEqual(rc, 1, out)
        self.assertEqual(self.diff_lines(out), [
            "DIFF point '16 MiB': mccio_write_mbs 655.5000000000001 != 655.5"])

    def test_host_fields_are_not_compared(self) -> None:
        self.fresh["wall_s"] = 99.0
        self.fresh["run_peak_rss_bytes"] = 1
        for p in self.fresh["points"]:
            p["wall_s"] *= 3
            p["peak_rss_bytes"] += 4096
            p["task_s"] = 1.0
            p["host_cpus"] = 4
        rc, out = self.run_perfdiff()
        self.assertEqual(rc, 0, out)
        self.assertIn("host wall_s: 99 / 12.5 = 7.92x", out)
        self.assertIn("host_cpus (fresh): 4", out)

    def test_audit_counter_differs(self) -> None:
        self.fresh["audit"]["messages"] += 1
        self.fresh["audit"]["findings"] = 2
        rc, out = self.run_perfdiff()
        self.assertEqual(rc, 1, out)
        self.assertEqual(self.diff_lines(out), [
            "DIFF audit: findings 2 != 0",
            "DIFF audit: messages 4408507 != 4408506"])

    def test_thread_sweep_audit_compares_as_multiple(self) -> None:
        # --threads-sweep=1,2,4 replays the sweep three times: every audit
        # counter is three times the snapshot's, and the host-only rows
        # carry nothing to compare.
        self.fresh["audit"] = {k: 3 * v
                               for k, v in SNAPSHOT["audit"].items()}
        self.fresh["points"] += [
            {"label": f"threads={t}", "wall_s": 8.3 / t, "threads": t,
             "speedup_vs_1": float(t), "task_s": 8.3, "host_cpus": 4}
            for t in (1, 2, 4)]
        rc, out = self.run_perfdiff()
        self.assertEqual(rc, 0, out)
        self.assertIn("audit: 42 runs = 3 x 14 (thread sweep)", out)
        self.fresh["audit"]["slices"] += 1
        rc, out = self.run_perfdiff()
        self.assertEqual(rc, 1, out)
        self.assertEqual(self.diff_lines(out), [
            "DIFF audit: slices 39807985 != 39807984"])

    def test_missing_and_extra_points_reported(self) -> None:
        del self.fresh["points"][0]
        self.fresh["points"].append(dict(SNAPSHOT["points"][0],
                                         label="4 MiB"))
        rc, out = self.run_perfdiff()
        self.assertEqual(rc, 1, out)
        self.assertEqual(self.diff_lines(out), [
            "DIFF point '128 MiB' missing from the fresh run",
            "DIFF point '4 MiB' not in the snapshot"])

    def test_field_missing_or_added_in_a_point(self) -> None:
        del self.fresh["points"][0]["mccio_aggregators"]
        self.fresh["points"][0]["mccio_groups"] = 16
        rc, out = self.run_perfdiff()
        self.assertEqual(rc, 1, out)
        self.assertEqual(self.diff_lines(out), [
            "DIFF point '128 MiB': mccio_aggregators missing from the "
            "fresh run",
            "DIFF point '128 MiB': mccio_groups not in the snapshot"])

    def test_schema_mismatch_reported(self) -> None:
        self.fresh["schema"] = "mcio-bench-v1"
        rc, out = self.run_perfdiff()
        self.assertEqual(rc, 1, out)
        self.assertEqual(self.diff_lines(out), [
            "DIFF schema 'mcio-bench-v1' != 'mcio-bench-v2'"])

    def test_bad_input_exits_2(self) -> None:
        rc, _ = self.run_args(str(self.dir / "absent.json"),
                              str(self.dir / "absent.json"))
        self.assertEqual(rc, 2)
        bad = self.dir / "bad.json"
        bad.write_text("{ not json")
        rc, _ = self.run_args(str(bad), str(bad))
        self.assertEqual(rc, 2)
        rc, out = self.run_args(str(bad))
        self.assertEqual(rc, 2)
        self.assertIn("perfdiff.py FRESH.json SNAPSHOT.json", out)


if __name__ == "__main__":
    unittest.main()
