#!/usr/bin/env python3
"""Short runs of every workload must emit every metric BENCHMARK.json names.

Runs perfbench/run.py for one second per workload, untraced and traced, and
checks the summary line (exact keys, every declared metric with its unit)
and the report line (every end-to-end metric the workload defines, each
with a sample count, and the host metadata).

    python3 perfbench/tests/test_short_run.py
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Reported on every workload besides the declared ones; the read-side
# metrics on the workloads with readers, and the open-loop writer's response
# time on read_hetero only.
REPORTED = {"write_cs_p50_us", "write_cs_p99_us", "write_cs_per_s", "failed_op_frac", "recover_ms",
            "peak_rss_mb"}
READ_SIDE = {"read_cs_p50_us", "read_cs_p99_us", "read_cs_per_s",
             "update_lag_p50_us", "update_lag_p99_us"}
OPEN_LOOP = {"write_response_p50_us", "write_response_p99_us"}
HOST_KEYS = {"nproc", "kernel", "compiler", "build_type", "git_sha",
             "journal_fs", "journal_flush"}


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class ShortRun(unittest.TestCase):
    def check(self, workload):
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        layered = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for trace, names in ((0, declared), (1, layered)):
            report, summary = run(workload, trace)
            self.assertEqual(set(summary), {"correct", "attempted", "failed", "metrics"})
            self.assertGreaterEqual(summary["attempted"], 1)
            self.assertEqual(set(summary["metrics"]), set(names))
            for name, unit in names.items():
                self.assertEqual(summary["metrics"][name]["unit"], unit, name)
            self.assertTrue(HOST_KEYS <= set(report["host"]))
            self.assertEqual(report["workload"], workload)
            self.assertTrue(report["why"])
            e2e = set(declared) | REPORTED
            if workload in ("read_hetero", "read_turns"):
                e2e |= READ_SIDE
            if workload == "read_hetero":
                e2e |= OPEN_LOOP
            self.assertTrue(e2e <= set(report["end_to_end"]), e2e - set(report["end_to_end"]))
            for m in report["end_to_end"].values():
                self.assertIn("samples", m)
            if trace:
                self.assertIn("bench.trace_overhead_frac", report["per_layer"])

    def test_commit_rf1(self):
        self.check("commit_rf1")

    def test_read_hetero(self):
        self.check("read_hetero")

    def test_read_turns(self):
        self.check("read_turns")

    def test_small_sharded(self):
        self.check("small_sharded")


if __name__ == "__main__":
    unittest.main()
