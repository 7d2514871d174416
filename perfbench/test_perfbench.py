#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Each test runs perfbench/run.py in short mode (a 2 s measured phase) against
the real dmps_floord built from this checkout; the whole file takes about a
minute after the first build. They check that:

  - BENCHMARK.json is well formed and every metric it names is printed;
  - a short run of every workload prints every named metric with its unit;
  - an injected fault fails the run: the daemon SIGKILLed halfway through
    the measured phase, or a driver count that no longer matches the
    daemon's counters;
  - outside a dmps checkout the command fails without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Figures each workload prints besides the BENCHMARK.json ones (README.md).
WORKLOAD_METRICS = {
    "grant_release": ["rtt_p99_us", "capacity_ops_s", "capacity.highest_pass_ops_s",
                      "capacity.limited_by_driver", "capacity.driver_cpu_share",
                      "capacity.floord_cpu_share", "capacity.late_p99_us",
                      "rtt_samples", "driver.late_p99_us", "failed_share",
                      "transport.rx_batch_mean", "floor.outcome_share.granted"],
    "join_storm": ["rtt_p99_us", "storm_s", "join_rtt_p50_us", "join_rtt_p99_us",
                   "storm_rounds", "failed_share", "transport.rx_batch_mean"],
    "contended": ["rtt_p99_us", "rtt_samples", "driver.late_p99_us", "failed_share",
                  "floor.outcome_share.queued", "floor.outcome_share.promoted",
                  "floor.suspends_per_request", "fproto.replay_hits"],
}


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace=0, seconds=2, inject=None, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    return proc, last, printed


class ContractTest(unittest.TestCase):
    def test_benchmark_json_is_well_formed(self):
        c = contract()
        self.assertEqual(set(c), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(c["paths"], ["perfbench"])
        self.assertTrue(1 <= c["run_seconds"] <= 60)
        self.assertTrue(2 <= len(c["workloads"]) <= 8)
        names = [w["name"] for w in c["workloads"]]
        for m in c["end_to_end"] + c["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
        for m in c["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in c["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in c["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower",
                                  "bound": max(m["bound"] for m in c["end_to_end"])}])


class ShortRunTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc, last, printed = run(workload, trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertTrue(last["correct"])
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        wanted = contract()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(last["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(last["metrics"][m["name"]]["unit"], m["unit"])
            self.assertEqual(printed.get(m["name"]), m["unit"], m["name"])
        if not trace:
            for name in WORKLOAD_METRICS[workload]:
                self.assertIn(name, printed)

    def test_grant_release(self):
        self.check_run("grant_release", 0)
        with open(os.path.join(ROOT, ".bench_out",
                               "report_grant_release_trace0.json")) as f:
            got = {k: v["value"] for k, v in json.load(f)["metrics"].items()}
        # capacity_ops_s only counts a step the driver kept up with, and the
        # flag says whether a faster step passed without it.
        if got["capacity_ops_s"] > 0:
            self.assertGreater(got["capacity.floord_cpu_share"],
                               got["capacity.driver_cpu_share"])
            self.assertLessEqual(got["capacity.late_p99_us"], 1000.0)
        self.assertEqual(got["capacity.limited_by_driver"],
                         1.0 if got["capacity.highest_pass_ops_s"] >
                         got["capacity_ops_s"] else 0.0)
        self.assertGreater(got["daemon_peak_rss_kb"], 0)

    def test_join_storm(self):
        self.check_run("join_storm", 0)

    def test_contended(self):
        self.check_run("contended", 0)

    def test_traced_grant_release(self):
        self.check_run("grant_release", 1)


class FaultTest(unittest.TestCase):
    def assert_failed(self, proc, last):
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(last["correct"])
        self.assertEqual(last["metrics"], {})

    def test_daemon_killed_mid_phase_fails_the_run(self):
        proc, last, printed = run("grant_release", seconds=3, inject="kill")
        self.assert_failed(proc, last)
        self.assertEqual(printed, {})

    def test_reply_count_mismatch_fails_the_run(self):
        proc, last, _ = run("contended", inject="count")
        self.assert_failed(proc, last)
        self.assertIn("wire.server.grants", proc.stderr)

    def test_outside_a_checkout_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_out", "not_a_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc, last, _ = run("grant_release", cwd=bare,
                                script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(last)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
