#!/usr/bin/env python3
"""Record a baseline: run every workload over several seeds and keep the
medians and quartiles of every figure, with the build's provenance.

    python3 perfbench/baseline.py --out perfbench/baseline/<name>.json

For each workload of BENCHMARK.json, at its run_seconds, it runs
`run.py --trace 0` once per seed (seeds 1..10) and `run.py --trace 1` once
per traced seed (seeds 1..3), reads each run's full report from
.bench_out, and records per figure the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (interquartile distance
over the median) -- the same spread the benchmark's bounds are judged by.
Every run's seed and contract figures are kept too, so each number can be
traced to the seed behind it.
"""

import argparse
import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys

# Ten untraced runs per workload, as the benchmark's spreads are judged on;
# three traced ones, which only report.
SEEDS = 10
TRACED_SEEDS = 3

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def provenance():
    def run(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""
    compiler = ""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", f.read(), re.M)
        if m:
            compiler = run([m.group(1), "--version"]).splitlines()[0]
    model = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.*)$", f.read(), re.M)
        model = m.group(1) if m else ""
    return {
        "git_sha": run(["git", "rev-parse", "HEAD"]) or "unknown",
        "compiler": compiler,
        "nproc": os.cpu_count(),
        "cpu": model,
        "kernel": platform.release(),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
    }


def summarize(values):
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values)}


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, "report_%s_trace%d.json" % (workload, trace))) as f:
        report = json.load(f)
    return last, report


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    seconds = contract["run_seconds"]
    workloads = [w["name"] for w in contract["workloads"]]
    result = {"provenance": provenance(), "run_seconds": seconds,
              "workloads": {}}
    ok = True
    for workload in workloads:
        entry = {}
        for trace, seeds in ((0, SEEDS), (1, TRACED_SEEDS)):
            runs = []
            figures = {}
            for seed in range(1, seeds + 1):
                last, report = run_one(workload, seed, seconds, trace)
                if not last["correct"]:
                    ok = False
                    print("FAILED %s seed %d trace %d: %s" % (
                        workload, seed, trace, report["failures"]), flush=True)
                    continue
                runs.append({"seed": seed, "metrics": {
                    k: v["value"] for k, v in last["metrics"].items()}})
                for name, m in report["metrics"].items():
                    figures.setdefault(name, {"unit": m["unit"], "values": []})
                    figures[name]["values"].append(m["value"])
                print("%s trace%d seed %d: %s" % (
                    workload, trace, seed,
                    " ".join("%s=%.4g" % (k, v["value"])
                             for k, v in last["metrics"].items())), flush=True)
            contract_names = [m["name"] for m in contract[
                "per_layer" if trace else "end_to_end"]]
            entry["traced" if trace else "untraced"] = {
                "runs": runs,
                "figures": {name: dict(unit=f["unit"], **summarize(f["values"]))
                            for name, f in sorted(figures.items())},
                "contract": contract_names,
            }
        result["workloads"][workload] = entry
        untraced = entry["untraced"]["figures"]
        for m in contract["end_to_end"]:
            s = untraced.get(m["name"])
            if s:
                print("  %-22s %-24s median %10.4g spread %.3f (bound %.2f)" % (
                    workload, m["name"], s["median"], s["spread"], m["bound"]),
                    flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
