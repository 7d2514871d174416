#!/usr/bin/env python3
"""The floor-service benchmark: one command per workload.

    python3 perfbench/run.py --workload grant_release --seed 1 --seconds 30 --trace 0

Run from the root of a dmps checkout. It builds the dmps library, the real
dmps_floord and the benchmark driver from source into .bench_build/perfbench
(incrementally after the first run), then runs the driver, which spawns
dmps_floord and loads it (--trace 0), or hosts the traced in-process
composition (--trace 1). The driver checks every reply; a failed check fails
the run.

Standard output: the driver's phase table and one `metric <name> <value>
<unit>` line per figure, then, as the last line, one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end set, with --trace 1 its per_layer set. The full
report, every figure included, is also written to
.bench_out/report_<workload>_trace<0|1>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("grant_release", "join_storm", "contended")

# The figures the last line carries, name -> unit: BENCHMARK.json's
# end_to_end (--trace 0) and per_layer (--trace 1) lists. Every workload
# reports all of them; README.md says what each means on each workload.
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. False when it cannot."""
    needed = [
        os.path.join(ROOT, "tools", "dmps_floord.cpp"),
        os.path.join(ROOT, "tools", "wire_common.hpp"),
        os.path.join(ROOT, "include", "dmps"),
        os.path.join(ROOT, "src"),
        CONTRACT,
    ]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        log("not a dmps checkout, missing:", ", ".join(missing))
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    try:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                + generator,
                check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", BUILD, "-j", "3"], check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError) as err:
        log("build failed:", err)
        return False
    return True


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("kill", "count"),
                        help="fault injection for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not build():
        return 2
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--floord", os.path.join(BUILD, "dmps_floord"), "--out", OUT]
    if args.trace:
        cmd.append("--trace")
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out after", RUN_TIMEOUT_S, "s")
        print(result_line(False, 1, 1, {}))
        return 1

    report = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_REPORT "):
            report = json.loads(line[len("PERFBENCH_REPORT "):])
        else:
            print(line)
    if report is None:
        log("driver exited", proc.returncode, "without a report")
        print(result_line(False, 1, 1, {}))
        return 1
    path = os.path.join(
        OUT, "report_%s_trace%d.json" % (args.workload, args.trace))
    with open(path, "w") as out:
        json.dump(report, out, indent=1)

    attempted = max(1, int(report["attempted"]))
    failed = int(report["failed"])
    correct = bool(report["correct"]) and proc.returncode == 0
    for failure in report["failures"]:
        log("check failed:", failure)
    with open(CONTRACT) as f:
        contract = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in contract["per_layer" if args.trace else "end_to_end"]}
    metrics = {}
    if correct:
        for name, unit in wanted.items():
            got = report["metrics"].get(name)
            if got is None or got["unit"] != unit:
                log("missing metric", name)
                correct = False
                continue
            metrics[name] = {"value": got["value"], "unit": unit}
    if not correct:
        print(result_line(False, attempted, max(failed, 1), {}))
        return 1
    print(result_line(True, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
