#!/usr/bin/env python3
"""Build and run the emutile end-to-end benchmark.

    python3 e2e_bench/run.py --workload direct_mix --seed 1 --seconds 20 --trace 0

Builds the library from the enclosing checkout together with the benchmark
program (CMake, Release, in e2e_bench/.build), runs one workload in a fresh
scratch directory under e2e_bench/.work, and prints the program's result as
the last line of stdout: one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 1 the metrics are the per-layer ones
and the spans land in e2e_bench/out/trace-<workload>-<seed>.json (Chrome
trace-event format; open it in Perfetto). Diagnostics go to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("direct_mix", "service_mixed", "fleet_small")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no emutile sources next to the benchmark "
             "(expected ../CMakeLists.txt and ../src)")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    exe = os.path.join(BUILD, "e2e_bench")
    if not os.path.isfile(exe):
        fail("build produced no e2e_bench executable")
    return exe


def self_times(trace_path):
    """Self time (ms) and count per span name, from the written trace."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e["ph"] == "X"]
    children = {}
    for e in events:
        parent = e["args"]["parent"]
        children[parent] = children.get(parent, 0.0) + e["dur"]
    totals = {}
    for e in events:
        own = e["dur"] - children.get(e["args"]["id"], 0.0)
        total, n = totals.get(e["name"], (0.0, 0))
        totals[e["name"]] = (total + own / 1e3, n + 1)
    return totals


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    exe = build()
    work = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", OUT]
    proc = subprocess.Popen(command, cwd=work, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail("e2e_bench exited with code %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("e2e_bench printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + lines[-1])
    for line in lines[:-1]:
        print(line, file=sys.stderr)

    if args.trace:
        trace = os.path.join(OUT, "trace-%s-%d.json" % (args.workload,
                                                        args.seed))
        print("self time from %s (ms, spans):" % trace, file=sys.stderr)
        for name, (total, n) in sorted(self_times(trace).items()):
            print("  %-28s %12.1f %7d" % (name, total, n), file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
