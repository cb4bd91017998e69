#!/usr/bin/env python3
"""The RichNote benchmark: one command, three workloads (see README.md).

    python3 richbench/run.py --workload serve_ingest --seed 1 --seconds 10 --trace 0

Run from the root of a RichNote checkout. It builds `richnote` and the
benchmark driver from the checkout's sources (CMake, in $CARGO_TARGET_DIR or
.bench_build), runs the driver's self-tests, then runs one workload. The last
line of stdout is the result object; build and progress output go to stderr.
It exits non-zero, without a result, when the checkout cannot be built.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_ingest", "serve_wide", "replay_fig3")


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark project; False on any failure."""
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", build_dir, "--parallel", "4",
              "--target", "richnote", "richbench", "richbench_selftest"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def expected_units(trace):
    """Metric name -> unit that BENCHMARK.json promises for this kind of run."""
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 2
    if subprocess.run([os.path.join(build_dir, "richbench_selftest")],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("self-tests failed")
        return 2

    work = os.path.join(build_dir, "run")
    cmd = [os.path.join(build_dir, "richbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--richnote", os.path.join(build_dir, "richnote_tools", "richnote"),
           "--work", work,
           "--expected", os.path.join(HERE, "expected_replay.tsv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"driver printed no result (exit {proc.returncode})")
        return proc.returncode or 2
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_units(args.trace):
        log(f"metrics disagree with BENCHMARK.json: {sorted(set(got.items()) ^ set(expected_units(args.trace).items()))}")
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
