#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), and so do the
projection store of the determinism check and, with --trace 1, the span
file. Build output goes to stderr; perfbench_driver's result is the last
line of stdout. Exits non-zero, without a result, if the build or the run
fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep", "speculative", "nonspeculative", "am-crash"]
RUN_TIMEOUT_S = 170


def mtime(path):
    return os.stat(path).st_mtime_ns if os.path.exists(path) else None


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    state_dir = os.path.join(build_dir, "state")
    binary = os.path.join(build_dir, "perfbench_driver")
    before = mtime(binary)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(state_dir, exist_ok=True)
    # Recorded projections hold for one build of the simulator only.
    projections = os.path.join(state_dir, "projections.txt")
    if mtime(binary) != before and os.path.exists(projections):
        os.remove(projections)
    cmd = [binary,
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--state-dir={state_dir}"]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
