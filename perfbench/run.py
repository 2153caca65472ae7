#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness and the library sources under src/
are compiled into the build directory ($CARGO_TARGET_DIR, default
.bench_build) on first use; later runs only re-check the build. Build output
goes to stderr. The harness's stdout is passed through unchanged: its last
line is the result object {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, printing no result, if the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig12_scale", "online_faults", "serve_mixed")
# Hard stop for one harness run; a 30 s run ends within ~65 s.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def build(out_dir):
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench_harness",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "perfbench_harness")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        harness = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [harness, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        cmd.append(f"--trace-out={os.path.join(out_dir, 'trace-' + args.workload + '.json')}")
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if result.returncode != 0:
        print(f"perfbench: harness exited with {result.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
