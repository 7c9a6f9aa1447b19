#!/usr/bin/env python3
"""Builds the usp library and the uspbench binary from source, runs one
workload, and passes its output through.

    python3 uspbench/run.py --workload paper-usp --seed 1 --seconds 8 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
otherwise to .bench_build; traced runs write their spans there as well. The
last line of standard output is the result object. The exit code is 0 only
when the build succeeded and every correctness check passed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-usp", "ivf-serve", "mixed-rw")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (Release) and builds; returns the binary path or None."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            return None
    binary = os.path.join(build_dir, "uspbench")
    return binary if os.path.isfile(binary) else None


def commit():
    """The checked-out commit, or 'unknown' outside a git work tree."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        sys.stderr.write("uspbench: build failed\n")
        return 1

    env = dict(os.environ, USPBENCH_COMMIT=commit())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--trace-dir", build_dir]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("uspbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
