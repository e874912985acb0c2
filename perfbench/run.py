#!/usr/bin/env python3
"""Builds the engine from source and runs one end-to-end benchmark workload.

    python3 perfbench/run.py --workload adapt_migrate --seed 1 --seconds 15 --trace 0

Run it from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and the run's cluster files to a directory inside it
that is removed afterwards; spans of a traced run go to .bench_out/. The
benchmark's own report is passed through, followed by one line describing
the host (core count, CPU steal share during the run, git revision, build
type) and, last, the JSON result line. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("adapt_migrate", "worklist_monitor")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the benchmark; returns the binary's path or None."""
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", build_dir, "--target", "e2e_bench", "-j4"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return None
    return os.path.join(build_dir, "e2e_bench")


def cpu_ticks():
    """(steal, total) jiffies of the host from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already counted in user time.
    return steal, sum(fields[:8])


def git_revision():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1

    data_dir = os.path.join(build_dir, "data-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", data_dir]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            out_dir, "spans-%s-%d.json" % (args.workload, args.seed))]

    before = cpu_ticks()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark did not finish within %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    after = cpu_ticks()

    lines = done.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        print("benchmark printed no result (exit %d)" % done.returncode, file=sys.stderr)
        return done.returncode or 1
    steal = "unknown"
    if before and after and after[1] > before[1]:
        steal = "%.4f" % ((after[0] - before[0]) / (after[1] - before[1]))
    for line in lines[:-1]:
        print(line)
    print("host: cores=%d cpu_steal_share=%s git=%s build=%s" % (
        os.cpu_count() or 0, steal, git_revision(), BUILD_TYPE))
    print(lines[-1])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
