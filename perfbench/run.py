#!/usr/bin/env python3
"""Builds the DiEvent benchmark from the checkout it sits in and runs it.

Usage (from the checkout root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (relative to the checkout root) or
.bench_build. Stores and corpora live in a fresh directory under it and
are removed when the run ends; a traced run leaves its span file in
<build>/traces/<workload>.csv, replacing the previous one. The last line of standard output is the benchmark's JSON
result. Exit codes: 0 ok, 1 an output check failed, 2 build or usage
error.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("meeting_fullvision", "fleet_groundtruth", "corpus_mixed")
RUN_TIMEOUT_S = 175


def build(root, build_dir, target):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        print("perfbench: no DiEvent sources in %s" % root, file=sys.stderr)
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run(cmd, cwd):
    """Runs cmd to completion (killing it at the timeout); returns its code."""
    proc = subprocess.Popen(cmd, cwd=cwd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: timed out", file=sys.stderr)
        return 2


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = "perfbench_selftest" if args.self_test else "dievent_perfbench"
    if not build(root, build_dir, target):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()

    if args.self_test:
        return run([os.path.join(build_dir, target)], cwd=build_dir)

    work_dir = os.path.join(build_dir, "work", "%s-%d" % (args.workload,
                                                         os.getpid()))
    cmd = [os.path.join(build_dir, target), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, args.workload + ".csv")]
    try:
        return run(cmd, cwd=root)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
