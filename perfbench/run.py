#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload explain_mut --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test     # tests of the benchmark's arithmetic

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR or
.bench_build on first use, then runs the benchmark binary inside a scratch
directory under the build directory and removes it afterwards. The last
line of standard output is the run's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explain_mut", "stream_red", "ingest_mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return False
    steps = []
    configured = any(os.path.isfile(os.path.join(build_dir, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--test", action="store_true",
                        help="build and run the arithmetic tests")
    args = parser.parse_args()
    if not args.test and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")

    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    target = "perf_stats_test" if args.test else "gvex_perf"
    if not build(build_dir, target):
        return 2
    binary = os.path.join(build_dir, target)
    if args.test:
        return subprocess.run([binary]).returncode

    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, cwd=scratch, timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
