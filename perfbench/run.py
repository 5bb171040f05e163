#!/usr/bin/env python3
"""End-to-end benchmark of STARK: builds the benchmark binary, runs one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: range_scan, spatial_join, snapshot_serve, event_stream (see
perfbench/README.md). The stark_perfbench binary and the STARK library it
links are built from source with CMake into .bench_build/perfbench the first
time; later runs only re-check the build. Build output goes to stderr. The last line of
stdout is the binary's JSON result; the exit code is the binary's (non-zero
when any checked operation failed or the build failed). With --trace 1 a
Chrome trace is written to .bench_build/traces/.
"""

import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("range_scan", "spatial_join", "snapshot_serve", "event_stream")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures (once) and builds stark_perfbench; holds a lock meanwhile."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        command = ["cmake", "--build", build_dir, "--target", "stark_perfbench",
                   "-j", jobs]
        if subprocess.call(command, stdout=sys.stderr) != 0:
            fail("build failed")
    binary = os.path.join(build_dir, "stark_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no stark_perfbench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--threads", type=int, default=0,
                        help="override the engine parallelism (baselines only)")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(root, build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(root, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.threads:
        command += ["--threads", str(args.threads)]

    sys.stderr.flush()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=root)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 and not lines:
        fail("stark_perfbench exited with code %d" % proc.returncode)
    if lines:
        print(lines[-1])
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
