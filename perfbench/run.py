#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first run configures and builds the
perfbench project (perfbench/CMakeLists.txt: the Flick libraries from src/,
stubs generated from idl/) into .bench_build, or into $CARGO_TARGET_DIR when
that is set; later runs only bring the build up to date.  The benchmark's
own output follows: notes, then one JSON result line.  `--workload all`
runs every workload in turn.  Traced runs (--trace 1) write their spans
under <build>/traces.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["compile", "marshal", "rpc_bulk", "rpc_open"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("src/CMakeLists.txt", "idl/bench.x", "idl/bench.idl"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("%s not found: run from a full checkout of the repository"
                 % needed)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    build(root, build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        rc = subprocess.run([os.path.join(build_dir, "perfbench"),
                             "--workload", workload,
                             "--seed", str(args.seed),
                             "--seconds", repr(args.seconds),
                             "--trace", args.trace,
                             "--trace-dir", trace_dir]).returncode
        status = status or rc
    sys.exit(status)


if __name__ == "__main__":
    main()
