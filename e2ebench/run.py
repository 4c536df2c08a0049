#!/usr/bin/env python3
"""Builds and runs the end-to-end statement benchmark (see CATALOG.md).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the library from ./src and the
benchmark binary into .bench_build/e2ebench with CMake (incremental after
the first run), runs one workload in a fresh scratch directory under the
build directory, and relays the binary's output: a configuration line, then
the result JSON as the last line. A traced run also writes its spans to
.bench_build/e2ebench/traces/NAME.json. The exit code is the binary's (0
when every output check passed); a failed build or a run past RUN_TIMEOUT_S
exits 3.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2e_bench")
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(3)


def build():
    src = os.path.join(HERE, os.pardir, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        fail(f"library sources not found ({src}); run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD, "--target", "e2e_bench",
                   "-j", BUILD_JOBS]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    run_dir = os.path.join(
        BUILD, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", run_dir, "--trace-out",
               os.path.join(trace_dir, f"{args.workload}.json")]
    try:
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
