#!/usr/bin/env python3
"""Builds and runs perfbench, the simulator's host-time benchmark.

    python3 perfbench/run.py --workload fig8_rate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The first call configures and
builds the simulator libraries and the perfbench binary into .bench_build/
(about a minute on 4 cores); later calls only check that the build is
current.  The arguments go to the binary unchanged; it checks them and
clears the simulator's environment knobs itself.  Its stdout is passed
through: the last line is the JSON result.  Build output goes to stderr.
See perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        sys.exit(f"perfbench: build step failed: {e}")


def build(root):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit(f"perfbench: no simulator sources under {root}/src")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    sys.stdout.flush()
    try:
        proc = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"perfbench: binary exited with {proc.returncode}")


if __name__ == "__main__":
    main()
