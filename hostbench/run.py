#!/usr/bin/env python3
"""Builds and runs the host benchmark.

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and compiles
hostbench/ (with the libraries from src/) into .bench_build/hostbench; later
calls only rebuild what changed. Every argument is passed on to the
benchmark binary, whose last stdout line is the result JSON. Exits non-zero,
without a result line, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures on first use, then builds; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ next to hostbench/: run from a full checkout")
        return False
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--parallel", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def main():
    if not build():
        return 2
    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    command = [os.path.join(BUILD, "hostbench")] + sys.argv[1:] + [
        "--work-dir", work]
    try:
        return subprocess.run(command, cwd=ROOT).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
