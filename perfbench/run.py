#!/usr/bin/env python3
"""Build perfbench from the checkout's own sources, then run one workload.

Usage, from the checkout root:

    python3 perfbench/run.py --workload <campaign|scan|monitor|serve> \
        --seed N --seconds S --trace <0|1>

The first call configures and builds into .bench_build/perfbench (build
output goes to stderr); later calls only re-check the build. The benchmark
binary then replaces this process and prints the result as the last line of
standard output. Without the program's sources next to this directory the
build fails and the script exits non-zero without a result.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = max(1, min(4, os.cpu_count() or 1))


def run(cmd):
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    # Serialize concurrent first runs on one checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "build.ninja")) and not \
                os.path.exists(os.path.join(BUILD, "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run(["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
        run(["cmake", "--build", BUILD, "--parallel", str(JOBS)])
    return os.path.join(BUILD, "perfbench")


def main():
    binary = build()
    os.chdir(ROOT)
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
