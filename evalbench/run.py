#!/usr/bin/env python3
"""Build the evaluation benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 evalbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library (src/) and the benchmark (evalbench/) are configured and
built in Release mode under $CARGO_TARGET_DIR/evalbench (default
.bench_build/evalbench), the reference code's hand-worked tests run,
and then the benchmark binary runs the workload. Build output goes to
stderr; the benchmark's last stdout line is its JSON result. The exit
code is non-zero when the build, the tests or any output check fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "evalbench")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "evalbench")


def run_quiet(cmd, env=None):
    """Run a build step, sending its output to stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: library sources (src/) not found next to evalbench/",
              file=sys.stderr)
        return False
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run_quiet(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen) != 0:
            return False
    return run_quiet(["cmake", "--build", out, "-j", "4"]) == 0


def main(argv):
    out = build_dir()
    if not build(out):
        print("error: benchmark build failed", file=sys.stderr)
        return 2
    if run_quiet([os.path.join(out, "reference_test")]) != 0:
        print("error: reference code failed its tests", file=sys.stderr)
        return 2
    cmd = [os.path.join(out, "evalbench"), "--work-dir",
           os.path.join(out, "work")] + argv
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
