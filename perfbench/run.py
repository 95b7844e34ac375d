#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

    python3 perfbench/run.py --workload ingest|serve|offline \
        --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
builds the hbbp library from ../src) into $CARGO_TARGET_DIR, default
.bench_build, runs the benchmark's self-test, then the benchmark. The
last line of standard output is the benchmark's JSON result; build
output goes to standard error. Exits non-zero, printing no result,
when the sources are missing or the build or self-test fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_quietly(cmd):
    """Run cmd with its output on stderr; True when it succeeded."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode == 0


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no hbbp sources beside perfbench/, "
              "nothing to build", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                           or ".bench_build")
    build_dir = os.path.join(out_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quietly(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"]):
            print("perfbench: configure failed", file=sys.stderr)
            return 1
    if not run_quietly(["cmake", "--build", build_dir, "-j", jobs]):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if not run_quietly([os.path.join(build_dir, "selftest")]):
        print("perfbench: self-test failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "pipeline"), *argv,
           "--work-dir", os.path.join(out_dir, "work")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
