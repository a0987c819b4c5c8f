#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the libraries under src/ together
with the benchmark into .bench_build/ (later calls rebuild only what
changed); build output goes to stderr.  The benchmark's own output -
metrics as text, then one JSON result line - goes to stdout, and its
exit code is returned.  Without the library sources the build fails
and the script exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no library sources under src/\n")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD, "-j", jobs, "--target",
                "perfbench", "perfbench_selftest"]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 1
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
