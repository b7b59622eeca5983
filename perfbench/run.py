#!/usr/bin/env python3
"""Build and run the benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload svc-steady --seed 1 --seconds 30 --trace 0

Builds perfbench/ (a CMake package that compiles the repository's
libraries from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the perfbench binary with the given
arguments. The binary prints the result JSON as the last stdout line;
build output goes to stderr. Without the repository sources next to
perfbench/ this exits with code 2 and prints no result.
"""
import os
import shutil
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: run from the repository root (src/ not found)",
              file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        cmd = ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return 2
    jobs = str(min(4, os.cpu_count() or 1))
    built = subprocess.run(
        ["cmake", "--build", build, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)
    if built.returncode != 0:
        return 2
    binary = os.path.join(build, "perfbench")
    args = sys.argv[1:] + ["--out-dir", os.path.join(build_root, "out")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
