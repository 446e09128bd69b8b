#!/usr/bin/env python3
"""Builds the benchmark package and runs it.

    python3 perfbench/run.py --workload campaign|serve_cold|serve_warm \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The package is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build). Every argument is passed to
the benchmark binary; its last stdout line is the JSON result. The exit
code is non-zero, and no result is printed, when the build or the run
fails. See perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must end within 180 s; stop a stuck one before that.
RUN_TIMEOUT_S = 175


def main() -> int:
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "respin-perfbench")
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
