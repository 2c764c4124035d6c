#!/usr/bin/env python3
"""Builds and runs the RSSD benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <qd32_mixed|gc_attack|fleet> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Cargo package in this directory. It is built in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), offline, and
then run with the same arguments. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result. The exit
code is the benchmark's, or non-zero when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark must end within this many seconds once built.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "rssd-perfbench"
    try:
        run = subprocess.run([str(binary), *sys.argv[1:]], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
