#!/usr/bin/env python3
"""Build the benchmark against this checkout and run one workload.

    python3 perfbench/run.py --workload search-nb201 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. Cargo output goes to stderr, the
benchmark's report to stdout; the last stdout line is the JSON result.
The build lands in $CARGO_TARGET_DIR (default: .bench_build), and traced
runs write their JSONL trace under <target dir>/perfbench.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a run must end within 180 s; leave room for the report
RUN_TIMEOUT_S = 170


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        print(
            f"perfbench: {ROOT} holds no hw-pr-nas sources to build", file=sys.stderr
        )
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    command = [binary, *sys.argv[1:], "--out-dir", os.path.join(target, "perfbench")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
