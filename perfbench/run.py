#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tpcw-ordering-uf --seed 1 --seconds 30 --trace 0

It builds the `perfbench` crate (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the same arguments. The binary's
standard output passes through unchanged: its last line is the JSON result.
Exits non-zero, without a result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    run = subprocess.run([os.path.join(target, "release", "perfbench")] + sys.argv[1:])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
