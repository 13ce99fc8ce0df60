#!/usr/bin/env python3
"""End-to-end lookup benchmark: client -> net::Server -> QueryEngine -> MatchBackend.

Usage, from the repository root:

    python3 e2ebench/run.py --workload lookup_4k|lookup_64k|mixed_4k \
        --seed N --seconds S --trace 0|1

Builds the benchmark and the fetcam libraries from source with CMake into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), runs the
benchmark's self-test, then the benchmark itself. Build output goes to
stderr; the benchmark's last stdout line is its JSON result. Exits non-zero
when the build, the self-test or any answer check fails.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def step(cmd):
    """Run one build/check command with its output on stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "e2ebench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (
        step(["cmake", "-S", str(HERE), "-B", str(build), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        and step(["cmake", "--build", str(build), "-j", jobs,
                  "--target", "fetcam_e2e", "e2e_selftest"])
        and step([str(build / "e2e_selftest")])
    ):
        print("e2ebench: build or self-test failed", file=sys.stderr)
        return 1
    return subprocess.run([str(build / "fetcam_e2e"), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
