#!/usr/bin/env python3
"""Build the benchmark from source and run it once.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

Run from the repository root. The arguments go to the benchmark binary
unchanged (see perfbench/README.md). Cargo builds into $CARGO_TARGET_DIR,
or .bench_build when that is unset; the binary writes its spans and caches
under perfbench-out in that directory. The result is the last line of
standard output. The binary runs under a time limit and is killed and
waited for if it overruns.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_LIMIT_S = 850
RUN_LIMIT_S = 175


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    out = os.path.join(target, "perfbench-out")
    # A fixed mmap threshold makes glibc return large freed blocks to the
    # kernel, so the peak resident set tracks live memory. With the
    # default sliding threshold, large arrays stay in whichever per-thread
    # arena ran them, and the peak jumps by ~12 MB per arena a new worker
    # thread happens to get (measured 42, 54 and 67 MB for one workload).
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    try:
        run = subprocess.run([exe, *sys.argv[1:], "--out", out], env=env, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
