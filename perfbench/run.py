#!/usr/bin/env python3
"""Builds the lockbind benchmark from source and runs one workload.

Usage, from the root of a lockbind checkout:

    python3 perfbench/run.py --workload grid|attack|serve --seed N \
        --seconds S --trace 0|1

The benchmark is the `lockbind-perfbench` package in this directory; it is
built with cargo (offline, release) into $CARGO_TARGET_DIR, by default
`.bench_build`. Its report goes to standard output, and its last line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

Exit codes: 0 when every correctness check passed, 1 when one failed or
the run produced no result, 2 when the checkout or the build is unusable,
3 when the run overran its time limit.
"""

import argparse
import json
import os
import subprocess
import sys
import time

# A run must end within 180 s; the first run in a checkout also builds.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 870
REQUIRED = (
    "perfbench/Cargo.toml",
    "crates",
    "results/HEADLINE_smoke.txt",
    "results/SERVE_baseline.txt",
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(f"run.py: not the root of a lockbind checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", "perfbench/Cargo.toml",
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build overran its time limit", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "lockbind-perfbench")
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    started = time.monotonic()
    try:
        # On a timeout, subprocess.run kills the child and waits for it.
        run = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: run overran {RUN_LIMIT_S} s", file=sys.stderr)
        return 3
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        print(f"run.py: run exited {run.returncode} without a result", file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    print(f"run.py: {args.workload} ran {time.monotonic() - started:.1f} s", file=sys.stderr)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
