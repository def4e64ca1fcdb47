#!/usr/bin/env python3
"""Builds and runs the perqd tick benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (the repository's libraries from src/ plus the benchmark program)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only let the build tool confirm it is current. Scratch files (the accounting
log, the replication WAL and the span dump) go to .bench_run/ and the logs
are deleted by the benchmark itself.

The last line of standard output is the benchmark's JSON result. Build
output and diagnostics go to standard error. Any failure exits non-zero
without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tick_solve", "tick_light", "tick_ha", "replay")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} is missing; run from a full checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perqbench"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "perqbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    try:
        binary = build()
    except OSError as e:
        fail(f"build failed: {e}")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--run-dir", str(ROOT / ".bench_run")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}", 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result", 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if set(result) != RESULT_KEYS or not result["metrics"]:
        fail(f"{args.workload} printed a malformed result", 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
