#!/usr/bin/env python3
"""Builds and runs the CAQP end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (which compiles the caqp
library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. Its last stdout line is the
result JSON; build output goes to stderr. With --trace 1 the spans of the
traced half are written to <build>/traces/<workload>.jsonl (the latest traced
run of each workload is kept).
The second form builds and runs the benchmark's helper tests.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(target):
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["serve-hot", "serve-churn", "dist-scan"])
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()

    if a.self_test:
        out = build("perfbench_helpers_test")
        sys.exit(subprocess.run([str(out / "perfbench_helpers_test")]).returncode)
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")

    out = build("caqp_perfbench")
    cmd = [str(out / "caqp_perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--commit", commit()]
    if a.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{a.workload}.jsonl")]
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
