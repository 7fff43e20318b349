#!/usr/bin/env python3
"""Benchmark entry point: builds dvf_bench from source and runs one workload.

    python3 bench/pipeline/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) inside the checkout, and so do temporary files.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics BENCHMARK.json names
when --trace is 0, its per-layer metrics when --trace is 1.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("serve_mix", "model_eval", "verify_replay", "campaign")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no dvf sources under {ROOT / 'src'}; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "bench" / "dvf_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)

    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        command += ["--trace", str(build_dir / f"trace.{args.workload}.json")]
    env = dict(os.environ, TMPDIR=str(tmp))
    env.pop("DVF_BENCH_QUICK", None)
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit {run.returncode})")
    result = json.loads(lines[-1])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        measured = result["metrics"].get(entry["name"])
        if measured is None and not args.trace:
            fail(f"{args.workload} did not report {entry['name']}")
        # A layer this workload never calls reports 0.
        metrics[entry["name"]] = measured or {"value": 0, "unit": entry["unit"]}
    correct = bool(result["correct"]) and run.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
