#!/usr/bin/env python3
"""Smoke test of the pipeline benchmark.

    smoke.py DVF_BENCH BENCHMARK.json

Runs every workload at DVF_BENCH_QUICK size twice, untraced and traced, and
fails unless dvf_bench exits 0 and every workload reports correct with no
failed operation, every untraced line has every end-to-end metric
BENCHMARK.json names, every per-layer metric it names is in some traced
line, and each Chrome trace loads.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("serve_mix", "model_eval", "verify_replay", "campaign")


def run(binary, tmp, *args):
    env = dict(os.environ, DVF_BENCH_QUICK="1", TMPDIR=tmp)
    done = subprocess.run([binary, *args], stdout=subprocess.PIPE, env=env,
                          text=True, timeout=60)
    if done.returncode != 0:
        sys.exit(f"dvf_bench {' '.join(args)} exited {done.returncode}")
    results = {}
    for line in done.stdout.splitlines():
        result = json.loads(line)
        results[result["workload"]] = result
    return results


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text())
    problems = []
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        untraced = run(binary, tmp)
        traced = run(binary, tmp, "--trace", str(Path(tmp) / "trace.json"))
        for results in (untraced, traced):
            if sorted(results) != sorted(WORKLOADS):
                problems.append(f"workloads reported: {sorted(results)}")
            for workload, result in results.items():
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"{workload}: not correct")
                if result["attempted"] < 1:
                    problems.append(f"{workload}: attempted nothing")
        for workload, result in untraced.items():
            for metric in spec["end_to_end"]:
                if metric["name"] not in result["metrics"]:
                    problems.append(f"{workload}: no {metric['name']}")
        for metric in spec["per_layer"]:
            if not any(metric["name"] in r["metrics"]
                       for r in traced.values()):
                problems.append(f"no workload reports {metric['name']}")
        for workload in traced:
            trace = Path(tmp) / f"trace.{workload}.json"
            if "traceEvents" not in json.loads(trace.read_text()):
                problems.append(f"{trace.name} is not a Chrome trace")
    if problems:
        sys.exit("\n".join(problems))
    print(f"ok: {len(untraced)} workloads, "
          f"{len(spec['end_to_end'])} end-to-end and "
          f"{len(spec['per_layer'])} per-layer metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
