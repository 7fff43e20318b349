#!/usr/bin/env python3
"""Compares two sets of dvf_bench runs, or summarizes one set as a baseline.

    compare.py A.jsonl B.jsonl
    compare.py --summarize RUNS.jsonl --commit SHA > baseline.json

A and B are files of dvf_bench result lines (dvf_bench --out FILE appends
one per run), or a baseline.json written by --summarize. A is the parent,
B the change. Untraced lines carry the end-to-end metrics, traced lines the
per-layer ones; the i-th value of a metric on A pairs with the i-th on B.

For each workload and metric the report gives each side's median and
quartiles, the share of pairs B won, and a verdict for end-to-end metrics,
by the rules of the choosing-metrics guide (sections 6-8):

    unresolved  a side's spread (quartile distance over median) exceeds the
                metric's bound, and not every run of B beats every run of A
    improved    B wins at least 90% of the pairs and the medians differ by
                more than A's quartile distance
    regressed   B's median is worse than A's by more than the bound
    unchanged   otherwise

Per-layer metrics have no bound and get no verdict. Runs of one workload and
seed should repeat its digest; the report says whether they do.
"""
import argparse
import collections
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path):
    """Result lines of a JSONL file, or the records of a baseline.json."""
    text = Path(path).read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, dict) and "records" in document:
        return document["records"]
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def by_workload(runs):
    grouped = collections.OrderedDict()
    for run in runs:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound):
    higher = better == "higher"
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    beats = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
    pairs = list(zip(a, b))
    won = sum(1 for x, y in pairs if beats(y, x))
    share = won / len(pairs) if pairs else 0.0
    if bound is None:
        return share, "-"
    spread = max((q3a - q1a) / abs(ma) if ma else 0.0,
                 (q3b - q1b) / abs(mb) if mb else 0.0)
    every = all(beats(y, x) for x in a for y in b)
    if spread > bound and not every:
        return share, "unresolved"
    if share >= 0.9 and abs(mb - ma) > (q3a - q1a):
        return share, "improved"
    worse = (ma - mb) if higher else (mb - ma)
    if worse > bound * abs(ma):
        return share, "regressed"
    return share, "unchanged"


def compare(path_a, path_b):
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    side_a = by_workload(load_runs(path_a))
    side_b = by_workload(load_runs(path_b))
    regressed = False
    header = (f"{'metric':30} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'delta':>8} {'B won':>6}  verdict")
    for workload, runs_a in side_a.items():
        runs_b = side_b.get(workload)
        if not runs_b:
            print(f"{workload}: no runs in {path_b}")
            continue
        print(f"\n{workload}  (A: {len(runs_a)} lines, B: {len(runs_b)} lines)")
        print(header)
        for name in list(bounds) + list(layers):
            a = [r["metrics"][name]["value"] for r in runs_a
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in runs_b
                 if name in r["metrics"]]
            if not a or not b:
                continue
            meta = bounds.get(name) or layers[name]
            share, word = verdict(a, b, meta["better"],
                                  meta.get("bound"))
            regressed |= word == "regressed"
            q1a, ma, q3a = quartiles(a)
            q1b, mb, q3b = quartiles(b)
            delta = (mb - ma) / abs(ma) * 100 if ma else 0.0
            print(f"{name:30} {ma:12.5g} [{q1a:9.5g}, {q3a:9.5g}] "
                  f"{mb:12.5g} [{q1b:9.5g}, {q3b:9.5g}] {delta:+7.2f}% "
                  f"{share:6.0%}  {word}")
        digests = {r["digest"] for r in runs_a + runs_b if r.get("digest")}
        seeds = {r["seed"] for r in runs_a + runs_b}
        if digests and len(seeds) == 1:
            print("digest: " + ("identical" if len(digests) == 1
                                else "DIFFERS " + " ".join(sorted(digests))))
    return 1 if regressed else 0


def summarize(path, commit):
    runs = load_runs(path)
    summary = {}
    for workload, group in by_workload(runs).items():
        metrics = {}
        for run in group:
            for name, metric in run["metrics"].items():
                metrics.setdefault(name, {"unit": metric["unit"], "values": []})
                metrics[name]["values"].append(metric["value"])
        for name, metric in metrics.items():
            q1, med, q3 = quartiles(metric.pop("values"))
            metric.update({"median": med, "q1": q1, "q3": q3})
        summary[workload] = {
            "runs": len(group),
            "seeds": sorted({r["seed"] for r in group}),
            "digests": sorted({r["digest"] for r in group if r["digest"]}),
            "metrics": metrics,
        }
    first = runs[0]
    print(json.dumps({
        "commit": commit,
        "hardware_threads": first["hardware_threads"],
        "compiler": first["compiler"],
        "seconds": first["seconds"],
        "traced": sorted({r["traced"] for r in runs}),
        "summary": summary,
        "records": runs,
    }, indent=1))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+")
    parser.add_argument("--summarize", action="store_true")
    parser.add_argument("--commit", default="unknown")
    args = parser.parse_args()
    if args.summarize:
        if len(args.files) != 1:
            parser.error("--summarize takes one file")
        return summarize(args.files[0], args.commit)
    if len(args.files) != 2:
        parser.error("give two files to compare")
    return compare(*args.files)


if __name__ == "__main__":
    sys.exit(main())
