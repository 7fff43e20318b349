#!/usr/bin/env python3
"""Schema check for BENCH_*.json files (wired into the CI bench-smoke job).

    check_bench_json.py BENCH_cachesim.json [BENCH_other.json ...]

Validates that each file is the shape bench/bench_json.hpp writes and that
downstream trajectory tooling can rely on:

  - a JSON object with a string ``benchmark`` name and a non-empty
    ``records`` array of flat objects (string/number values only);
  - every timed record carries positive ``wall_s`` and ``accesses_per_s``;
  - records sharing a scenario name do not appear twice (a duplicate means
    the harness double-reported);
  - for the cachesim harness specifically: every record carries
    ``hardware_threads``; the sharded scenarios carry ``threads`` >= 2,
    and the trace-size records carry consistent
    ``records``/``v2_bytes``/``bytes_per_record``; the ``_obs`` replay
    carries ``enabled_overhead_pct``; every estimator family (streaming,
    random_uniform, random_irm, template, reuse) has at least one
    ``model_*`` record with a positive ``ns_per_call``, its cache name and
    ``capacity_bytes``; ``kernel_vm_bare_vs_sim``'s ``ratio`` equals
    ``simulated_ms / bare_ms``; and ``obs_primitives`` carries all five
    per-primitive costs;
  - for the serve harness: cold_compile/cache_hit/shed_2x scenarios are all
    present, latency records carry positive ``requests``/``mean_us``, the
    cache-hit record proves the cache actually served hits, and the shed
    record's counts are internally consistent (every offered frame
    answered, shed_rate == shed / offered).
"""

import json
import sys


MODEL_FAMILIES = {"streaming", "random_uniform", "random_irm", "template",
                  "reuse"}
OBS_PRIMITIVES = ("disabled_branch_ns", "counter_add_ns",
                  "histogram_record_ns", "span_ns", "failpoint_disabled_ns")


def fail(message: str) -> None:
    sys.exit(f"check_bench_json: FAIL: {message}")


def require(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


def check_file(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{path}: {error}")

    require(isinstance(doc, dict), f"{path}: top level must be an object")
    require(isinstance(doc.get("benchmark"), str) and doc["benchmark"],
            f"{path}: missing string 'benchmark'")
    records = doc.get("records")
    require(isinstance(records, list) and records,
            f"{path}: 'records' must be a non-empty array")

    seen_scenarios = set()
    model_families = set()
    for index, record in enumerate(records):
        where = f"{path}: records[{index}]"
        require(isinstance(record, dict), f"{where}: must be an object")
        for key, value in record.items():
            require(isinstance(key, str) and key, f"{where}: bad key")
            require(isinstance(value, (str, int, float))
                    and not isinstance(value, bool),
                    f"{where}.{key}: values must be strings or numbers")

        scenario = record.get("scenario")
        require(isinstance(scenario, str) and scenario,
                f"{where}: missing string 'scenario'")
        require(scenario not in seen_scenarios,
                f"{where}: duplicate scenario '{scenario}'")
        seen_scenarios.add(scenario)

        if "wall_s" in record:
            require(record["wall_s"] > 0, f"{where}: wall_s must be > 0")
            require(record.get("accesses_per_s", 0) > 0,
                    f"{where}: timed records need accesses_per_s > 0")

        if doc["benchmark"] == "serve":
            if scenario in ("cold_compile", "cache_hit"):
                require(record.get("requests", 0) > 0,
                        f"{where}: latency records need requests > 0")
                require(record.get("mean_us", 0) > 0,
                        f"{where}: latency records need mean_us > 0")
            if scenario == "cache_hit":
                require(record.get("cache_hits", 0) >= record["requests"],
                        f"{where}: cache_hits must cover every hit request")
            if scenario == "shed_2x":
                for key in ("offered", "answered", "shed", "shed_rate"):
                    require(key in record, f"{where}: shed_2x needs '{key}'")
                require(record["answered"] == record["offered"],
                        f"{where}: every offered frame must be answered")
                require(0 <= record["shed"] <= record["offered"],
                        f"{where}: shed out of range")
                expected_rate = (record["shed"] / record["offered"]
                                 if record["offered"] else 0.0)
                require(abs(record["shed_rate"] - expected_rate) < 1e-6,
                        f"{where}: shed_rate inconsistent with counts")

        if doc["benchmark"] == "cachesim":
            require(record.get("hardware_threads", 0) >= 1,
                    f"{where}: needs hardware_threads >= 1")
            if "sharded" in scenario:
                require("threads" in record,
                        f"{where}: sharded needs 'threads'")
                require(record["threads"] >= 2,
                        f"{where}: sharded threads must be >= 2")
            if scenario.startswith("trace_size_"):
                for key in ("records", "v2_bytes", "bytes_per_record"):
                    require(record.get(key, 0) > 0,
                            f"{where}: trace size needs positive '{key}'")
                per_record = record["v2_bytes"] / record["records"]
                require(abs(per_record - record["bytes_per_record"])
                        <= 1e-3 * per_record,
                        f"{where}: bytes_per_record inconsistent with "
                        "v2_bytes / records")
            if scenario.endswith("_obs"):
                require("enabled_overhead_pct" in record,
                        f"{where}: needs 'enabled_overhead_pct'")
            if scenario.startswith("model_"):
                require(record.get("family") in MODEL_FAMILIES,
                        f"{where}: unknown estimator family")
                require(record.get("ns_per_call", 0) > 0,
                        f"{where}: needs ns_per_call > 0")
                require(isinstance(record.get("cache"), str)
                        and record.get("capacity_bytes", 0) > 0,
                        f"{where}: needs 'cache' and 'capacity_bytes'")
                model_families.add(record["family"])
            if scenario == "kernel_vm_bare_vs_sim":
                for key in ("bare_ms", "simulated_ms", "ratio",
                            "capacity_bytes"):
                    require(record.get(key, 0) > 0,
                            f"{where}: needs positive '{key}'")
                ratio = record["simulated_ms"] / record["bare_ms"]
                require(abs(ratio - record["ratio"]) <= 1e-6 * ratio,
                        f"{where}: ratio inconsistent with "
                        "simulated_ms / bare_ms")
            if scenario == "obs_primitives":
                for key in OBS_PRIMITIVES:
                    require(record.get(key, 0) > 0,
                            f"{where}: needs positive '{key}'")

    if doc["benchmark"] == "cachesim":
        for family in sorted(MODEL_FAMILIES - model_families):
            fail(f"{path}: no ns_per_call record for estimator family "
                 f"'{family}'")
        for scenario in ("kernel_vm_bare_vs_sim", "obs_primitives"):
            require(scenario in seen_scenarios,
                    f"{path}: cachesim bench missing scenario '{scenario}'")

    if doc["benchmark"] == "serve":
        for scenario in ("cold_compile", "cache_hit", "shed_2x"):
            require(scenario in seen_scenarios,
                    f"{path}: serve bench missing scenario '{scenario}'")

    if "metrics" in doc:
        require(isinstance(doc["metrics"], dict),
                f"{path}: 'metrics' must be an object")
    return len(records)


def main() -> None:
    if len(sys.argv) < 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    for path in sys.argv[1:]:
        count = check_file(path)
        print(f"check_bench_json: OK: {path} ({count} record(s))")


if __name__ == "__main__":
    main()
