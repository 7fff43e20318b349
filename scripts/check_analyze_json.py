#!/usr/bin/env python3
"""Schema check for `dvfc analyze --json` output (CI analysis-smoke job).

    dvfc analyze models/*.aspen --json | check_analyze_json.py
    check_analyze_json.py report.json [report2.json ...]

Validates the shape documented in docs/analysis.md:

  - top level is an array with one object per analyzed file;
  - every object carries ``file``, a 16-hex-digit ``0x``-prefixed
    ``canonical_hash`` string, a boolean ``clean``, a ``machines`` name
    array, a ``models`` array and a ``diagnostics`` array;
  - every interval object is ``{"lo": num, "hi": num|null, "exact": bool}``
    with ``lo`` finite, non-negative, and ``lo <= hi`` when bounded
    (``null`` encodes an unbounded upper endpoint, never NaN);
  - ``exact`` implies the interval is a point;
  - every structure carries the five verdict booleans;
  - ``clean`` agrees with the diagnostics array;
  - diagnostics carry the lint JSON shape (file/line/column/severity/code).

With ``--same-hash`` the checker additionally asserts that all inputs
report identical per-file hashes — CI feeds it three independent runs to
pin hash determinism.
"""

import json
import math
import re
import sys

HASH_RE = re.compile(r"^0x[0-9a-f]{16}$")


def fail(message: str) -> None:
    sys.exit(f"check_analyze_json: FAIL: {message}")


def require(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_interval(doc, where: str) -> None:
    require(isinstance(doc, dict), f"{where}: interval must be an object")
    require(set(doc) == {"lo", "hi", "exact"},
            f"{where}: interval keys must be lo/hi/exact, got {sorted(doc)}")
    lo, hi, exact = doc["lo"], doc["hi"], doc["exact"]
    require(is_number(lo) and math.isfinite(lo) and lo >= 0,
            f"{where}.lo: must be a finite non-negative number")
    require(hi is None or is_number(hi),
            f"{where}.hi: must be a number or null")
    if is_number(hi):
        require(math.isfinite(hi) and hi >= lo,
                f"{where}: needs finite hi >= lo (got lo={lo}, hi={hi})")
    require(isinstance(exact, bool), f"{where}.exact: must be a boolean")
    if exact:
        require(hi == lo, f"{where}: exact interval must be a point")


def check_structure(doc, where: str) -> None:
    require(isinstance(doc.get("name"), str) and doc["name"],
            f"{where}: missing string 'name'")
    require(is_number(doc.get("size_bytes")) and doc["size_bytes"] >= 0,
            f"{where}: missing non-negative 'size_bytes'")
    check_interval(doc.get("n_ha"), f"{where}.n_ha")
    check_interval(doc.get("dvf"), f"{where}.dvf")
    for key in ("exact", "dead", "exceeds_all_shares", "rejects_everywhere",
                "monotone_in_capacity"):
        require(isinstance(doc.get(key), bool),
                f"{where}: missing boolean '{key}'")
    if doc["dead"]:
        require(doc["n_ha"] == {"lo": 0, "hi": 0, "exact": True},
                f"{where}: dead structure must report N_ha exactly 0")


def check_report(doc, where: str) -> dict:
    require(isinstance(doc, dict), f"{where}: must be an object")
    require(isinstance(doc.get("file"), str) and doc["file"],
            f"{where}: missing string 'file'")
    where = f"{where} ({doc['file']})"
    require(isinstance(doc.get("clean"), bool),
            f"{where}: missing boolean 'clean'")
    diagnostics = doc.get("diagnostics")
    require(isinstance(diagnostics, list),
            f"{where}: 'diagnostics' must be an array")
    require(doc["clean"] == (not diagnostics),
            f"{where}: 'clean' disagrees with the diagnostics array")
    for index, diag in enumerate(diagnostics):
        dwhere = f"{where}.diagnostics[{index}]"
        require(isinstance(diag, dict), f"{dwhere}: must be an object")
        for key in ("file", "severity", "code", "message"):
            require(isinstance(diag.get(key), str) and diag[key],
                    f"{dwhere}: missing string '{key}'")
        for key in ("line", "column"):
            require(is_number(diag.get(key)) and diag[key] >= 1,
                    f"{dwhere}: missing positive '{key}'")

    # A file that failed to parse has diagnostics but no report payload.
    if "canonical_hash" not in doc:
        require(not doc["clean"], f"{where}: reportless object must be dirty")
        return {"file": doc["file"], "hash": None}

    require(isinstance(doc["canonical_hash"], str)
            and HASH_RE.match(doc["canonical_hash"]),
            f"{where}: 'canonical_hash' must be 0x + 16 lowercase hex digits")
    machines = doc.get("machines")
    require(isinstance(machines, list)
            and all(isinstance(m, str) and m for m in machines),
            f"{where}: 'machines' must be an array of names")
    models = doc.get("models")
    require(isinstance(models, list), f"{where}: 'models' must be an array")
    for mindex, model in enumerate(models):
        mwhere = f"{where}.models[{mindex}]"
        require(isinstance(model, dict), f"{mwhere}: must be an object")
        require(isinstance(model.get("name"), str) and model["name"],
                f"{mwhere}: missing string 'name'")
        check_interval(model.get("dvf"), f"{mwhere}.dvf")
        structures = model.get("structures")
        require(isinstance(structures, list),
                f"{mwhere}: 'structures' must be an array")
        for sindex, structure in enumerate(structures):
            check_structure(structure, f"{mwhere}.structures[{sindex}]")
    return {"file": doc["file"], "hash": doc["canonical_hash"]}


def load(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin), "<stdin>"
        with open(path, encoding="utf-8") as handle:
            return json.load(handle), path
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{path}: {error}")


def main() -> None:
    args = sys.argv[1:]
    same_hash = "--same-hash" in args
    args = [a for a in args if a != "--same-hash"] or ["-"]

    runs = []
    for path in args:
        doc, label = load(path)
        require(isinstance(doc, list) and doc,
                f"{label}: top level must be a non-empty array")
        entries = [check_report(entry, f"{label}[{i}]")
                   for i, entry in enumerate(doc)]
        runs.append((label, entries))
        print(f"check_analyze_json: OK: {label} ({len(entries)} file(s))")

    if same_hash and len(runs) > 1:
        base_label, base = runs[0]
        base_hashes = {e["file"]: e["hash"] for e in base}
        for label, entries in runs[1:]:
            hashes = {e["file"]: e["hash"] for e in entries}
            require(hashes == base_hashes,
                    f"hash mismatch between {base_label} and {label}: "
                    f"{base_hashes} vs {hashes}")
        print(f"check_analyze_json: OK: canonical hashes identical across "
              f"{len(runs)} run(s)")


if __name__ == "__main__":
    main()
