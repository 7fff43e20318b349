#!/usr/bin/env python3
"""Documentation consistency checker (wired into CI).

Three passes:

1. **Links** — every relative markdown link ``[text](target)`` in every
   tracked ``*.md`` file must point at a file (or directory) that
   exists, anchors stripped. Absolute URLs (``http(s):``, ``mailto:``)
   and pure in-page anchors are skipped, as are links inside fenced
   code blocks.

2. **dvfc flags** — every ``--flag`` token that appears after the word
   ``dvfc`` inside inline code or a fenced code block must be reported by
   ``dvfc help`` (the usage text; flag set passed via --dvfc). Docs
   drifting ahead of (or behind) the CLI fail the build.

3. **README doc index** — the README's "Documentation" section must link
   every tracked ``docs/*.md`` file and must not link a ``docs/`` path
   that does not exist: a new doc nobody indexed, or a stale entry for a
   deleted one, fails the build.

4. **Diagnostic catalog** — the ``DVF-[EWNA]ddd`` codes defined in
   ``src/dsl/include/dvf/dsl/diagnostics.hpp`` must equal the codes in
   the catalog tables of ``docs/dsl.md`` and ``docs/analysis.md``, and
   every E/W/N code must have a golden case
   ``tests/lint_cases/<code>_*.aspen`` (``<code>`` lowercase, e.g.
   ``e012``).

Usage:
    scripts/check_docs.py [--dvfc PATH_TO_DVFC] [FILES...]

With no FILES, checks every .md file known to git. Exits nonzero on any
broken link, undocumented flag, doc-index or catalog mismatch, listing
file:line for each.
"""

import argparse
import pathlib
import re
import subprocess
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"--([A-Za-z][A-Za-z0-9-]*)")
# Inline code spans; fenced blocks are tracked line-wise below.
CODE_SPAN_RE = re.compile(r"`([^`]+)`")


def git_markdown_files(root: pathlib.Path) -> list[pathlib.Path]:
    out = subprocess.run(
        ["git", "ls-files", "*.md", "**/*.md"],
        cwd=root, capture_output=True, text=True, check=True)
    return [root / line for line in out.stdout.splitlines() if line]


def dvfc_reported_flags(dvfc: pathlib.Path) -> set[str]:
    """Flags the CLI itself reports: everything in `dvfc help` usage text."""
    out = subprocess.run([str(dvfc), "help"], capture_output=True, text=True)
    usage = out.stdout + out.stderr
    if "usage:" not in usage:
        sys.exit(f"check_docs: {dvfc} help did not print a usage text")
    return set(FLAG_RE.findall(usage))


def check_file(path: pathlib.Path, root: pathlib.Path,
               known_flags: set[str] | None) -> list[str]:
    errors = []
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.lstrip()
        if stripped.startswith("```") or stripped.startswith("~~~"):
            in_fence = not in_fence
            continue

        # Pass 1: relative links (outside fenced code only).
        if not in_fence:
            for target in LINK_RE.findall(line):
                if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme
                    continue
                if target.startswith("#"):  # in-page anchor
                    continue
                resolved = (path.parent / target.split("#")[0]).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{path.relative_to(root)}:{lineno}: broken link: "
                        f"{target}")

        # Pass 2: dvfc flags in code (fenced lines and inline spans).
        if known_flags is None:
            continue
        snippets = [line] if in_fence else CODE_SPAN_RE.findall(line)
        # Table rows: flags live in a different cell than the `dvfc cmd`
        # span, so widen to the whole line when any span mentions dvfc.
        if not in_fence and any("dvfc" in s for s in snippets):
            snippets = [" ".join(snippets)]
        for snippet in snippets:
            before, sep, after = snippet.partition("dvfc")
            if not sep:
                continue
            for flag in FLAG_RE.findall(after):
                if flag not in known_flags:
                    errors.append(
                        f"{path.relative_to(root)}:{lineno}: flag --{flag} "
                        f"is not reported by `dvfc help`")
    return errors


def check_readme_doc_index(root: pathlib.Path) -> list[str]:
    """Pass 3: README's Documentation section vs the docs/ files on disk."""
    readme = root / "README.md"
    if not readme.exists():
        return ["README.md: missing (cannot check the doc index)"]
    on_disk = {
        f"docs/{p.name}"
        for p in git_markdown_files(root)
        if p.parent == root / "docs"
    }
    listed: set[str] = set()
    in_section = False
    section_line = None
    for lineno, line in enumerate(
            readme.read_text(encoding="utf-8").splitlines(), start=1):
        if line.startswith("#"):
            in_section = line.lstrip("#").strip() == "Documentation"
            if in_section:
                section_line = lineno
            continue
        if not in_section:
            continue
        for target in LINK_RE.findall(line):
            clean = target.split("#")[0]
            if clean.startswith("docs/") and clean.endswith(".md"):
                listed.add(clean)
    if section_line is None:
        return ["README.md: no 'Documentation' section found"]
    errors = []
    for missing in sorted(on_disk - listed):
        errors.append(
            f"README.md:{section_line}: Documentation section does not "
            f"list {missing}")
    for stale in sorted(listed - on_disk):
        errors.append(
            f"README.md:{section_line}: Documentation section links "
            f"{stale}, which is not a tracked docs/ file")
    return errors


CODE_DEF_RE = re.compile(r'"(DVF-[EWNA]\d{3})"')
CATALOG_ROW_RE = re.compile(r"^\|\s*`(DVF-[EWNA]\d{3})`\s*\|")


def check_diagnostic_catalog(root: pathlib.Path) -> list[str]:
    """Pass 4: diagnostics.hpp codes vs the doc catalogs and golden cases."""
    header = root / "src/dsl/include/dvf/dsl/diagnostics.hpp"
    defined = set(CODE_DEF_RE.findall(header.read_text(encoding="utf-8")))
    documented: set[str] = set()
    for doc in ("docs/dsl.md", "docs/analysis.md"):
        for line in (root / doc).read_text(encoding="utf-8").splitlines():
            match = CATALOG_ROW_RE.match(line)
            if match:
                documented.add(match.group(1))
    errors = []
    for code in sorted(defined - documented):
        errors.append(f"{header.relative_to(root)}: {code} is missing from "
                      f"the catalog tables of docs/dsl.md and "
                      f"docs/analysis.md")
    for code in sorted(documented - defined):
        errors.append(f"docs: catalog lists {code}, which "
                      f"{header.relative_to(root)} does not define")
    cases = root / "tests/lint_cases"
    for code in sorted(defined):
        stem = code.removeprefix("DVF-").lower()
        if stem[0] != "a" and not any(cases.glob(f"{stem}_*.aspen")):
            errors.append(f"tests/lint_cases: no golden case {stem}_*.aspen "
                          f"for {code}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dvfc", type=pathlib.Path, default=None,
                        help="dvfc binary for the flag check; omitting it "
                             "skips that pass")
    parser.add_argument("files", nargs="*", type=pathlib.Path)
    args = parser.parse_args()

    root = pathlib.Path(
        subprocess.run(["git", "rev-parse", "--show-toplevel"],
                       capture_output=True, text=True,
                       check=True).stdout.strip())
    files = ([f.resolve() for f in args.files] if args.files
             else git_markdown_files(root))
    known_flags = (dvfc_reported_flags(args.dvfc)
                   if args.dvfc is not None else None)

    errors = []
    for path in files:
        errors.extend(check_file(path, root, known_flags))
    errors.extend(check_readme_doc_index(root))
    errors.extend(check_diagnostic_catalog(root))
    for error in errors:
        print(error, file=sys.stderr)
    checked = ("links+flags" if known_flags is not None else "links") + \
        "+doc-index+catalog"
    print(f"check_docs: {len(files)} file(s), {checked}: "
          f"{'FAIL' if errors else 'OK'} ({len(errors)} error(s))")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
