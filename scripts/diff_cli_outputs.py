#!/usr/bin/env python3
"""Compare two dvfc builds command by command on the repository's models.

    diff_cli_outputs.py <parent-dvfc> <change-dvfc>

Runs ``check --json``, ``lint --json``, ``analyze --json``, ``eval`` and
``fmt`` on every ``.aspen`` file under ``models/``, ``tests/lint_cases/``
and ``tests/fuzz_corpus/`` with each binary, from the repository root so
that both see the same relative paths, and compares stdout, stderr and the
exit code. Prints the first difference and exits 1; exits 0 when every run
agrees. Use it to show that a refactor leaves the command line's output
byte-identical (canonical hashes included).
"""

import difflib
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIRECTORIES = ["models", "tests/lint_cases", "tests/fuzz_corpus"]
COMMANDS = [
    ["check", "{file}", "--json"],
    ["lint", "{file}", "--json"],
    ["analyze", "{file}", "--json"],
    ["eval", "{file}"],
    ["fmt", "{file}"],
]
TIMEOUT_S = 300


def run(binary: str, args: list) -> tuple:
    done = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                          timeout=TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr


def show(label: str, parent: bytes, change: bytes) -> None:
    print(f"  {label} differs:")
    diff = difflib.unified_diff(
        parent.decode(errors="replace").splitlines(),
        change.decode(errors="replace").splitlines(),
        "parent", "change", lineterm="", n=2)
    for line in list(diff)[:40]:
        print(f"    {line}")


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    parent_bin, change_bin = (str(pathlib.Path(p).resolve())
                              for p in sys.argv[1:])
    files = sorted(str(path.relative_to(ROOT))
                   for directory in DIRECTORIES
                   for path in (ROOT / directory).glob("*.aspen"))
    if not files:
        sys.exit("diff_cli_outputs: no .aspen files found")
    runs = 0
    for file in files:
        for template in COMMANDS:
            args = [arg.format(file=file) for arg in template]
            parent = run(parent_bin, args)
            change = run(change_bin, args)
            runs += 1
            if parent == change:
                continue
            print(f"diff_cli_outputs: dvfc {' '.join(args)}")
            if parent[0] != change[0]:
                print(f"  exit code: parent {parent[0]}, change {change[0]}")
            for label, index in (("stdout", 1), ("stderr", 2)):
                if parent[index] != change[index]:
                    show(label, parent[index], change[index])
            return 1
    print(f"diff_cli_outputs: {runs} runs over {len(files)} files, "
          "no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
