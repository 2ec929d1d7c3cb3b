"""Run every command of cli_golden.json through a qexp executable and compare
its stdout with the golden file, byte for byte.

    python tests/check_golden.py qexp                      # the console script
    python tests/check_golden.py python -m qexpseries.cli  # a module on the path

Exits 1 and names each command whose exit status or output differs, with the
first line of stdout that differs, expected and got. pytest does not collect
this file; tests/test_cli.py checks the same file in-process.
"""

import json
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


def first_difference(expected: str, got: str) -> str:
    """The first line, ends included, where ``got`` differs from ``expected``;
    a line that one side lacks shows as None."""
    pairs = zip_longest(expected.splitlines(True), got.splitlines(True))
    for number, (want, have) in enumerate(pairs, 1):
        if want != have:
            return f"line {number}:\n  expected {want!r}\n  got      {have!r}\n"
    return ""


def main(prefix) -> int:
    if not prefix:
        print(__doc__, file=sys.stderr)
        return 2
    failed = 0
    for command, expected in sorted(GOLDEN.items()):
        run = subprocess.run([*prefix, *command.split()], capture_output=True)
        if run.returncode != 0 or run.stdout != expected.encode("utf-8"):
            failed += 1
            print(f"FAIL {command}: exit {run.returncode}\n{run.stderr.decode(errors='replace')}"
                  f"{first_difference(expected, run.stdout.decode(errors='replace'))}",
                  file=sys.stderr)
    print(f"{len(GOLDEN) - failed} of {len(GOLDEN)} golden commands match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
