"""Print every executable line of ``src/diffdiss`` that a pytest run never runs.

A line tracer (``sys.settrace``) stands in for a coverage package.  It
records lines only in the package's own files, so generated programs, which
have no file, are not counted.  From the repository root:

    PYTHONPATH=src python tests/untraced_lines.py [pytest arguments]

The arguments go to pytest as they are (default: the whole suite, quiet).
Each line that never ran is printed as ``path:line: source``, then a count
per file; the exit code is pytest's.  Lines that only a child process runs
(``python -c`` tests) count as not run.  The traced suite runs ~3x slower
than a plain one.  pytest does not collect this file: its name does not
start with ``test_``.
"""

from __future__ import annotations

import os
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diffdiss"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that carry bytecode, in any of its code objects."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for ``args`` and the lines run in each package file."""
    hits: dict[str, set[int]] = defaultdict(set)
    inside: dict[str, str | None] = {}
    root = str(PACKAGE) + os.sep

    def lines(frame, event, arg):
        if event == "line":
            hits[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            real = os.path.realpath(name)
            inside[name] = real if real.startswith(root) else None
        return lines if inside[name] is not None else None

    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = traced_run(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    total = missing = 0
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        unrun = sorted(executable - hits.get(os.path.realpath(path), set()))
        source = path.read_text().splitlines()
        rel = path.relative_to(PACKAGE.parents[1])
        for line in unrun:
            print(f"{rel}:{line}: {source[line - 1].strip()}")
        total += len(executable)
        missing += len(unrun)
        counts.append(f"{rel}: {len(unrun)} of {len(executable)} lines not run")
    print("\n".join(counts))
    print(f"total: {missing} of {total} executable lines not run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
