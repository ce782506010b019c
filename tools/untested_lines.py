"""List every `src/longroad` statement that no fast test executes.

Runs `pytest -m "not slow"` in this process under a `sys.settrace` line
tracer (stdlib only: no coverage package is needed) and prints each statement
of `src/longroad` whose line never ran, as `path:line: source`, then a count.
A statement is an `ast` statement whose first line holds bytecode, so
docstrings, `pass` and other lines that compile to nothing are not listed.
The fast tier runs with `--hypothesis-seed=0`, so the `hypothesis` draws,
and with them the count, repeat from run to run.

    python3 tools/untested_lines.py [extra pytest args]

Exits with pytest's status. Tracing slows the fast tier by about 1.7x (39 s
against 23 s on a 2-core x86-64 box at 1 BLAS thread).
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "longroad"
PREFIX = str(PACKAGE) + os.sep


def statement_lines(path: Path) -> dict[int, str]:
    """First line of every statement that compiles to bytecode, with its text."""
    source = path.read_text()
    code_lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    text = source.splitlines()
    return {node.lineno: text[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and node.lineno in code_lines}


def traced_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with a line tracer on the package's files only."""
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(PREFIX) else None

    import pytest

    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-m", "not slow", "-p", "no:cacheprovider",
                              "--hypothesis-seed=0", *args])
    finally:
        sys.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    status, hits = traced_pytest(argv)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        for line, text in sorted(statement_lines(path).items()):
            if line not in ran:
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
                missed += 1
    print(f"{missed} statements in src/longroad not run by the fast tests")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
