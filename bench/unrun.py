"""List the statements of src/sfonline that no test runs.

Runs pytest in this process under sys.settrace, records every line event in
src/sfonline/*.py and prints, per module, the statements that never ran:
adjacent ones print as one line range. Every argument goes on to pytest, with
paths relative to the repository root:

    python3 bench/unrun.py                          # tier-1: all of tests/
    python3 bench/unrun.py tests/test_cli.py -k gen

A statement counts as run when a line it owns has a line event; a compound
statement (if, for, def, with, ...) owns its header, not its body. Lines
with no bytecode (a docstring, `else:`) belong to no statement. It exits
with pytest's status.

Known gap: tests/test_forest.py's `_source_fault` execs an edited copy of a
function, compiled under the module's file name but numbered from the
function's first line. The lines that only those copies reach, forest.py
208 and 215, are listed as never run, and the copies' own line events land
on the first lines of forest.py.
"""

from __future__ import annotations

import ast
import dis
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sfonline"


def executable_lines(code) -> set:
    """Lines that start bytecode in `code` and the code objects nested in it;
    a function's own first line (its RESUME) does not count."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= executable_lines(const)
    return lines


def statements(source: str, filename: str) -> list:
    """(first, last) own line of each statement that owns bytecode, in order."""
    executable = executable_lines(compile(source, filename, "exec"))
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        if executable.intersection(range(first, last + 1)):
            spans.append((first, last))
    return sorted(spans)


def unrun_ranges(spans, hits) -> list:
    """Adjacent statements with no hit on any owned line, as "a-b" ranges."""
    groups = []
    previous_unrun = False
    for first, last in spans:
        unrun = hits.isdisjoint(range(first, last + 1))
        if unrun and previous_unrun:
            groups[-1][1] = last
        elif unrun:
            groups.append([first, last])
        previous_unrun = unrun
    return [f"{a}-{b}" if b > a else f"{a}" for a, b in groups]


def main(argv) -> int:
    import pytest

    modules = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hits = {name: set() for name in modules}
    watched = {}  # co_filename -> the hit set its lines go to, or None

    def local(frame, event, arg):
        if event == "line":
            watched[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in watched:
            watched[name] = hits.get(str(Path(name).resolve()))
        return local if watched[name] is not None else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # pytest's testpaths, and the paths in argv, are the repo's
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    total = 0
    for name, path in modules.items():
        ranges = unrun_ranges(statements(path.read_text(), name), hits[name])
        total += len(ranges)
        print(f"{path.name}: {', '.join(ranges) or 'none'}")
    print(f"{total} unrun ranges in src/sfonline")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
