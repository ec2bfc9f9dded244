"""List every statement under src/ that no test executes, and the size of
each src/ module.

    python3 tests/line_coverage.py [pytest arguments]

Runs the test suite in this process (pytest.main) under a sys.settrace
line tracer that records the lines run in src/ files only, then prints
each src/ statement none of whose lines ran, as path:line: source, and
then each src/ file's line count and their total, as path: N lines.  It
needs no coverage package.  Statements run only in a test's subprocess
(the CLI's ``sys.exit(main())``, say) are not seen; those under
``if TYPE_CHECKING:`` never run and are not listed.  The name does not
match test_*.py, so pytest does not collect this file.  The exit code is
pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
_hits: dict[str, set[int]] = {str(path): set() for path in SOURCES}


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    # only frames of src/ files are traced line by line
    return _local if frame.f_code.co_filename in _hits else None


def _code_lines(code) -> set[int]:
    """The lines with bytecode in code and its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _missed(path: Path, hits: set[int]) -> list[tuple[int, str]]:
    """(first line, source line) of each statement of path with bytecode
    none of whose own lines (a compound statement's header only) ran."""
    text = path.read_text()
    source = text.splitlines()
    runnable = _code_lines(compile(text, str(path), "exec"))
    tree = ast.parse(text)
    # the imports for type checkers only, which never run
    typing_only = {node.lineno for guard in ast.walk(tree)
                   if isinstance(guard, ast.If)
                   and isinstance(guard.test, ast.Name)
                   and guard.test.id == "TYPE_CHECKING"
                   for stmt in guard.body for node in ast.walk(stmt)
                   if isinstance(node, ast.stmt)}
    missed = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node.lineno in typing_only:
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        own = runnable.intersection(range(first, last + 1))
        if own and not own & hits:
            missed.append((node.lineno, source[node.lineno - 1].strip()))
    return sorted(missed)


def main(args: list[str]) -> int:
    sys.settrace(_global)
    threading.settrace(_global)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in SOURCES:
        for line, text in _missed(path, _hits[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    total = 0
    for path in SOURCES:
        count = len(path.read_text().splitlines())
        total += count
        print(f"{path.relative_to(ROOT)}: {count} lines")
    print(f"src: {total} lines")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
