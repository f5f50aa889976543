"""Lines of ``src/artinlink`` that a pytest run never executes.

Run as ``python3 tests/line_coverage.py [PYTEST ARGS...]`` from the
repository root; with no arguments it runs ``-q -p no:cacheprovider
tests``.  Pytest runs in this process under a ``sys.settrace`` line
tracer that follows frames of ``src/artinlink`` files only.  Each
module's executable lines are then read from its code objects'
``co_lines``, and those that never ran are printed per module, as
line ranges.  ``def``, ``class`` and decorator lines are skipped: a
call reports no line event for them.

The tool reports lines, not test verdicts.  Only code run in this
process is seen, so subprocesses and ``multiprocessing.Pool`` workers
are not.  The tracer slows the run several times over, so tests bound
by wall time may fail under it (acceptance 06, for one); their lines
still count as run.  The file name keeps it out of pytest's collection.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "artinlink"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its code runs,
    less its ``def``, ``class`` and decorator lines."""
    text = path.read_text()
    lines: set[int] = set()
    stack = [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no line
        stack += (c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            lines.difference_update(range(start, node.body[0].lineno))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``a-b`` runs, comma-separated."""
    runs: list[list[int]] = []
    for n in lines:
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str] | None = None) -> None:
    args = sys.argv[1:] if argv is None else argv
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    watched: dict[str, set[int] | None] = {}  # co_filename -> its ran lines

    def local(frame, event, arg):
        if event == "line":
            watched[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in watched:
            path = os.path.abspath(name)
            watched[name] = ran.setdefault(path, set()) if path.startswith(prefix) else None
        return None if watched[name] is None else local

    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print(f"\npytest exit status {int(status)}; lines never run in src/artinlink:")
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        missed += len(never)
        print(f"{path.name:<18}{len(never):>5} of {len(lines):>4}  {ranges(never)}")
    print(f"{'total':<18}{missed:>5} of {total:>4}")


if __name__ == "__main__":
    main()
