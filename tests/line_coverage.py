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

The tool exits with status 1 when a line that never ran is not
excused by ``tests/coverage_baseline.json``, a JSON list of entries
``{"module": "cycles.py", "text": ..., "reason": ...}``.  An entry names
its line by module and stripped source text, not by number, so that
edits elsewhere do not move it, and excuses one never-run line with
that text.  Entries whose lines ran are listed, to be removed.  The
baseline may shrink, and grows only with a reason.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "artinlink"
BASELINE = ROOT / "tests" / "coverage_baseline.json"


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


def unexcused(never: dict[str, list[int]], baseline: list[dict]):
    """The never-run lines that ``baseline`` does not excuse, as (module,
    line number, stripped text), and the entries that excuse no line."""
    excuses = Counter((entry["module"], entry["text"]) for entry in baseline)
    missing = []
    for module, numbers in never.items():
        text = (PACKAGE / module).read_text().splitlines()
        for n in numbers:
            key = (module, text[n - 1].strip())
            if excuses[key]:
                excuses[key] -= 1
            else:
                missing.append((module, n, key[1]))
    stale = [entry for entry in baseline if excuses[entry["module"], entry["text"]]]
    return missing, stale


def main(argv: list[str] | None = None) -> int:
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
    never_run = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = never_run[path.name] = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        missed += len(never)
        print(f"{path.name:<18}{len(never):>5} of {len(lines):>4}  {ranges(never)}")
    print(f"{'total':<18}{missed:>5} of {total:>4}")
    missing, stale = unexcused(never_run, json.loads(BASELINE.read_text()))
    for entry in stale:
        print(f"baseline entry ran, remove it: {entry['module']}: {entry['text']}")
    for module, n, text in missing:
        print(f"never run and not in the baseline: {module}:{n}: {text}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
