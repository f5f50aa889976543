"""Line counts of ``src/artinlink``: per module and in total.

Run as ``python3 tests/src_lines.py [DIR] [--since REV]``.  Each module
is counted by ``wc -l`` and by ``ast`` into code, docstring, comment and
blank lines:

- blank: an empty or whitespace-only line, inside a docstring too;
- docstring: any other line of a module, class or function docstring;
- comment: any other line that starts with ``#``;
- code: every other line.

The four ``ast`` counts add up to the ``wc -l`` count.  With ``--since
REV`` each count is followed by its change against the module as
``git show REV:path`` reads it (a module missing on one side counts 0
there), and a last line gives the net change of the total.  The file
name keeps it out of pytest's collection.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str) -> dict[str, int]:
    """The ``wc -l`` count of ``text`` as ``lines``, with its four kinds."""
    lines = text.splitlines()
    doc: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOC_OWNERS) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                doc.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for no, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped:
            kind = "blank"
        elif no in doc:
            kind = "docstring"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return {"lines": text.count("\n"), **counts}


def _git(root: Path, *args: str) -> str:
    run = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    if run.returncode:
        sys.exit(f"git {' '.join(args)}: {run.stderr.strip()}")
    return run.stdout


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Line counts of src/artinlink.")
    default = Path(__file__).parent.parent / "src/artinlink"
    parser.add_argument("dir", nargs="?", type=Path, default=default)
    parser.add_argument("--since", metavar="REV", help="also print changes since REV")
    args = parser.parse_args(argv)
    root, rev = args.dir, args.since
    names = {p.name for p in root.glob("*.py")}
    if rev is not None:
        # paths relative to ``root``: ``ls-tree`` and ``REV:./path`` read them so
        listed = _git(root, "ls-tree", "--name-only", rev, "./").split()
        names |= {n for n in listed if n.endswith(".py")}
    keys = ("lines", *KINDS)
    zero = dict.fromkeys(keys, 0)
    total, change = dict(zero), dict(zero)
    width = 11 if rev is None else 14

    def row(name: str, c: dict[str, int], d: dict[str, int]) -> str:
        cells = (f"{c[k]}" if rev is None else f"{c[k]} ({d[k]:+d})" for k in keys)
        return f"{name:<20}" + "".join(f"{cell:>{width}}" for cell in cells)

    print(f"{'module':<20}" + "".join(f"{k:>{width}}" for k in ("wc -l", *KINDS)))
    for name in sorted(names):
        path = root / name
        c = count(path.read_text()) if path.exists() else zero
        d = zero
        if rev is not None:
            old = count(_git(root, "show", f"{rev}:./{name}")) if name in listed else zero
            d = {k: c[k] - old[k] for k in keys}
        for k in keys:
            total[k] += c[k]
            change[k] += d[k]
        print(row(name, c, d))
    print(row("total", total, change))
    if rev is not None:
        print(f"net change since {rev}: {change['lines']:+d} lines")


if __name__ == "__main__":
    main()
