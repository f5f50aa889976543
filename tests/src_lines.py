"""Line counts of ``src/artinlink``: per module and in total.

Run as ``python3 tests/src_lines.py [DIR]``.  Each module is counted by
``wc -l`` and by ``ast`` into code, docstring, comment and blank lines:

- blank: an empty or whitespace-only line, inside a docstring too;
- docstring: any other line of a module, class or function docstring;
- comment: any other line that starts with ``#``;
- code: every other line.

The four ``ast`` counts add up to the ``wc -l`` count.  The file name
keeps it out of pytest's collection.
"""

from __future__ import annotations

import ast
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


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).parent.parent / "src/artinlink"
    total = dict.fromkeys(("lines", *KINDS), 0)
    print(f"{'module':<20}{'wc -l':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(root.glob("*.py")):
        c = count(path.read_text())
        for k in total:
            total[k] += c[k]
        print(f"{path.name:<20}{c['lines']:>7}" + "".join(f"{c[k]:>11}" for k in KINDS))
    print(f"{'total':<20}{total['lines']:>7}" + "".join(f"{total[k]:>11}" for k in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])
