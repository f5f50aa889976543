"""Pinned CLI output: the exit code and the sha256 of stdout and of
stderr of each command of ``COMMANDS`` on each graph of ``GRAPHS``.

Run as ``python3 tests/output_corpus.py --show GRAPH CMD`` (with
``src`` on ``PYTHONPATH``) to print one command's exit code, stdout and
stderr, or as ``python3 tests/output_corpus.py --write`` to rewrite the
digests in ``tests/golden/outputs.json``.  A change that rewrites a
digest names it in ``CHANGES.md`` and says why.  Each command runs
in-process through ``cli.main`` on a file named by its bare name, from
inside the directory that holds it, so no output depends on where the
files are.  The file name keeps it out of pytest's collection.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from test_bench_expected import CORPUS

from artinlink import cli

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"

_K4 = "abcd"
# file name -> text: the eight graphs of the certify benchmark, then
# inputs that reach what none of them does
GRAPHS = {f"{name}.gamma": text for name, text in CORPUS.items()} | {
    "vertex.gamma": "vertex a\n",
    "wildcard.gamma": "vertex a\nvertex b\nedge a b 2 ?\n",
    # Inconclusive under auto: every completion has a pattern
    "wildcard_triangle.gamma": (
        "vertex a\nvertex b\nvertex c\nedge a b 2 ?\nedge b c 3 >\nedge c a 3 >\n"
    ),
    # Inconclusive: no applicable scheme under auto, and the link
    # condition fails under a forced a2 or b2
    "k4.gamma": "".join(f"vertex {v}\n" for v in _K4)
    + "".join(f"edge {u} {v} 3\n" for i, u in enumerate(_K4) for v in _K4[i + 1 :]),
    "square.json": json.dumps(
        {
            "vertices": ["a", "b", "c", "d"],
            "edges": [
                {"u": "a", "v": "b", "label": 3, "orientation": "forward"},
                {"u": "b", "v": "c", "label": 2, "orientation": "wildcard"},
                {"u": "c", "v": "d", "label": 4, "orientation": "unoriented"},
                {"u": "a", "v": "d", "label": 3, "orientation": "backward"},
            ],
        }
    ),
    "bad.gamma": "vertex a\nedge a b\n",
}

COMMANDS = {
    **{
        f"certify-{fmt}-{scheme}": ["certify", "--format", fmt, "--scheme", scheme]
        for fmt in ("text", "json")
        for scheme in ("auto", "a2", "b2")
    },
    **{f"link-{fmt}": ["link", "--format", fmt] for fmt in ("dot", "json", "text")},
    "loops-4": ["loops", "--max", "4"],
    "orient": ["orient"],
    "pieces": ["pieces"],
}


def run(graph: str, command: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``command`` on ``graph``, which
    must be a file of the current directory."""
    name, *flags = COMMANDS[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([name, graph, *flags])
    return code, out.getvalue(), err.getvalue()


def _row(code: int, stdout: str, stderr: str) -> dict:
    """``code`` and the sha256 of ``stdout`` and of ``stderr``."""
    out, err = (hashlib.sha256(text.encode("utf-8")).hexdigest() for text in (stdout, stderr))
    return {"exit": code, "stdout": out, "stderr": err}


def digests() -> dict[str, dict[str, dict]]:
    """graph -> command -> its exit code and the digests of its output,
    run in the current directory, which must hold the files of ``GRAPHS``."""
    return {graph: {cmd: _row(*run(graph, cmd)) for cmd in COMMANDS} for graph in GRAPHS}


def write_graphs(directory) -> None:
    """Write each graph of ``GRAPHS`` into ``directory``."""
    for graph, text in GRAPHS.items():
        Path(directory, graph).write_text(text, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--show", nargs=2, metavar=("GRAPH", "CMD"),
                       help=f"graphs: {', '.join(GRAPHS)}; commands: {', '.join(COMMANDS)}")
    group.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)
    if args.show and (args.show[0] not in GRAPHS or args.show[1] not in COMMANDS):
        parser.error("unknown graph or command; see --help")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_graphs(directory)
        os.chdir(directory)
        try:
            if args.write:
                table = digests()
            else:
                code, stdout, stderr = run(*args.show)
        finally:
            os.chdir(here)
    if args.write:
        GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return 0
    print(f"exit {code}\n--- stdout\n{stdout}--- stderr\n{stderr}", end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
