"""Command-line front end; ``artinlink --help`` lists the subcommands.

Exit status 0 means the command ran (an Inconclusive verdict is not a
failure).  1 means a refused input, an out-of-range flag, a parse error,
an internal inconsistency or a failed verification battery; 2 is one of
argparse's usage errors.  Each error is one short line on stderr,
argparse's after its usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _json_string
from operator import attrgetter
from typing import Callable, NamedTuple

from .complex_link import link_of
from .curvature import A2, B2, WITNESS_KIND, WITNESS_LISTS, certify
from .cycles import LOOP_ENUMERATION_GUARD, enumerate_short_loops
from .errors import InternalInconsistencyError
from .forbidden import search_orientation
from .gamma_io import ParseError, load_gamma
from .presentations import TooManyGeneratorsError, UnorientedEdgeError, cut_line, shown
from .smallcancel import compute_pieces

_SCHEMES = {"auto": "auto", "a2": A2, "b2": B2}

# The largest labels whose battery runs in 60 s serially (2 cores,
# Python 3.11): triangle girth takes 56 s at 31 and 62 s at 32, the
# Tietze replay 54 s at 600, 57 s at 620 and 81 s at 700.
MAX_TRIANGLE_LABEL = 31
MAX_TIETZE_LABEL = 600

# Each bounded flag's (low, high), in the order main checks them.
_BOUNDS = {
    "--max": (3, LOOP_ENUMERATION_GUARD),
    # 5 vertices is the acceptance size; 6 has at least 5^15 / 6! (about
    # 4.2e7) oriented classes, too many to hold as a list
    "--max-vertices": (2, 5),
    "--max-label": (3, MAX_TRIANGLE_LABEL),
    "--tietze-max": (2, MAX_TIETZE_LABEL),
    "--processes": (1, os.cpu_count() or 1),
}


def _dumps(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2)`` at depth ``indent``.  With
    ``ensure_ascii`` a string's newlines are escaped, so every raw
    newline of the text is layout."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + indent)


def _joined(parts: list[str], indent: str, brackets: str = "[]") -> str:
    """Encoded ``parts`` in ``brackets`` at depth ``indent``, one a line."""
    if not parts:
        return brackets
    inner = indent + "  "
    sep = ",\n" + inner
    return f"{brackets[0]}\n{inner}{sep.join(parts)}\n{indent}{brackets[1]}"


class _Encoded(dict):
    """``_json_string(text(item))`` per item, encoded at its first lookup."""

    def __init__(self, text):
        self.text = text

    def __missing__(self, item):
        self[item] = encoded = _json_string(self.text(item))
        return encoded


def _witness_rows(witnesses, indent: str) -> list[str]:
    """The JSON text of each witness's row of ``to_json_dict`` at depth
    ``indent``: one %-template laid out as ``json.dumps`` lays out a row,
    over each distinct item encoded once.  No list of a row is empty."""
    items = _joined(["%s"], indent + "  ")
    lines = [f"{_json_string(key)}: {items}" for key, _, _ in WITNESS_LISTS]
    template = _joined([f"{_json_string(WITNESS_KIND[0])}: %s", *lines], indent, "{}")
    fields = attrgetter(WITNESS_KIND[1], *[field for _, field, _ in WITNESS_LISTS])
    kinds, join = _Encoded(WITNESS_KIND[2]), f",\n{indent}    ".join
    # the three joins written out: a loop over them costs a third more
    a, b, c = [_Encoded(text).__getitem__ for _, _, text in WITNESS_LISTS]
    return [
        template % (kinds[k], join(map(a, x)), join(map(b, y)), join(map(c, z)))
        for k, x, y, z in map(fields, witnesses)
    ]


def _certify_json(report) -> str:
    """``json.dumps(report.to_json_dict(), indent=2)``, its forbidden-pattern
    rows written by :func:`_witness_rows` after the loop rows."""
    obj = report._replace(forbidden=()).to_json_dict()
    loops = [_dumps(row, "    ") for row in obj["witnesses"]]
    witnesses = _joined(loops + _witness_rows(report.forbidden, "    "), "  ")
    parts = [
        f"{_json_string(k)}: {witnesses if k == 'witnesses' else _dumps(v, '  ')}"
        for k, v in obj.items()
    ]
    return _joined(parts, "", "{}")


def _cmd_certify(args) -> int:
    gamma = load_gamma(args.input)
    report = certify(gamma, scheme=_SCHEMES[args.scheme])
    if args.format == "json":
        print(_certify_json(report))
    else:
        sys.stdout.write(report.to_text())
    return 0


def _link_json_dict(link) -> dict:
    return {
        "vertices": [
            {
                "name": v.bar_name,
                "generator": v.gen,
                "end": v.end,
                "level": v.level,
                "special": v.special,
            }
            for v in link.vertices
        ],
        "edges": [
            {
                "a": e.a.bar_name,
                "b": e.b.bar_name,
                "kind": e.kind,
                "piece": e.piece,
                "cell": e.cell,
                "corner": e.corner,
            }
            for e in link.edges
        ],
    }


def _cmd_link(args) -> int:
    link = link_of(load_gamma(args.input))
    if args.format == "dot":
        sys.stdout.write(link.to_dot())
    elif args.format == "json":
        print(_dumps(_link_json_dict(link)))
    else:
        print(f"{len(link.vertices)} vertices, {len(link.edges)} edges")
        for e in link.edges:
            print(f"{e.a.bar_name} -- {e.b.bar_name}  [{e.kind}, piece {e.piece}]")
    return 0


def _cmd_loops(args) -> int:
    loops = enumerate_short_loops(link_of(load_gamma(args.input)), args.max)
    if args.format == "json":
        print(_dumps([[v.bar_name for v in lp.vertices] for lp in loops]))
    else:
        if not loops:
            print(f"no embedded loops of length <= {args.max}")
        for lp in loops:
            print(lp)
    return 0


def _cmd_orient(args) -> int:
    gamma = load_gamma(args.input)
    assignment = search_orientation(gamma)
    if args.format == "json":
        print(_dumps(None if assignment is None else assignment.to_json_dict()))
    elif assignment is None:
        print("no pattern-free orientation exists")
    elif not assignment.directions:
        print("graph is already fully oriented")
    else:
        for (u, v), arrow in assignment.arrows().items():
            print(f"edge {u} {v}: {arrow}")
    return 0


def _cmd_pieces(args) -> int:
    table = compute_pieces(link_of(load_gamma(args.input)))
    if args.format == "json":
        obj = {
            "max_piece_len": table.max_piece_len,
            "pieces": [str(w) for w in table.pieces],
            "decompositions": {
                str(r): n for r, n in sorted(table.decompositions.items())
            },
        }
        print(_dumps(obj))
    else:
        sys.stdout.write(table.to_text())
    return 0


def _cmd_verify_lemmas(args) -> int:
    from . import batteries  # with multiprocessing: loaded for this command only

    results = batteries.run_all(
        max_label=args.max_label,
        max_vertices=args.max_vertices,
        tietze_max=args.tietze_max,
        seed=args.seed,
        processes=args.processes,
    )
    for r in results:
        print(r.summary())
        for f in r.failures[:20]:
            print(f"  failed: {f}")
    if all(r.ok for r in results):
        print("all batteries passed")
        return 0
    return 1


class _Command(NamedTuple):
    """A subcommand: its handler and help, its ``input`` help (None: no
    input), its ``--format`` choices, default first, and their help, and
    its other flags as (flag, ``add_argument`` keywords)."""

    run: Callable[[argparse.Namespace], int]
    help: str
    input: str | None = ""
    formats: tuple[str, ...] = ("text", "json")
    format_help: str | None = None
    flags: tuple[tuple[str, dict], ...] = ()


def _bounded(flag: str, default: int, text: str) -> tuple[str, dict]:
    """An int flag whose help ends in its ``_BOUNDS`` span."""
    return flag, {"type": int, "default": default, "help": text + ", %d to %d" % _BOUNDS[flag]}


_COMMANDS = {
    "certify": _Command(
        _cmd_certify, "run the curvature certificate", "defining-graph file (text or .json)",
        format_help="output format",
        flags=(("--scheme", {"choices": sorted(_SCHEMES), "default": "auto",
                             "help": "force a metric scheme instead of auto-selection"}),),
    ),
    "link": _Command(_cmd_link, "export the link of the 0-cell", formats=("dot", "json", "text")),
    "loops": _Command(
        _cmd_loops, "enumerate short embedded loops",
        flags=(_bounded("--max", 6, "maximum loop length"),),
    ),
    "orient": _Command(_cmd_orient, "search for a pattern-free orientation"),
    "pieces": _Command(_cmd_pieces, "small-cancellation piece table"),
    "verify-lemmas": _Command(
        _cmd_verify_lemmas, "run the exhaustive verification batteries", input=None, formats=(),
        flags=(
            _bounded("--max-label", 5, "largest triangle label to sweep"),
            _bounded("--max-vertices", 4, "graph size for the pattern oracle sweep"),
            _bounded("--tietze-max", 50, "largest two-generator label"),
            ("--seed", {"type": int, "help": "also run seeded random spot checks"}),
            ("--processes",
             {"type": int, "help": "parallel workers for the sweep, 1 to the CPU count"}),
        ),
    ),
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose error message is cut by ``cut_line``; its
    subparsers are of this class too (``add_subparsers`` takes the
    parser's class)."""

    def error(self, message):
        super().error(cut_line(message))


@functools.cache  # one tree per process, built at import (below)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="artinlink",
        description=(
            "Rewrite Artin presentations into triangular form, build the "
            "link of the presentation complex, and certify non-positive "
            "curvature with exact arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub_p = sub.add_parser(name, help=command.help)
        if command.input is not None:
            sub_p.add_argument("input", help=command.input)
        for flag, keywords in command.flags:
            sub_p.add_argument(flag, **keywords)
        if command.formats:
            sub_p.add_argument("--format", choices=command.formats,
                               default=command.formats[0], help=command.format_help)
    return parser


# Built here, not at the first main call, so that no in-process call
# pays for the tree and argparse's first gettext reads.
_build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, (low, high) in _BOUNDS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and not low <= value <= high:
            error = f"error: {flag} must be between {low} and {high}, got "
            print(error + shown(value), file=sys.stderr)
            return 1
    try:
        return _COMMANDS[args.command].run(args)
    except (OSError, TooManyGeneratorsError) as exc:
        print(f"error: {cut_line(str(exc))}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except UnorientedEdgeError as exc:
        hint = "direct the edges in the file or run 'artinlink orient'"
        print(f"error: {exc}; {hint}", file=sys.stderr)
        return 1
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
