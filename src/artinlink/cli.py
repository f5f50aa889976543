"""Command-line front end; ``artinlink --help`` lists the subcommands.

Exit status 0 means the command ran (an Inconclusive verdict is not a
failure); nonzero means a parse error, an internal inconsistency, or a
failed verification battery.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_string

from . import batteries
from .complex_link import link_of
from .curvature import A2, B2, certify
from .cycles import LOOP_ENUMERATION_GUARD, enumerate_short_loops
from .errors import InternalInconsistencyError
from .forbidden import search_orientation
from .gamma_io import ParseError, load_gamma
from .presentations import TooManyGeneratorsError, UnorientedEdgeError
from .smallcancel import compute_pieces

_SCHEMES = {"auto": "auto", "a2": A2, "b2": B2}

# The largest labels whose battery runs in 60 s serially (2 cores,
# Python 3.11): triangle girth takes 56 s at 31 and 62 s at 32, the
# Tietze replay 54 s at 600, 57 s at 620 and 81 s at 700.
MAX_TRIANGLE_LABEL = 31
MAX_TIETZE_LABEL = 600


@functools.cache  # one tree per process, built at import (below)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artinlink",
        description=(
            "Rewrite Artin presentations into triangular form, build the "
            "link of the presentation complex, and certify non-positive "
            "curvature with exact arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    certify_p = sub.add_parser("certify", help="run the curvature certificate")
    certify_p.add_argument("input", help="defining-graph file (text or .json)")
    certify_p.add_argument(
        "--scheme",
        choices=sorted(_SCHEMES),
        default="auto",
        help="force a metric scheme instead of auto-selection",
    )
    certify_p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    link_p = sub.add_parser("link", help="export the link of the 0-cell")
    link_p.add_argument("input")
    link_p.add_argument(
        "--format", choices=("dot", "json", "text"), default="dot"
    )

    loops_p = sub.add_parser("loops", help="enumerate short embedded loops")
    loops_p.add_argument("input")
    loops_p.add_argument(
        "--max", type=int, default=6, help="maximum loop length, 3 to 8"
    )
    loops_p.add_argument("--format", choices=("text", "json"), default="text")

    orient_p = sub.add_parser(
        "orient", help="search for a pattern-free orientation"
    )
    orient_p.add_argument("input")
    orient_p.add_argument("--format", choices=("text", "json"), default="text")

    pieces_p = sub.add_parser("pieces", help="small-cancellation piece table")
    pieces_p.add_argument("input")
    pieces_p.add_argument("--format", choices=("text", "json"), default="text")

    lemmas_p = sub.add_parser(
        "verify-lemmas", help="run the exhaustive verification batteries"
    )
    lemmas_p.add_argument(
        "--max-label",
        type=int,
        default=5,
        help=f"largest triangle label to sweep, 3 to {MAX_TRIANGLE_LABEL}",
    )
    lemmas_p.add_argument(
        "--max-vertices",
        type=int,
        default=4,
        help="graph size for the pattern oracle sweep, 2 to 5",
    )
    lemmas_p.add_argument(
        "--tietze-max",
        type=int,
        default=50,
        help=f"largest two-generator label, 2 to {MAX_TIETZE_LABEL}",
    )
    lemmas_p.add_argument(
        "--seed", type=int, default=None, help="also run seeded random spot checks"
    )
    lemmas_p.add_argument(
        "--processes",
        type=int,
        default=None,
        help="parallel workers for the sweep, 1 to the CPU count",
    )
    return parser


# Built here, not at the first main call, so that no in-process call
# pays for the tree and argparse's first gettext reads.
_build_parser()


def _emit_json(obj) -> None:
    print(_json_text(obj))


@functools.cache  # one encoder per nesting depth
def _flat_encoder(sep: str):
    """C-encodes a scalar, or scalars in a container joined by ``sep``."""
    return json.JSONEncoder(separators=(sep, ": ")).encode


@functools.cache  # one per nesting depth
def _string_list(indent: str):
    """Lays out a non-empty list of strings at depth ``indent`` as
    ``json.dumps`` does; TypeError if an item is not a string."""
    left, sep, right = f"[\n{indent}  ", f",\n{indent}  ", f"\n{indent}]"
    return lambda items: f"{left}{sep.join(map(_json_string, items))}{right}"


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2)`` at depth ``indent``, for objects with
    string keys.  Only containers of containers are joined here: strings,
    lists of strings (one ``map``), scalars and containers of scalars are
    encoded in C.  A dict encodes its string and string-list values
    without recursing."""
    if isinstance(obj, str):
        return _json_string(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    is_list = isinstance(obj, (list, tuple))
    if is_list and obj:
        try:
            return _string_list(indent)(obj)
        except TypeError:  # not all strings
            pass
    items = obj if is_list else obj.values() if isinstance(obj, dict) else ()
    if not any(map(isinstance, items, repeat((dict, list, tuple)))):
        text = _flat_encoder(sep)(obj)
        return f"{text[0]}\n{inner}{text[1:-1]}\n{indent}{text[-1]}" if items else text
    if is_list:
        parts = [_json_text(x, inner) for x in obj]
    else:
        parts, strings = [], _string_list(inner)
        for k, v in obj.items():
            if isinstance(v, str):
                text = _json_string(v)
            elif v and isinstance(v, (list, tuple)):
                try:
                    text = strings(v)
                except TypeError:  # not all strings
                    text = _json_text(v, inner)
            else:
                text = _json_text(v, inner)
            parts.append(f"{_json_string(k)}: {text}")
    left, right = "[]" if is_list else "{}"
    return f"{left}\n{inner}{sep.join(parts)}\n{indent}{right}"


def _cmd_certify(args) -> int:
    gamma = load_gamma(args.input)
    report = certify(gamma, scheme=_SCHEMES[args.scheme])
    if args.format == "json":
        _emit_json(report.to_json_dict())
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
        _emit_json(_link_json_dict(link))
    else:
        print(f"{len(link.vertices)} vertices, {len(link.edges)} edges")
        for e in link.edges:
            print(f"{e.a.bar_name} -- {e.b.bar_name}  [{e.kind}, piece {e.piece}]")
    return 0


def _out_of_range(*bounds: tuple[str, int | None, int, int]) -> bool:
    """Print an error for the first ``(flag, value, low, high)`` whose
    value is given and outside ``low..high``; whether there was one."""
    for flag, value, low, high in bounds:
        if value is not None and not low <= value <= high:
            error = f"error: {flag} must be between {low} and {high}, got {value}"
            print(error, file=sys.stderr)
            return True
    return False


def _cmd_loops(args) -> int:
    if _out_of_range(("--max", args.max, 3, LOOP_ENUMERATION_GUARD)):
        return 1
    loops = enumerate_short_loops(link_of(load_gamma(args.input)), args.max)
    if args.format == "json":
        _emit_json([[v.bar_name for v in lp.vertices] for lp in loops])
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
        _emit_json(None if assignment is None else assignment.to_json_dict())
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
        _emit_json(
            {
                "max_piece_len": table.max_piece_len,
                "pieces": [str(w) for w in table.pieces],
                "decompositions": {
                    str(r): n for r, n in sorted(table.decompositions.items())
                },
            }
        )
    else:
        sys.stdout.write(table.to_text())
    return 0


def _cmd_verify_lemmas(args) -> int:
    # 5 vertices is the acceptance size; 6 (3^15 labelled states, 720
    # permutations each) is out of reach
    if _out_of_range(
        ("--max-vertices", args.max_vertices, 2, 5),
        ("--max-label", args.max_label, 3, MAX_TRIANGLE_LABEL),
        ("--tietze-max", args.tietze_max, 2, MAX_TIETZE_LABEL),
        ("--processes", args.processes, 1, os.cpu_count() or 1),
    ):
        return 1
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


_COMMANDS = {
    "certify": _cmd_certify,
    "link": _cmd_link,
    "loops": _cmd_loops,
    "orient": _cmd_orient,
    "pieces": _cmd_pieces,
    "verify-lemmas": _cmd_verify_lemmas,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, TooManyGeneratorsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except UnorientedEdgeError as exc:
        print(
            f"error: {exc}; direct the edges in the file or run "
            f"'artinlink orient' to search for an orientation",
            file=sys.stderr,
        )
        return 1
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
