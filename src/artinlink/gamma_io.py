"""Text and JSON formats for defining graphs.

The line-based format (``#`` starts a comment)::

    vertex <name>
    edge <u> <v> <label> [> | < | ? | .]
    rot <v>: <n1> <n2> ...

``>`` means u -> v, ``<`` means v -> u, ``?`` marks a wildcard
(label must be 2) and ``.`` leaves the edge unoriented; the direction
column defaults to ``.``.  ``rot`` lines give the cyclic order of the
neighbours around a vertex for embedded graphs.
"""

from __future__ import annotations

import json

from .presentations import (
    ORIENTATION_SYMBOLS,
    DefiningGraph,
    GammaEdge,
    GraphItemError,
    check_vertex_name,
    shown,
)


class ParseError(ValueError):
    """Bad input; ``line`` is its source line, or None if it has none."""

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def parse_gamma(text: str) -> DefiningGraph:
    vertices: dict[str, None] = {}  # a set that keeps the file's order
    edges: list[GammaEdge] = []
    rotations: dict[str, tuple[str, ...]] = {}
    lines: dict[tuple[str, str] | str, int] = {}  # edge key or rotation vertex

    # "\n" alone ends a line: str.splitlines also breaks at "\x0c" or "\u2028"
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "vertex":
            if len(fields) != 2:
                raise ParseError(lineno, "expected: vertex <name>")
            if fields[1] in vertices:
                raise ParseError(lineno, f"duplicate vertex {shown(fields[1])}")
            try:
                check_vertex_name(fields[1])
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from exc
            vertices[fields[1]] = None
        elif kind == "edge":
            if len(fields) not in (4, 5):
                raise ParseError(lineno, "expected: edge <u> <v> <label> [> < ? .]")
            u, v = fields[1], fields[2]
            token = fields[3]  # ASCII digits only: int() also reads "3_0" and "\uff13"
            if not (token.removeprefix("-").isdigit() and token.isascii()):
                raise ParseError(lineno, f"label must be an integer: {shown(token)}")
            try:
                label = int(token)
            except ValueError:  # past int()'s digit limit
                raise ParseError(lineno, f"label is too long: {shown(token)}") from None
            symbol = fields[4] if len(fields) == 5 else "."
            if symbol not in ORIENTATION_SYMBOLS:
                raise ParseError(lineno, f"unknown direction symbol {shown(symbol)}")
            try:
                edge = GammaEdge(u, v, label, ORIENTATION_SYMBOLS[symbol])
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from exc
            edges.append(edge)
            lines[edge.key] = lineno
        elif kind == "rot":
            if len(fields) < 2 or not fields[1].endswith(":"):
                raise ParseError(lineno, "expected: rot <v>: <n1> <n2> ...")
            vtx = fields[1][:-1]
            if vtx in rotations:
                raise ParseError(lineno, f"second rotation for vertex {shown(vtx)}")
            rotations[vtx] = tuple(fields[2:])
            lines[vtx] = lineno
        else:
            raise ParseError(lineno, f"unknown directive {shown(kind)}")

    try:
        return DefiningGraph(vertices, edges, rotations)
    except GraphItemError as exc:
        raise ParseError(lines[exc.item], str(exc)) from exc
    except ValueError as exc:
        raise ParseError(None, str(exc)) from exc


_SYMBOL_OF = {o: s for s, o in ORIENTATION_SYMBOLS.items()}


def gamma_to_text(gamma: DefiningGraph) -> str:
    lines = [f"vertex {v}" for v in gamma.vertices]
    for e in gamma.edges:
        lines.append(f"edge {e.u} {e.v} {e.label} {_SYMBOL_OF[e.orientation]}")
    rot = gamma.rotations or {}
    lines += [" ".join((f"rot {v}:", *rot[v])) for v in gamma.vertices if v in rot]
    return "\n".join(lines) + "\n"


def gamma_to_json_dict(gamma: DefiningGraph) -> dict:
    return {
        "vertices": list(gamma.vertices),
        "edges": [
            {"u": e.u, "v": e.v, "label": e.label, "orientation": e.orientation.value}
            for e in gamma.edges
        ],
        "rotations": (
            {v: list(order) for v, order in gamma.rotations.items()}
            if gamma.rotations
            else None
        ),
    }


_JSON_TYPES = {dict: "object", list: "list", str: "string", int: "number",
               float: "number", bool: "boolean", type(None): "null"}


def _json_list(value, what: str) -> list:
    # a string or an object would otherwise be read as a sequence
    if not isinstance(value, list):
        kind = _JSON_TYPES.get(type(value), type(value).__name__)
        raise TypeError(f"{what} must be a list, not {kind}")
    return value


def _json_edge(k: int, e) -> GammaEdge:
    if not isinstance(e, dict) or not {"u", "v", "label", "orientation"} <= e.keys():
        raise TypeError(f"edge {k} must be an object with u, v, label and orientation")
    if not isinstance(e["u"], str) or not isinstance(e["v"], str):
        raise TypeError(f"edge {k}: u and v must be vertex names")
    return GammaEdge(e["u"], e["v"], e["label"], e["orientation"])


def gamma_from_json_dict(obj: dict) -> DefiningGraph:
    edges = [
        _json_edge(k, e) for k, e in enumerate(_json_list(obj.get("edges", []), "edges"))
    ]
    rotations = obj.get("rotations")
    if rotations is not None:
        if not isinstance(rotations, dict):
            raise TypeError("rotations must be an object from vertex names to lists")
        rotations = {
            v: _json_list(order, f"rotation at {shown(v)}")
            for v, order in rotations.items()
        }
        if not all(isinstance(w, str) for order in rotations.values() for w in order):
            raise TypeError("rotations must list vertex names")
    vertices = _json_list(obj.get("vertices"), "vertices")
    return DefiningGraph(vertices, edges, rotations)


def _object(pairs: list) -> dict:
    """A JSON object, refused if it names a key twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"duplicate key {shown(key)}")
    return obj


def parse_gamma_json(text: str) -> DefiningGraph:
    try:
        obj = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(None, "invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # e.g. an integer over the digit limit, a key twice
        raise ParseError(None, f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        kind = _JSON_TYPES[type(obj)]
        raise ParseError(None, f"graph JSON must be an object, not {kind}")
    try:
        return gamma_from_json_dict(obj)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(None, f"bad graph object: {exc}") from exc


def load_gamma(path: str) -> DefiningGraph:
    """Read a defining graph from a ``.json`` or line-format file."""
    # newline="": lines end where parse_gamma ends them, not also at "\r"
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(None, f"{path} is not UTF-8 text: {exc.reason}") from exc
    if path.endswith(".json"):
        return parse_gamma_json(text)
    return parse_gamma(text)
