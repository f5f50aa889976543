"""Defining graphs and the group presentations built from them.

A defining graph has one vertex per standard generator and one edge per
braid relation; the edge label m >= 2 encodes the relation
(a,b)_m = (b,a)_m, where (a,b)_m alternates a,b for m letters.

``build_standard`` emits those alternating relators directly;
``build_triangular`` rewrites each edge relation into a chain of
length-3 relators around a fresh hub generator.  The two presentations
define the same group, and ``verify_tietze_equivalence`` replays the
rewriting symbolically.
"""

from __future__ import annotations

import copy
import functools
import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import takewhile
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple

from .words import CyclicWord, FreeWord, Letter


class UnorientedEdgeError(ValueError):
    """An operation needed a direction on an edge that has none."""


class TooManyGeneratorsError(ValueError):
    """A triangular presentation would exceed ``MAX_GENERATORS``."""


class IncompleteAssignmentError(ValueError):
    """An orientation assignment misses or mismatches edges."""


class GraphItemError(ValueError):
    """A defining graph cannot hold an item: ``item`` is an edge's (u, v)
    key or the vertex of a rotation entry."""

    def __init__(self, item: tuple[str, str] | str, message: str):
        super().__init__(message)
        self.item = item


def shown(value) -> str:
    """``repr(value)``, cut when it is long to its longest head of at most
    20 characters (a string's before quoting) that ``repr`` writes in at
    most 20 UTF-8 bytes (a string's quotes aside), and its length.  So a
    name of 4-byte or escaped characters keeps fewer of them.  An int is
    cut by arithmetic: ``repr`` refuses one of over 4300 digits.  A tuple
    is cut item by item, so an edge key keeps its (u, v) form."""
    text, dropped = value, 0
    if type(value) is tuple:
        return f"({', '.join(map(shown, value))}{',' * (len(value) == 1)})"
    if type(value) is int:  # keep about 30 digits
        dropped = max(0, int(abs(value).bit_length() * 0.30103) - 30)
        text = "-" * (value < 0) + str(abs(value) // 10**dropped)
    elif not isinstance(value, str):
        text = repr(value)
    quote, budget = (repr, 22) if isinstance(value, str) else (str, 20)
    k = min(len(text), 20)
    while len(quote(text[:k]).encode()) > budget:
        k -= 1
    if k == len(text) and not dropped:
        return repr(value)
    return f"{quote(text[:k])}... ({len(text) + dropped} characters)"


def cut_line(line: str) -> str:
    """``line``, or its head and tail when over 150 bytes: for a message
    that echoes a value whole (argparse, ``OSError``) or names more
    long values than fit."""
    data = line.encode(errors="backslashreplace")
    if len(data) <= 150:
        return line
    return (data[:70] + b"..." + data[-70:]).decode(errors="ignore")


_RESERVED = re.compile(r"[{},^\s\x00-\x1f\x7f]")  # ``\s`` is ``str.isspace``


@functools.lru_cache(maxsize=1024)
def _is_vertex_name(name: str) -> bool:
    """The verdict of :func:`check_vertex_name` on the string ``name``,
    kept per distinct name: graphs are built over the same few names."""
    return (
        bool(name)
        and not _RESERVED.search(name)
        and not name.endswith(("_bar", "-"))
        and "--" not in name
    )


def check_vertex_name(name) -> None:
    """Reject a name that could collide with a generated generator.

    Hub and chain generators are named ``x_{u,v}`` and ``d_{u,v,i}``,
    the link writes the tail of generator g as ``g_bar``, words write
    its inverse as ``g^-1``, output separates names by spaces and JSON
    keys an edge ``u--v``, so a vertex name must be a non-empty string
    without braces, commas, ``^``, ``--``, whitespace or control
    characters (C0 and DEL, which output would print raw) that does not
    end in ``_bar`` or ``-``: then every key splits at its first ``--``.
    """
    if not isinstance(name, str) or not _is_vertex_name(name):
        raise ValueError(
            f"vertex name {shown(name)} must be a non-empty string without braces, "
            f"',', '^', '--', whitespace or control characters, not ending in "
            f"'_bar' or '-'"
        )


class Orientation(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"
    UNORIENTED = "unoriented"
    WILDCARD = "wildcard"


# Γ-file shorthand used by the text format.
ORIENTATION_SYMBOLS = {
    ">": Orientation.FORWARD,
    "<": Orientation.BACKWARD,
    ".": Orientation.UNORIENTED,
    "?": Orientation.WILDCARD,
}


# An orientation read from the other end (``.get(o, o)``): FORWARD and BACKWARD swap.
_REVERSED = {
    Orientation.FORWARD: Orientation.BACKWARD,
    Orientation.BACKWARD: Orientation.FORWARD,
}


class _NoDirection:
    """The ``tail`` and ``head`` of an unoriented edge: a read raises."""

    def __get__(self, edge, owner=None):
        if edge is None:
            return self
        raise UnorientedEdgeError(f"edge {shown(edge.key)} has no direction")


@dataclass(frozen=True, init=False)
class GammaEdge:
    """An edge of a defining graph, stored with u < v lexicographically.

    ``orientation`` is an :class:`Orientation` or its value, read on the
    pair as given.  The constructor checks its arguments, swaps the ends
    (and FORWARD with BACKWARD) so that u < v and sets each attribute
    once: the four fields, ``key`` (the pair (u, v)) and, on an oriented
    or wildcard edge, ``tail`` and ``head``; on an unoriented edge every
    read of those raises :class:`UnorientedEdgeError`.  ``hub_chain`` is
    derived on first read and cached.  Equality, hashing, repr and
    pickling (through the constructor) read the four fields only.
    """

    u: str
    v: str
    label: int
    orientation: Orientation
    tail = head = _NoDirection()  # hidden by the ends the constructor sets

    def __init__(self, u, v, label, orientation=Orientation.UNORIENTED):
        if u == v:
            raise ValueError(f"loop edge at {shown(u)} not allowed")
        if not isinstance(label, int) or label < 2:
            raise ValueError(f"edge label must be an integer >= 2, got {shown(label)}")
        try:
            o = Orientation(orientation)
        except ValueError:
            raise ValueError(cut_line(
                f"edge {shown((u, v))} orientation must be one of "
                f"{', '.join(Orientation)}, got {shown(orientation)}"
            )) from None
        if u > v:
            u, v, o = v, u, _REVERSED.get(o, o)
        if o is Orientation.WILDCARD and label != 2:
            raise ValueError(
                f"wildcard orientation requires label 2 on edge {shown((u, v))}"
            )
        d = self.__dict__  # frozen fields are set through the dict
        d.update(u=u, v=v, label=label, orientation=o, key=(u, v))
        # tail starts the preserved length-2 subword; a wildcard (label-2)
        # edge reads both ways in the link, so any fixed choice gives the
        # same presentation: the lexicographically smaller end
        if o is Orientation.BACKWARD:
            d.update(tail=v, head=u)
        elif o is not Orientation.UNORIENTED:
            d.update(tail=u, head=v)

    def __reduce__(self):
        return GammaEdge, (self.u, self.v, self.label, self.orientation)

    @property
    def is_oriented(self) -> bool:
        return self.orientation in (Orientation.FORWARD, Orientation.BACKWARD)

    @functools.cached_property
    def hub_chain(self) -> tuple[tuple[str, ...], HubRecord]:
        """The generators (hub, d3..dm) and the ``HubRecord`` that
        :func:`build_triangular` adds for this edge.  Graphs that share
        the edge share its chain, which is freed with the edge."""
        tail, head, m = self.tail, self.head, self.label
        hub = hub_name(tail, head)
        chain = [chain_name(tail, head, i) for i in range(3, m + 1)]
        return (hub, *chain), HubRecord(hub, (tail, head, *chain), m, (tail, head))

    def reversed(self) -> "GammaEdge":
        o = self.orientation
        return GammaEdge(self.u, self.v, self.label, _REVERSED.get(o, o))


def _make_edge(item) -> GammaEdge:
    if isinstance(item, GammaEdge):
        return item
    u, v, label, *rest = item
    orientation = rest[0] if rest else Orientation.UNORIENTED
    if isinstance(orientation, str):
        orientation = ORIENTATION_SYMBOLS.get(orientation, orientation)
    return GammaEdge(u, v, label, orientation)


@dataclass(init=False, repr=False)
class DefiningGraph:
    """A simple labelled graph, optionally oriented, defining an Artin group.

    Treat instances as immutable; mutating helpers return new graphs.
    """

    vertices: tuple[str, ...]
    edges: tuple[GammaEdge, ...]
    rotations: dict[str, tuple[str, ...]] | None

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable = (),
        rotations: Mapping[str, Iterable[str]] | None = None,
    ):
        self.vertices = tuple(vertices)
        for v in self.vertices:
            check_vertex_name(v)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        norm = sorted(map(_make_edge, edges), key=attrgetter("key"))
        self.edges = tuple(norm)
        # key -> position in ``edges``: the one edge lookup, kept by with_edges
        self._index: dict[tuple[str, str], int] = {}
        # v -> {w: (position, +1 if v < w else -1)}, the step from v to w;
        # sorted keys give each vertex its neighbours in ascending order
        step: dict[str, dict[str, tuple[int, int]]] = {v: {} for v in self.vertices}
        for i, e in enumerate(self.edges):
            if e.u not in step or e.v not in step:
                raise GraphItemError(
                    e.key, f"edge {shown(e.key)} uses undeclared vertices"
                )
            if e.key in self._index:
                raise GraphItemError(
                    e.key, f"multiple edges between {shown(e.u)} and {shown(e.v)}"
                )
            self._index[e.key] = i
            step[e.u][e.v] = i, 1
            step[e.v][e.u] = i, -1
        self._step = step
        self._adj = {v: tuple(ns) for v, ns in step.items()}
        self.rotations = None  # no embedding: never an empty table
        if rotations:
            rot = {v: tuple(order) for v, order in rotations.items()}
            for v, order in rot.items():
                if v not in self._adj:
                    raise GraphItemError(v, f"rotation at undeclared vertex {shown(v)}")
                if sorted(order) != sorted(self._adj[v]):
                    raise GraphItemError(
                        v, f"rotation at {shown(v)} must list its neighbours exactly"
                    )
            self.rotations = rot

    def edge(self, u: str, v: str) -> GammaEdge:
        key = (u, v) if u < v else (v, u)
        return self.edges[self._index[key]]

    def has_edge(self, u: str, v: str) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._index

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def unoriented_edges(self) -> tuple[GammaEdge, ...]:
        return tuple(
            e for e in self.edges if e.orientation == Orientation.UNORIENTED
        )

    def is_triangle_free(self) -> bool:
        return not self.triangles()

    def triangles(self) -> list[tuple[str, str, str]]:
        """Triangles as sorted vertex triples (u, v, w), in sorted order:
        the walks kept on the graph, or else compiled up to the first
        4-cycle."""
        walks = vars(self).get("walks") or self.iter_walks()
        return [cycle for cycle, _ in takewhile(lambda pair: len(pair[0]) == 3, walks)]

    def four_cycles(self) -> list[tuple[str, str, str, str]]:
        """Embedded 4-cycles as vertex sequences, each once, in sorted order.

        Canonical form (v0,v1,v2,v3): v0 is the least vertex and v1 < v3.
        """
        return [cycle for cycle, _ in self.iter_walks() if len(cycle) == 4]

    def iter_walks(self):
        """Each triangle, then each 4-cycle, in sorted order, with its
        closed walk as (edge index, sign) steps, +1 where the walk runs
        u -> v along ``edges[index]``: each step read from the step map
        as the cycle is listed, the 4-cycles only once the triangles run
        out.  A triangle is (u, v, w) with u < v < w; a 4-cycle starts at
        its least vertex, v0, and v1 < v3."""
        step = self._step
        ordered = sorted(step.items())
        for u, at_u in ordered:
            for v, uv in at_u.items():
                if v > u:
                    for w, vw in step[v].items():
                        if w > v and w in at_u:
                            yield (u, v, w), (uv, vw, step[w][u])
        for v0, at0 in ordered:
            for v1, s01 in at0.items():
                if v1 > v0:
                    for v2, s12 in step[v1].items():
                        if v2 > v0:
                            for v3, s23 in step[v2].items():
                                if v3 > v1 and v3 in at0:
                                    yield (v0, v1, v2, v3), (s01, s12, s23, step[v3][v0])

    @functools.cached_property
    def walks(self) -> list:
        """:meth:`iter_walks` read once per graph, shared by :meth:`with_edges`."""
        return list(self.iter_walks())

    def with_edges(self, edges: Iterable[GammaEdge]) -> "DefiningGraph":
        """This graph with ``edges`` on the same keys in place of its own;
        sorted by key, each edge keeps its position, so the key index, the
        step map, vertices, adjacency, rotations and :attr:`walks` are
        shared."""
        g = copy.copy(self)
        g.edges = tuple(sorted(edges, key=attrgetter("key")))
        if [e.key for e in g.edges] != list(self._index):
            raise ValueError("with_edges needs edges on exactly the graph's own keys")
        return g

    def reversed(self) -> "DefiningGraph":
        return self.with_edges(e.reversed() for e in self.edges)

    def __repr__(self) -> str:
        return f"DefiningGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(init=False, repr=False)
class OrientationAssignment:
    """A chosen direction for some set of edges.

    Directions are keyed by the normalized edge pair (u, v) with u < v
    and take the values ``"forward"`` (u -> v) or ``"backward"``.
    """

    directions: dict[tuple[str, str], str]

    def __init__(self, directions: Mapping[tuple[str, str], str] = ()):
        items = dict(directions)
        for key, d in items.items():
            if d not in ("forward", "backward"):
                raise ValueError(f"direction for {shown(key)} must be forward/backward")
            if key[0] > key[1]:
                raise ValueError(f"edge key {shown(key)} must be ordered u < v")
        self.directions = dict(sorted(items.items()))

    def __len__(self) -> int:
        return len(self.directions)

    def arrows(self) -> dict[tuple[str, str], str]:
        """Each edge's direction written ``tail->head``, keyed by (u, v)."""
        return {
            (u, v): f"{u}->{v}" if d == "forward" else f"{v}->{u}"
            for (u, v), d in self.directions.items()
        }

    def to_json_dict(self) -> dict[str, str]:
        return {f"{u}--{v}": arrow for (u, v), arrow in self.arrows().items()}

    def __repr__(self) -> str:
        return f"OrientationAssignment({self.directions!r})"


def resolve_orientations(
    gamma: DefiningGraph, assignment: OrientationAssignment | Mapping
) -> DefiningGraph:
    """Apply directions to the unoriented edges of ``gamma``.

    The assignment must cover every unoriented edge and nothing else;
    wildcard edges stay wildcard.
    """
    if not isinstance(assignment, OrientationAssignment):
        assignment = OrientationAssignment(assignment)
    todo = {e.key for e in gamma.unoriented_edges()}
    given = set(assignment.directions)
    missing, extra = sorted(todo - given), sorted(given - todo)
    if missing or extra:
        keys = missing or extra
        listed = [shown(key) for key in keys[:3]]  # at most 3, in 120 bytes
        while len(", ".join(listed).encode()) > 120 and len(listed) > 1:
            listed.pop()
        more = f", ... ({len(keys)} edges)" if len(listed) < len(keys) else ""
        fault = "no direction for" if missing else "assignment covers non-unoriented"
        raise IncompleteAssignmentError(f"{fault} edges: {', '.join(listed)}{more}")
    edges = list(gamma.edges)
    for key, d in assignment.directions.items():
        i = gamma._index[key]
        edges[i] = GammaEdge(*key, edges[i].label, d)
    return gamma.with_edges(edges)


class HubRecord(NamedTuple):
    """The relation chain introduced for one edge of the defining graph."""

    hub: str
    cycle: tuple[str, ...]  # (tail, head, d3, ..., dm)
    label: int
    edge: tuple[str, str]  # (tail, head)


class Presentation:
    """Generators plus relators as cyclic words.

    A triangular presentation is made by :meth:`from_cells`: it holds
    its 2-cells as integer triples in ``cells`` and its ``hub_records``,
    which say which generators are hubs (the set ``hubs``) and which
    are chain fillers, and it builds ``relators`` from the cells on
    first read.  Any other presentation has ``cells`` ``None`` and no
    hub records.
    """

    cells: tuple[tuple[int, int, int], ...] | None = None
    hub_records: tuple[HubRecord, ...] = ()
    hubs: frozenset[str] = frozenset()

    def __init__(self, generators: Iterable[str], relators: Iterable[CyclicWord]):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        self.relators = tuple(relators)
        gen_set = set(self.generators)
        for r in self.relators:
            if len(r) == 0:
                raise ValueError("empty relator")
            for lt in r.letters:
                if lt.gen not in gen_set:
                    raise ValueError(f"relator uses undeclared generator {lt.gen!r}")

    @classmethod
    def from_cells(
        cls,
        generators: Iterable[str],
        cells: Iterable[tuple[int, int, int]],
        hub_records: Iterable[HubRecord],
    ) -> "Presentation":
        """A triangular presentation given by its 2-cells and hub records.

        Each cell is a (hub, left, right) triple of positions in
        ``generators`` and stands for the relator h^-1 u v.  The hub
        must differ from left and right, so that the relator is
        cyclically reduced; ``ValueError`` otherwise, as for an
        undeclared generator or a duplicate generator name.
        """
        p = cls.__new__(cls)
        p.generators = tuple(generators)
        if len(set(p.generators)) != len(p.generators):
            raise ValueError("duplicate generator names")
        p.cells = tuple(cells)
        used = set().union(*p.cells)
        if used and (min(used) < 0 or max(used) >= len(p.generators)):
            bad = min(used) if min(used) < 0 else max(used)
            raise ValueError(f"relator uses undeclared generator id {bad}")
        if any(h == u or h == v for h, u, v in p.cells):
            raise ValueError("a relator h^-1 u v must have h distinct from u, v")
        p.hub_records = tuple(hub_records)
        p.hubs = frozenset(rec.hub for rec in p.hub_records)
        return p

    @functools.cached_property
    def relators(self) -> tuple[CyclicWord, ...]:
        gens = self.generators
        return tuple(
            CyclicWord._from_cyclically_reduced(
                (Letter(gens[h], -1), Letter(gens[u], 1), Letter(gens[v], 1))
            )
            for h, u, v in self.cells
        )

    # cached: hub_records is set once, before it is read
    @functools.cached_property
    def special_generators(self) -> frozenset[str]:
        """Generators that are vertices of the defining graph."""
        fillers = {g for rec in self.hub_records for g in rec.cycle[2:]}
        return frozenset(self.generators) - self.hubs - fillers

    def rename(self, mapping: Mapping[str, str]) -> "Presentation":
        """Rename the generators of a triangular presentation; names
        absent from the mapping are kept.  The cells stay as they are,
        and a renaming that collides two names raises ``ValueError``,
        as does a presentation without cells.
        """
        if self.cells is None:
            raise ValueError("only a triangular presentation can be renamed")
        table = {g: mapping.get(g, g) for g in self.generators}
        recs = (
            HubRecord(
                table[rec.hub],
                tuple(table[g] for g in rec.cycle),
                rec.label,
                (table[rec.edge[0]], table[rec.edge[1]]),
            )
            for rec in self.hub_records
        )
        return Presentation.from_cells(table.values(), self.cells, recs)

    def to_text(self) -> str:
        lines = [f"gen: {g}" for g in self.generators]
        lines += [f"rel: {r}" for r in self.relators]
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        count = len(self.relators if self.cells is None else self.cells)
        return f"Presentation({len(self.generators)} generators, {count} relators)"


def alternating_word(a: str, b: str, m: int) -> FreeWord:
    """(a,b)_m: the word a b a b ... with exactly m letters."""
    if m < 1:
        raise ValueError("alternating word needs m >= 1")
    return FreeWord(Letter(a if i % 2 == 0 else b, 1) for i in range(m))


def build_standard(gamma: DefiningGraph) -> Presentation:
    """The standard Artin presentation: one relator (u,v)_m ((v,u)_m)^-1 per edge."""
    relators = [
        CyclicWord(
            alternating_word(e.u, e.v, e.label)
            * alternating_word(e.v, e.u, e.label).inverse()
        )
        for e in gamma.edges
    ]
    return Presentation(gamma.vertices, relators)


def hub_name(tail: str, head: str) -> str:
    return f"x_{{{tail},{head}}}"


def chain_name(tail: str, head: str, i: int) -> str:
    return f"d_{{{tail},{head},{i}}}"


# The most generators build_triangular creates, checked before it
# builds anything.  The (200, 200, 200) triangle has 600.  Certifying
# one edge takes time about linear in its label: 0.8 s at the cap on a
# 2-core x86-64 host, and 1-1.5 s at 50,000.  tests/test_curvature.py
# holds one edge at the cap under 2 s, so the cap keeps a margin of two
# for a loaded host.
MAX_GENERATORS = 30_000


def build_triangular(gamma: DefiningGraph) -> Presentation:
    """Rewrite every edge relation into a chain of length-3 relators.

    For an edge tail -> head labelled m this introduces a hub h and
    fresh generators d3..dm and emits the m relators
    h^-1 (tail)(head), h^-1 (head)d3, h^-1 d3 d4, ..., h^-1 dm (tail),
    each as a 2-cell, with the chain of ``GammaEdge.hub_chain``.  Raises
    :class:`UnorientedEdgeError` for non-wildcard edges without a
    direction, and :class:`TooManyGeneratorsError`, before building
    anything, when the generators would number over ``MAX_GENERATORS``.
    """
    # the vertices, and per edge its hub and m - 2 chain generators
    count = len(gamma.vertices) + sum(e.label - 1 for e in gamma.edges)
    if count > MAX_GENERATORS:
        raise TooManyGeneratorsError(
            f"the triangular presentation would have {shown(count)} generators, "
            f"over the limit of {MAX_GENERATORS}"
        )
    gens = list(gamma.vertices)
    vertex_id = {v: i for i, v in enumerate(gens)}
    cells: list[tuple[int, int, int]] = []
    records: list[HubRecord] = []
    for e in gamma.edges:
        added, record = e.hub_chain
        m, h = e.label, len(gens)
        ids = (vertex_id[e.tail], vertex_id[e.head], *range(h + 1, h + m - 1))
        gens += added
        records.append(record)
        cells += ((h, ids[i], ids[(i + 1) % m]) for i in range(m))
    return Presentation.from_cells(gens, cells, records)


def _power(gen: str, k: int) -> FreeWord:
    return FreeWord([(gen, 1)]) ** k


def build_two_generator_family(
    m: int,
) -> tuple[Presentation, Presentation, Presentation]:
    """The three presentations of the two-generator Artin group of label m.

    Returns (G, H, I): the standard alternating presentation, the
    one-relator hub presentation (whose shape depends on the parity of
    m), and the triangular presentation with relators x = a1 a2,
    x = a2 a3, ..., x = a_m a1: ``build_triangular`` on the edge
    a1 -> a2, its hub renamed x and its chain a3..am.
    """
    if m < 2:
        raise ValueError("label must be at least 2")
    a1, a2, x = "a1", "a2", "x"
    edge = DefiningGraph((a1, a2), [(a1, a2, m, Orientation.FORWARD)])
    g = build_standard(edge)

    k = m // 2
    if m % 2 == 0:
        # x^k a1 = a1 x^k
        h_word = _power(x, k) * FreeWord([(a1, 1)]) * (
            FreeWord([(a1, 1)]) * _power(x, k)
        ).inverse()
    else:
        # x^(k+1) = a1 x^k a1
        h_word = _power(x, k + 1) * (
            FreeWord([(a1, 1)]) * _power(x, k) * FreeWord([(a1, 1)])
        ).inverse()
    h_rel = CyclicWord(h_word)
    h = Presentation((x, a1), (h_rel,))

    tri = build_triangular(edge)
    (rec,) = tri.hub_records
    names = {d: f"a{i}" for i, d in enumerate(rec.cycle[2:], start=3)}
    return g, h, tri.rename(names | {rec.hub: x})


@dataclass(frozen=True)
class TietzeReport:
    """Outcome of replaying the two rewriting directions for one label."""

    m: int
    substitution_ok: bool
    chain_ok: bool
    traces: tuple[str, ...] = field(repr=False)

    @property
    def ok(self) -> bool:
        return self.substitution_ok and self.chain_ok


def verify_tietze_equivalence(m: int) -> TietzeReport:
    """Mechanically confirm that G_m, H_m and I_m present the same group.

    Direction one substitutes x -> a1 a2 into the one-relator
    presentation and checks the cyclic reduction is the standard
    relator up to rotation and inversion.  Direction two composes the
    cells of I_m in order, each cell h^-1 u v eliminating v = u^-1 h,
    and checks what the last cell closes to against the one-relator
    form the same way.
    """
    g, h, i_pres = build_two_generator_family(m)
    g_rel, h_rel = g.relators[0], h.relators[0]
    traces = []

    ab = FreeWord([("a1", 1), ("a2", 1)])
    substituted = FreeWord(h_rel.letters).substitute("x", ab)
    traces.append(f"H relator: {h_rel}")
    traces.append(f"substitute x -> a1 a2: {substituted}")
    reduced = CyclicWord(substituted)
    traces.append(f"cyclically reduced: {reduced}")
    traces.append(f"G relator: {g_rel}")
    substitution_ok = reduced in (g_rel, g_rel.inverse())

    expr = {w: FreeWord([(w, 1)]) for w in ("x", "a1")}  # each a_i over {x, a1}
    traces.append("a1 = a1")
    *cells, closing = [[i_pres.generators[i] for i in c] for c in i_pres.cells]
    for hub, u, v in cells:
        expr[v] = (expr[u].inverse() * expr[hub]).reduce()
        traces.append(f"{v} = {expr[v]}")
    hub, u, v = closing
    composed = (expr[hub].inverse() * expr[u] * expr[v]).reduce()
    traces.append(f"{hub}^-1 {u} {v} = {composed}")
    chain = CyclicWord(composed)
    chain_ok = chain in (h_rel, h_rel.inverse())

    return TietzeReport(m, substitution_ok, chain_ok, tuple(traces))


def triangle_graph(m: int, n: int, p: int) -> DefiningGraph:
    """The directed triangle a -> b -> c -> a with labels m, n, p.

    Label-2 edges are stored as wildcards, since a commutation chain
    reads the same both ways.
    """

    def orient(u, v, label):
        # FORWARD is relative to the (u, v) order given here; GammaEdge
        # renormalizes to u < v and flips the flag as needed.
        if label == 2:
            return (u, v, label, Orientation.WILDCARD)
        return (u, v, label, Orientation.FORWARD)

    return DefiningGraph(
        ("a", "b", "c"),
        [orient("a", "b", m), orient("b", "c", n), orient("c", "a", p)],
    )


def triangle_presentation(m: int, n: int, p: int) -> Presentation:
    """The triangular presentation of the (m,n,p) triangle with the classic
    generator names x, y, z for hubs and d/e/f for the chains; its hub
    records are ``hub_records``."""
    pres = build_triangular(triangle_graph(m, n, p))
    letters = {
        frozenset("ab"): ("x", "d"),
        frozenset("bc"): ("y", "e"),
        frozenset("ca"): ("z", "f"),
    }
    mapping: dict[str, str] = {}
    for rec in pres.hub_records:
        hub_letter, chain_letter = letters[frozenset(rec.edge)]
        mapping[rec.hub] = hub_letter
        for i, g in enumerate(rec.cycle[2:], start=3):
            mapping[g] = f"{chain_letter}{i}"
    return pres.rename(mapping)
