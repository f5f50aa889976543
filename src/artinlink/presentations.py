"""Defining graphs and the group presentations built from them.

A defining graph has one vertex per standard generator and one edge per
braid relation; the edge label m >= 2 encodes the relation
(a,b)_m = (b,a)_m, where (a,b)_m alternates a,b for m letters.

``build_standard`` emits those alternating relators directly.
``build_triangular`` instead rewrites each edge relation into a chain
of m length-3 relators h = a1 a2, h = a2 a3, ..., h = a_m a1 around a
fresh hub generator h, with a1 = tail and a2 = head of the (oriented)
edge.  The two presentations define the same group, and
``verify_tietze_equivalence`` replays the rewriting symbolically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

from .words import CyclicWord, FreeWord, Letter


class UnorientedEdgeError(ValueError):
    """An operation needed a direction on an edge that has none."""


class TooManyGeneratorsError(ValueError):
    """A triangular presentation would exceed ``MAX_GENERATORS``."""


class IncompleteAssignmentError(ValueError):
    """An orientation assignment misses or mismatches edges."""


class EdgeError(ValueError):
    """A defining graph cannot hold this edge; ``key`` is its (u, v) pair."""

    def __init__(self, key: tuple[str, str], message: str):
        super().__init__(message)
        self.key = key


class RotationError(ValueError):
    """A rotation entry does not fit the graph; ``vertex`` is its vertex."""

    def __init__(self, vertex: str, message: str):
        super().__init__(message)
        self.vertex = vertex


def check_vertex_name(name) -> None:
    """Reject a name that could collide with a generated generator.

    Hub and chain generators are named ``x_{u,v}`` and ``d_{u,v,i}``,
    so a vertex name must be a non-empty string without braces or
    commas.
    """
    if not isinstance(name, str) or not name or any(c in name for c in "{},"):
        raise ValueError(
            f"vertex name {name!r} must be a non-empty string without "
            f"'{{', '}}' or ','"
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


@dataclass(frozen=True)
class GammaEdge:
    """An edge of a defining graph, stored with u < v lexicographically."""

    u: str
    v: str
    label: int
    orientation: Orientation = Orientation.UNORIENTED

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"loop edge at {self.u!r} not allowed")
        if not isinstance(self.label, int) or self.label < 2:
            raise ValueError(f"edge label must be an integer >= 2, got {self.label!r}")
        if self.u > self.v:
            u, v = self.v, self.u
            flipped = {
                Orientation.FORWARD: Orientation.BACKWARD,
                Orientation.BACKWARD: Orientation.FORWARD,
            }.get(self.orientation, self.orientation)
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)
            object.__setattr__(self, "orientation", flipped)
        if self.orientation == Orientation.WILDCARD and self.label != 2:
            raise ValueError(
                f"wildcard orientation requires label 2 on edge {self.key}"
            )

    @property
    def key(self) -> tuple[str, str]:
        return (self.u, self.v)

    @property
    def is_oriented(self) -> bool:
        return self.orientation in (Orientation.FORWARD, Orientation.BACKWARD)

    @property
    def tail(self) -> str:
        """Start of the preserved length-2 subword.

        A wildcard (label-2) edge reads both ways in the link, so any
        fixed choice gives the same presentation; we take the
        lexicographically smaller endpoint.
        """
        if self.orientation == Orientation.FORWARD:
            return self.u
        if self.orientation == Orientation.BACKWARD:
            return self.v
        if self.orientation == Orientation.WILDCARD:
            return self.u
        raise UnorientedEdgeError(f"edge {self.key} has no direction")

    @property
    def head(self) -> str:
        return self.v if self.tail == self.u else self.u

    def reversed(self) -> "GammaEdge":
        flipped = {
            Orientation.FORWARD: Orientation.BACKWARD,
            Orientation.BACKWARD: Orientation.FORWARD,
        }.get(self.orientation, self.orientation)
        return GammaEdge(self.u, self.v, self.label, flipped)


def _make_edge(item) -> GammaEdge:
    if isinstance(item, GammaEdge):
        return item
    u, v, label, *rest = item
    orientation = rest[0] if rest else Orientation.UNORIENTED
    if isinstance(orientation, str) and not isinstance(orientation, Orientation):
        orientation = (
            ORIENTATION_SYMBOLS[orientation]
            if orientation in ORIENTATION_SYMBOLS
            else Orientation(orientation)
        )
    return GammaEdge(u, v, label, orientation)


class DefiningGraph:
    """A simple labelled graph, optionally oriented, defining an Artin group.

    Treat instances as immutable; mutating helpers return new graphs.
    """

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
        norm = sorted((_make_edge(e) for e in edges), key=lambda e: e.key)
        self.edges = tuple(norm)
        self._by_key: dict[tuple[str, str], GammaEdge] = {}
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.u not in adj or e.v not in adj:
                raise EdgeError(e.key, f"edge {e.key} uses undeclared vertices")
            if e.key in self._by_key:
                raise EdgeError(e.key, f"multiple edges between {e.u!r} and {e.v!r}")
            self._by_key[e.key] = e
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self.rotations = None
        if rotations is not None:
            rot = {v: tuple(order) for v, order in rotations.items()}
            for v, order in rot.items():
                if v not in self.vertices:
                    raise RotationError(v, f"rotation at undeclared vertex {v!r}")
                if sorted(order) != sorted(self._adj[v]):
                    raise RotationError(
                        v, f"rotation at {v!r} must list its neighbours exactly"
                    )
            self.rotations = rot

    def edge(self, u: str, v: str) -> GammaEdge:
        key = (u, v) if u < v else (v, u)
        return self._by_key[key]

    def has_edge(self, u: str, v: str) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._by_key

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(e.label for e in self.edges)

    def unoriented_edges(self) -> tuple[GammaEdge, ...]:
        return tuple(
            e for e in self.edges if e.orientation == Orientation.UNORIENTED
        )

    def is_triangle_free(self) -> bool:
        return not self.triangles()

    def triangles(self) -> list[tuple[str, str, str]]:
        """Triangles as sorted vertex triples (u, v, w), in sorted order."""
        adj = self._adj
        return [
            (u, v, w)
            for u, v in self._by_key
            for w in adj[v]
            if w > v and (u, w) in self._by_key
        ]

    def four_cycles(self) -> list[tuple[str, str, str, str]]:
        """Embedded 4-cycles as vertex sequences (v0,v1,v2,v3), each once.

        Canonical form: v0 is the least vertex and v1 < v3.
        """
        adj = self._adj
        out = [
            (v0, v1, v2, v3)
            for v0 in self.vertices
            for v1 in adj[v0]
            if v1 > v0
            for v2 in adj[v1]
            if v2 > v0
            for v3 in adj[v2]
            if v3 > v1 and (v0, v3) in self._by_key
        ]
        return sorted(out)

    def with_edges(self, edges: Iterable[GammaEdge]) -> "DefiningGraph":
        return DefiningGraph(self.vertices, edges, self.rotations)

    def reversed(self) -> "DefiningGraph":
        return self.with_edges(e.reversed() for e in self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DefiningGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.rotations == other.rotations
        )

    def __repr__(self) -> str:
        return f"DefiningGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


class OrientationAssignment:
    """A chosen direction for some set of edges.

    Directions are keyed by the normalized edge pair (u, v) with u < v
    and take the values ``"forward"`` (u -> v) or ``"backward"``.
    """

    def __init__(self, directions: Mapping[tuple[str, str], str] = ()):
        items = dict(directions)
        for key, d in items.items():
            if d not in ("forward", "backward"):
                raise ValueError(f"direction for {key} must be forward/backward")
            if key[0] > key[1]:
                raise ValueError(f"edge key {key} must be ordered u < v")
        self.directions = dict(sorted(items.items()))

    def __len__(self) -> int:
        return len(self.directions)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrientationAssignment)
            and self.directions == other.directions
        )

    def items(self):
        return self.directions.items()

    def to_json_dict(self) -> dict[str, str]:
        return {
            f"{u}--{v}": (f"{u}->{v}" if d == "forward" else f"{v}->{u}")
            for (u, v), d in self.directions.items()
        }

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
    if todo - given:
        missing = ", ".join(map(str, sorted(todo - given)))
        raise IncompleteAssignmentError(f"no direction for edges: {missing}")
    if given - todo:
        extra = ", ".join(map(str, sorted(given - todo)))
        raise IncompleteAssignmentError(
            f"assignment covers non-unoriented edges: {extra}"
        )
    new_edges = []
    for e in gamma.edges:
        if e.key in assignment.directions:
            d = assignment.directions[e.key]
            o = Orientation.FORWARD if d == "forward" else Orientation.BACKWARD
            new_edges.append(GammaEdge(e.u, e.v, e.label, o))
        else:
            new_edges.append(e)
    return gamma.with_edges(new_edges)


class HubRecord(NamedTuple):
    """The relation chain introduced for one edge of the defining graph."""

    hub: str
    cycle: tuple[str, ...]  # (tail, head, d3, ..., dm)
    label: int
    edge: tuple[str, str]  # (tail, head)


class Presentation:
    """Generators plus relators as cyclic words.

    ``provenance`` maps each relator to its source (edge key and
    position in the relation chain); ``hub_records`` is non-empty
    exactly for triangular presentations, where it remembers which
    generators are hubs and which are chain fillers.  A presentation
    made by :meth:`from_cells` also keeps its 2-cells as integer
    triples in ``cells`` (``None`` otherwise) and builds ``relators``
    and ``provenance`` from them on first read.
    """

    cells: tuple[tuple[int, int, int], ...] | None = None

    def __init__(
        self,
        generators: Iterable[str],
        relators: Iterable[CyclicWord],
        provenance: Mapping[CyclicWord, tuple] | None = None,
        hub_records: Iterable[HubRecord] = (),
    ):
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
        self.provenance = dict(provenance or {})
        self.hub_records = tuple(hub_records)

    @classmethod
    def from_cells(
        cls,
        generators: Iterable[str],
        cells: Iterable[tuple[int, int, int]],
        sources: Iterable[tuple],
        hub_records: Iterable[HubRecord],
    ) -> "Presentation":
        """A triangular presentation given by its 2-cells.

        Each cell is a (hub, left, right) triple of positions in
        ``generators`` and stands for the relator h^-1 u v, whose
        provenance is the matching entry of ``sources``.  The hub must
        differ from left and right, so that the relator is cyclically
        reduced; ``ValueError`` otherwise, as for an undeclared
        generator.
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
        p._sources = tuple(sources)
        p.hub_records = tuple(hub_records)
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

    @functools.cached_property
    def provenance(self) -> dict[CyclicWord, tuple]:
        return dict(zip(self.relators, self._sources))

    @property
    def hubs(self) -> frozenset[str]:
        return frozenset(rec.hub for rec in self.hub_records)

    @property
    def special_generators(self) -> frozenset[str]:
        """Generators that are vertices of the defining graph."""
        fillers = {g for rec in self.hub_records for g in rec.cycle[2:]}
        return frozenset(self.generators) - self.hubs - fillers

    def rename(self, mapping: Mapping[str, str]) -> "Presentation":
        """Rename generators; names absent from the mapping are kept."""
        table = {g: mapping.get(g, g) for g in self.generators}
        if len(set(table.values())) != len(table):
            raise ValueError("renaming collides generator names")

        def map_word(cw: CyclicWord) -> CyclicWord:
            return CyclicWord(
                FreeWord(Letter(table[lt.gen], lt.exp) for lt in cw.letters)
            )

        relators = tuple(map_word(r) for r in self.relators)
        prov = {map_word(r): src for r, src in self.provenance.items()}
        recs = tuple(
            HubRecord(
                table[rec.hub],
                tuple(table[g] for g in rec.cycle),
                rec.label,
                (table[rec.edge[0]], table[rec.edge[1]]),
            )
            for rec in self.hub_records
        )
        return Presentation(
            tuple(table[g] for g in self.generators), relators, prov, recs
        )

    def to_text(self) -> str:
        lines = [f"gen: {g}" for g in self.generators]
        lines += [f"rel: {r}" for r in self.relators]
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"Presentation({len(self.generators)} generators, "
            f"{len(self.relators)} relators)"
        )


def alternating_word(a: str, b: str, m: int) -> FreeWord:
    """(a,b)_m: the word a b a b ... with exactly m letters."""
    if m < 1:
        raise ValueError("alternating word needs m >= 1")
    return FreeWord(Letter(a if i % 2 == 0 else b, 1) for i in range(m))


def build_standard(gamma: DefiningGraph) -> Presentation:
    """The standard Artin presentation: one relator (u,v)_m ((v,u)_m)^-1 per edge."""
    relators = []
    prov = {}
    for e in gamma.edges:
        w = alternating_word(e.u, e.v, e.label) * alternating_word(
            e.v, e.u, e.label
        ).inverse()
        r = CyclicWord(w)
        relators.append(r)
        prov[r] = (e.key, 0)
    return Presentation(gamma.vertices, relators, prov)


def hub_name(tail: str, head: str) -> str:
    return f"x_{{{tail},{head}}}"


def chain_name(tail: str, head: str, i: int) -> str:
    return f"d_{{{tail},{head},{i}}}"


# The most generators build_triangular creates, checked before it
# builds anything.  The (200, 200, 200) triangle has 600.  The girth
# search is quadratic in the length of one edge's hub cycle, so a
# single edge at the cap takes about 16 s to certify.
MAX_GENERATORS = 5_000


def build_triangular(
    gamma: DefiningGraph,
) -> tuple[Presentation, tuple[HubRecord, ...]]:
    """Rewrite every edge relation into a chain of length-3 relators.

    For an edge tail -> head labelled m this introduces a hub h and
    fresh generators d3..dm and emits the m relators
    h^-1 (tail)(head), h^-1 (head)d3, h^-1 d3 d4, ..., h^-1 dm (tail).
    The presentation keeps each relator as a 2-cell, the integer
    triple (h, u, v) of generator positions (see
    :meth:`Presentation.from_cells`).  Raises
    :class:`UnorientedEdgeError` for non-wildcard edges without a
    direction, and :class:`TooManyGeneratorsError`, before building
    anything, when the generators would number over ``MAX_GENERATORS``.
    """
    # the vertices, and per edge its hub and m - 2 chain generators
    count = len(gamma.vertices) + sum(e.label - 1 for e in gamma.edges)
    if count > MAX_GENERATORS:
        raise TooManyGeneratorsError(
            f"the triangular presentation would have {count} generators, "
            f"over the limit of {MAX_GENERATORS}"
        )
    gens = list(gamma.vertices)
    vertex_id = {v: i for i, v in enumerate(gens)}
    cells: list[tuple[int, int, int]] = []
    sources: list[tuple] = []
    records: list[HubRecord] = []
    for e in gamma.edges:
        tail, head, m = e.tail, e.head, e.label
        hub = hub_name(tail, head)
        chain = [chain_name(tail, head, i) for i in range(3, m + 1)]
        h = len(gens)
        ids = (vertex_id[tail], vertex_id[head], *range(h + 1, h + m - 1))
        gens.append(hub)
        gens.extend(chain)
        records.append(HubRecord(hub, (tail, head, *chain), m, (tail, head)))
        key = e.key
        for i in range(m):
            cells.append((h, ids[i], ids[(i + 1) % m]))
            sources.append((key, i))
    p = Presentation.from_cells(gens, cells, sources, records)
    return p, p.hub_records


def _power(gen: str, k: int) -> FreeWord:
    return FreeWord([(gen, 1)]) ** k


def build_two_generator_family(
    m: int,
) -> tuple[Presentation, Presentation, Presentation]:
    """The three presentations of the two-generator Artin group of label m.

    Returns (G, H, I): the standard alternating presentation, the
    one-relator hub presentation (whose shape depends on the parity of
    m), and the triangular presentation with relators x = a1 a2,
    x = a2 a3, ..., x = a_m a1.
    """
    if m < 2:
        raise ValueError("label must be at least 2")
    a1, a2, x = "a1", "a2", "x"

    g_rel = CyclicWord(
        alternating_word(a1, a2, m) * alternating_word(a2, a1, m).inverse()
    )
    g = Presentation((a1, a2), (g_rel,), {g_rel: ("G", 0)})

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
    h = Presentation((x, a1), (h_rel,), {h_rel: ("H", 0)})

    chain_gens = tuple(f"a{i}" for i in range(1, m + 1))
    relators = []
    prov = {}
    for i in range(m):
        u, v = chain_gens[i], chain_gens[(i + 1) % m]
        r = CyclicWord(FreeWord([(x, -1), (u, 1), (v, 1)]))
        relators.append(r)
        prov[r] = ("I", i)
    rec = HubRecord(x, chain_gens, m, (a1, a2))
    i_pres = Presentation((x, *chain_gens), relators, prov, (rec,))
    return g, h, i_pres


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
    triangular relators in chain order, eliminating a2..am, and checks
    the result against the one-relator form the same way.
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

    x_word = FreeWord([("x", 1)])
    expr = FreeWord([("a1", 1)])  # running expression for a_i over {x, a1}
    traces.append("a1 = a1")
    for i in range(2, m + 1):
        expr = (expr.inverse() * x_word).reduce()
        traces.append(f"a{i} = {expr}")
    composed = (x_word.inverse() * expr * FreeWord([("a1", 1)])).reduce()
    traces.append(f"x^-1 a{m} a1 = {composed}")
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


def triangle_presentation(
    m: int, n: int, p: int
) -> tuple[Presentation, tuple[HubRecord, ...]]:
    """The triangular presentation of the (m,n,p) triangle with the classic
    generator names x, y, z for hubs and d/e/f for the chains."""
    pres, _ = build_triangular(triangle_graph(m, n, p))
    mapping: dict[str, str] = {}
    for (tail, head), hub_letter, chain_letter, label in (
        (("a", "b"), "x", "d", m),
        (("b", "c"), "y", "e", n),
        (("c", "a"), "z", "f", p),
    ):
        mapping[hub_name(*tail_head(tail, head, label))] = hub_letter
        for i in range(3, label + 1):
            mapping[chain_name(*tail_head(tail, head, label), i)] = (
                f"{chain_letter}{i}"
            )
    renamed = pres.rename(mapping)
    return renamed, renamed.hub_records


def tail_head(u: str, v: str, label: int) -> tuple[str, str]:
    """Tail/head of a triangle_graph edge drawn from u to v."""
    if label == 2:
        return (u, v) if u < v else (v, u)
    return (u, v)
