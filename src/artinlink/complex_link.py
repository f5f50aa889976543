"""The presentation 2-complex of a triangular presentation and its link.

The complex has a single 0-cell, one 1-cell per generator and one
triangular 2-cell per relator h^-1 u v.  The link of the 0-cell is the
graph of directions there: each 1-cell g contributes a head vertex
(written ``g``) and a tail vertex (written ``g_bar``), and each corner
of a 2-cell contributes an edge.  For consecutive boundary letters
l1 l2 the corner joins the terminal end of l1 to the initial end of l2,
which for a boundary h^-1 u v yields exactly

    bottom {h_bar, u_bar},  middle {u, v_bar},  top {v, h}.

Vertices fall into four levels: hub tails at level 1, non-hub tails at
level 2, non-hub heads at level 3 and hub heads at level 4.  Every edge
joins adjacent levels, so links are bipartite.

Both objects are integer-first.  A 2-cell is the (hub, left, right)
triple of its generators' positions, and ``build_link`` turns each
cell straight into the ids of its three corner edges; angles join that
core as integer weights.  The searches read only that core.  The named
view, a ``LinkVertex`` per vertex and a ``LinkEdge`` per edge (with its
2-cell corner as provenance, the hub of that 2-cell as its local piece,
and an optional exact angle, a Fraction in units of pi), is built on
first read.
"""

from __future__ import annotations

import copy
import functools
from collections import deque
from fractions import Fraction
from itertools import product, repeat
from math import lcm
from typing import Iterable, Mapping, NamedTuple

from .errors import InternalInconsistencyError
from .presentations import HubRecord, Presentation
from .words import Letter

HEAD = "head"
TAIL = "tail"


class NotTriangularError(ValueError):
    """The presentation is not in triangular (length-3) form."""


class VertexNotFoundError(KeyError):
    pass


class LinkVertex(NamedTuple):
    gen: str
    end: str  # HEAD or TAIL
    level: int  # 1..4
    special: bool  # arises from a vertex of the defining graph

    @property
    def bar_name(self) -> str:
        return self.gen if self.end == HEAD else f"{self.gen}_bar"

    def __str__(self) -> str:
        return self.bar_name


class TwoComplex:
    """One 0-cell, a 1-cell per generator, a triangular 2-cell per relator.

    ``cells`` holds each 2-cell as the (hub, left, right) triple of
    positions in ``one_cells``, for the boundary h^-1 u v.
    """

    def __init__(
        self, presentation: Presentation, cells: Iterable[tuple[int, int, int]]
    ):
        self.presentation = presentation
        self.cells = tuple(cells)
        self.zero_cells = 1
        self.one_cells = presentation.generators

    def __repr__(self) -> str:
        return (
            f"TwoComplex(1 zero-cell, {len(self.one_cells)} one-cells, "
            f"{len(self.cells)} two-cells)"
        )


def _hub_rotation(letters) -> tuple[Letter, Letter, Letter] | None:
    """Rotate a length-3 cyclic boundary to the form (h^-1, u, v)."""
    if len(letters) != 3:
        return None
    negs = [i for i, lt in enumerate(letters) if lt.exp == -1]
    if len(negs) != 1:
        return None
    i = negs[0]
    rotated = letters[i:] + letters[:i]
    return rotated  # (h^-1, u, v)


def _infer_hub_records(p: Presentation) -> tuple[HubRecord, ...]:
    """Reconstruct relation chains from the relators alone.

    Used for hand-built triangular presentations without provenance;
    the cycle is started at its lexicographically least generator, and
    its first two entries are then treated as the special ones.
    """
    chains: dict[str, dict[str, str]] = {}
    labels: dict[str, int] = {}
    for r in p.relators:
        rot = _hub_rotation(r.letters)
        if rot is None:
            raise NotTriangularError(f"relator {r} is not of the form h^-1 u v")
        h, u, v = rot[0].gen, rot[1].gen, rot[2].gen
        chains.setdefault(h, {})[u] = v
        labels[h] = labels.get(h, 0) + 1
    records = []
    for h in sorted(chains):
        succ = chains[h]
        with_pred = set(succ.values())
        starts = sorted(set(succ) - with_pred)
        start = starts[0] if starts else min(succ)  # open chain vs closed cycle
        cycle = [start]
        while cycle[-1] in succ:
            nxt = succ[cycle[-1]]
            if nxt == start:
                break
            cycle.append(nxt)
        if len({*cycle}) != len(cycle) or len(succ) != labels[h]:
            raise NotTriangularError(f"relators of hub {h!r} do not chain up")
        records.append(HubRecord(h, tuple(cycle), labels[h], (cycle[0], cycle[1])))
    return tuple(records)


def build_complex(p: Presentation) -> TwoComplex:
    """Glue one triangular 2-cell per relator h^-1 u v.

    A presentation from ``build_triangular`` already holds its cells
    and is used as it is.  A hand-built one is read relator by relator,
    and given inferred hub records if it has none.  Raises
    :class:`NotTriangularError` if any relator is not a length-3 word
    with exactly one inverted letter, led by a hub.
    """
    if p.cells is not None:
        return TwoComplex(p, p.cells)
    records = p.hub_records or _infer_hub_records(p)
    hubs = {rec.hub for rec in records}
    position = {g: i for i, g in enumerate(p.generators)}
    cells = []
    for r in p.relators:
        rot = _hub_rotation(r.letters)
        if rot is None or rot[0].gen not in hubs:
            raise NotTriangularError(f"relator {r} is not of the form h^-1 u v")
        cells.append(tuple(position[lt.gen] for lt in rot))
    if not p.hub_records:
        p = Presentation(p.generators, p.relators, p.provenance, records)
    return TwoComplex(p, cells)


class LinkEdge(NamedTuple):
    a: LinkVertex
    b: LinkVertex  # a < b
    kind: str  # "bottom" | "middle" | "top"
    cell: int  # index of the 2-cell
    corner: int  # 0, 1, 2 around the boundary (h^-1 u, u v, v h^-1)
    piece: str  # hub generator of the cell, i.e. the local piece
    angle: Fraction | None = None  # exact multiple of pi


BOTTOM, MIDDLE, TOP = "bottom", "middle", "top"
_KINDS = (BOTTOM, MIDDLE, TOP)  # by the lower level of the edge's ends


class LinkGraph:
    """The link of the unique 0-cell, as an undirected simple graph.

    The graph is a dense integer core: vertex ids ``0..n-1``,
    ``levels[id]``, ``ends[ei]`` holding the ids of edge ``ei`` (lower
    first) and ``nbrs[id]`` listing sorted (neighbour id, edge index)
    pairs; an angled link adds ``weight[ei]``, the angle of edge ``ei``
    in units of pi / ``angle_unit``.  The named view (``vertices``,
    ``edges``, ``index`` and ``adjacency``) is built only when read.  A
    vertex's id is its position in the sorted ``vertices`` tuple, so
    comparing ids compares vertices.

    ``LinkGraph(vertices, edges)`` builds a graph from named parts and
    refuses an edge on an unknown vertex; :func:`build_link` builds one
    from a complex's cells and refuses a cell on an unknown generator.
    Either way the core is then checked on integers: every edge joins
    adjacent levels, and no two edges join the same pair.  A named edge
    must have the kind of its lower level, and named angles, if all are
    set, become the weights.
    """

    _complex = None  # set for links built from cells
    weight: list[int] | None = None
    angle_unit = 1

    def __init__(self, vertices: Iterable[LinkVertex], edges: Iterable[LinkEdge]):
        self.vertices = tuple(sorted(set(vertices)))
        self.edges = tuple(edges)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        ends = []
        for e in self.edges:
            ia, ib = self.index.get(e.a), self.index.get(e.b)
            if ia is None or ib is None:
                raise InternalInconsistencyError(f"edge {e} uses unknown vertex")
            ends.append((ia, ib) if ia < ib else (ib, ia))
        self._set_core([v.level for v in self.vertices], ends)
        for e, (a, b) in zip(self.edges, ends):
            if _KINDS[min(self.levels[a], self.levels[b]) - 1] != e.kind:
                raise InternalInconsistencyError(f"edge {e.a}-{e.b} is not {e.kind}")
        if all(e.angle is not None for e in self.edges):
            self._set_weights([e.angle for e in self.edges])

    @classmethod
    def _of_cells(
        cls, k: TwoComplex, by_rank: list[int], levels: list[int], ends: list
    ) -> "LinkGraph":
        """The link of ``k`` from its core: vertex id 2 * r (head) and
        2 * r + 1 (tail) belong to generator ``by_rank[r]``, and edge
        3 * c + corner to corner ``corner`` of cell ``c``."""
        link = cls.__new__(cls)
        link._complex, link._by_rank = k, by_rank
        link._set_core(levels, ends)
        return link

    def _set_core(self, levels: list[int], ends: list[tuple[int, int]]) -> None:
        self.levels = levels
        nbrs: list[list[tuple[int, int]]] = [[] for _ in levels]
        for ei, (a, b) in enumerate(ends):
            if abs(levels[a] - levels[b]) != 1:
                va, vb = self.vertices[a], self.vertices[b]
                raise InternalInconsistencyError(
                    f"link edge {va}-{vb} joins levels {va.level} and {vb.level}"
                )
            nbrs[a].append((b, ei))
            nbrs[b].append((a, ei))
        edge_ids = {pair: ei for ei, pair in enumerate(ends)}
        if len(edge_ids) != len(ends):
            ei = next(ei for ei, pair in enumerate(ends) if edge_ids[pair] != ei)
            va, vb = (self.vertices[i] for i in ends[ei])
            raise InternalInconsistencyError(
                f"parallel link edge between {va} and {vb}"
            )
        for ns in nbrs:
            ns.sort()
        self.nbrs = nbrs
        self.ends = tuple(ends)
        self._edge_ids = edge_ids

    # -- the named view, for links built by build_link ---------------------

    @functools.cached_property
    def vertices(self) -> tuple[LinkVertex, ...]:
        gens = self._complex.one_cells
        special = self._complex.presentation.special_generators
        out = []
        for i, level in enumerate(self.levels):
            g = gens[self._by_rank[i // 2]]
            out.append(LinkVertex(g, TAIL if i % 2 else HEAD, level, g in special))
        return tuple(out)

    @functools.cached_property
    def edges(self) -> tuple[LinkEdge, ...]:
        w, unit = self.weight, self.angle_unit
        angles = repeat(None) if w is None else [Fraction(x, unit) for x in w]
        vs, levels = self.vertices, self.levels
        gens, cells = self._complex.one_cells, self._complex.cells
        return tuple(
            LinkEdge(
                vs[a],
                vs[b],
                _KINDS[min(levels[a], levels[b]) - 1],
                ei // 3,
                ei % 3,
                gens[cells[ei // 3][0]],
                t,
            )
            for (ei, (a, b)), t in zip(enumerate(self.ends), angles)
        )

    @functools.cached_property
    def index(self) -> dict[LinkVertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @functools.cached_property
    def adjacency(self) -> dict[LinkVertex, tuple[tuple[LinkVertex, int], ...]]:
        """Neighbours of each vertex with the joining edge index, sorted."""
        vs = self.vertices
        return {
            v: tuple((vs[nb], ei) for nb, ei in ns) for v, ns in zip(vs, self.nbrs)
        }

    # -- basic accessors -------------------------------------------------

    def degree(self, v: LinkVertex) -> int:
        return len(self.nbrs[self.index[v]])

    def has_edge(self, a: LinkVertex, b: LinkVertex) -> bool:
        return self._edge_between(a, b) is not None

    def edge_index(self, a: LinkVertex, b: LinkVertex) -> int:
        ei = self._edge_between(a, b)
        if ei is None:
            raise KeyError((a, b))
        return ei

    def _edge_between(self, a: LinkVertex, b: LinkVertex) -> int | None:
        ia, ib = self.index.get(a), self.index.get(b)
        if ia is None or ib is None:
            return None
        return self._edge_ids.get((ia, ib) if ia < ib else (ib, ia))

    def vertex(self, gen: str, end: str) -> LinkVertex:
        v = self._by_name.get((gen, end))
        if v is None:
            raise VertexNotFoundError(f"{gen}/{end}")
        return v

    @functools.cached_property
    def _by_name(self) -> dict[tuple[str, str], LinkVertex]:
        return {(v.gen, v.end): v for v in self.vertices}

    def is_middle(self, ei: int) -> bool:
        """Whether edge ``ei`` is a middle edge: its lower end is on level 2."""
        a, b = self.ends[ei]
        return min(self.levels[a], self.levels[b]) == 2

    def middle_edges(self) -> tuple[int, ...]:
        return tuple(filter(self.is_middle, range(len(self.ends))))

    # -- subgraphs -------------------------------------------------------

    def subgraph(self, edge_indices: Iterable[int]) -> "LinkGraph":
        idxs = sorted(set(edge_indices))
        edges = [self.edges[i] for i in idxs]
        vertices = {e.a for e in edges} | {e.b for e in edges}
        return LinkGraph(vertices, edges)

    def induced(self, vertices: Iterable[LinkVertex]) -> "LinkGraph":
        vs = set(vertices)
        for v in vs:
            if v not in self.index:
                raise VertexNotFoundError(str(v))
        edges = [e for e in self.edges if e.a in vs and e.b in vs]
        return LinkGraph(vs, edges)

    def middle_subgraph(self) -> "LinkGraph":
        return self.subgraph(self.middle_edges())

    def neighborhood(self, v: LinkVertex, radius: int) -> "LinkGraph":
        """Induced subgraph on vertices within edge-distance ``radius``."""
        if v not in self.index:
            raise VertexNotFoundError(str(v))
        start = self.index[v]
        dist = {start: 0}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            if dist[cur] == radius:
                continue
            for nb, _ in self.nbrs[cur]:
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    queue.append(nb)
        return self.induced(self.vertices[i] for i in dist)

    def local_pieces(self) -> dict[str, tuple[int, ...]]:
        """Edge indices grouped by the hub of their 2-cell."""
        out: dict[str, list[int]] = {}
        for i, e in enumerate(self.edges):
            out.setdefault(e.piece, []).append(i)
        return {piece: tuple(idxs) for piece, idxs in sorted(out.items())}

    def components(self) -> list[tuple[tuple[LinkVertex, ...], tuple[int, ...]]]:
        """Connected components as (sorted vertices, sorted edge indices)."""
        seen = [False] * len(self.nbrs)
        out = []
        for start in range(len(self.nbrs)):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            edge_idxs = set()
            queue = deque([start])
            while queue:
                cur = queue.popleft()
                for nb, ei in self.nbrs[cur]:
                    edge_idxs.add(ei)
                    if not seen[nb]:
                        seen[nb] = True
                        comp.append(nb)
                        queue.append(nb)
            out.append(
                (tuple(self.vertices[i] for i in sorted(comp)), tuple(sorted(edge_idxs)))
            )
        return out

    def is_forest(self) -> bool:
        return all(len(vs) == len(es) + 1 for vs, es in self.components())

    # -- metric ----------------------------------------------------------

    def with_angles(self, angle_of: Mapping[tuple[int, int], Fraction]) -> "LinkGraph":
        """Copy of the link with each edge given the angle of its corner,
        held as integer weights; a link built from cells shares the rest.
        """
        if self._complex is None:  # named edges hold their angles
            return LinkGraph(
                self.vertices,
                (e._replace(angle=angle_of[(e.cell, e.corner)]) for e in self.edges),
            )
        angled = copy.copy(self)
        angled.__dict__.pop("edges", None)
        corners = product(range(len(self.ends) // 3), range(3))
        angled._set_weights(list(map(angle_of.__getitem__, corners)))
        return angled

    def _set_weights(self, angles: list[Fraction]) -> None:
        """Angle ``angles[ei]`` is ``weight[ei] / angle_unit`` (units of pi)."""
        unit = lcm(*{a.denominator for a in angles})
        self.weight = [a.numerator * (unit // a.denominator) for a in angles]
        self.angle_unit = unit

    @property
    def angles_assigned(self) -> bool:
        return self.weight is not None or not self.ends

    # -- export ----------------------------------------------------------

    def to_dot(self) -> str:
        """Graphviz export: four ranks by level, bars as g_bar, middle
        edges bold, special vertices double-circled."""
        lines = ["graph link {", "  rankdir=BT;", "  node [shape=circle];"]
        for level in (1, 2, 3, 4):
            members = [v for v in self.vertices if v.level == level]
            if not members:
                continue
            lines.append(f"  {{ rank=same;  // level {level}")
            for v in members:
                shape = ", shape=doublecircle" if v.special else ""
                name = _dot_quote(v.bar_name)
                lines.append(f"    {name} [label={name}{shape}];")
            lines.append("  }")
        for e in self.edges:
            style = " [style=bold]" if e.kind == MIDDLE else ""
            a, b = _dot_quote(e.a.bar_name), _dot_quote(e.b.bar_name)
            lines.append(f"  {a} -- {b}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"LinkGraph({len(self.nbrs)} vertices, {len(self.ends)} edges)"


def _dot_quote(name: str) -> str:
    """A DOT quoted string for ``name``: backslashes and quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def build_link(k: TwoComplex) -> LinkGraph:
    """Two vertices per 1-cell, one edge per 2-cell corner.

    Generator g of sorted rank r gets head id 2 * r and tail id
    2 * r + 1, the order of the named vertices.  A cell h^-1 u v gives
    its bottom {h_bar, u_bar}, middle {u, v_bar} and top {v, h} edges,
    in that order.
    """
    gens = k.one_cells
    hubs = k.presentation.hubs
    by_rank = sorted(range(len(gens)), key=gens.__getitem__)
    head = {}
    levels = []
    for r, gi in enumerate(by_rank):
        head[gi] = 2 * r
        levels += (4, 1) if gens[gi] in hubs else (3, 2)
    ends = []
    try:
        for h, u, v in k.cells:
            h, u, v = head[h], head[u], head[v]
            ends += (
                (h + 1, u + 1) if h < u else (u + 1, h + 1),
                (u, v + 1) if u <= v else (v + 1, u),
                (v, h) if v < h else (h, v),
            )
    except KeyError as exc:
        raise InternalInconsistencyError(
            f"2-cell {len(ends) // 3} uses unknown generator {exc.args[0]!r}"
        ) from None
    return LinkGraph._of_cells(k, by_rank, levels, ends)
