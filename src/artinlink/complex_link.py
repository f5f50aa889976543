"""The presentation 2-complex of a triangular presentation and its link.

The complex has a single 0-cell, one 1-cell per generator and one
triangular 2-cell per relator h^-1 u v, so the presentation's cells
determine it and the presentation stands for it.  The link of the
0-cell is the graph of directions there: each 1-cell g contributes a
head vertex (written ``g``) and a tail vertex (written ``g_bar``), and
each corner of a 2-cell contributes an edge.  For consecutive
boundary letters l1 l2 the corner joins the terminal end of l1 to the
initial end of l2, which for a boundary h^-1 u v yields exactly

    bottom {h_bar, u_bar},  middle {u, v_bar},  top {v, h}.

Vertices fall into four levels: hub tails at level 1, non-hub tails at
level 2, non-hub heads at level 3 and hub heads at level 4.  Every edge
joins adjacent levels, so links are bipartite.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from fractions import Fraction
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .errors import InternalInconsistencyError
from .presentations import DefiningGraph, Presentation, build_triangular

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


def build_complex(p: Presentation) -> Presentation:
    """Glue one triangular 2-cell per cell h^-1 u v of ``p``.  The cells
    determine the complex, so it is ``p`` itself; a presentation without
    cells raises NotTriangularError."""
    if p.cells is None:
        raise NotTriangularError(f"{p!r} has no triangular 2-cells")
    return p


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
    """The link of the unique 0-cell, or a part of it, as an undirected
    simple graph on a dense integer core.

    The core is ``levels[id]``, ``ends[ei]`` (lower id first) and
    ``nbrs[id]``, (neighbour id, edge id) pairs in no specified order: a
    reader that needs them in id order sorts them itself, and the loop
    engine sorts them in place.  An angled link adds ``weight[ei]``, in
    units of pi / ``angle_unit``.  An id is a position in the sorted
    ``vertices``, so comparing ids compares vertices.  A part names its
    vertices and edges through the whole link, ``_vids[id]`` and
    ``_eids[ei]`` being their ids there.
    """

    complex: Presentation | None = None  # set for the whole link
    weight: Sequence[int] | None = None
    angle_unit = 1
    _whole: LinkGraph | None = None  # set for a part

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
        self.ends = tuple(ends)
        if len(set(ends)) != len(ends):
            ei = next(ei for ei, pair in enumerate(ends) if self._edge_ids[pair] != ei)
            va, vb = (self.vertices[i] for i in ends[ei])
            raise InternalInconsistencyError(
                f"parallel link edge between {va} and {vb}"
            )
        self.nbrs = nbrs
        self._hops: list = []  # the hop search's answer: cycles._hop_search

    @functools.cached_property
    def _edge_ids(self) -> dict[tuple[int, int], int]:
        """Edge ends -> edge id (the last, were two parallel), built on
        the first read; angled copies made after it share it."""
        return dict(zip(self.ends, range(len(self.ends))))

    # -- the named view and the id scheme, read through the whole link ----

    @functools.cached_property
    def vertices(self) -> tuple[LinkVertex, ...]:
        return tuple(self._named(range(len(self.levels))))

    def _named(self, ids: Iterable[int]) -> list[LinkVertex]:
        """The vertices of ``ids``.  Whole vertex id 2 * r (head) and
        2 * r + 1 (tail) belong to generator ``_by_rank[r]``."""
        whole = self._whole or self
        gens = whole.complex.generators
        special = whole.complex.special_generators
        out = []
        for i in ids:
            w = self._vids[i]
            g = gens[whole._by_rank[w // 2]]
            end = TAIL if w % 2 else HEAD
            out.append(LinkVertex(g, end, self.levels[i], g in special))
        return out

    @functools.cached_property
    def _rank(self) -> dict[str, int]:
        """Generator -> its sorted rank, on the whole link."""
        gens = self.complex.generators
        return {gens[gi]: r for r, gi in enumerate(self._by_rank)}

    def _find(self, gen: str, end: str) -> int:
        """The id of ``gen``'s ``end`` here, or -1: the inverse of
        :meth:`_named`, found by bisection in the sorted ``_vids``."""
        r = (self._whole or self)._rank.get(gen)
        if r is None or end not in (HEAD, TAIL):
            return -1
        w = 2 * r + (end == TAIL)
        i = bisect_left(self._vids, w)
        return i if i < len(self._vids) and self._vids[i] == w else -1

    def _resolve(self, v: LinkVertex) -> int:
        """The id of ``v`` here, or -1, also for a vertex of another
        level or ``special`` flag; the named view is not built."""
        i = self._find(v.gen, v.end)
        return i if i >= 0 and self._named([i]) == [v] else -1

    def _steps(self, ids: Sequence[int]) -> list[int | None]:
        """The edge id of each step k, from ``ids[k]`` to ``ids[k + 1]``,
        of the closed walk through ``ids``; None where no edge joins them."""
        get, out, b = self._edge_ids.get, [], ids[0]
        for a in reversed(ids):  # back from the closing step: no slices
            out.append(get((a, b) if a < b else (b, a)))
            b = a
        out.reverse()
        return out

    @functools.cached_property
    def edges(self) -> tuple[LinkEdge, ...]:
        """Whole edge id 3 * c + corner is corner ``corner`` of cell ``c``."""
        w, unit = self.weight, self.angle_unit
        angles = repeat(None) if w is None else [Fraction(x, unit) for x in w]
        vs, levels = self.vertices, self.levels
        p = (self._whole or self).complex
        gens, cells = p.generators, p.cells
        return tuple(
            LinkEdge(
                vs[a],
                vs[b],
                _KINDS[min(levels[a], levels[b]) - 1],
                c // 3,
                c % 3,
                gens[cells[c // 3][0]],
                t,
            )
            for (a, b), c, t in zip(self.ends, self._eids, angles)
        )

    # -- basic accessors -------------------------------------------------

    def _id(self, v: LinkVertex) -> int:
        i = self._resolve(v)
        if i < 0:
            raise VertexNotFoundError(str(v))
        return i

    def degree(self, v: LinkVertex) -> int:
        return len(self.nbrs[self._id(v)])

    def has_edge(self, a: LinkVertex, b: LinkVertex) -> bool:
        return self._edge_between(a, b) is not None

    def _edge_between(self, a: LinkVertex, b: LinkVertex) -> int | None:
        return self._steps([self._resolve(a), self._resolve(b)])[0]

    def vertex(self, gen: str, end: str) -> LinkVertex:
        i = self._find(gen, end)
        if i < 0:
            raise VertexNotFoundError(f"{gen}/{end}")
        return self._named([i])[0]

    def is_middle(self, ei: int) -> bool:
        """Whether edge ``ei`` is a middle edge: its lower end is on level 2."""
        a, b = self.ends[ei]
        return min(self.levels[a], self.levels[b]) == 2

    def middle_edges(self) -> tuple[int, ...]:
        return tuple(filter(self.is_middle, range(len(self.ends))))

    # -- subgraphs -------------------------------------------------------

    def subgraph(self, edge_indices: Iterable[int]) -> "LinkGraph":
        eids = sorted(set(edge_indices))
        if eids and (eids[0] < 0 or eids[-1] >= len(self.ends)):
            n = len(self.ends)
            raise ValueError(f"edge ids {eids[0]}..{eids[-1]} not all in 0..{n - 1}")
        return self._part({i for ei in eids for i in self.ends[ei]}, eids)

    def induced(self, vertices: Iterable[LinkVertex]) -> "LinkGraph":
        return self._part({self._id(v) for v in vertices})

    def _part(self, ids: Iterable[int], eids: list[int] | None = None) -> "LinkGraph":
        """The part on vertex ids ``ids`` and sorted edge ids ``eids``,
        each joining two of ``ids`` (by default every edge that does),
        renumbered ``0..n-1`` in order."""
        new = {i: j for j, i in enumerate(sorted(ids))}
        if eids is None:
            eids = sorted(e for a in new for b, e in self.nbrs[a] if a < b and b in new)
        part = LinkGraph.__new__(LinkGraph)
        part._whole = self._whole or self
        part._vids = [self._vids[i] for i in new]
        part._eids = [self._eids[ei] for ei in eids]
        ends = [(new[a], new[b]) for a, b in map(self.ends.__getitem__, eids)]
        part._set_core([self.levels[i] for i in new], ends)
        if self.weight is not None:
            part.weight = [self.weight[ei] for ei in eids]
            part.angle_unit = self.angle_unit
        return part

    def middle_subgraph(self) -> "LinkGraph":
        return self.subgraph(self.middle_edges())

    def neighborhood(self, v: LinkVertex, radius: int) -> "LinkGraph":
        """Induced subgraph on vertices within edge-distance ``radius``."""
        if radius < 0:
            raise ValueError(f"negative radius {radius}")
        return self._part(self._ball(self._id(v), radius, [None] * len(self.nbrs)))

    def components(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Connected components as (sorted vertex ids, sorted edge ids),
        in the order of their least vertex ids."""
        n = len(self.nbrs)
        dist: list[int | None] = [None] * n
        # each ball fills ``dist`` before the next id is tested
        balls = [self._ball(i, n, dist) for i in range(n) if dist[i] is None]
        which = [0] * n  # vertex id -> its component
        for k, ball in enumerate(balls):
            for i in ball:
                which[i] = k
        edges: list[list[int]] = [[] for _ in balls]
        for ei, (a, _) in enumerate(self.ends):
            edges[which[a]].append(ei)
        return [(tuple(sorted(b)), tuple(es)) for b, es in zip(balls, edges)]

    def _ball(self, start: int, radius: int, dist: list[int | None]) -> list[int]:
        """The ids within ``radius`` steps of ``start``, in breadth-first
        order; each one's distance is set in ``dist``, which holds None
        for every id not yet reached."""
        nbrs, ball = self.nbrs, [start]
        dist[start] = 0
        for cur in ball:  # the list is the queue: reached ids append to it
            d = dist[cur]
            if d == radius:
                break
            d += 1
            for nb, _ in nbrs[cur]:
                if dist[nb] is None:
                    dist[nb] = d
                    ball.append(nb)
        return ball

    def is_forest(self) -> bool:
        return all(len(vs) == len(es) + 1 for vs, es in self.components())

    # -- metric ----------------------------------------------------------

    def with_angles(self, weight: Sequence[int], unit: int) -> "LinkGraph":
        """Copy of the link with angle ``weight[ei] / unit`` times pi on
        edge ``ei``, weights and unit ints; it shares the rest."""
        weight = tuple(weight)
        if len(weight) != len(self.ends):
            raise ValueError(f"{len(weight)} angles for {len(self.ends)} edges")
        if type(unit) is not int or unit < 1 or not {*map(type, weight)} <= {int}:
            raise TypeError("angle weights must be ints over a positive int unit")
        angled = LinkGraph.__new__(LinkGraph)
        angled.__dict__.update(self.__dict__)
        angled.__dict__.pop("edges", None)
        angled.weight, angled.angle_unit = weight, unit
        return angled

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


def build_link(p: Presentation) -> LinkGraph:
    """The whole link of the complex of ``p``: two vertices per
    generator, one edge per 2-cell corner.

    Generator g of sorted rank r gets head id 2 * r and tail id
    2 * r + 1, the order of the named vertices.  A cell h^-1 u v gives
    its bottom {h_bar, u_bar}, middle {u, v_bar} and top {v, h} edges,
    in that order.  Each neighbour list holds its edges in edge-id
    order, which a reader may not rely on (see :class:`LinkGraph`).
    """
    gens, hubs = p.generators, p.hubs
    by_rank = sorted(range(len(gens)), key=gens.__getitem__)
    head = [0] * len(gens)
    levels = []
    for r, gi in enumerate(by_rank):
        head[gi] = 2 * r
        levels += (4, 1) if gens[gi] in hubs else (3, 2)
    ends = []
    for h, u, v in p.cells:
        h, u, v = head[h], head[u], head[v]
        ends += (
            (h + 1, u + 1) if h < u else (u + 1, h + 1),
            (u, v + 1) if u <= v else (v + 1, u),
            (v, h) if v < h else (h, v),
        )
    link = LinkGraph.__new__(LinkGraph)
    link.complex, link._by_rank = p, by_rank
    link._vids, link._eids = range(len(levels)), range(len(ends))
    link._set_core(levels, ends)
    return link


def link_of(gamma: DefiningGraph) -> LinkGraph:
    """The link of the 0-cell of ``gamma``'s triangular presentation
    complex, the one handle on a certificate: the complex, which is the
    triangular presentation, is ``link.complex``.
    """
    return build_link(build_complex(build_triangular(gamma)))
