"""Oriented patterns in the defining graph that force short link loops.

Two configurations, and only these two, create embedded 4-loops in the
link:

* type A: a triangle whose orientation is acyclic (it has a source and
  a sink), which hangs a 4-loop through one top or bottom vertex;
* type B: four vertices u, v, w, t with edges u->v, u->t, w->v, w->t
  (an alternating 4-cycle), which yields a 4-loop of special middle
  edges.

Label-2 edges read both ways in the link, so during pattern matching
they are wildcards that may adopt either direction.  ``search_orientation``
looks for a direction assignment avoiding both patterns, and
``orient_from_rotation_system`` builds one from a checkerboard face
colouring of an embedded even-degree graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product, repeat

from .complex_link import HEAD, TAIL, LinkGraph, LinkVertex
from .errors import InternalInconsistencyError
from .presentations import (
    DefiningGraph,
    GammaEdge,
    Orientation,
    OrientationAssignment,
    UnorientedEdgeError,
    hub_name,
    resolve_orientations,
)


class OddDegreeVertexError(ValueError):
    """Checkerboard orientation needs all vertex degrees even."""


class DualNotBipartiteError(ValueError):
    """The faces of the given embedding admit no proper 2-colouring."""


@dataclass(frozen=True)
class ForbiddenWitness:
    """One occurrence of a forbidden oriented pattern.

    ``directed_edges`` lists the pattern's edges as (tail, head) in the
    matched direction (wildcards shown as matched).  ``loop`` is the
    corresponding embedded 4-loop, in link-vertex coordinates.
    """

    kind: str  # "A" | "B"
    vertices: tuple[str, ...]
    directed_edges: tuple[tuple[str, str], ...]
    loop: tuple[LinkVertex, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "vertices": list(self.vertices),
            "edges": [f"{t}->{h}" for t, h in self.directed_edges],
            "loop": [v.bar_name for v in self.loop],
        }


def _special(gen: str, end: str) -> LinkVertex:
    return LinkVertex(gen, end, 3 if end == HEAD else 2, True)


def _hub_vertex(gamma: DefiningGraph, u: str, v: str, end: str) -> LinkVertex:
    e = gamma.edge(u, v)
    return LinkVertex(hub_name(e.tail, e.head), end, 4 if end == HEAD else 1, False)


def _edge_direction(e: GammaEdge) -> str | None:
    """'forward' (u->v), 'backward', or None for a wildcard."""
    if e.orientation == Orientation.FORWARD:
        return "forward"
    if e.orientation == Orientation.BACKWARD:
        return "backward"
    if e.orientation == Orientation.WILDCARD:
        return None
    raise UnorientedEdgeError(f"edge {e.key} has no direction")


def _triangle_witness(
    gamma: DefiningGraph, tri: tuple[str, str, str]
) -> ForbiddenWitness | None:
    """A type-A witness if some wildcard completion is acyclic."""
    pairs = [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])]
    fixed: list[tuple[str, str] | None] = []
    for u, v in pairs:
        d = _edge_direction(gamma.edge(u, v))
        key = (u, v) if u < v else (v, u)
        if d is None:
            fixed.append(None)
        else:
            fixed.append(key if d == "forward" else key[::-1])
    free = [i for i, d in enumerate(fixed) if d is None]
    for choice in product((0, 1), repeat=len(free)):
        directed = list(fixed)
        for i, c in zip(free, choice):
            u, v = pairs[i]
            key = (u, v) if u < v else (v, u)
            directed[i] = key if c == 0 else key[::-1]
        indeg = {v: 0 for v in tri}
        for _, h in directed:
            indeg[h] += 1
        if 2 in indeg.values():  # a sink exists, so the triangle is acyclic
            sink = next(v for v, d in indeg.items() if d == 2)
            others = sorted(v for v in tri if v != sink)
            q, r = others
            loop = (
                _special(sink, TAIL),
                _special(q, HEAD),
                _hub_vertex(gamma, q, r, HEAD),
                _special(r, HEAD),
            )
            return ForbiddenWitness("A", tri, tuple(directed), loop)
    return None


def _four_cycle_witness(
    gamma: DefiningGraph, cyc: tuple[str, str, str, str]
) -> ForbiddenWitness | None:
    """A type-B witness if some wildcard completion alternates."""
    edge_pairs = [(cyc[i], cyc[(i + 1) % 4]) for i in range(4)]
    for sources in ((cyc[0], cyc[2]), (cyc[1], cyc[3])):
        directed = []
        ok = True
        for u, v in edge_pairs:
            tail, head = (u, v) if u in sources else (v, u)
            d = _edge_direction(gamma.edge(u, v))
            if d is not None:
                actual_tail = u if ((u < v) == (d == "forward")) else v
                if actual_tail != tail:
                    ok = False
                    break
            directed.append((tail, head))
        if ok:
            s1, s2 = sources
            t1, t2 = (v for v in cyc if v not in sources)
            loop = (
                _special(s1, HEAD),
                _special(t1, TAIL),
                _special(s2, HEAD),
                _special(t2, TAIL),
            )
            return ForbiddenWitness("B", cyc, tuple(directed), loop)
    return None


def detect_forbidden(
    gamma: DefiningGraph, link: LinkGraph | None = None
) -> list[ForbiddenWitness]:
    """All minimal type-A and type-B occurrences in an oriented graph.

    Wildcard (label-2) edges match either direction as needed.  Raises
    :class:`UnorientedEdgeError` when a non-wildcard edge has no
    direction.  If ``link`` is given, every witness loop is verified to
    be present in it.
    """
    for e in gamma.edges:
        _edge_direction(e)  # raises on unoriented edges
    witnesses = []
    for tri in gamma.triangles():
        w = _triangle_witness(gamma, tri)
        if w is not None:
            witnesses.append(w)
    for cyc in gamma.four_cycles():
        w = _four_cycle_witness(gamma, cyc)
        if w is not None:
            witnesses.append(w)
    witnesses.sort(key=lambda w: (w.kind, w.vertices))
    if link is not None:
        for w in witnesses:
            n = len(w.loop)
            for i in range(n):
                if not link.has_edge(w.loop[i], w.loop[(i + 1) % n]):
                    raise InternalInconsistencyError(
                        f"witness loop step {w.loop[i]} - {w.loop[(i + 1) % n]} "
                        f"missing from the link"
                    )
    return witnesses


# Direction array values; an unoriented edge has none (None: undecided).
_DIRECTION = {Orientation.FORWARD: 1, Orientation.BACKWARD: -1, Orientation.WILDCARD: 0}


def _walk(edge_id: dict[tuple[str, str], int], cycle) -> tuple[tuple[int, int], ...]:
    """The closed walk around ``cycle`` as (edge id, walk sign) steps.

    The sign is +1 where the walk runs u -> v along the stored edge
    (u < v) and -1 where it runs against it.
    """
    steps = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        steps.append((edge_id[a, b], 1) if a < b else (edge_id[b, a], -1))
    return tuple(steps)


def _forms_pattern(walk, dirs) -> bool:
    """Whether some wildcard completion of a compiled walk is forbidden.

    Each product sign * direction is +1 for an edge directed along the
    walk, -1 against it and 0 for a wildcard.  A triangle is clean only
    when it is a directed cycle: all three products non-zero and equal.
    A 4-cycle is bad when its products alternate in either phase, a 0
    matching either side.
    """
    if len(walk) == 3:
        (a, sa), (b, sb), (c, sc) = walk
        p = sa * dirs[a]
        return not p or p != sb * dirs[b] or p != sc * dirs[c]
    (a, sa), (b, sb), (c, sc), (d, sd) = walk
    p, q, r, s = sa * dirs[a], sb * dirs[b], sc * dirs[c], sd * dirs[d]
    return p >= 0 >= q and r >= 0 >= s or p <= 0 <= q and r <= 0 <= s


def search_orientation(gamma: DefiningGraph) -> OrientationAssignment | None:
    """Complete the unoriented edges so that no forbidden pattern occurs.

    The search runs on integer edge ids (positions in ``gamma.edges``)
    and one direction array: +1 for u -> v, -1 for v -> u, 0 for a
    wildcard and None while undecided.  Every triangle and 4-cycle is
    compiled once into its walk of (edge id, sign) steps and checked by
    :func:`_forms_pattern` at the decision that completes it.  The
    unoriented edges are decided most-constrained first (most
    triangles and 4-cycles, then edge order), "forward" before
    "backward"; backtracking sets a slot of the array and clears it
    again.  Wildcard edges are never assigned.  Returns None when the
    exhaustive search proves no completion works; a completion found
    is confirmed with :func:`detect_forbidden` before it is returned.
    """
    edges = gamma.edges
    edge_id = {e.key: i for i, e in enumerate(edges)}
    dirs = [_DIRECTION.get(e.orientation) for e in edges]
    walks = [_walk(edge_id, t) for t in gamma.triangles()]
    walks += [_walk(edge_id, c) for c in gamma.four_cycles()]

    load = Counter(e for walk in walks for e, _ in walk)
    order = sorted(
        (i for i, d in enumerate(dirs) if d is None), key=lambda i: (-load[i], i)
    )
    position = {e: i for i, e in enumerate(order)}
    # checks[i + 1] holds the walks completed by decision i; checks[0]
    # those with no searched edge, which must already be clean.
    checks: list[list] = [[] for _ in range(len(order) + 1)]
    for walk in walks:
        last = max((position[e] + 1 for e, _ in walk if e in position), default=0)
        checks[last].append(walk)
    if any(_forms_pattern(w, dirs) for w in checks[0]):
        return None

    i = 0
    while 0 <= i < len(order):
        e = order[i]
        # Directions left at this edge: both when undecided, then -1 after +1.
        untried = (1, -1) if dirs[e] is None else (-1,) if dirs[e] == 1 else ()
        for d in untried:
            dirs[e] = d
            if not any(map(_forms_pattern, checks[i + 1], repeat(dirs))):
                i += 1
                break
        else:
            dirs[e] = None
            i -= 1
    if i < 0:
        return None

    assignment = OrientationAssignment(
        {edges[e].key: "forward" if dirs[e] == 1 else "backward" for e in order}
    )
    if detect_forbidden(resolve_orientations(gamma, assignment)):
        raise InternalInconsistencyError(
            "orientation search returned an assignment with a forbidden pattern"
        )
    return assignment


def trace_faces(
    gamma: DefiningGraph, rotations: dict[str, tuple[str, ...]] | None = None
) -> list[tuple[tuple[str, str], ...]]:
    """Face boundaries of the embedding given by a rotation system.

    Faces are orbits of darts under: after arriving at v along (u, v),
    leave along the neighbour following u in the rotation at v.
    Vertices of degree <= 2 may omit their rotation line.
    """
    rotations = dict(rotations or gamma.rotations or {})
    for v in gamma.vertices:
        if v not in rotations:
            if gamma.degree(v) > 2:
                raise ValueError(
                    f"vertex {v!r} has degree {gamma.degree(v)} but no rotation"
                )
            rotations[v] = gamma.neighbors(v)
    darts = sorted(
        [(e.u, e.v) for e in gamma.edges] + [(e.v, e.u) for e in gamma.edges]
    )
    succ = {}
    for u, v in darts:
        rot = rotations[v]
        w = rot[(rot.index(u) + 1) % len(rot)]
        succ[(u, v)] = (v, w)
    faces = []
    unused = set(darts)
    for dart in darts:
        if dart not in unused:
            continue
        face = []
        cur = dart
        while cur in unused:
            unused.remove(cur)
            face.append(cur)
            cur = succ[cur]
        faces.append(tuple(face))
    return faces


def orient_from_rotation_system(
    gamma: DefiningGraph, rotations: dict[str, tuple[str, ...]] | None = None
) -> OrientationAssignment:
    """Checkerboard orientation from an embedding of an even-degree graph.

    Faces are traced from the rotation system and 2-coloured so that
    faces sharing an edge differ; every edge is then directed the way
    its black face traverses it.  When all short embedded loops of the
    graph bound faces this forbids both patterns; the caller should
    still confirm with :func:`detect_forbidden`.
    """
    for v in gamma.vertices:
        if gamma.degree(v) % 2 != 0:
            raise OddDegreeVertexError(f"vertex {v!r} has odd degree")
    for e in gamma.edges:
        if e.is_oriented:
            raise ValueError(f"edge {e.key} is already oriented")
    faces = trace_faces(gamma, rotations)
    face_of_dart = {}
    for fi, face in enumerate(faces):
        for dart in face:
            face_of_dart[dart] = fi

    colour: dict[int, int] = {}
    for start in range(len(faces)):
        if start in colour:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            fi = stack.pop()
            for u, v in faces[fi]:
                gj = face_of_dart[(v, u)]
                if gj == fi:
                    raise DualNotBipartiteError(
                        f"edge {(min(u, v), max(u, v))} borders a single face"
                    )
                if gj not in colour:
                    colour[gj] = 1 - colour[fi]
                    stack.append(gj)
                elif colour[gj] == colour[fi]:
                    raise DualNotBipartiteError(
                        "face colouring conflict; embedding is inconsistent "
                        "with the even-degree hypothesis"
                    )

    directions = {}
    for e in gamma.edges:
        if e.orientation == Orientation.WILDCARD:
            continue
        black_dart = (
            (e.u, e.v) if colour[face_of_dart[(e.u, e.v)]] == 0 else (e.v, e.u)
        )
        directions[e.key] = "forward" if black_dart == (e.u, e.v) else "backward"
    return OrientationAssignment(directions)
