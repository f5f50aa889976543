"""Oriented patterns in the defining graph that force short link loops:
type A, an acyclic triangle, and type B, an alternating 4-cycle, with
label-2 edges as wildcards.  One predicate, ``_forms_pattern``, decides
both for every entry point (README pipeline step 5).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import accumulate, chain, pairwise, repeat
from typing import NamedTuple

from .complex_link import HEAD, TAIL, LinkGraph, LinkVertex
from .errors import InternalInconsistencyError
from .presentations import (
    DefiningGraph,
    Orientation,
    OrientationAssignment,
    UnorientedEdgeError,
    hub_name,
    shown,
)


class OddDegreeVertexError(ValueError):
    """Checkerboard orientation needs all vertex degrees even."""


class DualNotBipartiteError(ValueError):
    """The faces of the given embedding admit no proper 2-colouring."""


class ForbiddenWitness(NamedTuple):
    """One occurrence of a forbidden oriented pattern.

    ``directed_edges`` lists the pattern's edges as (tail, head) in the
    matched direction (wildcards shown as matched).  ``loop`` is the
    corresponding embedded 4-loop, in link-vertex coordinates.
    """

    kind: str  # "A" | "B"
    vertices: tuple[str, ...]
    directed_edges: tuple[tuple[str, str], ...]
    loop: tuple[LinkVertex, ...]


# Direction array values; an unoriented edge has none (None: undecided).
_DIRECTION = {Orientation.FORWARD: 1, Orientation.BACKWARD: -1, Orientation.WILDCARD: 0}
SEARCH_INCONSISTENT = "orientation search returned an assignment with a forbidden pattern"


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


_record = tuple.__new__  # a NamedTuple from a tuple of its fields, skipping __new__


def _witness(edges, cycle, walk, dirs, heads, tails) -> ForbiddenWitness:
    """The witness of a walk on which :func:`_forms_pattern` holds, its
    special loop vertices read from ``heads`` and ``tails``.

    A triangle reads its wildcards u -> v, reversing the last one in
    (v0v1, v0v2, v1v2) order if that closes a directed cycle; its sink
    is the vertex both edges enter.  A 4-cycle has sources (v0, v2)
    when its products alternate in that phase, else (v1, v3).
    """
    if len(walk) == 3:
        steps = zip(cycle, cycle[1:] + cycle[:1])
        prods = [s * (dirs[e] or 1) for e, s in walk]
        if prods[0] == prods[1] == prods[2]:
            k = next(k for k in (1, 2, 0) if not dirs[walk[k][0]])
            prods[k] = -prods[k]
        arcs = [(a, b) if p > 0 else (b, a) for (a, b), p in zip(steps, prods)]
        k = next(k for k in range(3) if prods[k - 1] > 0 > prods[k])
        sink = cycle[k]
        q, r = (v for v in cycle if v != sink)
        hub = edges[walk[(k + 1) % 3][0]]
        loop = (
            tails[sink],
            heads[q],
            LinkVertex(hub_name(hub.tail, hub.head), HEAD, 4, False),
            heads[r],
        )
        arcs = arcs[0], arcs[2], arcs[1]
        return _record(ForbiddenWitness, ("A", cycle, arcs, loop))
    (a, sa), (b, sb), (c, sc), (d, sd) = walk
    v0, v1, v2, v3 = cycle
    if sa * dirs[a] >= 0 >= sb * dirs[b] and sc * dirs[c] >= 0 >= sd * dirs[d]:
        directed = (v0, v1), (v2, v1), (v2, v3), (v0, v3)
        loop = heads[v0], tails[v1], heads[v2], tails[v3]
    else:
        directed = (v1, v0), (v1, v2), (v3, v2), (v3, v0)
        loop = heads[v1], tails[v0], heads[v3], tails[v2]
    return _record(ForbiddenWitness, ("B", cycle, directed, loop))


def _hits(gamma: DefiningGraph):
    """The direction array and a lazy iterator of the (cycle, walk) pairs
    of ``gamma`` that form a pattern, from the walks a search left on the
    graph or else compiled as read and not kept (keeping costs more);
    refuses an undirected non-wildcard edge with UnorientedEdgeError."""
    dirs = [_DIRECTION.get(e.orientation) for e in gamma.edges]
    if None in dirs:
        e = gamma.edges[dirs.index(None)]
        raise UnorientedEdgeError(f"edge {shown(e.key)} has no direction")
    pairs = vars(gamma).get("walks") or gamma.iter_walks()
    return dirs, ((c, w) for c, w in pairs if _forms_pattern(w, dirs))


def has_forbidden(gamma: DefiningGraph) -> bool:
    """``bool(detect_forbidden(gamma))``, decided at the first hit: no
    walk after it is compiled and no witness is built."""
    return next(_hits(gamma)[1], None) is not None


def detect_forbidden(
    gamma: DefiningGraph, link: LinkGraph | None = None
) -> list[ForbiddenWitness]:
    """All minimal type-A and type-B occurrences in an oriented graph, a
    witness built only for a walk on which :func:`_forms_pattern` holds.
    Raises :class:`UnorientedEdgeError` when a non-wildcard edge has no
    direction.  If ``link`` is given, every witness loop step is checked
    on it on ids, in one lookup of its distinct steps, each loop vertex
    resolved once, without the named view.
    """
    dirs, hits = _hits(gamma)
    first = next(hits, None)
    if first is None:  # a clean graph builds no special vertices
        return []
    heads = {v: LinkVertex(v, HEAD, 3, True) for v in gamma.vertices}
    tails = {v: LinkVertex(v, TAIL, 2, True) for v in gamma.vertices}
    witnesses = [
        _witness(gamma.edges, c, w, dirs, heads, tails) for c, w in chain([first], hits)
    ]
    if link is not None:
        # Each distinct loop vertex resolved once and each distinct step
        # looked up once, as an id pair, in one _steps call on a walk
        # whose even steps are the pairs.  Every loop has four vertices,
        # so step k of the flat id list ends at k + 1, or at k - 3 where
        # a loop closes.  A missing step depends on its id pair alone, so
        # the loops are read again, in detection order, to name one.
        loops = [w.loop for w in witnesses]
        id_of = {v: link._resolve(v) for v in set(chain.from_iterable(loops))}
        ids = [id_of[v] for loop in loops for v in loop]
        ends = ids[1:] + ids[:1]
        ends[3::4] = ids[0::4]
        pairs = list({(a, b) if a < b else (b, a) for a, b in set(zip(ids, ends))})
        steps = link._steps(list(chain.from_iterable(pairs)))[::2]
        if None in steps:
            missing = {frozenset(p) for p, e in zip(pairs, steps) if e is None}
            a, b = next(
                (a, b)
                for loop in loops
                for a, b in pairwise((*loop, loop[0]))
                if frozenset((id_of[a], id_of[b])) in missing
            )
            raise InternalInconsistencyError(
                f"witness loop step {a} - {b} missing from the link"
            )
    return witnesses


def _c4_free_edges(gamma: DefiningGraph, a: list[str], b: list[str]) -> int:
    """Reiman's bound on a 4-cycle-free subgraph of ``gamma`` between
    sides ``a`` and ``b``: the largest sum of d_v <= deg v over b with
    sum C(d_v, 2) <= C(|a|, 2).  Raising a d_v from d to d + 1 costs d
    pairs, so taking the cheapest steps first is exact."""
    costs = sorted(d for v in b for d in range(gamma.degree(v)))
    return bisect_right(list(accumulate(costs)), len(a) * (len(a) - 1) // 2)


def _refuted_by_counting(gamma: DefiningGraph) -> bool:
    """Whether a bipartite component has more edges, wildcards counted
    twice, than twice its lesser :func:`_c4_free_edges` bound."""
    side: dict[str, int] = {}
    for root in gamma.vertices:
        if root in side:
            continue
        side[root], comp, bipartite, ends = 0, [root], True, 0
        for v in comp:  # breadth first: comp grows as it is read
            for w in gamma.neighbors(v):
                if w not in side:
                    side[w] = 1 - side[v]
                    comp.append(w)
                bipartite = bipartite and side[w] != side[v]
                ends += 1 + (gamma.edge(v, w).orientation == Orientation.WILDCARD)
        a, b = ([v for v in comp if side[v] == s] for s in (0, 1))
        z = min(_c4_free_edges(gamma, a, b), _c4_free_edges(gamma, b, a))
        if bipartite and ends > 4 * z:  # ends meets every edge twice
            return True
    return False


def search_orientation(gamma: DefiningGraph) -> OrientationAssignment | None:
    """Complete the unoriented edges so that no forbidden pattern occurs,
    or return None when no completion works (README pipeline step 5).
    Wildcards are never assigned, "forward" is tried before "backward",
    and a completion is confirmed on every walk before it is returned.
    """
    if _refuted_by_counting(gamma):
        return None
    dirs = [_DIRECTION.get(e.orientation) for e in gamma.edges]
    load = Counter(e for _, walk in gamma.walks for e, _ in walk)
    order = sorted(
        (i for i, d in enumerate(dirs) if d is None), key=lambda i: (-load[i], i)
    )
    position = {e: i for i, e in enumerate(order)}
    # checks[i + 1] holds the walks completed by decision i; checks[0]
    # those with no searched edge, which must already be clean.
    checks: list[list] = [[] for _ in range(len(order) + 1)]
    for _, walk in gamma.walks:
        last = max((position[e] + 1 for e, _ in walk if e in position), default=0)
        checks[last].append(walk)
    if any(_forms_pattern(w, dirs) for w in checks[0]):
        return None
    # nothing oriented in advance: reversing every direction keeps each
    # walk clean, so the first edge goes forward only
    reversible = not any(dirs)

    i = 0
    while 0 <= i < len(order):
        e = order[i]
        # Directions left at this edge: both when undecided, then -1 after
        # +1, except at the first edge of a reversible search.
        if dirs[e] is None:
            untried = (1, -1)
        else:
            untried = (-1,) if dirs[e] == 1 and (i or not reversible) else ()
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
    if any(_forms_pattern(walk, dirs) for _, walk in gamma.walks):
        raise InternalInconsistencyError(SEARCH_INCONSISTENT)
    return OrientationAssignment(
        {gamma.edges[e].key: "forward" if dirs[e] == 1 else "backward" for e in order}
    )


def trace_faces(gamma: DefiningGraph) -> list[tuple[tuple[str, str], ...]]:
    """Face boundaries of the embedding given by ``gamma.rotations``.

    Faces are orbits of darts under: after arriving at v along (u, v),
    leave along the neighbour following u in the rotation at v.
    Vertices of degree <= 2 may omit their rotation line.  Each unwalked
    dart, in sorted order, starts a face that is followed until it
    returns, so every dart is stepped once.
    """
    rotations = gamma.rotations or {}
    # v -> {u: the neighbour after u}; walking dart (u, v) pops u from after[v]
    after = {}
    for v in gamma.vertices:
        if v not in rotations and gamma.degree(v) > 2:
            raise ValueError(
                f"vertex {shown(v)} has degree {gamma.degree(v)} but no rotation"
            )
        rot = rotations.get(v, gamma.neighbors(v))
        after[v] = dict(zip(rot, rot[1:] + rot[:1]))
    faces = []
    for u, v in sorted(d for e in gamma.edges for d in ((e.u, e.v), (e.v, e.u))):
        face = []
        while u in after[v]:
            face.append((u, v))
            u, v = v, after[v].pop(u)
        if face:
            faces.append(tuple(face))
    return faces


def orient_from_rotation_system(gamma: DefiningGraph) -> OrientationAssignment:
    """Checkerboard orientation from an embedding of an even-degree graph.

    Faces are traced from ``gamma.rotations`` and 2-coloured, depth
    first, so that faces sharing an edge differ; every edge is then
    directed the way its black face traverses it.  When all short
    embedded loops of the graph bound faces this forbids both patterns;
    the caller should still confirm with :func:`detect_forbidden`.
    """
    for v in gamma.vertices:
        if gamma.degree(v) % 2 != 0:
            raise OddDegreeVertexError(f"vertex {shown(v)} has odd degree")
    for e in gamma.edges:
        if e.is_oriented:
            raise ValueError(f"edge {shown(e.key)} is already oriented")
    faces = trace_faces(gamma)
    face_of = {dart: fi for fi, face in enumerate(faces) for dart in face}
    colour = [None] * len(faces)
    for start in range(len(faces)):
        if colour[start] is not None:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            fi = stack.pop()
            for u, v in faces[fi]:
                gj = face_of[v, u]
                if gj == fi:
                    raise DualNotBipartiteError(
                        f"edge {shown((min(u, v), max(u, v)))} borders a single face"
                    )
                if colour[gj] is None:
                    colour[gj] = 1 - colour[fi]
                    stack.append(gj)
                elif colour[gj] == colour[fi]:
                    raise DualNotBipartiteError(
                        "face colouring conflict; embedding is inconsistent "
                        "with the even-degree hypothesis"
                    )

    return OrientationAssignment(
        {
            e.key: "forward" if colour[face_of[e.u, e.v]] == 0 else "backward"
            for e in gamma.edges
            if e.orientation != Orientation.WILDCARD
        }
    )
