"""Embedded loops in links: girth, minimum-angle cycles, enumeration.

Every search runs on the link's dense integer core (``LinkGraph.nbrs``
and ``LinkGraph.ends``): vertices are ids, their positions in the
sorted vertex tuple, so every tie-break on ids is the tie-break on the
vertices and each witness is the canonically least loop.  A search
builds an :class:`EmbeddedLoop` (validated, with its exact angle sum)
only for the loops it returns.

One shortest-cycle engine finds the girth: a BFS from each vertex over
the larger ids (Itai and Rodeh, 1978), then one DFS for the witness.
It also answers the minimum-angle question when every edge has the same
angle; otherwise one Dijkstra per edge runs.  Angles are exact
Fractions in units of pi, scaled to integers, so no comparison ever
happens in floating point.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .complex_link import LinkGraph, LinkVertex
from .errors import InternalInconsistencyError

LOOP_ENUMERATION_GUARD = 8


class UnassignedAnglesError(ValueError):
    """The link has edges without angles."""


class LimitExceededError(ValueError):
    """Requested loop length is beyond the desk-scale guard."""


@dataclass(frozen=True)
class EmbeddedLoop:
    """A simple cycle in a link, stored in canonical rotation.

    ``vertices`` lists each vertex once; consecutive vertices (and the
    last/first pair) are joined by ``edge_indices`` into the owning
    link.  The canonical form is the least vertex tuple over all
    rotations and both directions, so equal loops compare equal.
    """

    vertices: tuple[LinkVertex, ...]
    edge_indices: tuple[int, ...]
    angle_sum: Fraction | None = None  # units of pi

    @property
    def length(self) -> int:
        return len(self.edge_indices)

    def middle_edge_count(self, link: LinkGraph) -> int:
        return sum(1 for i in self.edge_indices if link.edges[i].kind == "middle")

    def __str__(self) -> str:
        names = [v.bar_name for v in self.vertices]
        return " - ".join(names + [names[0]])


def _canonical_cycle(cycle: list) -> tuple:
    """Least tuple over all rotations and both directions of a cycle of
    pairwise distinct vertices: it starts at the least vertex."""
    i = cycle.index(min(cycle))
    forward = cycle[i:] + cycle[:i]
    backward = forward[:1] + forward[:0:-1]
    return tuple(min(forward, backward))


def make_loop(link: LinkGraph, vertices: list[LinkVertex]) -> EmbeddedLoop:
    """Canonicalize and validate a vertex cycle against ``link``."""
    if len(vertices) != len(set(vertices)):
        raise ValueError("loop vertices must be pairwise distinct")
    if len(vertices) < 3:
        raise ValueError("a loop needs at least 3 vertices")
    canon = _canonical_cycle(list(vertices))
    idxs = []
    for i, v in enumerate(canon):
        w = canon[(i + 1) % len(canon)]
        if not link.has_edge(v, w):
            raise ValueError(f"loop step {v} - {w} is not a link edge")
        idxs.append(link.edge_index(v, w))
    angles = [link.edges[i].angle for i in idxs]
    total = sum(angles, Fraction(0)) if all(a is not None for a in angles) else None
    return EmbeddedLoop(canon, tuple(idxs), total)


def _loop_of_ids(link: LinkGraph, ids) -> EmbeddedLoop:
    return make_loop(link, [link.vertices[i] for i in ids])


def has_short_loop(link: LinkGraph) -> bool:
    """Whether the link has an embedded loop of length < 6.

    Links are bipartite and simple, so this is exactly "some two
    vertices share two neighbours", i.e. girth 4.
    """
    n = len(link.vertices)
    seen: set[int] = set()
    for ns in link.nbrs:
        ids = [nb for nb, _ in ns]
        for i, x in enumerate(ids):
            base = x * n
            for y in ids[i + 1 :]:
                key = base + y
                if key in seen:
                    return True
                seen.add(key)
    return False


def _least_cycle_through(
    nbrs: list[list[int]], s: int, best: int
) -> tuple[int, dict[int, int]]:
    """BFS from ``s`` over the ids > s, each vertex labelled with its
    first hop; an edge between two such branches closes a simple cycle
    through ``s``.  Returns the least length below ``best`` of such a
    cycle (else ``best``) and the depth of each vertex reached.  Levels
    from ``best // 2`` on are not expanded: they close no shorter cycle.
    """
    branch = {nb: nb for nb in nbrs[s] if nb > s}
    depth = dict.fromkeys(branch, 1)
    depth[s] = 0
    frontier = list(branch)
    d = 1
    while frontier and 2 * d + 1 < best:
        ahead = []
        for cur in frontier:
            b = branch[cur]
            for nb in nbrs[cur]:
                if nb <= s:
                    continue
                nb_branch = branch.get(nb)
                if nb_branch is None:
                    depth[nb] = d + 1
                    branch[nb] = b
                    ahead.append(nb)
                elif nb_branch != b and d + depth[nb] + 1 < best:
                    best = d + depth[nb] + 1
        frontier = ahead
        d += 1
    return best, depth


def _shortest_cycle(link: LinkGraph) -> tuple[int | None, tuple[int, ...] | None]:
    """Girth and the canonically least shortest loop, as an id tuple.

    The first start to reach the girth is the least vertex of that
    loop.  A DFS from it over larger ids, in increasing order, meets
    the loop first; shortest loops are isometric, so it prunes every
    vertex farther from the start than the steps left to close up.
    """
    nbrs = [[nb for nb, _ in ns] for ns in link.nbrs]  # sorted ids
    best, start = len(nbrs) + 1, None
    for s in range(len(nbrs)):
        length, _ = _least_cycle_through(nbrs, s, best)
        if length < best:
            best, start = length, s
    if start is None:
        return None, None
    # best + 1 keeps loops of length best in range: depths reach best // 2
    _, depth = _least_cycle_through(nbrs, start, best + 1)
    path, pending = [start], [iter(nbrs[start])]
    while pending:
        nb = next(pending[-1], None)
        if nb is None:
            pending.pop()
            path.pop()
        elif nb > start and depth.get(nb, best) + len(path) <= best and nb not in path:
            path.append(nb)
            if len(path) < best:
                pending.append(iter(nbrs[nb]))
            elif path[1] < nb:  # the canonical direction of the loop
                return best, tuple(path)
            else:
                path.pop()
    raise InternalInconsistencyError("no loop of the girth through its start")


def girth(link: LinkGraph) -> tuple[int | None, EmbeddedLoop | None]:
    """Minimum edge count over embedded loops, with a canonical witness.

    Returns ``(None, None)`` for forests.  Ties between witness loops
    are broken by the canonical lexicographic vertex order.
    """
    length, ids = _shortest_cycle(link)
    return length, None if ids is None else _loop_of_ids(link, ids)


def min_angle_cycle(
    link: LinkGraph,
    shortest: tuple[int | None, EmbeddedLoop | None] | None = None,
) -> tuple[Fraction | None, EmbeddedLoop | None]:
    """Minimum total angle over embedded loops, computed exactly.

    Angles must be assigned on every edge.  Ties prefer the shorter
    loop, then the canonically least one.  Returns ``(None, None)``
    for forests.

    With one angle on every edge the lightest loops are the shortest,
    and the tie-breaks agree, so the answer is the girth loop; a caller
    that has ``girth(link)`` (of this link, with or without angles)
    passes it as ``shortest`` to save the search.  Otherwise one
    Dijkstra per edge finds the lightest loop through it; the
    candidates are compared as (integer weight, length), and by
    canonical id tuple only on a tie, so a loop is built just for the
    winner.
    """
    if not link.angles_assigned:
        raise UnassignedAnglesError("link has edges without angles")
    if not link.edges:
        return None, None
    for e in link.edges:
        if e.angle <= 0:
            raise UnassignedAnglesError(f"non-positive angle on edge {e.a}-{e.b}")

    # Scale the rational angles to integers for exact arithmetic.
    denom = lcm(*(e.angle.denominator for e in link.edges))
    weight = [
        e.angle.numerator * (denom // e.angle.denominator) for e in link.edges
    ]
    if min(weight) == max(weight):
        _, loop = girth(link) if shortest is None else shortest
        if loop is None:
            return None, None
        loop = make_loop(link, list(loop.vertices))  # sums this link's angles
        return loop.angle_sum, loop

    # The best loop so far, as (weight, length) and id path; the
    # canonical form of the path is computed only when a tie needs it.
    # The starting weight lies above every loop, so the first search
    # runs unbounded.
    best_w, best_len = sum(weight) + 1, 0
    best_path: list[int] | None = None
    best_canon: tuple[int, ...] | None = None
    n = len(link.vertices)
    # Per vertex: (neighbour, key step of the edge, edge), where a key
    # step adds the edge's weight and one hop to a packed key (below).
    steps = [
        [(nb, weight[ei] * n + 1, ei) for nb, ei in ns] for ns in link.nbrs
    ]
    for ei, (a, b) in enumerate(link.ends):
        w = weight[ei]
        found = _dijkstra_path(steps, a, b, ei, best_w - w, best_len - 1)
        if found is None:
            continue
        path_w, cand = found
        total = path_w + w
        if total == best_w and len(cand) == best_len:
            if best_canon is None:
                best_canon = _canonical_cycle(best_path)
            canon = _canonical_cycle(cand)
            if canon >= best_canon:
                continue
            best_canon = canon
        else:
            best_canon = None
        best_w, best_len, best_path = total, len(cand), cand
    if best_path is None:
        return None, None
    loop = _loop_of_ids(link, best_path)
    return loop.angle_sum, loop


def _dijkstra_path(
    steps: list[list[tuple[int, int, int]]],
    source: int,
    target: int,
    banned_edge: int,
    max_weight: int,
    max_hops: int,
) -> tuple[int, list[int]] | None:
    """(weight, id path) minimizing (weight, hop count), avoiding one edge.

    Only paths lexicographically at most ``(max_weight, max_hops)`` in
    (weight, hops) count; returns None when the target has none.
    Breaking weight ties by hop count keeps witness loops as short as
    possible, and ties in both by vertex id keep the search identical to
    one over the vertices themselves.

    With ``n`` vertices, a path's (weight, hops) is packed into the key
    ``weight * n + hops`` and a heap entry is ``key * n + vertex``; both
    order exactly as the tuples would.  Every key past the limit is
    dropped before it is pushed, so the search ends as soon as no path
    can still qualify.
    """
    n = len(steps)
    # dist[v] is the least key found for v; the limit key is the first
    # that does not qualify, so it doubles as "unreached".
    limit = max_weight * n + max_hops + 1
    dist = [limit] * n
    parent = [-1] * n
    dist[source] = 0
    heap = [source]
    while heap:
        key, cur = divmod(heapq.heappop(heap), n)
        if key != dist[cur]:
            continue  # stale entry
        if cur == target:
            path = [target]
            while path[-1] != source:
                path.append(parent[path[-1]])
            path.reverse()
            return key // n, path
        for nb, step, ei in steps[cur]:
            cand = key + step
            if cand < dist[nb] and ei != banned_edge:
                dist[nb] = cand
                parent[nb] = cur
                heapq.heappush(heap, cand * n + nb)
    return None


def enumerate_short_loops(link: LinkGraph, max_len: int) -> list[EmbeddedLoop]:
    """All embedded loops of length <= ``max_len``, each once up to
    rotation and reflection, sorted canonically.

    ``max_len`` is capped at 8; longer enumerations are out of scope.
    """
    if max_len > LOOP_ENUMERATION_GUARD:
        raise LimitExceededError(
            f"max_len {max_len} exceeds the guard {LOOP_ENUMERATION_GUARD}"
        )
    if max_len < 3 or not link.edges:
        return []
    nbrs = link.nbrs
    found: set[tuple[int, ...]] = set()

    def extend(start: int, path: list[int], on_path: set[int]):
        for nb, _ in nbrs[path[-1]]:
            if nb == start and len(path) >= 3:
                # close a cycle; count each once: fix direction by the
                # neighbours of the minimal vertex
                if path[1] < path[-1]:
                    found.add(_canonical_cycle(path))
                continue
            if nb in on_path or nb <= start:
                continue
            if len(path) == max_len:
                continue
            path.append(nb)
            on_path.add(nb)
            extend(start, path, on_path)
            on_path.remove(nb)
            path.pop()

    for start in range(len(link.vertices)):
        extend(start, [start], {start})
    return [_loop_of_ids(link, c) for c in sorted(found, key=lambda c: (len(c), c))]
