"""Embedded loops in links: girth, minimum-angle cycles, enumeration.

Every search runs on the link's dense integer core (``LinkGraph.nbrs``
and ``LinkGraph.ends``): vertices are ids, positions in the sorted
vertex tuple, and loops are tuples of ids until one is returned.
Because ids follow the sorted vertex order, every heap, tuple and
canonical-rotation tie-break on ids orders exactly as it would on the
vertices themselves, so the witnesses are the canonically least loops.
A search builds an :class:`EmbeddedLoop` (validated, with its exact
angle sum) only for the loops it returns.

Links built by this package are bipartite (every edge joins adjacent
levels) and simple, so embedded loops have even length >= 4.  The girth
search therefore first scans for 4-loops via common neighbours and only
then falls back to the general per-edge algorithm: remove an edge,
take a shortest path between its ends, and close it up.

Angles are exact Fractions in units of pi; the weighted search scales
them to integers, so no comparison ever happens in floating point.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .complex_link import LinkGraph, LinkVertex

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


def _four_cycles(link: LinkGraph) -> list[tuple[int, ...]]:
    """All embedded 4-loops as canonical id tuples, sorted, via pairs of
    vertices with >= 2 common neighbours.  Valid for simple graphs."""
    pair_hubs: dict[tuple[int, int], list[int]] = {}
    for w, ns in enumerate(link.nbrs):
        for pair in combinations([nb for nb, _ in ns], 2):
            pair_hubs.setdefault(pair, []).append(w)
    cycles = set()
    for (x, y), hubs in pair_hubs.items():
        for w1, w2 in combinations(hubs, 2):
            cycles.add(_canonical_cycle([x, w1, y, w2]))
    return sorted(cycles)


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


def _bfs_shortest_path(
    link: LinkGraph,
    source: int,
    target: int,
    banned_edge: int,
    max_len: int | None,
) -> list[int] | None:
    """Shortest id path avoiding one edge, among paths of length <= max_len."""
    parent: dict[int, int | None] = {source: None}
    depth = {source: 0}
    queue = deque([source])
    nbrs = link.nbrs
    while queue:
        cur = queue.popleft()
        if cur == target:
            break
        if max_len is not None and depth[cur] >= max_len:
            continue
        for nb, ei in nbrs[cur]:
            if ei == banned_edge or nb in parent:
                continue
            parent[nb] = cur
            depth[nb] = depth[cur] + 1
            queue.append(nb)
    if target not in parent:
        return None
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def girth(link: LinkGraph) -> tuple[int | None, EmbeddedLoop | None]:
    """Minimum edge count over embedded loops, with a canonical witness.

    Returns ``(None, None)`` for forests.  Ties between witness loops
    are broken by the canonical lexicographic vertex order.  A
    common-neighbour scan answers girth-4 links immediately; otherwise
    the per-edge-removal search runs.
    """
    if not link.edges:
        return None, None
    four = _four_cycles(link)
    if four:
        return 4, _loop_of_ids(link, four[0])
    return _girth_by_edge_removal(link)


def _girth_by_edge_removal(
    link: LinkGraph,
) -> tuple[int | None, EmbeddedLoop | None]:
    """Shortest cycle as min over edges of (shortest path avoiding the
    edge) + the edge itself."""
    best_len: int | None = None
    best: tuple[int, ...] | None = None
    for ei, (a, b) in enumerate(link.ends):
        cap = None if best_len is None else best_len - 1
        path = _bfs_shortest_path(link, a, b, ei, cap)
        if path is None:
            continue
        if best_len is None or len(path) < best_len:
            best_len, best = len(path), _canonical_cycle(path)
        else:  # len(path) == best_len, by the cap
            canon = _canonical_cycle(path)
            if canon < best:
                best = canon
    if best is None:
        return None, None
    return best_len, _loop_of_ids(link, best)


def min_angle_cycle(
    link: LinkGraph,
) -> tuple[Fraction | None, EmbeddedLoop | None]:
    """Minimum total angle over embedded loops, computed exactly.

    Angles must be assigned on every edge.  Ties prefer the shorter
    loop, then the canonically least one.  Returns ``(None, None)``
    for forests.

    One Dijkstra per edge finds the lightest loop through it; the
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
    if max_len < 6:
        # Links are bipartite (levels alternate), so loops under length 6
        # are exactly the 4-loops; the common-neighbour scan finds them.
        cycles = _four_cycles(link) if max_len >= 4 else []
        return [_loop_of_ids(link, c) for c in cycles]
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
