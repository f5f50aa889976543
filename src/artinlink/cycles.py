"""Embedded loops in links: girth, minimum-angle cycles, enumeration.

Every search runs on the link's dense integer core (``LinkGraph.nbrs``
and ``LinkGraph.ends``): vertices are ids, their positions in the
sorted vertex tuple, so every tie-break on ids is the tie-break on the
vertices and each witness is the canonically least loop.  A search
builds an :class:`EmbeddedLoop` (validated, with its exact angle sum)
only for the loops it returns.

One shortest-cycle engine finds the girth and the minimum-angle loop:
a search from each vertex over the larger ids (Itai and Rodeh, 1978),
then one DFS for the witness.  The search is a BFS on hop counts, and
a Dijkstra on integer weights when the angles differ (Roditty and
Vassilevska Williams, 2011).  Angles are read as the link's integer
weights over one unit of pi, so no comparison is ever in floating
point.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

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
        return sum(map(link.is_middle, self.edge_indices))

    def __str__(self) -> str:
        names = [v.bar_name for v in self.vertices]
        return " - ".join(names + [names[0]])


def make_loop(link: LinkGraph, vertices: list[LinkVertex]) -> EmbeddedLoop:
    """Canonicalize and validate a vertex cycle against ``link``."""
    if len(vertices) != len(set(vertices)):
        raise ValueError("loop vertices must be pairwise distinct")
    if len(vertices) < 3:
        raise ValueError("a loop needs at least 3 vertices")
    # the least rotation of either direction starts at the least vertex
    i = vertices.index(min(vertices))
    forward = vertices[i:] + vertices[:i]
    canon = tuple(min(forward, forward[:1] + forward[:0:-1]))
    idxs = []
    for i, v in enumerate(canon):
        w = canon[(i + 1) % len(canon)]
        if not link.has_edge(v, w):
            raise ValueError(f"loop step {v} - {w} is not a link edge")
        idxs.append(link.edge_index(v, w))
    w = link.weight
    total = None if w is None else Fraction(sum(w[i] for i in idxs), link.angle_unit)
    return EmbeddedLoop(canon, tuple(idxs), total)


def _loop_of_ids(link: LinkGraph, ids) -> EmbeddedLoop:
    return make_loop(link, [link.vertices[i] for i in ids])


def has_short_loop(link: LinkGraph) -> bool:
    """Whether the link has an embedded loop of length < 6.

    Links are bipartite and simple, so this is exactly "some two
    vertices share two neighbours", i.e. girth 4.
    """
    n = len(link.nbrs)
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


def _lightest_cycle_through(
    steps: list[list[tuple[int, int]]], s: int, best: int
) -> tuple[int, dict[int, int]]:
    """The weighted form of :func:`_least_cycle_through`: a Dijkstra
    over the ids > s on the packed keys of ``steps``, with the same
    branch labels.  Each edge is checked against the branch at its far
    end before it is relaxed, so a neighbour of ``s`` first reached
    round another branch closes the cycle back over its edge to ``s``.
    Returns the least cycle key below ``best`` (else ``best``) and the
    key of each vertex reached, exact below half the returned key.
    """
    n = len(steps)
    dist = {s: 0}
    branch = {}
    heap = []
    for nb, step in steps[s]:
        if nb > s:
            branch[nb] = nb
            dist[nb] = step
            heap.append(step * n + nb)
    heapq.heapify(heap)
    while heap:
        key, cur = divmod(heapq.heappop(heap), n)
        if 2 * key >= best:
            break  # no cycle through a farther vertex is lighter
        if key != dist[cur]:
            continue  # stale entry
        b = branch[cur]
        for nb, step in steps[cur]:
            if nb <= s:
                continue
            cand = key + step
            old = dist.get(nb)
            if old is not None:
                if branch[nb] != b and cand + old < best:
                    best = cand + old
                if cand >= old:
                    continue
            dist[nb] = cand
            branch[nb] = b
            heapq.heappush(heap, cand * n + nb)
    return best, dist


def _shortest_cycle(
    link: LinkGraph, weight: list[int] | None = None
) -> tuple[int | None, tuple[int, ...] | None]:
    """Least cycle key and the canonically least loop of that key, as
    an id tuple; ``(None, None)`` for forests.

    Without ``weight`` the key is the length and each start runs a BFS.
    With a positive integer weight per edge it is ``weight * n +
    length`` for ``n`` vertices, which orders as the pair, and each
    start runs a Dijkstra.  The first start to reach the least key is
    the least vertex on any loop of that key: a loop whose two arcs
    meet in one branch leaves a lighter loop.  A DFS from it over larger
    ids, in increasing order, meets the canonical loop first.  Each
    vertex of that loop lies within half the key of the start, so the
    DFS prunes every vertex farther away than the key left to close up.
    """
    n = len(link.nbrs)
    if weight is None:
        adj = [[nb for nb, _ in ns] for ns in link.nbrs]  # sorted ids
        search, best = _least_cycle_through, n + 1
    else:
        adj = [[(nb, weight[ei] * n + 1) for nb, ei in ns] for ns in link.nbrs]
        # above every loop key, a Hamiltonian loop's (sum(weight), n) too
        search, best = _lightest_cycle_through, (sum(weight) + 1) * n + 1
    start = None
    for s in range(n):
        key, dist = search(adj, s, best)
        if key < best:
            best, start, start_dist = key, s, dist
    if start is None:
        return None, None
    steps = adj if weight else [[(nb, 1) for nb in ns] for ns in adj]
    path, pending = [start], [(iter(steps[start]), 0)]
    while pending:
        ahead, prefix = pending[-1]
        nb, step = next(ahead, (None, 0))
        if nb is None:
            pending.pop()
            path.pop()
        elif nb == start and prefix + step == best:
            # canonical: its reverse, a least loop too, would close first
            return best, tuple(path)
        elif nb > start and prefix + step + start_dist.get(nb, best) <= best:
            if nb not in path:
                path.append(nb)
                pending.append((iter(steps[nb]), prefix + step))
    raise InternalInconsistencyError("no least loop through its start")


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
    passes it as ``shortest`` to save the search.  Otherwise the
    shortest-cycle engine runs on the link's integer weights, keyed by
    (weight, length), and a loop is built just for its winner.
    """
    if not link.angles_assigned:
        raise UnassignedAnglesError("link has edges without angles")
    weight = link.weight
    if not weight:
        return None, None
    least = min(weight)
    if least <= 0:
        e = link.edges[next(ei for ei, w in enumerate(weight) if w <= 0)]
        raise UnassignedAnglesError(f"non-positive angle on edge {e.a}-{e.b}")
    if least == max(weight):
        _, loop = girth(link) if shortest is None else shortest
        vertices = None if loop is None else list(loop.vertices)
    else:
        _, ids = _shortest_cycle(link, weight)
        vertices = None if ids is None else [link.vertices[i] for i in ids]
    if vertices is None:
        return None, None
    loop = make_loop(link, vertices)  # sums this link's angles
    return loop.angle_sum, loop


def enumerate_short_loops(link: LinkGraph, max_len: int) -> list[EmbeddedLoop]:
    """All embedded loops of length <= ``max_len``, each once up to
    rotation and reflection, sorted canonically.

    ``max_len`` is capped at 8; longer enumerations are out of scope.
    """
    if max_len > LOOP_ENUMERATION_GUARD:
        raise LimitExceededError(
            f"max_len {max_len} exceeds the guard {LOOP_ENUMERATION_GUARD}"
        )
    if max_len < 3 or not link.ends:
        return []
    nbrs = [[nb for nb, _ in ns] for ns in link.nbrs]
    found: list[tuple[int, ...]] = []

    def extend(path: list[int]):
        # a path starts at its loop's least vertex and closes only in
        # the canonical direction, so each loop is met once, canonical
        for nb in nbrs[path[-1]]:
            if nb == path[0] and path[1] < path[-1]:
                found.append(tuple(path))
            elif nb > path[0] and len(path) < max_len and nb not in path:
                path.append(nb)
                extend(path)
                path.pop()

    for start in range(len(nbrs)):
        extend([start])
    found.sort(key=lambda c: (len(c), c))
    return [_loop_of_ids(link, c) for c in found]
