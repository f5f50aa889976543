"""Embedded loops in links: girth, minimum-angle cycles, enumeration.

Every search runs on the link's integer core, and angles are its
integer weights, so no comparison is in floating point.  Ids follow
the sorted vertex order, so a tie-break on ids is the tie-break on the
vertices.  An :class:`EmbeddedLoop` is built only for a loop returned.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

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
    canon = _canonical(vertices)
    ids = tuple(map(link._resolve, canon))
    if -1 in ids:
        raise ValueError(f"loop vertex {canon[ids.index(-1)]} is not in the link")
    eids = link._steps(ids)
    if None in eids:
        i = eids.index(None)
        v, w = canon[i], canon[(i + 1) % len(canon)]
        raise ValueError(f"loop step {v} - {w} is not a link edge")
    return _loop(link, canon, eids)


def _canonical(cycle) -> tuple:
    """The least rotation of either direction: it starts at the least entry."""
    i = cycle.index(min(cycle))
    forward = cycle[i:] + cycle[:i]
    return tuple(min(forward, forward[:1] + forward[:0:-1]))


def _loop(link: LinkGraph, vertices, eids) -> EmbeddedLoop:
    """The loop through ``vertices`` in canonical order, step k being
    edge ``eids[k]`` from vertex k to the next.  Ids order as vertices
    do, so the canonical ids of the engine and the enumeration name the
    canonical loop."""
    w = link.weight
    total = None if w is None else Fraction(sum(w[i] for i in eids), link.angle_unit)
    return EmbeddedLoop(tuple(vertices), tuple(eids), total)


def has_short_loop(link: LinkGraph) -> bool:
    """Whether the link has an embedded loop of length < 6.

    Links are bipartite and simple, so this is exactly "some two
    vertices share two neighbours", i.e. girth 4.  Edges join adjacent
    levels (``_set_core`` checks it), so two opposite vertices of every
    4-cycle have even levels: their neighbour pairs alone find it.

    The even vertices are visited by descending degree, ids ascending
    within a degree, so the generators' tails and the hub heads come
    before the chain tails.  The scan leaves at the first pair met
    twice; with none, it reads every even vertex, so the answer does
    not depend on the order.  A pair x < y is keyed ``x * n + y``, so
    each list visited is sorted in place first; no other order counts.
    """
    n = len(link.nbrs)
    seen: set[int] = set()
    even = [ns for ns, level in zip(link.nbrs, link.levels) if not level % 2]
    even.sort(key=len, reverse=True)  # stable: ids ascend within a degree
    for ns in even:
        ns.sort()
        for (x, _), (y, _) in combinations(ns, 2):
            key = x * n + y
            if key in seen:
                return True
            seen.add(key)
    return False


def _has_short_light_loop(link: LinkGraph) -> bool:
    """Whether the light (bottom and top) edges hold a loop of at most
    six edges.

    Edges join adjacent levels (``_set_core`` checks it) and the middle
    ones join levels 2 and 3, so the light edges are the stars of the
    level-1 and level-4 vertices, each edge in one star.  A light loop
    alternates centres and inner vertices, each of these in two stars
    of two or more edges; the other inner vertices are dropped.  A pair
    of kept vertices met in two stars closes four edges.  With none,
    pairs (p, r), (r, t) and (p, t) close six unless one star holds all
    three, as a star holding two of them holds the third.  Links are
    bipartite, so loops are even.  Each star's kept vertices are sorted,
    so that p < r in every pair; the stars and their lists may come in
    any order.
    """
    nbrs = link.nbrs
    stars = [ns for ns, lv in zip(nbrs, link.levels) if lv in (1, 4) and len(ns) > 1]
    held = [0] * len(nbrs)
    for ns in stars:
        for x, _ in ns:
            held[x] += 1
    above: dict[int, dict[int, int]] = {}  # p -> r -> the star of pair (p, r), p < r
    for c, ns in enumerate(stars):
        kept = sorted([x for x, _ in ns if held[x] > 1])
        for p, r in combinations(kept, 2):
            paired = above.setdefault(p, {})
            if r in paired:
                return True
            paired[r] = c
    for paired in above.values():  # from the least inner vertex p of a 6-loop
        for r, c in paired.items():
            for t, d in above.get(r, {}).items():
                if d != c and t in paired:
                    return True
    return False


def _lightest_four_cycle(
    nbrs: Sequence[list[tuple[int, int]]], steps: Sequence[int], unset: int
) -> tuple[int, int]:
    """The least key of a 4-cycle of the simple graph ``nbrs``, of
    (neighbour id, edge id) pairs in any order with step ``steps[ei]``
    per edge, and the least id on a 4-cycle of that key; ``(unset, n)``
    if it has none.

    Each 4-cycle is met from its vertex v of largest (degree, id) rank:
    both paths v-u-w to its opposite vertex w run through ranks below
    v's, so the scan costs O(edges * arboricity) (Chiba and Nishizeki,
    1985).  Each path v-u-w is paired with the lightest one met before
    it, of least u in a tie.  Take p of least u among the lightest
    paths from v to w, and q of least u among the lightest of the rest:
    whichever of p and q comes later is paired with the other, so in
    whatever order the u come, the pairs met hold the least u on a
    lightest 4-cycle through v and w.  It scans the whole graph, as the
    least id may lie on a 4-cycle met late.
    """
    n = len(nbrs)
    rank = [0] * n
    for r, v in enumerate(sorted(range(n), key=list(map(len, nbrs)).__getitem__)):
        rank[v] = r
    best, least = unset, n
    for v, ns in enumerate(nbrs):
        top = rank[v]
        lightest: dict[int, tuple[int, int]] = {}  # w -> (key, u) of a path v-u-w
        for u, e in ns:
            if rank[u] < top:
                a = steps[e]
                for w, f in nbrs[u]:
                    if rank[w] < top:
                        key = a + steps[f]
                        old = lightest.get(w)
                        if old is None:
                            lightest[w] = key, u
                            continue
                        if key + old[0] <= best:  # v-u-w-old[1] is a 4-cycle
                            if key + old[0] < best:
                                best, least = key + old[0], n
                            least = min(least, v, w, u, old[1])
                        if key < old[0] or key == old[0] and u < old[1]:
                            lightest[w] = key, u
    return best, least


def _least_cycle_through(
    nbrs: Sequence[list[tuple[int, int]]], steps: Sequence[int], s: int, best: int
) -> tuple[int, dict[int, int], set[int]]:
    """The least key below ``best`` of a simple cycle through ``s`` over
    the ids > s of ``nbrs``, (neighbour id, edge id) pairs with step
    ``steps[ei]`` per edge (else ``best``), the key of each vertex
    reached, and the ends of the edges that closed a cycle of that key.

    A Dijkstra with one heap entry per distinct key, so unit steps run
    as BFS levels.  Each vertex is labelled with its first hop, and an
    edge between two labels, checked before it is relaxed, closes a
    simple cycle through ``s``.  Keys from half of ``best - slack`` on
    are not expanded, as every lighter cycle closes nearer, so the keys
    are exact up to there.  ``slack`` drops from 1 to 0 once a key is
    lowered by one (never on a bipartite link): that vertex may close a
    least loop over the edge it was first reached by.
    """
    dist = {s: 0}
    branch = {}
    levels: dict[int, list[int]] = {}
    for nb, ei in nbrs[s]:
        if nb > s:
            branch[nb] = nb
            dist[nb] = step = steps[ei]
            levels.setdefault(step, []).append(nb)
    keys = list(levels)
    heapq.heapify(keys)
    ends: set[int] = set()
    slack = 1
    while keys:
        key = heapq.heappop(keys)
        if 2 * key + slack >= best:
            break  # no cycle through a farther vertex is lighter
        for cur in levels.pop(key):
            if key != dist[cur]:
                continue  # reached again on a lighter key
            b = branch[cur]
            for nb, ei in nbrs[cur]:
                if nb <= s:
                    continue
                cand = key + steps[ei]
                old = dist.get(nb)
                if old is not None:
                    if branch[nb] != b and cand + old <= best:
                        if cand + old < best:
                            best, ends = cand + old, set()
                        ends.add(cur)
                        ends.add(nb)
                    if cand >= old:
                        continue
                    if cand + 1 == old:
                        slack = 0
                dist[nb] = cand
                branch[nb] = b
                level = levels.get(cand)
                if level is None:
                    levels[cand] = [nb]
                    heapq.heappush(keys, cand)
                else:
                    level.append(nb)
    return best, dist, ends


def _shortest_cycle(
    link: LinkGraph, weight: list[int] | None = None
) -> tuple[int | None, tuple[int, ...] | None, tuple[int, ...] | None]:
    """Least cycle key and the canonically least loop of that key, as
    an id tuple and the edge id of each step; ``(None, None, None)``
    for forests.

    Without ``weight`` the key is the length; with a positive integer
    weight per edge it is ``weight * n + length`` for ``n`` vertices,
    which orders as the pair.  A search from ``s`` over the ids above
    ``s`` sees every least loop whose least id is ``s``.

    Pass 1 finds the key and the start, the least id on a least loop.
    On a link it starts from a bound B on the loops of six or more
    edges.  Edges join adjacent levels, so each loop crosses the middle
    (levels 2 to 3) an even number of times, and is light if never;
    links are bipartite, so loops are even.  So B is 6 on hops, and
    with weights the least of two middle steps plus four least steps,
    and of eight light steps, or six if the light edges hold a loop of
    at most six edges, which one scan of their stars tells.  (a) A
    4-cycle lighter than B gives the key and the start.  (b) Otherwise
    the first id whose search meets B is the start; a search below B
    is an inconsistency.  (c) Otherwise, or off a link, pass 1 searches
    from each vertex in (-degree, id) order.
    Below half a least key shortest paths are unique, so a search that
    reaches the key so far traces its least loops back from their
    closing edges, and the least id collected by the searches that
    reach the final key is the start.

    Pass 2 is one search from the start.  A DFS over larger ids, in
    increasing order, meets the canonical loop first; each vertex of
    that loop lies within half the key of the start, so the search's
    keys prune the DFS.

    Pass 1's skip and pass 2's DFS read the neighbour lists in id
    order, so the core's lists are sorted in place first: on a list
    already sorted, as after a first search, that is one linear pass.
    """
    nbrs = link.nbrs  # read in place
    for ns in nbrs:
        ns.sort()
    n = len(nbrs)
    steps = [1] * len(link.ends) if weight is None else [w * n + 1 for w in weight]
    unset = sum(steps) + 1  # above every loop key, a loop on all edges' too
    best, start, start_dist = unset, n, None
    if isinstance(link, LinkGraph) and steps:
        # pass 1 from the bound on every loop of six or more edges
        if weight is None:
            bound = 6
        else:
            levels = link.levels
            middle = [levels[a] + levels[b] == 5 for a, b in link.ends]
            lo = min(steps)
            mid = min((st for st, m in zip(steps, middle) if m), default=unset)
            light = min((st for st, m in zip(steps, middle) if not m), default=unset)
            bound = min(2 * mid + 4 * lo, 8 * light)
            if 6 * light < bound and _has_short_light_loop(link):
                bound = 6 * light
        four_key, four = _lightest_four_cycle(nbrs, steps, unset)
        if four_key < bound:  # every loop of six or more edges is heavier
            best, start = four_key, four
        else:
            for s, ns in enumerate(nbrs):
                if len(ns) < 2 or ns[-2][0] <= s:
                    continue  # s is the least id on no loop
                key, dist, _ = _least_cycle_through(nbrs, steps, s, bound + 1)
                if key < bound:
                    raise InternalInconsistencyError(
                        f"a loop of key {key} below the proven bound {bound}"
                    )
                if key == bound:  # this is pass 2's search from s
                    best, start, start_dist = key, s, dist
                    break
    if best == unset:
        # pass 1 by rank: hubs first, and ids in order within a degree,
        # as a reversed sort is still stable
        degree = list(map(len, nbrs))
        order = sorted(range(n), key=degree.__getitem__, reverse=True)
        rank = [0] * n
        for r, v in enumerate(order):
            rank[v] = r
        ranked = [[(rank[nb], ei) for nb, ei in nbrs[v]] for v in order]
        for r in range(n):
            key, dist, ends = _least_cycle_through(ranked, steps, r, best + 1)
            if key < best:
                best, start = key, n
            if key > best or min(map(order.__getitem__, dist)) >= start:
                continue
            # back from the closing ends over every shortest path: the
            # vertices on the least loops through r
            on_loops, pending = set(ends), list(ends)
            while pending:
                v = pending.pop()
                d = dist[v]
                for nb, ei in ranked[v]:
                    if dist.get(nb, d) + steps[ei] == d and nb not in on_loops:
                        on_loops.add(nb)
                        pending.append(nb)
            start = min(start, *map(order.__getitem__, on_loops))
        if best == unset:
            return None, None, None
    if start_dist is None:  # pass 2, the pruning keys of the canonical start
        _, start_dist, _ = _least_cycle_through(nbrs, steps, start, best + 1)
    path, trail, pending = [start], [], [(iter(nbrs[start]), 0)]
    while pending:
        ahead, prefix = pending[-1]
        for nb, ei in ahead:
            key = prefix + steps[ei]
            if nb == start and key == best:
                # canonical: its reverse, a least loop too, would close first
                return best, tuple(path), (*trail, ei)
            if nb > start and key + start_dist.get(nb, best) <= best and nb not in path:
                path.append(nb)
                trail.append(ei)
                pending.append((iter(nbrs[nb]), key))
                break
        else:
            pending.pop()
            path.pop()
            del trail[-1:]  # the start was entered by no edge
    raise InternalInconsistencyError("no least loop through its start")


def _hop_search(
    link: LinkGraph,
) -> tuple[int | None, tuple[int, ...] | None, tuple[int, ...] | None]:
    """The hop search of ``link``'s integer core, run on first use only:
    angled copies share the core's holder, and each part has its own."""
    if not link._hops:
        link._hops.append(_shortest_cycle(link))
    return link._hops[0]


def girth(link: LinkGraph) -> tuple[int | None, EmbeddedLoop | None]:
    """Minimum edge count over embedded loops, with a canonical witness.

    Returns ``(None, None)`` for forests.  Ties between witness loops
    are broken by the canonical lexicographic vertex order.
    """
    length, ids, eids = _hop_search(link)
    return length, None if ids is None else _loop(link, link._named(ids), eids)


def min_angle_cycle(link: LinkGraph) -> tuple[Fraction | None, EmbeddedLoop | None]:
    """Minimum total angle over embedded loops, computed exactly.

    Angles must be assigned on every edge.  Ties prefer the shorter
    loop, then the canonically least one.  Returns ``(None, None)``
    for forests.  With one angle on every edge the lightest loops are
    the shortest, and the tie-breaks agree, so the hop search that
    ``girth`` shares gives the answer.
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
    uniform = least == max(weight)
    _, ids, eids = _hop_search(link) if uniform else _shortest_cycle(link, weight)
    if ids is None:
        return None, None
    loop = _loop(link, link._named(ids), eids)
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
    nbrs = link.nbrs
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def extend(path: list[int], trail: list[int], back: dict[int, int]):
        # a path starts at its loop's least vertex and closes only in
        # the canonical direction, so each loop is met once, canonical
        s, deeper = path[0], len(path) + 1 < max_len
        for nb, ei in nbrs[path[-1]]:
            if nb > s and nb not in path:
                if nb in back and path[1] < nb:  # nb closes the loop
                    found.append(((*path, nb), (*trail, ei, back[nb])))
                if deeper:
                    path.append(nb)
                    trail.append(ei)
                    extend(path, trail, back)
                    path.pop()
                    trail.pop()

    for s, ns in enumerate(nbrs):
        back = dict(ns)  # neighbour of s -> the edge id back to s
        for nb, ei in ns:
            if nb > s:
                extend([s, nb], [ei], back)
    found.sort(key=lambda c: (len(c[0]), c[0]))
    return [_loop(link, link._named(ids), eids) for ids, eids in found]
