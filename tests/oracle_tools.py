"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: girth is found
by exhaustive DFS cycle enumeration, the loop engine's key and witness
by the one-pass id-order engine with a Dijkstra of its own, the least
vertex on a 4-cycle and the lightest 4-cycle by trying every pair for
two common neighbours, orientation searches by enumerating every
completion, forbidden-pattern witnesses by trying every wildcard
completion of every triangle and 4-cycle, the cycles of a defining
graph and their walks by trying every ordered tuple of vertices,
canonical forms and stabilisers of sweep states by trying every vertex
permutation, links by the named corner rule read from each relator's
letters, pieces by indexing every subword of every symmetrized
relator, and the faces and checkerboard of an embedding by reading
each step from its rotation with ``index`` and 2-colouring the faces
with a parity union-find.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from artinlink import (
    HEAD,
    TAIL,
    CyclicWord,
    DefiningGraph,
    FreeWord,
    GammaEdge,
    LinkVertex,
    Orientation,
    OrientationAssignment,
)
from artinlink.presentations import hub_name


def adjacency(link) -> dict:
    """Each named vertex's (neighbour, edge index) pairs, read from the
    named edges rather than the link's own ``nbrs``."""
    out = {v: [] for v in link.vertices}
    for ei, e in enumerate(link.edges):
        out[e.a].append((e.b, ei))
        out[e.b].append((e.a, ei))
    return {v: sorted(pairs) for v, pairs in out.items()}


def dfs_all_cycle_lengths(link, max_len: int | None = None) -> list[int]:
    """Lengths of all embedded cycles up to ``max_len``, by path DFS.

    Each cycle is counted once: paths start at the cycle's smallest
    vertex and the second vertex is smaller than the last.
    """
    order = {v: i for i, v in enumerate(sorted(link.vertices))}
    neighbours = {
        v: [nb for nb, _ in pairs] for v, pairs in adjacency(link).items()
    }
    cap = max_len if max_len is not None else len(link.vertices)
    lengths = []

    def walk(start, path, on_path):
        for nb in neighbours[path[-1]]:
            if nb == start and len(path) >= 3:
                if order[path[1]] < order[path[-1]]:
                    lengths.append(len(path))
            elif (
                nb not in on_path
                and order[nb] > order[start]
                and len(path) < cap
            ):
                path.append(nb)
                on_path.add(nb)
                walk(start, path, on_path)
                on_path.discard(nb)
                path.pop()

    for start in link.vertices:
        walk(start, [start], {start})
    return sorted(lengths)


def brute_force_girth(link) -> int | None:
    """Smallest cycle length, by iteratively deepened exhaustive DFS."""
    if link.is_forest():
        return None
    cap = 3
    while cap <= len(link.vertices):
        lengths = dfs_all_cycle_lengths(link, cap)
        if lengths:
            return lengths[0]
        cap += 1
    return None


def dfs_min_angle(link, max_len: int = 12):
    """Minimum angle sum over embedded cycles of length <= max_len,
    found by exhaustive DFS over the angled link.

    Sound as an exact oracle whenever the library's reported minimum is
    at most max_len times the smallest edge angle, since any longer
    cycle weighs more than that.
    """
    order = {v: i for i, v in enumerate(sorted(link.vertices))}
    nbrs = adjacency(link)
    best = [None]

    def walk(start, path, on_path, total):
        for nb, ei in nbrs[path[-1]]:
            if nb == start and len(path) >= 3:
                if order[path[1]] < order[path[-1]]:
                    closed = total + link.edges[ei].angle
                    if best[0] is None or closed < best[0]:
                        best[0] = closed
            elif (
                nb not in on_path
                and order[nb] > order[start]
                and len(path) < max_len
            ):
                path.append(nb)
                on_path.add(nb)
                walk(start, path, on_path, total + link.edges[ei].angle)
                on_path.discard(nb)
                path.pop()

    from fractions import Fraction

    for start in link.vertices:
        walk(start, [start], {start}, Fraction(0))
    return best[0]


def dfs_min_loops(link, max_len: int, max_angle=None):
    """Minimum (angle sum, length) over embedded cycles of length <=
    max_len, and every cycle attaining it, by exhaustive DFS over the
    angled link.

    Returns ``(angle_sum, length, loops)``, each loop as its least
    vertex tuple over all rotations and both directions, sorted; or
    ``(None, None, [])`` when there is no such cycle.  Exact whenever
    the minimum is below (max_len + 1) times the smallest edge angle.
    With ``max_angle``, paths heavier than it are not extended, which
    keeps the result exact whenever the minimum is at most ``max_angle``
    (with ``max_len`` the vertex count: any minimum at all).
    """
    order = {v: i for i, v in enumerate(sorted(link.vertices))}
    nbrs = adjacency(link)
    best = [None, []]  # (angle sum, length), cycles attaining it

    def canonical(cycle):
        forms = []
        for seq in (cycle, cycle[::-1]):
            for i in range(len(seq)):
                forms.append(tuple(seq[i:] + seq[:i]))
        return min(forms)

    def walk(start, path, on_path, total):
        for nb, ei in nbrs[path[-1]]:
            angle = link.edges[ei].angle
            if nb == start and len(path) >= 3:
                if order[path[1]] < order[path[-1]]:
                    key = (total + angle, len(path))
                    if best[0] is None or key < best[0]:
                        best[0], best[1] = key, [list(path)]
                    elif key == best[0]:
                        best[1].append(list(path))
            elif (
                nb not in on_path
                and order[nb] > order[start]
                and len(path) < max_len
                and (max_angle is None or total + angle <= max_angle)
            ):
                path.append(nb)
                on_path.add(nb)
                walk(start, path, on_path, total + angle)
                on_path.discard(nb)
                path.pop()

    from fractions import Fraction

    for start in link.vertices:
        walk(start, [start], {start}, Fraction(0))
    if best[0] is None:
        return None, None, []
    return best[0][0], best[0][1], sorted(canonical(c) for c in best[1])


def least_id_on_a_four_cycle(core) -> int | None:
    """The least id on any 4-cycle of a simple graph's integer core
    (``nbrs``), else None: every pair of ids with two or more common
    neighbours lies on a 4-cycle with each two of them."""
    adjacent = [{nb for nb, _ in ns} for ns in core.nbrs]
    on_four_cycles = set()
    for a, b in combinations(range(len(adjacent)), 2):
        common = adjacent[a] & adjacent[b]
        if len(common) > 1:
            on_four_cycles |= common | {a, b}
    return min(on_four_cycles, default=None)


def lightest_four_cycle(core, steps, unset) -> tuple[int, int, int]:
    """The least key of a 4-cycle of a simple graph's integer core
    (``nbrs``), ``steps[ei]`` per edge, the least id on a 4-cycle of
    that key and the least id on any 4-cycle; ``(unset, n, n)`` if it
    has none.  Every pair of ids a, b with two common neighbours x, y
    closes the 4-cycle a-x-b-y, keyed by the sum of its four steps."""
    step = [{nb: steps[ei] for nb, ei in ns} for ns in core.nbrs]
    n = len(core.nbrs)
    best, least, anywhere = unset, n, n
    for a, b in combinations(range(len(step)), 2):
        for x, y in combinations(sorted(step[a].keys() & step[b].keys()), 2):
            key = step[a][x] + step[x][b] + step[b][y] + step[y][a]
            anywhere = min(anywhere, a, b, x, y)
            if key < best:
                best, least = key, min(a, b, x, y)
            elif key == best:
                least = min(least, a, b, x, y)
    return best, least, anywhere


def brute_force_walks(gamma: DefiningGraph) -> list[tuple[tuple, tuple]]:
    """Every triangle, then every 4-cycle, of ``gamma``, each group
    sorted, with its closed walk of (edge index, sign) steps.  Every
    ordered tuple of distinct vertices whose steps are all edges is a
    cycle; it is kept in the rotation that starts at its least vertex,
    in the direction whose second vertex is the lesser of that vertex's
    two neighbours on it.  Each step is read from the graph's key index
    ``_index``: +1 from u to v on the edge keyed (u, v), u < v."""
    index = gamma._index
    out = []
    for k in (3, 4):
        cycles = set()
        for tup in permutations(gamma.vertices, k):
            steps = list(zip(tup, tup[1:] + tup[:1]))
            if all((min(a, b), max(a, b)) in index for a, b in steps):
                i = tup.index(min(tup))
                turned = tup[i:] + tup[:i]
                cycles.add(min(turned, turned[:1] + turned[:0:-1]))
        for cycle in sorted(cycles):
            steps = zip(cycle, cycle[1:] + cycle[:1])
            out.append((cycle, tuple(
                (index[a, b], 1) if a < b else (index[b, a], -1) for a, b in steps
            )))
    return out


def id_order_shortest_cycle(link, weight=None):
    """The one-pass loop engine in id order: the least cycle key of
    ``link`` and the canonically least loop of that key, as ids;
    ``(None, None)`` for forests.

    The key is the length without ``weight``, and ``weight * n +
    length`` for ``n`` vertices with one positive integer per edge.
    Every start s in id order runs its own Dijkstra over the ids > s,
    labelling each vertex it settles with its first hop; an edge
    between two labels, or back to s from a vertex not labelled by
    itself, closes a simple cycle through s, and the least vertex of a
    least loop sees that loop.  The first start to reach the least key
    is the least vertex of any least loop, and a DFS from it over
    larger ids, in increasing order, meets the canonical loop first;
    so it sorts the neighbour lists it reads, whatever their order in
    ``link.nbrs``.
    """
    import heapq

    n = len(link.nbrs)
    steps = [
        [(nb, 1 if weight is None else weight[ei] * n + 1) for nb, ei in sorted(ns)]
        for ns in link.nbrs
    ]

    def through(s, bound):
        dist, branch = {s: 0}, {}
        heap = [(step, nb, nb) for nb, step in steps[s] if nb > s]
        heapq.heapify(heap)
        while heap:
            d, v, b = heapq.heappop(heap)
            if v in branch:
                continue
            if bound is not None and 2 * d >= bound:
                break  # every vertex of a loop below bound is nearer
            dist[v], branch[v] = d, b
            for nb, step in steps[v]:
                if nb > s and nb not in branch:
                    heapq.heappush(heap, (d + step, nb, b))
        keys = [
            dist[v] + step + dist[nb]
            for v in branch
            for nb, step in steps[v]
            if (nb == s and branch[v] != v)
            or (nb in branch and branch[nb] != branch[v])
        ]
        return min(keys, default=None), dist

    best = start = None
    for s in range(n):
        key, dist = through(s, best)
        if key is not None and (best is None or key < best):
            best, start, start_dist = key, s, dist
    if start is None:
        return None, None
    path, pending = [start], [(iter(steps[start]), 0)]
    while pending:
        ahead, prefix = pending[-1]
        nb, step = next(ahead, (None, 0))
        if nb is None:
            pending.pop()
            path.pop()
        elif nb == start and len(path) > 2 and prefix + step == best:
            return best, tuple(path)
        elif nb > start and nb not in path:
            if prefix + step + start_dist.get(nb, best) <= best:
                path.append(nb)
                pending.append((iter(steps[nb]), prefix + step))
    raise AssertionError("no least loop through the least start")


_LEVEL = {("head", True): 4, ("tail", True): 1, ("head", False): 3, ("tail", False): 2}
_KIND = {(1, 2): "bottom", (2, 3): "middle", (3, 4): "top"}


def reference_link(pres):
    """The link of a triangular presentation with hub records, by the
    named corner rule: for consecutive letters l1 l2 of a boundary
    h^-1 u v, the corner joins the terminal end of l1 to the initial
    end of l2.

    Returns ``(vertices, edges, nbrs, ends)`` in the layout of
    ``LinkGraph``, with vertices as (gen, end, level, special), edges
    as (a, b, kind, cell, corner, piece, angle) plain tuples, which
    compare equal to ``LinkVertex`` and ``LinkEdge``, and each
    neighbour list in edge-id order, as ``build_link`` leaves it.
    """
    hubs = {rec.hub for rec in pres.hub_records}
    fillers = {g for rec in pres.hub_records for g in rec.cycle[2:]}

    def vertex(gen, end):
        special = gen not in hubs and gen not in fillers
        return (gen, end, _LEVEL[(end, gen in hubs)], special)

    def terminal(letter):
        return vertex(letter.gen, "head" if letter.exp == 1 else "tail")

    def initial(letter):
        return vertex(letter.gen, "tail" if letter.exp == 1 else "head")

    vertices = tuple(
        sorted(vertex(g, end) for g in pres.generators for end in ("head", "tail"))
    )
    edges = []
    for cell, relator in enumerate(pres.relators):
        letters = relator.letters
        i = next(j for j, lt in enumerate(letters) if lt.exp == -1)
        boundary = letters[i:] + letters[:i]
        for corner in range(3):
            a, b = sorted(
                (terminal(boundary[corner]), initial(boundary[(corner + 1) % 3]))
            )
            kind = _KIND[(min(a[2], b[2]), max(a[2], b[2]))]
            edges.append((a, b, kind, cell, corner, boundary[0].gen, None))
    index = {v: i for i, v in enumerate(vertices)}
    ends = tuple((index[e[0]], index[e[1]]) for e in edges)
    nbrs = [[] for _ in vertices]
    for ei, (a, b) in enumerate(ends):
        nbrs[a].append((b, ei))
        nbrs[b].append((a, ei))
    return vertices, tuple(edges), nbrs, ends


def symmetrize(pres) -> tuple[CyclicWord, ...]:
    """Relators closed under inversion, as canonical cyclic words."""
    return tuple(sorted({*pres.relators, *(r.inverse() for r in pres.relators)}))


def brute_force_pieces(pres):
    """``(pieces, max piece length, decompositions)`` of any presentation,
    with or without cells.

    A piece is a subword found at two or more (relator, offset)
    positions of the symmetrized relators, every length and rotation
    indexed; ``decompositions`` maps each relator to the fewest pieces
    that concatenate to one of its rotations, or None.
    """
    positions: dict[tuple, set[tuple[int, int]]] = {}
    for ri, cw in enumerate(symmetrize(pres)):
        n = len(cw)
        doubled = cw.letters * 2
        for length in range(1, n + 1):
            for off in range(n):
                key = doubled[off : off + length]
                positions.setdefault(key, set()).add((ri, off))
    piece_keys = {key for key, pos in positions.items() if len(pos) >= 2}
    pieces = tuple(sorted(FreeWord(key) for key in piece_keys))
    max_len = max((len(key) for key in piece_keys), default=0)
    decompositions = {
        r: _min_piece_decomposition(r, piece_keys) for r in pres.relators
    }
    return pieces, max_len, decompositions


def _min_piece_decomposition(r: CyclicWord, piece_keys: set[tuple]) -> int | None:
    """Fewest pieces concatenating to some rotation of ``r``, by a DP
    over each rotation; None if no rotation is a product of pieces."""
    best: int | None = None
    n = len(r)
    doubled = r.letters * 2
    for start in range(n):
        window = doubled[start : start + n]
        dp: list[int | None] = [None] * (n + 1)
        dp[0] = 0
        for j in range(1, n + 1):
            options = [
                dp[i] + 1
                for i in range(j)
                if dp[i] is not None and window[i:j] in piece_keys
            ]
            if options:
                dp[j] = min(options)
        if dp[n] is not None and (best is None or dp[n] < best):
            best = dp[n]
    return best


def brute_force_witnesses(gamma: DefiningGraph) -> list[tuple]:
    """Every forbidden pattern of an oriented graph, as (kind, vertices,
    directed_edges, loop) tuples in the layout of ``ForbiddenWitness``,
    sorted by kind and vertices.

    Triangles and 4-cycles are found over all vertex subsets.  A
    triangle (v0, v1, v2) is type A if some wildcard completion, tried
    in ``product`` order over the edges v0v1, v0v2, v1v2 (u -> v
    first), has a vertex of in-degree 2; that completion and sink give
    the witness.  A 4-cycle is type B with sources (v0, v2) if every
    edge can be directed away from them, else with (v1, v3).
    """

    def arcs(u, v):  # the (tail, head) pairs edge u-v may take
        e = gamma.edge(u, v)
        options = {
            Orientation.FORWARD: [(e.u, e.v)],
            Orientation.BACKWARD: [(e.v, e.u)],
            Orientation.WILDCARD: [(e.u, e.v), (e.v, e.u)],
        }
        if e.orientation not in options:
            raise ValueError(f"edge {e.key} has no direction")
        return options[e.orientation]

    def special(gen, end):
        return LinkVertex(gen, end, 3 if end == HEAD else 2, True)

    def joined(pairs):
        return all(gamma.has_edge(a, b) for a, b in pairs)

    vs = sorted(gamma.vertices)
    out = []
    for tri in combinations(vs, 3):
        pairs = list(combinations(tri, 2))
        if not joined(pairs):
            continue
        for directed in product(*(arcs(u, v) for u, v in pairs)):
            heads = [h for _, h in directed]
            sinks = [v for v in tri if heads.count(v) == 2]
            if sinks:
                (sink,) = sinks
                q, r = (v for v in tri if v != sink)
                e = gamma.edge(q, r)
                hub = LinkVertex(hub_name(e.tail, e.head), HEAD, 4, False)
                loop = (special(sink, TAIL), special(q, HEAD), hub, special(r, HEAD))
                out.append(("A", tri, directed, loop))
                break
    for v0, a, b, c in combinations(vs, 4):
        for cyc in ((v0, a, b, c), (v0, a, c, b), (v0, b, a, c)):
            steps = list(zip(cyc, cyc[1:] + cyc[:1]))
            if not joined(steps):
                continue
            for sources in (cyc[0::2], cyc[1::2]):
                directed = tuple((u, v) if u in sources else (v, u) for u, v in steps)
                if all(d in arcs(*d) for d in directed):
                    (s1, s2), (t1, t2) = sources, [v for v in cyc if v not in sources]
                    loop = (special(s1, HEAD), special(t1, TAIL),
                            special(s2, HEAD), special(t2, TAIL))
                    out.append(("B", cyc, directed, loop))
                    break
    return sorted(out, key=lambda w: (w[0], w[1]))


def all_orientation_completions(gamma: DefiningGraph):
    """Every way of directing the unoriented edges of gamma."""
    keys = [e.key for e in gamma.unoriented_edges()]
    for choice in product(("forward", "backward"), repeat=len(keys)):
        yield OrientationAssignment(dict(zip(keys, choice)))


def oriented_copy(gamma: DefiningGraph, assignment: OrientationAssignment):
    edges = []
    for e in gamma.edges:
        if e.key in assignment.directions:
            o = (
                Orientation.FORWARD
                if assignment.directions[e.key] == "forward"
                else Orientation.BACKWARD
            )
            edges.append(GammaEdge(e.u, e.v, e.label, o))
        else:
            edges.append(e)
    return DefiningGraph(gamma.vertices, edges, gamma.rotations)


def face_faults(gamma: DefiningGraph, faces) -> list[str]:
    """What is wrong with ``faces`` as the face boundaries of ``gamma``'s
    embedding: an empty face, darts that are not each in exactly one
    face, or a step that does not leave along the neighbour after its
    arrival in the rotation at its vertex, read with ``index`` (a
    vertex with no rotation goes round its sorted neighbours)."""
    darts = sorted(d for e in gamma.edges for d in ((e.u, e.v), (e.v, e.u)))
    faults = [f"face {i} is empty" for i, face in enumerate(faces) if not face]
    if sorted(d for face in faces for d in face) != darts:
        faults.append("the faces do not partition the darts")
    rotations = gamma.rotations or {}
    for face in faces:
        for (u, v), (w, x) in zip(face, face[1:] + face[:1]):
            rot = list(rotations.get(v, gamma.neighbors(v)))
            if w != v or x != rot[(rot.index(u) + 1) % len(rot)]:
                faults.append(f"step {(u, v)} -> {(w, x)}")
    return faults


def checkerboard_faults(gamma: DefiningGraph, faces, directions) -> list[str]:
    """What is wrong with ``directions`` (edge key -> "forward" or
    "backward") as a checkerboard orientation over ``faces``: a key set
    other than the edges that are not wildcards, a face whose directed
    darts do not all run with, or all against, their edges, or an edge
    whose two darts lie in faces of one colour.  A face's colour is the
    way its directed darts run; a face of wildcards only has none."""
    wild = {e.key for e in gamma.edges if e.orientation == Orientation.WILDCARD}
    if directions.keys() != {e.key for e in gamma.edges} - wild:
        return ["the directions do not cover exactly the edges that are not wildcards"]
    faults = []
    face_of = {}
    colour = []
    for i, face in enumerate(faces):
        runs = set()
        for u, v in face:
            face_of[u, v] = i
            key = (u, v) if u < v else (v, u)
            if key not in wild:
                runs.add((directions[key] == "forward") == (u < v))
        if len(runs) > 1:
            faults.append(f"face {i} runs both ways")
        colour.append(runs)
    for e in gamma.edges:
        here, there = colour[face_of[e.u, e.v]], colour[face_of[e.v, e.u]]
        if here and here == there:
            faults.append(f"edge {e.key} lies between faces of one colour")
    return faults


def dual_conflict(gamma: DefiningGraph, faces) -> tuple[str, str] | None:
    """An edge that borders a single face, or that closes an odd cycle
    of faces across edges, found by a union-find that keeps each face's
    parity against its root; None when the faces can be 2-coloured with
    different colours on the two sides of every edge."""
    face_of = {d: i for i, face in enumerate(faces) for d in face}
    parent = list(range(len(faces)))
    parity = [0] * len(faces)

    def root(i):
        p = 0
        while parent[i] != i:
            p ^= parity[i]
            i = parent[i]
        return i, p

    for e in gamma.edges:
        (a, pa), (b, pb) = root(face_of[e.u, e.v]), root(face_of[e.v, e.u])
        if a == b and pa == pb:
            return e.key
        if a != b:
            parent[a], parity[a] = b, pa ^ pb ^ 1
    return None


# direction codes of the sweep states: 1/2 and 3/4 are the two
# directions of labels 3 and 4; 0 (absent) and 5 (wildcard) have none
_REVERSED_CODE = {0: 0, 1: 2, 2: 1, 3: 4, 4: 3, 5: 5}
# codes of undirected states: absent, or a label, read the same both ways
_UNDIRECTED_CODE = {0: 0, 2: 2, 3: 3, 4: 4}


def _pair_moves(n: int) -> list[list[tuple[int, bool]]]:
    """Per vertex permutation of K_n: where each pair (in
    ``combinations`` order) goes, and whether its endpoints swap order."""
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    perms = []
    for perm in permutations(range(n)):
        moves = []
        for a, b in pairs:
            x, y = perm[a], perm[b]
            moves.append((index[(x, y) if x < y else (y, x)], x > y))
        perms.append(moves)
    return perms


def _images(state, perms, code_seen_reversed):
    """The image of ``state`` under each permutation of ``perms``."""
    for moves in perms:
        mapped = [0] * len(moves)
        for v, (j, reverse) in zip(state, moves):
            mapped[j] = code_seen_reversed[v] if reverse else v
        yield tuple(mapped)


def least_images(states, n: int) -> list[tuple[int, ...]]:
    """Least image of each state (a tuple over the vertex pairs of K_n
    in ``combinations`` order) over all n! vertex permutations, with a
    pair's direction code reversed when its endpoints swap order."""
    perms = _pair_moves(n)
    return [min(_images(state, perms, _REVERSED_CODE)) for state in states]


def undirected_orbits(states, n: int) -> list[tuple[tuple[int, ...], int]]:
    """(least image, stabiliser order) of each undirected state (codes 0
    absent and 2, 3, 4 labels) over all n! vertex permutations: the
    image that is least, and the count of images equal to the state."""
    perms = _pair_moves(n)
    out = []
    for state in states:
        images = list(_images(state, perms, _UNDIRECTED_CODE))
        out.append((min(images), images.count(tuple(state))))
    return out
