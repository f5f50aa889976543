"""Exhaustive verification batteries behind the ``verify-lemmas`` command.

Each battery is a list of cases and a module-level predicate, run by
one runner, :func:`_sweep`: timed, in chunks, over a process pool or in
turn, with failing cases reported in case order for any pool size.

* two-generator equivalences: the rewriting replayed for each label;
* triangle girth: every labelled oriented triangle's link has girth 6
  and its middle subgraph splits into (m+n+p-9) isolated edges plus
  three 3-chains;
* pattern oracle: on every oriented labelled graph on up to five
  vertices, one per isomorphism class (the least image of its orbit),
  and on its wildcard variant, the detector fires exactly when the
  link has an embedded 4-loop, that is girth < 6, links being
  bipartite and simple; the girth routine re-runs on every 97th case;
* triangle-free B2, and seeded random spot checks of the pattern oracle.

Both enumerations go shape first (:func:`_shape_first`): canonical 0/1
shapes, labelled up to their automorphisms, each shape's labellings
canonicalised as one batch, then each class oriented up to its own
automorphisms.
"""

from __future__ import annotations

import functools
import random
import time
from itertools import (
    combinations,
    combinations_with_replacement,
    groupby,
    permutations,
    product,
)
from multiprocessing import Pool
from operator import itemgetter, methodcaller
from typing import NamedTuple

from .complex_link import link_of
from .curvature import B2, assign_metric, check_link_condition
from .cycles import girth, has_short_loop
from .forbidden import has_forbidden
from .presentations import (
    DefiningGraph,
    GammaEdge,
    Orientation,
    triangle_graph,
    verify_tietze_equivalence,
)


class BatteryResult(NamedTuple):
    name: str
    cases: int
    failures: list[str]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status} {self.name}: {self.cases - len(self.failures)}/{self.cases} "
            f"cases in {self.elapsed:.1f}s"
        )


_CHUNK = 256  # cases per chunk, and per task of a pool


def _failing(args) -> list[int]:
    """Indices of the cases of one chunk that ``check`` rejects."""
    check, first, chunk = args
    return [first + i for i, case in enumerate(chunk) if not check(*case)]


def _sweep(
    name: str, check, cases: list[tuple], label: str, processes: int | None = None
) -> BatteryResult:
    """Run ``check(*case)`` on every case, in chunks mapped over a pool
    when ``processes`` > 1.  Failing cases are reported as
    ``label.format(*case, i=index)``, in case order."""
    start = time.perf_counter()
    chunks = [(check, i, cases[i : i + _CHUNK]) for i in range(0, len(cases), _CHUNK)]
    if processes and processes > 1:
        with Pool(processes) as pool:
            results = pool.map(_failing, chunks)
    else:
        results = map(_failing, chunks)
    failures = [label.format(*cases[i], i=i) for fails in results for i in fails]
    return BatteryResult(name, len(cases), failures, time.perf_counter() - start)


def _tietze_ok(m: int) -> bool:
    return verify_tietze_equivalence(m).ok


def battery_tietze(max_label: int = 50) -> BatteryResult:
    cases = [(m,) for m in range(2, max_label + 1)]
    return _sweep("two-generator-equivalences", _tietze_ok, cases, "m={0}")


def middle_decomposition(link) -> tuple[int, int, bool]:
    """(isolated edge count, 3-chain count, nothing else) of the middle
    subgraph."""
    mid = link.middle_subgraph()
    singles = chains = 0
    clean = True
    for vs, es in mid.components():
        if len(vs) == 2 and len(es) == 1:
            singles += 1
        elif len(vs) == 4 and len(es) == 3 and all(len(mid.nbrs[i]) <= 2 for i in vs):
            chains += 1
        else:
            clean = False
    return singles, chains, clean


def _triangle_girth_ok(m: int, n: int, p: int) -> bool:
    # the girth and the middle counts do not depend on generator names
    link = link_of(triangle_graph(m, n, p))
    g, _ = girth(link)
    singles, chains, clean = middle_decomposition(link)
    return g == 6 and clean and chains == 3 and singles == m + n + p - 9


def battery_triangle_girth(max_label: int = 5) -> BatteryResult:
    cases = list(product(range(3, max_label + 1), repeat=3))
    return _sweep("triangle-girth", _triangle_girth_ok, cases, "(m,n,p)=({0},{1},{2})")


# -- canonical enumeration of small labelled graphs ----------------------


# Pair codes: 0 absent; labelled edges come in (forward, backward) code
# pairs, plus one wildcard code per label-2 edge.  _FLIP maps each code
# to the same edge seen from the pair's other end.
_FLIP = bytes.maketrans(bytes(range(6)), bytes((0, 2, 1, 4, 3, 5)))
_ORIENTED_DECODE = {
    1: (3, Orientation.FORWARD),
    2: (3, Orientation.BACKWARD),
    3: (4, Orientation.FORWARD),
    4: (4, Orientation.BACKWARD),
    5: (2, Orientation.WILDCARD),
}
# the codes an undirected entry can take: a label's two directions, or
# the wildcard for label 2
_CODES = {0: (0,), 2: (5,), 3: (1, 2), 4: (3, 4)}
# each code's undirected entry, read back from _CODES
_UNDIRECTED = bytes.maketrans(
    bytes(c for codes in _CODES.values() for c in codes),
    bytes(label for label, codes in _CODES.items() for _ in codes),
)


def _getter(indices):
    """``itemgetter`` that returns a tuple for any number of indices."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda s: tuple(s[i] for i in indices)


def _permutation_table(n: int):
    """Row and image getters over ``ext = state + flipped state``
    (``ext[i + m]`` is pair i seen from its larger end).

    ``rows[a]`` reads vertex a's codes to the others, seen from a.
    ``blocks[a]`` holds (pick, getter) for each permutation that makes
    a vertex 0 and its ``order[k]``-th other vertex k + 1, the identity
    first; ``pick`` reads a row in that order.
    """
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    index = {p: i for i, p in enumerate(pairs)}

    def seen_from(a, b):
        return index[(a, b)] if a < b else index[(b, a)] + m

    rows, blocks = [], []
    for a in range(n):
        others = [b for b in range(n) if b != a]
        rows.append(_getter([seen_from(a, b) for b in others]))
        block = []
        for order in permutations(range(n - 1)):
            new_to_old = [a] + [others[k] for k in order]
            get = _getter([seen_from(new_to_old[x], new_to_old[y]) for x, y in pairs])
            block.append((_getter(order), get))
        blocks.append(block)
    return rows, blocks


def _least_per_orbit(choices, auts, flip=_FLIP) -> list[tuple[int, ...]]:
    """The least state of each orbit of ``auts`` on ``product(*choices)``,
    in lexicographic order; ``flip`` reverses a pair's code (None: none).

    States run in lexicographic order, so the first one of an orbit
    reached is its least; its images then mark the rest.  ``auts[0]``
    is the identity, and a kept state is not met again, so only the
    others' images are marked.
    """
    states = product(*choices)
    others = auts[1:]
    if not others:
        return list(states)
    seen = set()
    out = []
    for state in states:
        if state not in seen:
            out.append(state)
            codes = bytes(state)
            ext = codes + codes.translate(flip)
            seen.update([get(ext) for get in others])
    return out


class _Winners(dict):
    """Memo for one vertex a: row -> the getters of the permutations
    that send a to 0 and order the others to sort its row."""

    def __init__(self, block):
        self.block = block

    def __missing__(self, row):
        key = tuple(sorted(row))
        getters = self[row] = [get for pick, get in self.block if pick(row) == key]
        return getters


def _canonicaliser(n: int):
    """The orbit engine on n vertices: ``(least_images, automorphisms)``.

    The first n-1 entries of an image are new vertex 0's row: its codes
    to the new vertices 1..n-1, seen from it.  0 is the least code, so a
    sorted row with more zeros sorts lower, and only permutations that
    send a vertex of least degree to 0, and order the others to sort
    its row, can give the least image; their getters are cached per
    (vertex, row).  Degrees depend on the 0/1 shape alone, so
    ``least_images(batch, flip)`` takes codes that all share one shape,
    finds the least-degree vertices once, from the first, and reads
    only their rows: one least image per code, in order (``flip`` as
    in :func:`_least_per_orbit`).  ``automorphisms(und)`` is None if a
    candidate maps an undirected state lower, else the candidates that
    fix it, the identity first: all its automorphisms, since they fix
    its vertex-0 row, sorted and of least degree.
    """
    rows, blocks = _permutation_table(n)
    winners = [_Winners(block) for block in blocks]

    def least_degree(ext: bytes) -> list:
        # (row getter, memo) of each vertex of least degree
        zeros = [row(ext).count(0) for row in rows]
        most = max(zeros)
        return [(rows[a], winners[a]) for a, z in enumerate(zeros) if z == most]

    def least_images(batch: list[bytes], flip=_FLIP) -> list[tuple[int, ...]]:
        exts = [codes + codes.translate(flip) for codes in batch]
        vertices = least_degree(exts[0])
        return [
            min([get(ext) for row, memo in vertices for get in memo[row(ext)]])
            for ext in exts
        ]

    def automorphisms(und: tuple[int, ...]):
        # undirected codes read the same from both ends of a pair
        ext = bytes(und) * 2
        auts = []
        for row, memo in least_degree(ext):
            for get in memo[row(ext)]:
                image = get(ext)
                if image < und:
                    return None
                if image == und:
                    auts.append(get)
        return auts

    return least_images, automorphisms


def _sorted_head_product(values, head: int, tail: int):
    """``product(values, repeat=head + tail)`` in order, restricted to
    tuples whose first ``head`` entries are nondecreasing."""
    for first in combinations_with_replacement(values, head):
        for rest in product(values, repeat=tail):
            yield first + rest


def _shape_first(n: int, labels, keep=None, order=None) -> list[tuple[int, ...]]:
    """Each canonical undirected state on n vertices with labels from
    ``labels`` and a shape that ``keep`` accepts, sorted by ``order``,
    oriented in every way up to its automorphisms.

    Labellings of a canonical 0/1 shape are isomorphic only through the
    shape's automorphisms, so one per orbit of those meets each labelled
    class of that shape once; its least image is the canonical state.
    """
    least_images, automorphisms = _canonicaliser(n)
    m = n * (n - 1) // 2
    shapes = _sorted_head_product((0, 1), n - 1, m - (n - 1))
    unds = []
    for shape in filter(keep, shapes) if keep else shapes:
        auts = automorphisms(shape)
        if auts is not None:
            choices = [labels if bit else (0,) for bit in shape]
            leaders = _least_per_orbit(choices, auts, None)
            unds += least_images(list(map(bytes, leaders)), None)
    unds.sort(key=order)
    out: list[tuple[int, ...]] = []
    for und in unds:
        out.extend(_least_per_orbit(map(_CODES.__getitem__, und), automorphisms(und)))
    return out


def enumerate_oriented_states(n: int) -> list[tuple[int, ...]]:
    """Canonical representatives of oriented graphs with labels 3 and 4.

    States are tuples over the vertex pairs of K_n with values 0
    (absent) or an (label, direction) code, sorted by undirected state
    (lexicographic), then lexicographically.
    """
    return _shape_first(n, (3, 4))


def enumerate_triangle_free_oriented_states(n: int) -> list[tuple[int, ...]]:
    """Canonical triangle-free oriented labelled graphs on n vertices.

    Label-2 edges are wildcards and carry no direction; every direction
    assignment of the other edges appears once per isomorphism class.
    Only triangle-free shapes are labelled; states run by shape first.
    """
    pair_index = {p: i for i, p in enumerate(combinations(range(n), 2))}
    triples = [
        tuple(pair_index[p] for p in ((a, b), (a, c), (b, c)))
        for a, b, c in combinations(range(n), 3)
    ]

    def triangle_free(shape):
        return not any(all(shape[i] for i in t) for t in triples)

    return _shape_first(n, (2, 3, 4), triangle_free, lambda u: (tuple(map(bool, u)), u))


def b2_case(state: tuple[int, ...], n: int):
    """Exact B2 minimum-angle check for one triangle-free graph.

    Returns (holds: bool, is_tight: bool, witness_is_4_middles: bool).
    """
    link = link_of(graph_from_state(state, n))
    condition = check_link_condition(link, assign_metric(link, B2))
    value, witness = condition.min_over_pi, condition.witness
    if value is None:
        return True, False, False
    four_middles = witness.length == 4 and witness.middle_edge_count(link) == 4
    return condition.holds, value == 2, four_middles


def _b2_ok(state: tuple[int, ...], n: int) -> bool:
    return b2_case(state, n)[0]


def battery_triangle_free_b2(
    max_vertices: int = 5, processes: int | None = None
) -> BatteryResult:
    """The B2 metric satisfies the link condition on every triangle-free
    graph with labels in {2, 3, 4}, for every orientation."""
    n = max_vertices
    cases = [(state, n) for state in enumerate_triangle_free_oriented_states(n)]
    return _sweep("triangle-free-b2", _b2_ok, cases, "state={0}", processes)


def wildcard_variants(
    states: list[tuple[int, ...]], n: int
) -> list[tuple[int, ...]]:
    """One variant per graph: its canonically first edge becomes a
    label-2 wildcard.

    Variants are deduplicated up to isomorphism by their least image
    under vertex permutations (see ``_canonicaliser``), kept in the
    order they are first seen.  States that differ only in the code of
    their first present pair give the same raw variant.  A run of
    states with one undirected pattern, as
    :func:`enumerate_oriented_states` lists them, shares one first pair
    and one 0/1 shape, so its distinct raws, in order, are
    canonicalised as one batch: the least-degree vertices are found
    once per run, and the raws kept are one run's, not the whole
    sweep's.  A raw met again in a later run is canonicalised again,
    and ``seen`` keeps the list the same for any order of ``states``.
    """
    least_images, _ = _canonicaliser(n)
    seen: dict = {}
    undirected = methodcaller("translate", _UNDIRECTED)
    for und, run in groupby(map(bytes, states), undirected):
        first = len(und) - len(und.lstrip(b"\0"))
        if first < len(und):
            head = und[:first] + b"\5"  # the zeros, then a wildcard
            raws = dict.fromkeys([head + codes[first + 1 :] for codes in run])
            seen.update(dict.fromkeys(least_images(list(raws))))
    return list(seen)


@functools.lru_cache(maxsize=8)
def _edge_table(n: int):
    """The names ``v0..v{n-1}`` and, per pair of K_n in ``combinations``
    order, each pair code's ``GammaEdge``: built by its constructor once
    per n, and frozen, so that graphs share them."""
    names = tuple(f"v{i}" for i in range(n))
    table = [
        {v: GammaEdge(u, w, *decoded) for v, decoded in _ORIENTED_DECODE.items()}
        for u, w in combinations(names, 2)
    ]
    return names, table


def graph_from_state(state: tuple[int, ...], n: int) -> DefiningGraph:
    """The defining graph of a state on n vertices, its edges shared from
    the immutable table of :func:`_edge_table`."""
    names, table = _edge_table(n)
    return DefiningGraph(names, [edges[v] for edges, v in zip(table, state) if v])


def oracle_case(state: tuple[int, ...], n: int, with_girth: bool = False):
    """One oracle-equivalence case: :func:`has_forbidden`, the pattern
    detector's first-hit form, vs short link loops.

    Returns (ok, has_short_loop, girth_ok).
    """
    gamma = graph_from_state(state, n)
    hit = has_forbidden(gamma)
    link = link_of(gamma)
    short = has_short_loop(link)
    ok = hit == short
    girth_ok = True
    if with_girth:
        g, _ = girth(link)
        girth_ok = (g == 4) if short else (g is None or g >= 6)
    return ok, short, girth_ok


_GIRTH_SAMPLE_STRIDE = 97


def _oracle_ok(state: tuple[int, ...], n: int, with_girth: bool) -> bool:
    ok, _, girth_ok = oracle_case(state, n, with_girth)
    return ok and girth_ok


def battery_pattern_oracle(
    max_vertices: int = 5, processes: int | None = None
) -> BatteryResult:
    """Forbidden patterns fire exactly when the link has a 4-loop, on
    every graph and on its wildcard variant.

    Graphs on fewer vertices appear as classes with isolated vertices,
    so enumerating on ``max_vertices`` covers everything below it.
    """
    n = max_vertices
    states = enumerate_oriented_states(n)
    cases = [
        (state, n, i % _GIRTH_SAMPLE_STRIDE == 0)
        for i, state in enumerate(states + wildcard_variants(states, n))
    ]
    return _sweep(
        "pattern-girth-oracle+wildcards", _oracle_ok, cases, "state={0}", processes
    )


def battery_random_spot_checks(seed: int, cases: int = 50) -> BatteryResult:
    """Seeded random graphs on 6 vertices (15 pairs), beyond the
    exhaustive range, same oracle."""
    rng = random.Random(seed)
    work = [
        (tuple(rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(15)), 6, True)
        for _ in range(cases)
    ]
    return _sweep(
        f"random-spot-checks(seed={seed})", _oracle_ok, work, "case {i}: state={0}"
    )


def run_all(
    max_label: int = 5,
    max_vertices: int = 5,
    tietze_max: int = 50,
    seed: int | None = None,
    processes: int | None = None,
) -> list[BatteryResult]:
    results = [
        battery_tietze(tietze_max),
        battery_triangle_girth(max_label),
        battery_pattern_oracle(max_vertices, processes),
        battery_triangle_free_b2(max_vertices, processes),
    ]
    if seed is not None:
        results.append(battery_random_spot_checks(seed))
    return results
