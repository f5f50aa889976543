"""Exhaustive verification batteries behind the ``verify-lemmas`` command.

Three sweeps:

* two-generator equivalences: replay the presentation rewriting
  symbolically for every label in a range;
* triangle girth: for every labelled oriented triangle the link girth
  is 6 and the middle-edge subgraph splits into (m+n+p-9) isolated
  edges plus three 3-chains;
* pattern oracle: over all oriented labelled graphs on up to five
  vertices (orbit-reduced: one representative per isomorphism class),
  the forbidden-pattern detector fires exactly when the link has an
  embedded 4-loop.  Links are bipartite and simple, so "an embedded
  4-loop exists" is the same statement as "girth < 6"; the girth
  routine itself is re-run on a deterministic subsample as a
  cross-check.  A second sweep turns one edge per graph (the
  canonically first) into a label-2 wildcard.

Enumeration keeps the least member of each orbit.  A labelled state
assigns each vertex pair one of {absent, label...}; it is kept if none
of its images under the n! vertex permutations is smaller, and that
one scan also gives its automorphisms.  Its orientations are walked
in lexicographic order: the first one not yet seen is the least of
its orbit, and its images under the automorphisms are marked seen.
Wildcard variants are deduplicated by their least image with
direction flips.  An image opens with the row of new vertex 0 (its
codes to the others, seen from it), so only a state with a sorted
vertex-0 row can be canonical, and only permutations that send a
vertex with the least sorted row to 0 and sort that row are tried.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from multiprocessing import Pool
from operator import itemgetter

from .complex_link import build_complex, build_link
from .curvature import B2, assign_metric
from .cycles import girth, has_short_loop, min_angle_cycle
from .forbidden import detect_forbidden
from .presentations import (
    DefiningGraph,
    Orientation,
    build_triangular,
    triangle_presentation,
    verify_tietze_equivalence,
)


@dataclass
class BatteryResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status} {self.name}: {self.cases - len(self.failures)}/{self.cases} "
            f"cases in {self.elapsed:.1f}s"
        )


def battery_tietze(max_label: int = 50) -> BatteryResult:
    start = time.perf_counter()
    failures = []
    for m in range(2, max_label + 1):
        report = verify_tietze_equivalence(m)
        if not report.ok:
            failures.append(f"m={m}")
    return BatteryResult(
        "two-generator-equivalences",
        max_label - 1,
        failures,
        time.perf_counter() - start,
    )


def middle_decomposition(link) -> tuple[int, int, bool]:
    """(isolated edge count, 3-chain count, nothing else) of the middle
    subgraph."""
    mid = link.middle_subgraph()
    singles = chains = 0
    clean = True
    for vs, es in mid.components():
        if len(vs) == 2 and len(es) == 1:
            singles += 1
        elif len(vs) == 4 and len(es) == 3 and all(
            mid.degree(v) <= 2 for v in vs
        ):
            chains += 1
        else:
            clean = False
    return singles, chains, clean


def battery_triangle_girth(
    min_label: int = 3, max_label: int = 5
) -> BatteryResult:
    start = time.perf_counter()
    failures = []
    cases = 0
    rng = range(min_label, max_label + 1)
    for m in rng:
        for n in rng:
            for p in rng:
                cases += 1
                pres, _ = triangle_presentation(m, n, p)
                link = build_link(build_complex(pres))
                g, _ = girth(link)
                singles, chains, clean = middle_decomposition(link)
                if g != 6 or not clean or chains != 3 or singles != m + n + p - 9:
                    failures.append(f"(m,n,p)=({m},{n},{p})")
    return BatteryResult(
        "triangle-girth", cases, failures, time.perf_counter() - start
    )


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


def _getter(indices):
    """``itemgetter`` that returns a tuple for any number of indices."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda s: tuple(s[i] for i in indices)


def _permutation_table(n: int):
    """Row and image getters over ``ext = state + flipped state``
    (``ext[i + m]`` is pair i seen from its larger end).

    ``rows[a]`` reads vertex a's codes to the others, seen from a.
    ``blocks[a]`` holds (order, getter) for each permutation that makes
    a vertex 0 and its ``order[k]``-th other vertex k + 1.  ``getters``
    is all blocks in ``permutations(range(n))`` order, identity first.
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
            block.append((order, get))
        blocks.append(block)
    getters = [get for block in blocks for _, get in block]
    return rows, blocks, getters


def _extended(codes: bytes) -> bytes:
    """``state + flipped state``, the sequence every getter reads."""
    return codes + codes.translate(_FLIP)


def _automorphisms(und: tuple[int, ...], getters):
    """The getters that fix an undirected state, or None if one of them
    maps it to a smaller state (it is then not canonical).  Undirected
    codes read the same from both ends of a pair."""
    ext = bytes(und) * 2
    auts = []
    for get in getters:
        image = get(ext)
        if image < und:
            return None
        if image == und:
            auts.append(get)
    return auts


def _orientations(und: tuple[int, ...], auts) -> list[tuple[int, ...]]:
    """The least orientation of each orbit of an undirected state's
    automorphisms, in lexicographic order.

    Orientations run in lexicographic order, so the first one of an
    orbit reached is its least; its images then mark the rest.
    """
    states = product(*map(_CODES.__getitem__, und))
    if len(auts) == 1:
        return list(states)
    seen = set()
    out = []
    for state in states:
        if state not in seen:
            out.append(state)
            ext = _extended(bytes(state))
            seen.update([get(ext) for get in auts])
    return out


class _SortedRows(dict):
    """Memo: row -> its codes in sorted order."""

    def __missing__(self, row):
        key = self[row] = tuple(sorted(row))
        return key


def _canonicaliser(n: int):
    """Least image of an oriented state under vertex permutations.

    The first n-1 entries of an image are new vertex 0's row: its codes
    to the new vertices 1..n-1, seen from it.  So only permutations that
    send a vertex with the least sorted row to 0, and order the others
    to sort that row, can give the least image; their getters are
    cached per (vertex, row).
    """
    rows, blocks, _ = _permutation_table(n)
    sorted_rows = _SortedRows()
    winners: dict = {}

    def canon(codes: bytes) -> tuple[int, ...]:
        ext = _extended(codes)
        views = [row(ext) for row in rows]
        keys = list(map(sorted_rows.__getitem__, views))
        least = min(keys)
        best = None
        for a, key in enumerate(keys):
            if key != least:
                continue
            row = views[a]
            getters = winners.get((a, row))
            if getters is None:
                getters = winners[(a, row)] = [
                    get
                    for order, get in blocks[a]
                    if all(row[i] <= row[j] for i, j in zip(order, order[1:]))
                ]
            cand = min([get(ext) for get in getters])
            if best is None or cand < best:
                best = cand
        return best

    return canon


def _sorted_head_product(values, head: int, tail: int):
    """``product(values, repeat=head + tail)`` in order, restricted to
    tuples whose first ``head`` entries are nondecreasing."""
    for first in combinations_with_replacement(values, head):
        for rest in product(values, repeat=tail):
            yield first + rest


def enumerate_oriented_states(
    n: int, labels: tuple[int, ...] = (3, 4)
) -> list[tuple[int, ...]]:
    """Canonical representatives of oriented labelled graphs on n vertices.

    States are tuples over the vertex pairs of K_n with values 0
    (absent) or an (label, direction) code.
    """
    for lab in labels:
        if lab not in (3, 4):
            raise ValueError(f"unsupported sweep label {lab}")
    _, _, getters = _permutation_table(n)
    m = n * (n - 1) // 2
    out: list[tuple[int, ...]] = []
    values = (0,) + tuple(sorted(set(labels)))
    for und in _sorted_head_product(values, n - 1, m - (n - 1)):
        auts = _automorphisms(und, getters)
        if auts is not None:
            out.extend(_orientations(und, auts))
    return out


def enumerate_triangle_free_oriented_states(
    n: int = 5, labels: tuple[int, ...] = (2, 3, 4)
) -> list[tuple[int, ...]]:
    """Canonical triangle-free oriented labelled graphs on n vertices.

    Label-2 edges are wildcards and carry no direction; every direction
    assignment of the other edges appears once per isomorphism class.
    """
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    labels = tuple(sorted(set(labels)))
    _, _, getters = _permutation_table(n)
    pair_index = {p: i for i, p in enumerate(pairs)}
    triples = [
        tuple(pair_index[p] for p in ((a, b), (a, c), (b, c)))
        for a, b, c in combinations(range(n), 3)
    ]

    out = []
    for bits in product((0, 1), repeat=m):
        # a canonical state's vertex-0 row (its first n - 1 pairs) is sorted
        head = sum(bits[: n - 1])
        if bits[n - 1 - head : n - 1] != (1,) * head:
            continue
        if any(all(bits[i] for i in t) for t in triples):
            continue
        present = [i for i, b in enumerate(bits) if b]
        for labelling in _sorted_head_product(labels, head, len(present) - head):
            state = [0] * m
            for i, lab in zip(present, labelling):
                state[i] = lab
            und = tuple(state)
            auts = _automorphisms(und, getters)
            if auts is not None:
                out.extend(_orientations(und, auts))
    return out


def b2_case(state: tuple[int, ...], n: int):
    """Exact B2 minimum-angle check for one triangle-free graph.

    Returns (holds: bool, is_tight: bool, witness_is_4_middles: bool).
    """
    gamma = graph_from_state(state, n)
    pres = build_triangular(gamma)
    k = build_complex(pres)
    link = build_link(k)
    metric = assign_metric(k, link, B2)
    angled = link.with_angles(metric.corner_angles)
    value, witness = min_angle_cycle(angled)
    if value is None:
        return True, False, False
    holds = value >= Fraction(2)
    tight = value == Fraction(2)
    four_middles = (
        witness is not None
        and witness.length == 4
        and witness.middle_edge_count(angled) == 4
    )
    return holds, tight, four_middles


def _b2_chunk(args):
    states, n = args
    return [f"state={state}" for state in states if not b2_case(state, n)[0]]


def _run_chunks(chunk_fn, items: list, n: int, size: int, processes) -> list[str]:
    """Sorted failures of ``chunk_fn`` over ``items`` in chunks of
    ``size``, mapped over a pool when ``processes`` > 1."""
    chunks = [(items[i : i + size], n) for i in range(0, len(items), size)]
    if processes and processes > 1:
        with Pool(processes) as pool:
            results = pool.map(chunk_fn, chunks)
    else:
        results = [chunk_fn(c) for c in chunks]
    return sorted(f for fails in results for f in fails)


def battery_triangle_free_b2(
    max_vertices: int = 5, processes: int | None = None
) -> BatteryResult:
    """The B2 metric satisfies the link condition on every triangle-free
    graph with labels in {2, 3, 4}, for every orientation."""
    start = time.perf_counter()
    n = max_vertices
    states = enumerate_triangle_free_oriented_states(n)
    failures = _run_chunks(_b2_chunk, states, n, 256, processes)
    return BatteryResult(
        "triangle-free-b2", len(states), failures, time.perf_counter() - start
    )


def wildcard_variants(
    states: list[tuple[int, ...]], n: int
) -> list[tuple[int, ...]]:
    """One variant per graph: its canonically first edge becomes a
    label-2 wildcard.

    Variants are deduplicated up to isomorphism by their least image
    under vertex permutations (see ``_canonicaliser``), kept in the
    order they are first seen.
    """
    canonical_form = _canonicaliser(n)
    seen = set()
    out = []
    for state in states:
        codes = bytes(state)
        rest = codes.lstrip(b"\0")  # from the first present pair on
        if not rest:
            continue
        canon = canonical_form(codes[: len(codes) - len(rest)] + b"\5" + rest[1:])
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def graph_from_state(state: tuple[int, ...], n: int) -> DefiningGraph:
    pairs = list(combinations(range(n), 2))
    names = tuple(f"v{i}" for i in range(n))
    edges = []
    for (a, b), v in zip(pairs, state):
        if v == 0:
            continue
        label, orientation = _ORIENTED_DECODE[v]
        edges.append((names[a], names[b], label, orientation))
    return DefiningGraph(names, edges)


def oracle_case(state: tuple[int, ...], n: int, with_girth: bool = False):
    """One oracle-equivalence case: pattern detector vs short link loops.

    Returns (ok, has_short_loop, girth_ok).
    """
    gamma = graph_from_state(state, n)
    witnesses = detect_forbidden(gamma)
    pres = build_triangular(gamma)
    link = build_link(build_complex(pres))
    short = has_short_loop(link)
    ok = bool(witnesses) == short
    girth_ok = True
    if with_girth:
        g, _ = girth(link)
        girth_ok = (g == 4) if short else (g is None or g >= 6)
    return ok, short, girth_ok


_GIRTH_SAMPLE_STRIDE = 97


def _oracle_chunk(args):
    states, n = args
    failures = []
    for idx, state in states:
        sample = idx % _GIRTH_SAMPLE_STRIDE == 0
        ok, _, girth_ok = oracle_case(state, n, with_girth=sample)
        if not ok or not girth_ok:
            failures.append(f"state={state}")
    return failures


def battery_pattern_oracle(
    max_vertices: int = 5,
    wildcard_sweep: bool = True,
    processes: int | None = None,
) -> BatteryResult:
    """Forbidden patterns fire exactly when the link has a 4-loop.

    Graphs on fewer vertices appear as classes with isolated vertices,
    so enumerating on ``max_vertices`` covers everything below it.
    """
    start = time.perf_counter()
    n = max_vertices
    states = enumerate_oriented_states(n)
    wilds = wildcard_variants(states, n) if wildcard_sweep else []
    work = list(enumerate(states + wilds))
    failures = _run_chunks(_oracle_chunk, work, n, 512, processes)
    name = "pattern-girth-oracle" + ("+wildcards" if wildcard_sweep else "")
    return BatteryResult(name, len(work), failures, time.perf_counter() - start)


def battery_random_spot_checks(
    seed: int, cases: int = 50, vertices: int = 6
) -> BatteryResult:
    """Seeded random graphs beyond the exhaustive range, same oracle."""
    start = time.perf_counter()
    rng = random.Random(seed)
    pairs = list(combinations(range(vertices), 2))
    failures = []
    for case in range(cases):
        state = tuple(
            rng.choice((0, 0, 1, 2, 3, 4)) for _ in pairs
        )
        ok, _, girth_ok = oracle_case(state, vertices, with_girth=True)
        if not ok or not girth_ok:
            failures.append(f"case {case}: state={state}")
    return BatteryResult(
        f"random-spot-checks(seed={seed})",
        cases,
        failures,
        time.perf_counter() - start,
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
        battery_triangle_girth(3, max_label),
        battery_pattern_oracle(max_vertices, True, processes),
        battery_triangle_free_b2(max_vertices, processes),
    ]
    if seed is not None:
        results.append(battery_random_spot_checks(seed))
    return results
