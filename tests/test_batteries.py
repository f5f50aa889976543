"""The enumeration machinery behind the sweeps, validated brute-force."""

import hashlib
import itertools
import math
import multiprocessing
import random
import types
from collections import Counter

import pytest

from oracle_tools import least_images, undirected_orbits

from artinlink import (
    DefiningGraph,
    Orientation,
    batteries,
    link_of,
    triangle_graph,
)
from artinlink.batteries import (
    battery_pattern_oracle,
    battery_random_spot_checks,
    battery_tietze,
    battery_triangle_free_b2,
    battery_triangle_girth,
    enumerate_oriented_states,
    enumerate_triangle_free_oriented_states,
    graph_from_state,
    middle_decomposition,
    oracle_case,
    wildcard_variants,
)


def brute_force_classes(n, codes, keep=None):
    """Least images of every raw state over ``codes`` that ``keep``
    accepts: one per isomorphism class."""
    raws = itertools.product(codes, repeat=n * (n - 1) // 2)
    return set(least_images([r for r in raws if keep is None or keep(r)], n))


def assert_one_per_class(states, n, classes):
    """``states`` meets every class exactly once."""
    images = least_images(states, n)
    assert len(set(images)) == len(images)
    assert set(images) == classes


def test_oriented_enumeration_matches_brute_force_on_four_vertices():
    # states: 0 absent, 1/2 label-3 fwd/bwd, 3/4 label-4 fwd/bwd
    classes = brute_force_classes(4, (0, 1, 2, 3, 4))
    states = enumerate_oriented_states(4)
    assert len(states) == len(classes) == 695
    assert_one_per_class(states, 4, classes)


def test_triangle_free_enumeration_matches_brute_force_on_four_vertices():
    pairs = list(itertools.combinations(range(4), 2))
    index = {p: i for i, p in enumerate(pairs)}
    triples = [
        tuple(index[p] for p in ((a, b), (a, c), (b, c)))
        for a, b, c in itertools.combinations(range(4), 3)
    ]

    def triangle_free(raw):
        return not any(all(raw[i] for i in t) for t in triples)

    # 5 is the label-2 wildcard, which has no direction
    classes = brute_force_classes(4, (0, 1, 2, 3, 4, 5), triangle_free)
    states = enumerate_triangle_free_oriented_states(4)
    assert len(states) == len(classes) == 215
    assert_one_per_class(states, 4, classes)


def assert_engine_matches_brute_force(states, n):
    """The engine refuses exactly the states that are not their own
    least image, and finds every automorphism of the others."""
    _, automorphisms = batteries._canonicaliser(n)
    canonical = 0
    for state, (least, order) in zip(states, undirected_orbits(states, n)):
        auts = automorphisms(state)
        if least == state:
            canonical += 1
            assert auts is not None and len(auts) == order, state
            # the identity comes first: the orbit walk marks only the others
            m = len(state)
            assert auts[0](bytes(range(2 * m))) == tuple(range(m)), state
        else:
            assert auts is None, state
    return canonical


def test_orbit_engine_automorphisms_match_brute_force_on_four_vertices():
    states = list(itertools.product((0, 2, 3, 4), repeat=6))
    # Polya: (4^6 + 9 * 4^4 + 8 * 4^2 + 6 * 4^2) / 24 edge 4-colourings of K_4
    assert assert_engine_matches_brute_force(states, 4) == 276


def test_orbit_engine_automorphisms_match_brute_force_on_five_vertices():
    rng = random.Random(20261019)
    raws = [tuple(rng.choice((0, 2, 3, 4)) for _ in range(10)) for _ in range(400)]
    # the classes of the raw draws, and the most symmetric states
    canon = [least for least, _ in undirected_orbits(raws, 5)]
    extremes = [(label,) * 10 for label in (0, 2, 3, 4)] + [(0,) * 9 + (3,)]
    states = raws + canon + extremes
    assert assert_engine_matches_brute_force(states, 5) >= len(canon)


def shapes_by_least_degree(n):
    """Named edge lists on n vertices whose counts of least-degree
    vertices run from 1 to n between them."""
    return {
        "path": [(i, i + 1) for i in range(n - 1)],
        "matching plus an isolated vertex": [(i, i + 1) for i in range(0, n - 2, 2)],
        "path plus an isolated vertex": [(i, i + 1) for i in range(n - 2)],
        "star": [(0, i) for i in range(1, n)],
        "K(2, n-2)": [(a, b) for a in (0, 1) for b in range(2, n)],
        "cycle": [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)],
        "complete": list(itertools.combinations(range(n), 2)),
        "empty": [],
    }


@pytest.mark.parametrize("n", [4, 5])
def test_batch_least_images_match_the_permutation_scan(n):
    """One batch per shape, with mixed codes: with ``flip`` against
    oriented codes and with ``flip=None`` against undirected labels,
    each least image is the least over all n! permutations."""
    batch_images, _ = batteries._canonicaliser(n)
    pairs = list(itertools.combinations(range(n), 2))
    rng = random.Random(n)
    least_counts = set()
    for name, edges in shapes_by_least_degree(n).items():
        on = [p in edges for p in pairs]
        degrees = Counter(v for p in edges for v in p)
        low = min(degrees[v] for v in range(n))
        least_counts.add(sum(degrees[v] == low for v in range(n)))
        for codes, flip in (((1, 2, 3, 4, 5), batteries._FLIP), ((2, 3, 4), None)):
            batch = [
                tuple(rng.choice(codes) if bit else 0 for bit in on) for _ in range(40)
            ]
            if flip is None:
                expected = [least for least, _ in undirected_orbits(batch, n)]
            else:
                expected = least_images(batch, n)
            got = batch_images([bytes(state) for state in batch], flip)
            assert got == expected, name
    assert least_counts == set(range(1, n + 1))


def test_both_callers_pass_single_shape_batches(monkeypatch):
    batches, _ = record_canonicaliser(monkeypatch)
    for n in (4, 5):
        states = enumerate_oriented_states(n)
        enumerate_triangle_free_oriented_states(n)
        wildcard_variants(states, n)
        wildcard_variants(random.Random(n).sample(states, len(states)), n)
    assert max(map(len, batches)) > 1
    for batch in batches:
        assert batch and len({bytes(map(bool, codes)) for codes in batch}) == 1


def raw_wildcard_variants(states):
    """Each state with its first present pair turned into a wildcard."""
    out = []
    for state in states:
        present = [i for i, v in enumerate(state) if v]
        if present:
            out.append(state[: present[0]] + (5,) + state[present[0] + 1 :])
    return out


def record_canonicaliser(monkeypatch):
    """Patch ``batteries._canonicaliser`` to record, in call order, each
    batch given to ``least_images`` and each state given to
    ``automorphisms``."""
    batches, auts = [], []
    make = batteries._canonicaliser

    def recording(n):
        least_images, automorphisms = make(n)

        def record_images(batch, *flip):
            batches.append(list(batch))
            return least_images(batch, *flip)

        def record_auts(state):
            auts.append(state)
            return automorphisms(state)

        return record_images, record_auts

    monkeypatch.setattr(batteries, "_canonicaliser", recording)
    return batches, auts


def counted_wildcard_variants(monkeypatch, states, n):
    """``wildcard_variants(states, n)`` and the codes it canonicalised,
    in call order."""
    batches, _ = record_canonicaliser(monkeypatch)
    return wildcard_variants(states, n), [codes for b in batches for codes in b]


def undirected(state):
    """A state's undirected pattern: each code's label, 0 if absent."""
    return tuple(map({0: 0, 1: 3, 2: 3, 3: 4, 4: 4, 5: 2}.get, state))


def per_run_raws(states):
    """The raw variants, as bytes, that ``wildcard_variants`` should
    canonicalise, in call order: each distinct raw once within each run
    of states with one undirected pattern."""
    out = []
    for _, run in itertools.groupby(states, undirected):
        out += dict.fromkeys(map(bytes, raw_wildcard_variants(run)))
    return out


def test_wildcard_variants_match_brute_force_on_four_vertices(monkeypatch):
    states = enumerate_oriented_states(4)
    raw = raw_wildcard_variants(states)
    expected = list(dict.fromkeys(least_images(raw, 4)))
    wilds, calls = counted_wildcard_variants(monkeypatch, states, 4)
    assert wilds == expected
    assert len(expected) == 369
    # each distinct raw variant is canonicalised once per run of one
    # undirected pattern, and every raw variant is canonicalised
    assert calls == per_run_raws(states)
    assert set(calls) == set(map(bytes, raw))
    assert len(calls) == 489 < len(raw)
    # out of enumeration order the runs break up, and the list is still
    # the least images in order of first sight
    shuffled = random.Random(4).sample(states, len(states))
    expected = list(dict.fromkeys(least_images(raw_wildcard_variants(shuffled), 4)))
    assert wildcard_variants(shuffled, 4) == expected


def test_wildcard_variants_on_five_vertices_are_the_least_images(monkeypatch):
    states = enumerate_oriented_states(5)
    raw = raw_wildcard_variants(states)
    wilds, calls = counted_wildcard_variants(monkeypatch, states, 5)
    assert len(wilds) == len(set(wilds)) == 41_498
    assert calls == per_run_raws(states)
    assert set(calls) == set(map(bytes, raw))
    assert len(calls) == 50_003
    rng = random.Random(20261018)
    # every output is its own least image ...
    sample = rng.sample(wilds, 1_000)
    assert least_images(sample, 5) == sample
    # ... and every raw variant's least image is an output
    assert set(least_images(rng.sample(raw, 2_000), 5)) <= set(wilds)


# The sweeps and the bench sample index into the enumerations, so each
# list is pinned in order: (length, sha256 of its repr) of the oriented
# states, their wildcard variants and the triangle-free states, per n.
ORDERED_DIGESTS = {
    1: (
        (1, "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab"),
        (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        (1, "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab"),
    ),
    2: (
        (3, "44a0947254f9355a66f6e6b99fc103eef0c98e185a6fbffa106a234f58b1249f"),
        (1, "63da0649ab6537eb8c8205f3546f3a080fce881b8e9ca4ae02ed330b0c04349a"),
        (4, "46f22c38ec3c58cfe8de39c33f13c79047ed4e366266e3bc6e9bcca6436483fb"),
    ),
    3: (
        (25, "bb916f47cbda10a8194cfc7a44faf4d2ddb2b7be070495ed03c752fdbc0ed1f6"),
        (13, "16d03f2dda42b7b54cca79df58477e3af6fccc75fe80677f95785239ffbc1f18"),
        (19, "49ba238b2c27d8f100c74dca82804604d0c753655212488424f61eaa9f5985cf"),
    ),
    4: (
        (695, "62d5c149cc40fb5ee5ed6bcc0bf48256a4c3d029d25ec21782a6e551fadd8b4c"),
        (369, "c2ed7522852f25ab78095656eefbd0cbf54b42db46b48ed85be0a956f51de4e8"),
        (215, "0eed1f2453d423308d74a8fd2032ebaeb7443134dce0c3ce08daeee8066ca019"),
    ),
    5: (
        (82_880, "2e84bbd71240e6ccca7ef0062436466b97c76c75647e9817fea263161faedc83"),
        (41_498, "43ef182df8084bdebf23337371733efdf907d6446a3941819a2c5e6b4977c92b"),
        (4_487, "1552e723518432ec5805c61c176c2454cf89985a4684a7ae56ea87ced57ffd89"),
    ),
}


@pytest.mark.parametrize("n", sorted(ORDERED_DIGESTS))
def test_enumerations_are_pinned_in_order(n):
    def digest(states):
        return len(states), hashlib.sha256(repr(states).encode()).hexdigest()

    states = enumerate_oriented_states(n)
    got = (
        digest(states),
        digest(wildcard_variants(states, n)),
        digest(enumerate_triangle_free_oriented_states(n)),
    )
    assert got == ORDERED_DIGESTS[n]


def counted_enumeration(monkeypatch, enumerate_states, n):
    """``enumerate_states(n)``, the codes it gave ``least_images`` and the
    states it gave ``automorphisms``, in call order."""
    batches, auts = record_canonicaliser(monkeypatch)
    states = enumerate_states(n)
    return states, [codes for b in batches for codes in b], auts


@pytest.mark.parametrize(
    "enumerate_states, shapes, classes",
    [
        # every head-sorted 0/1 shape: C(5, 4) vertex-0 rows * 2^6
        (enumerate_oriented_states, 320, 792),
        # the triangle-free ones among them
        (enumerate_triangle_free_oriented_states, 116, 463),
    ],
)
def test_enumerations_canonicalise_each_class_once(
    monkeypatch, enumerate_states, shapes, classes
):
    """Shapes first: one ``automorphisms`` call per head-sorted shape,
    one least image per undirected class, then one ``automorphisms``
    per class to orient it; no labelling is generated and rejected."""
    states, images, auts = counted_enumeration(monkeypatch, enumerate_states, 5)
    patterns = list(dict.fromkeys(map(undirected, states)))
    assert len(images) == len(patterns) == classes
    assert len(auts) == shapes + classes
    shape_calls = auts[:shapes]
    assert len(set(shape_calls)) == shapes
    assert all(set(s) <= {0, 1} and list(s[:4]) == sorted(s[:4]) for s in shape_calls)
    assert auts[shapes:] == patterns


def pair_cycles(perm, pairs):
    """The cycles of ``perm`` acting on ``pairs``, as lists of indices."""
    index = {p: i for i, p in enumerate(pairs)}
    image = [index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
    cycles, seen = [], set()
    for start in range(len(pairs)):
        cycle, i = [], start
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = image[i]
        if cycle:
            cycles.append(cycle)
    return cycles


def burnside_classes(n, labels, keep=None, directed=False):
    """Labelled graphs on n vertices up to isomorphism, edges labelled
    from ``labels``, by Burnside's lemma: the mean, over the n!
    permutations, of the labellings each one fixes.  A fixed labelling
    is constant on each pair cycle, so its shape is a union of cycles;
    ``keep`` filters those shapes.  With ``directed``, as in the pair
    codes, a label-2 edge is a wildcard and any other label takes one
    of two directions, so a cycle that turns its pairs round fixes
    only wildcards."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    fixed = 0
    for perm in perms:
        cycles = pair_cycles(perm, pairs)
        ways = []
        for cycle in cycles:
            a, b = pairs[cycle[0]]
            for _ in cycle:
                a = perm[a]
            turned = a == b
            ways.append(sum(1 if not directed or label == 2 else 0 if turned else 2
                            for label in labels))
        for chosen in itertools.product((0, 1), repeat=len(cycles)):
            shape = [0] * len(pairs)
            for cycle, on in zip(cycles, chosen):
                for i in cycle:
                    shape[i] = on
            if keep is None or keep(shape):
                fixed += math.prod(w for w, on in zip(ways, chosen) if on)
    assert fixed % len(perms) == 0
    return fixed // len(perms)


# the sets the class test checks whole: (vertices, labels, classes)
CLASS_TEST_SETS = [(4, (2, 3, 4), 2085), (5, (2, 3), 9608), (6, (3,), 21480)]


def test_burnside_counts_the_classes_each_enumeration_meets():
    pairs = list(itertools.combinations(range(5), 2))

    def triangle_free(shape):
        on = {p for p, bit in zip(pairs, shape) if bit}
        return not any(
            {(a, b), (a, c), (b, c)} <= on
            for a, b, c in itertools.combinations(range(5), 3)
        )

    oriented = burnside_classes(5, (3, 4))
    without_triangles = burnside_classes(5, (2, 3, 4), triangle_free)
    assert (oriented, without_triangles) == (792, 463)
    # OEIS A001174, the oriented graphs: 582 on 5 vertices, 21,480 on 6
    assert [burnside_classes(n, (3,), directed=True) for n in (5, 6)] == [582, 21480]
    for states, n, labels, keep in [
        (enumerate_oriented_states(5), 5, (3, 4), None),
        (enumerate_triangle_free_oriented_states(5), 5, (2, 3, 4), triangle_free),
        (batteries._shape_first(5, (3,)), 5, (3,), None),
        *[(batteries._shape_first(n, labels), n, labels, None)
          for n, labels, _ in CLASS_TEST_SETS],
    ]:
        assert len(states) == burnside_classes(n, labels, keep, directed=True)
        # the distinct patterns are the classes, each its own least image
        patterns = list(dict.fromkeys(map(undirected, states)))
        assert len(patterns) == burnside_classes(n, labels, keep)
        assert [least for least, _ in undirected_orbits(patterns, n)] == patterns


@pytest.mark.parametrize("n,labels,count", CLASS_TEST_SETS)
def test_pattern_oracle_holds_on_every_class(n, labels, count):
    # Every class, many wildcards included: acceptance 06 meets at most one
    # wildcard per graph, the first edge of its canonical form
    states = batteries._shape_first(n, labels)
    assert len(states) == count
    assert [s for s in states if not batteries._oracle_ok(s, n, False)] == []


def test_graph_from_state_decodes_labels_and_directions():
    # pairs of K_3: (0,1), (0,2), (1,2)
    g = graph_from_state((1, 4, 5), 3)
    e01 = g.edge("v0", "v1")
    assert (e01.label, e01.tail, e01.head) == (3, "v0", "v1")
    e02 = g.edge("v0", "v2")
    assert (e02.label, e02.tail, e02.head) == (4, "v2", "v0")
    e12 = g.edge("v1", "v2")
    assert e12.label == 2 and e12.orientation == Orientation.WILDCARD


def decoded_graph(state, n):
    """The graph of ``state`` built edge by edge from decoded tuples."""
    decode = {
        1: (3, Orientation.FORWARD),
        2: (3, Orientation.BACKWARD),
        3: (4, Orientation.FORWARD),
        4: (4, Orientation.BACKWARD),
        5: (2, Orientation.WILDCARD),
    }
    names = tuple(f"v{i}" for i in range(n))
    pairs = itertools.combinations(range(n), 2)
    edges = [(names[a], names[b], *decode[v]) for (a, b), v in zip(pairs, state) if v]
    return DefiningGraph(names, edges)


def test_graph_from_state_is_the_graph_of_its_decoded_edges():
    states4 = enumerate_oriented_states(4)
    states = states4 + wildcard_variants(states4, 4)
    states += enumerate_triangle_free_oriented_states(4)
    rng = random.Random(2207)

    def draws(n, count, codes):
        m = n * (n - 1) // 2
        return [(tuple(rng.choice(codes) for _ in range(m)), n) for _ in range(count)]

    cases = [(s, 4) for s in states] + draws(5, 2000, (0, 0, 1, 2, 3, 4, 5))
    # on 11 vertices "v10" sorts before "v2", so edges flip as they normalise
    cases += draws(11, 50, (0, 1, 2, 3, 4, 5))
    for state, n in cases:
        assert graph_from_state(state, n) == decoded_graph(state, n)


def test_oracle_case_round_trip():
    # directed triangle state: v0->v1, v1->v2, v2->v0 with label 3
    ok, short, girth_ok = oracle_case((1, 2, 1), 3, with_girth=True)
    assert ok and not short and girth_ok
    # transitive triangle: v0->v1, v0->v2, v1->v2
    ok, short, girth_ok = oracle_case((1, 1, 1), 3, with_girth=True)
    assert ok and short and girth_ok


def test_middle_decomposition_rejects_stars():
    g = DefiningGraph(
        ("c", "p", "q", "r"),
        [("c", "p", 3, Orientation.FORWARD),
         ("c", "q", 3, Orientation.FORWARD),
         ("c", "r", 3, Orientation.FORWARD)],
    )
    link = link_of(g)
    singles, chains, clean = middle_decomposition(link)
    assert not clean and chains == 0


def test_middle_decomposition_builds_no_named_view(monkeypatch):
    from artinlink import LinkGraph

    def named(link):
        raise AssertionError("the named view of a link was built")

    link = link_of(triangle_graph(3, 4, 5))
    monkeypatch.setattr(LinkGraph, "vertices", property(named))
    monkeypatch.setattr(LinkGraph, "edges", property(named))
    assert middle_decomposition(link) == (3, 3, True)


def test_batteries_pass_at_small_scale():
    assert battery_tietze(8).ok
    assert battery_triangle_girth(4).ok
    assert battery_pattern_oracle(3).ok
    assert battery_triangle_free_b2(3).ok
    assert battery_random_spot_checks(seed=5, cases=10).ok


def test_battery_summary_format():
    result = battery_tietze(5)
    s = result.summary()
    assert s.startswith("PASS two-generator-equivalences: 4/4")


# -- the failure path of the one sweep runner ---------------------------------

# a pool's workers see the patched predicates only when they are forked
POOL_SIZES = [
    None,
    pytest.param(
        2,
        marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="workers must inherit the patched module",
        ),
    ),
]


def bad_state(state):
    return sum(state) % 5 == 1


def test_failing_tietze_and_triangle_cases_are_reported_in_case_order(monkeypatch):
    monkeypatch.setattr(batteries, "_CHUNK", 4)
    monkeypatch.setattr(
        batteries,
        "verify_tietze_equivalence",
        lambda m: types.SimpleNamespace(ok=m % 3 != 1),
    )
    result = battery_tietze(12)
    assert (result.ok, result.cases) == (False, 11)
    assert result.failures == ["m=4", "m=7", "m=10"]

    def size(m, n, p):
        return len(link_of(triangle_graph(m, n, p)).nbrs)

    real_girth = batteries.girth
    target = size(3, 4, 4)
    monkeypatch.setattr(
        batteries,
        "girth",
        lambda link: (4, None) if len(link.nbrs) == target else real_girth(link),
    )
    result = battery_triangle_girth(5)
    expected = [
        f"(m,n,p)=({m},{n},{p})"
        for m, n, p in itertools.product(range(3, 6), repeat=3)
        if size(m, n, p) == target
    ]
    assert len(expected) == 6  # the orderings of (3, 3, 5) and (3, 4, 4)
    assert (result.ok, result.cases, result.failures) == (False, 27, expected)


@pytest.mark.parametrize("processes", POOL_SIZES)
def test_failing_oracle_cases_are_reported_in_case_order(monkeypatch, processes):
    monkeypatch.setattr(batteries, "_CHUNK", 7)
    monkeypatch.setattr(
        batteries,
        "oracle_case",
        lambda state, n, with_girth: (not bad_state(state), False, True),
    )
    states = enumerate_oriented_states(4)
    work = states + wildcard_variants(states, 4)
    expected = [f"state={s}" for s in work if bad_state(s)]
    assert 20 < len(expected) < len(work)
    result = battery_pattern_oracle(4, processes=processes)
    assert (result.ok, result.cases, result.failures) == (False, len(work), expected)


def test_b2_case_outcomes_on_four_vertices():
    """(holds, tight, witness is four middles) over the 215 triangle-free
    classes: the 2*pi bound is met by every class with a loop, and by
    a loop of four middle edges in 27 of them."""
    outcomes = Counter(
        batteries.b2_case(state, 4)
        for state in enumerate_triangle_free_oriented_states(4)
    )
    assert outcomes == {
        (True, True, False): 187,
        (True, True, True): 27,
        (True, False, False): 1,  # no edges, so no loop
    }


@pytest.mark.parametrize("processes", POOL_SIZES)
def test_failing_b2_cases_are_reported_in_case_order(monkeypatch, processes):
    monkeypatch.setattr(batteries, "_CHUNK", 7)
    monkeypatch.setattr(
        batteries, "b2_case", lambda state, n: (not bad_state(state), False, False)
    )
    states = enumerate_triangle_free_oriented_states(4)
    expected = [f"state={s}" for s in states if bad_state(s)]
    assert 0 < len(expected) < len(states)
    result = battery_triangle_free_b2(4, processes=processes)
    assert (result.ok, result.cases, result.failures) == (False, len(states), expected)


def test_failing_spot_checks_are_reported_with_their_case_number(monkeypatch):
    monkeypatch.setattr(batteries, "_CHUNK", 3)
    seen = []

    def check(state, n, with_girth):
        assert (n, with_girth) == (6, True)
        seen.append(state)
        return not bad_state(state), False, True

    monkeypatch.setattr(batteries, "oracle_case", check)
    result = battery_random_spot_checks(seed=5, cases=20)
    expected = [f"case {i}: state={s}" for i, s in enumerate(seen) if bad_state(s)]
    assert len(seen) == 20 and expected
    assert (result.ok, result.cases, result.failures) == (False, 20, expected)


def test_girth_cross_check_samples_every_97th_case(monkeypatch):
    flags = []

    def record(state, n, with_girth):
        flags.append(with_girth)
        return True, False, True

    monkeypatch.setattr(batteries, "oracle_case", record)
    assert battery_pattern_oracle(4).ok
    assert len(flags) == 1064
    assert flags == [i % 97 == 0 for i in range(len(flags))]
