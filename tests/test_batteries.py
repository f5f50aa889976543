"""The enumeration machinery behind the sweeps, validated brute-force."""

import itertools
import random

from oracle_tools import least_images

from artinlink import DefiningGraph, Orientation, build_complex, build_link, build_triangular
from artinlink.batteries import (
    _FLIP,
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


def brute_force_class_count(n, states_per_pair):
    """Distinct isomorphism classes by canonicalizing every raw state."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    perms = []
    for perm in itertools.permutations(range(n)):
        moves = []
        for a, b in pairs:
            x, y = perm[a], perm[b]
            moves.append((index[(x, y) if x < y else (y, x)], x > y))
        perms.append(moves)

    canon = set()
    for raw in itertools.product(states_per_pair, repeat=len(pairs)):
        best = raw
        for moves in perms:
            mapped = [0] * len(pairs)
            for i, (j, flip) in enumerate(moves):
                mapped[j] = _FLIP[raw[i]] if flip else raw[i]
            cand = tuple(mapped)
            if cand < best:
                best = cand
        canon.add(best)
    return len(canon)


def test_oriented_enumeration_matches_brute_force_on_four_vertices():
    # states: 0 absent, 1/2 label-3 fwd/bwd, 3/4 label-4 fwd/bwd
    expected = brute_force_class_count(4, (0, 1, 2, 3, 4))
    states = enumerate_oriented_states(4)
    assert len(states) == expected == 695


def test_triangle_free_enumeration_matches_brute_force_on_four_vertices():
    pairs = list(itertools.combinations(range(4), 2))
    index = {p: i for i, p in enumerate(pairs)}
    triples = [
        tuple(index[p] for p in ((a, b), (a, c), (b, c)))
        for a, b, c in itertools.combinations(range(4), 3)
    ]

    # brute force restricted to triangle-free states
    def triangle_free(raw):
        return not any(all(raw[i] for i in t) for t in triples)

    perms = []
    for perm in itertools.permutations(range(4)):
        moves = []
        for a, b in pairs:
            x, y = perm[a], perm[b]
            moves.append((index[(x, y) if x < y else (y, x)], x > y))
        perms.append(moves)
    canon = set()
    for raw in itertools.product((0, 1, 2, 3, 4, 5), repeat=len(pairs)):
        if not triangle_free(raw):
            continue
        best = raw
        for moves in perms:
            mapped = [0] * len(pairs)
            for i, (j, flip) in enumerate(moves):
                mapped[j] = _FLIP[raw[i]] if flip else raw[i]
            cand = tuple(mapped)
            if cand < best:
                best = cand
        canon.add(best)

    states = enumerate_triangle_free_oriented_states(4)
    assert len(states) == len(canon)


def raw_wildcard_variants(states):
    """Each state with its first present pair turned into a wildcard."""
    out = []
    for state in states:
        present = [i for i, v in enumerate(state) if v]
        if present:
            out.append(state[: present[0]] + (5,) + state[present[0] + 1 :])
    return out


def test_wildcard_variants_match_brute_force_on_four_vertices():
    states = enumerate_oriented_states(4)
    expected = list(dict.fromkeys(least_images(raw_wildcard_variants(states), 4)))
    assert wildcard_variants(states, 4) == expected
    assert len(expected) == 369


def test_wildcard_variants_on_five_vertices_are_the_least_images():
    states = enumerate_oriented_states(5)
    wilds = wildcard_variants(states, 5)
    assert len(wilds) == len(set(wilds)) == 41_498
    rng = random.Random(20261018)
    # every output is its own least image ...
    sample = rng.sample(wilds, 1_000)
    assert least_images(sample, 5) == sample
    # ... and every raw variant's least image is an output
    raw = rng.sample(raw_wildcard_variants(states), 2_000)
    assert set(least_images(raw, 5)) <= set(wilds)


def test_graph_from_state_decodes_labels_and_directions():
    # pairs of K_3: (0,1), (0,2), (1,2)
    g = graph_from_state((1, 4, 5), 3)
    e01 = g.edge("v0", "v1")
    assert (e01.label, e01.tail, e01.head) == (3, "v0", "v1")
    e02 = g.edge("v0", "v2")
    assert (e02.label, e02.tail, e02.head) == (4, "v2", "v0")
    e12 = g.edge("v1", "v2")
    assert e12.label == 2 and e12.orientation == Orientation.WILDCARD


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
    link = build_link(build_complex(build_triangular(g)[0]))
    singles, chains, clean = middle_decomposition(link)
    assert not clean and chains == 0


def test_batteries_pass_at_small_scale():
    assert battery_tietze(8).ok
    assert battery_triangle_girth(3, 4).ok
    assert battery_pattern_oracle(3, wildcard_sweep=True).ok
    assert battery_triangle_free_b2(3).ok
    assert battery_random_spot_checks(seed=5, cases=10).ok


def test_battery_summary_format():
    result = battery_tietze(5)
    s = result.summary()
    assert s.startswith("PASS two-generator-equivalences: 4/4")
