import random
from fractions import Fraction

import pytest
from oracle_tools import brute_force_girth, dfs_all_cycle_lengths

from artinlink import (
    A2,
    B2,
    DefiningGraph,
    LimitExceededError,
    Orientation,
    UnassignedAnglesError,
    assign_metric,
    build_complex,
    build_link,
    build_triangular,
    enumerate_short_loops,
    girth,
    make_loop,
    min_angle_cycle,
    triangle_presentation,
)
from artinlink.cycles import has_short_loop


def complex_of(gamma):
    pres, _ = build_triangular(gamma)
    return build_complex(pres)


def triangle_complex(m, n, p):
    pres, _ = triangle_presentation(m, n, p)
    return build_complex(pres)


def link_of(gamma):
    return build_link(complex_of(gamma))


def classic_link(m, n, p):
    return build_link(triangle_complex(m, n, p))


def a2_link(link):
    angles = {(e.cell, e.corner): Fraction(1, 3) for e in link.edges}
    return link.with_angles(angles)


# -- girth ---------------------------------------------------------------


def test_girth_hexagon_of_commuting_edge():
    g = DefiningGraph(("a", "b"), [("a", "b", 2, Orientation.WILDCARD)])
    link = link_of(g)
    value, witness = girth(link)
    assert value == 6
    assert witness.length == 6
    assert sorted(v.bar_name for v in witness.vertices) == sorted(
        ["x_{a,b}_bar", "a_bar", "b", "x_{a,b}", "a", "b_bar"]
    )


def test_girth_245_is_four_with_known_witness():
    link = classic_link(2, 4, 5)
    value, witness = girth(link)
    assert value == 4
    names = {v.bar_name for v in witness.vertices}
    assert names in ({"a_bar", "b", "y", "c"}, {"a_bar", "b", "c_bar", "z_bar"})


@pytest.mark.parametrize("m,n,p", [(3, 3, 3), (3, 4, 5), (5, 5, 5)])
def test_girth_six_for_large_labels(m, n, p):
    assert girth(classic_link(m, n, p))[0] == 6


def test_girth_none_for_forest():
    link = classic_link(3, 3, 3)
    v = link.vertex("y", "head")
    tree = link.neighborhood(v, 2)
    assert girth(tree) == (None, None)


def assorted_complexes():
    yield complex_of(DefiningGraph(("a", "b"), [("a", "b", 2, Orientation.WILDCARD)]))
    yield complex_of(DefiningGraph(("a", "b"), [("a", "b", 5, Orientation.FORWARD)]))
    yield triangle_complex(2, 4, 5)
    yield triangle_complex(3, 3, 3)
    yield triangle_complex(2, 2, 2)
    # a transitive (pattern-carrying) triangle
    yield complex_of(
        DefiningGraph(
            ("a", "b", "c"),
            [
                ("a", "b", 3, Orientation.FORWARD),
                ("a", "c", 3, Orientation.FORWARD),
                ("b", "c", 3, Orientation.FORWARD),
            ],
        )
    )
    # square with alternating orientation
    yield complex_of(
        DefiningGraph(
            ("u", "v", "w", "t"),
            [
                ("u", "v", 3, Orientation.FORWARD),
                ("w", "v", 3, Orientation.FORWARD),
                ("w", "t", 3, Orientation.FORWARD),
                ("u", "t", 3, Orientation.FORWARD),
            ],
        )
    )


def assorted_links():
    return map(build_link, assorted_complexes())


def test_girth_matches_brute_force_enumeration():
    from artinlink.cycles import _shortest_cycle

    for link in assorted_links():
        assert len(link.vertices) <= 40
        expected = brute_force_girth(link)
        value, witness = girth(link)
        assert value == expected
        # the shortest-cycle engine must agree on its own, below the
        # loop-building wrapper
        assert _shortest_cycle(link)[0] == expected
        if expected is not None:
            assert witness.length == expected
        assert has_short_loop(link) == (expected is not None and expected < 6)


def test_girth_witness_is_least_of_all_minimal_loops():
    from oracle_tools import dfs_min_loops

    from artinlink.batteries import (
        enumerate_triangle_free_oriented_states,
        graph_from_state,
    )

    links = [
        link_of(graph_from_state(state, 5))
        for state in enumerate_triangle_free_oriented_states(5, (2, 3))
    ] + list(assorted_links())
    with_loops = 0
    for link in links:
        value, witness = girth(link)
        # under one angle everywhere the least angle sum is the girth
        oracle_value, oracle_len, minimal = dfs_min_loops(a2_link(link), 8)
        if value is None:
            assert minimal == []
            continue
        assert value <= 8  # within the oracle's exact range
        assert (oracle_value, oracle_len) == (Fraction(value, 3), value)
        assert witness.vertices == minimal[0]
        with_loops += 1
    assert with_loops == 435 + 6


def test_girth_is_even_on_links():
    for link in assorted_links():
        value, _ = girth(link)
        assert value is None or value % 2 == 0


def test_girth_witness_is_valid_embedded_loop():
    for link in assorted_links():
        value, witness = girth(link)
        if witness is None:
            continue
        assert len(set(witness.vertices)) == witness.length
        remade = make_loop(link, list(witness.vertices))
        assert remade == witness


# -- minimum-angle cycles ---------------------------------------------------


def test_min_angle_cycle_requires_angles():
    with pytest.raises(UnassignedAnglesError):
        min_angle_cycle(classic_link(3, 3, 3))


def test_min_angle_equilateral_333():
    value, witness = min_angle_cycle(a2_link(classic_link(3, 3, 3)))
    assert value == Fraction(2)
    assert witness.length == 6


def test_min_angle_forest_is_none():
    link = classic_link(3, 3, 3)
    tree = a2_link(link).neighborhood(link.vertex("y", "head"), 2)
    assert min_angle_cycle(tree) == (None, None)


def test_min_angle_uniform_is_theta_times_girth(monkeypatch):
    from artinlink import cycles

    def no_weighted_search(*args):
        raise AssertionError("uniform angles must not run the weighted search")

    monkeypatch.setattr(cycles, "_lightest_cycle_through", no_weighted_search)
    link = classic_link(3, 3, 3)
    forest = link.neighborhood(link.vertex("y", "head"), 2)
    for link in [*assorted_links(), forest]:
        theta = Fraction(2, 7)
        uniform = link.with_angles(
            {(e.cell, e.corner): theta for e in link.edges}
        )
        g, girth_loop = girth(link)
        value, witness = min_angle_cycle(uniform)
        assert min_angle_cycle(uniform, (g, girth_loop)) == (value, witness)
        if g is None:
            assert (value, witness) == (None, None)
        else:
            assert value == theta * g == witness.angle_sum
            assert witness.vertices == girth_loop.vertices


def test_min_angle_square_b2_is_exactly_two_pi_via_middles():
    square = DefiningGraph(
        ("u", "v", "w", "t"),
        [
            ("u", "v", 3, Orientation.FORWARD),
            ("w", "v", 3, Orientation.FORWARD),
            ("w", "t", 3, Orientation.FORWARD),
            ("u", "t", 3, Orientation.FORWARD),
        ],
    )
    pres, _ = build_triangular(square)
    k = build_complex(pres)
    link = build_link(k)
    metric = assign_metric(k, link, B2)
    angled_link = link.with_angles(metric.corner_angles)
    value, witness = min_angle_cycle(angled_link)
    assert value == Fraction(2)
    assert witness.length == 4
    assert witness.middle_edge_count(angled_link) == 4


def test_min_angle_exactness_type():
    value, _ = min_angle_cycle(a2_link(classic_link(3, 3, 3)))
    assert isinstance(value, Fraction)


def test_min_angle_matches_brute_force_under_b2():
    from oracle_tools import dfs_min_angle

    for link in assorted_links():
        k_angles = {}
        for e in link.edges:
            k_angles[(e.cell, e.corner)] = (
                Fraction(1, 2) if e.corner == 1 else Fraction(1, 4)
            )
        angled = link.with_angles(k_angles)
        value, witness = min_angle_cycle(angled)
        oracle = dfs_min_angle(angled, max_len=12)
        # the DFS bound is exact here: any 13-edge cycle weighs > 13/4,
        # above every minimum these links produce
        if value is None:
            assert oracle is None
        else:
            assert value <= Fraction(13, 4)
            assert value == oracle
            assert witness.angle_sum == value


def test_min_angle_witness_is_least_of_all_minimal_loops():
    from oracle_tools import dfs_min_loops

    from artinlink.batteries import (
        enumerate_triangle_free_oriented_states,
        graph_from_state,
    )

    def b2_angled(gamma):
        pres, _ = build_triangular(gamma)
        k = build_complex(pres)
        link = build_link(k)
        return link.with_angles(assign_metric(k, link, B2).corner_angles)

    angled_links = [
        b2_angled(graph_from_state(state, 4))
        for state in enumerate_triangle_free_oriented_states(4)
    ] + [a2_link(link) for link in assorted_links()]
    with_loops = 0
    for angled in angled_links:
        value, witness = min_angle_cycle(angled)
        oracle_value, oracle_len, minimal = dfs_min_loops(angled, 8)
        if value is None:
            assert minimal == []
            continue
        # any loop longer than 8 weighs at least 9 times the least angle
        assert value < 9 * min(e.angle for e in angled.edges)
        assert (value, witness.length) == (oracle_value, oracle_len)
        assert witness.vertices == minimal[0]
        with_loops += 1
    assert with_loops == 214 + 7


def test_min_angle_on_a_link_that_is_one_loop():
    # the whole link is one hexagon, so the loop key is the largest
    # possible: (total weight, vertex count)
    link = next(assorted_links())
    assert (len(link.vertices), len(link.edges), girth(link)[0]) == (6, 6, 6)
    angles = {(e.cell, e.corner): Fraction(1, 4) for e in link.edges}
    angles[(link.edges[0].cell, link.edges[0].corner)] = Fraction(1, 2)
    value, witness = min_angle_cycle(link.with_angles(angles))
    assert (value, witness.length) == (Fraction(7, 4), 6)


RANDOM_ANGLES = (Fraction(1, 12), Fraction(1, 4), Fraction(1, 2), Fraction(1))


def assert_weights_are_the_angles(angled, angle_of):
    """Each integer weight over the unit is exactly the edge's angle."""
    assert len(angled.weight) == len(angled.ends)
    for ei, e in enumerate(angled.edges):
        exact = Fraction(angled.weight[ei], angled.angle_unit)
        assert exact == e.angle == angle_of[(e.cell, e.corner)]


def test_min_angle_matches_oracle_under_random_angles():
    """The weighted engine against the exhaustive DFS, with angles no
    A2 or B2 metric gives.  The oracle extends only paths no heavier
    than the engine's value: a value that is too high is undercut, and
    one that is too low finds no loop or a heavier one."""
    from oracle_tools import dfs_min_loops

    from artinlink.batteries import (
        enumerate_triangle_free_oriented_states,
        graph_from_state,
    )

    links = list(assorted_links()) + [
        link_of(graph_from_state(state, 4))
        for state in enumerate_triangle_free_oriented_states(4)
    ]
    rng = random.Random(6)
    weighted = 0
    for _ in range(3):
        for link in links:
            angle_of = {
                (e.cell, e.corner): rng.choice(RANDOM_ANGLES) for e in link.edges
            }
            angled = link.with_angles(angle_of)
            assert_weights_are_the_angles(angled, angle_of)
            value, witness = min_angle_cycle(angled)
            oracle_value, oracle_len, minimal = dfs_min_loops(
                angled, len(link.vertices), value
            )
            if value is None:
                assert minimal == []
                continue
            assert (value, witness.length) == (oracle_value, oracle_len)
            assert witness.vertices == minimal[0]
            assert witness.angle_sum == value
            weighted += len({e.angle for e in angled.edges}) > 1
    assert weighted > 600  # nearly every draw runs the weighted search


@pytest.mark.parametrize("scheme", [A2, B2])
def test_metric_weights_are_exact(scheme):
    for k in assorted_complexes():
        link = build_link(k)
        angle_of = assign_metric(k, link, scheme).corner_angles
        angled = link.with_angles(angle_of)
        assert_weights_are_the_angles(angled, angle_of)
        assert link.weight is None and not link.angles_assigned
        assert angled.nbrs is link.nbrs and angled.ends is link.ends


def test_subgraphs_of_an_angled_link_carry_its_weights():
    rng = random.Random(9)
    link = classic_link(2, 4, 5)
    angled = link.with_angles(
        {(e.cell, e.corner): rng.choice(RANDOM_ANGLES) for e in link.edges}
    )
    parts = [
        angled.subgraph(range(0, len(angled.ends), 3)),
        angled.middle_subgraph(),
        angled.induced(angled.vertices[:7]),
        angled.neighborhood(angled.vertex("x", "head"), 2),
    ]
    for part in parts:
        assert part.ends and part.angles_assigned
        for ei, e in enumerate(part.edges):
            whole = angled.edge_index(e.a, e.b)
            assert Fraction(part.weight[ei], part.angle_unit) == Fraction(
                angled.weight[whole], angled.angle_unit
            )
        # re-angling a link of named edges replaces every angle
        half = {(e.cell, e.corner): Fraction(1, 2) for e in part.edges}
        reangled = part.with_angles(half)
        assert_weights_are_the_angles(reangled, half)


def test_b2_paths_never_build_named_edges(monkeypatch):
    from artinlink import LinkGraph, certify
    from artinlink.batteries import (
        b2_case,
        enumerate_triangle_free_oriented_states,
    )

    states = enumerate_triangle_free_oriented_states(4)
    expected = [b2_case(state, 4) for state in states]

    def named_edges(link):
        raise AssertionError("the named edges of a link were built")

    monkeypatch.setattr(LinkGraph, "edges", property(named_edges))
    assert [b2_case(state, 4) for state in states] == expected
    sides = ("a0", "a1", "a2"), ("b0", "b1", "b2")
    k33 = DefiningGraph(
        sides[0] + sides[1],
        [(a, b, 2, Orientation.WILDCARD) for a in sides[0] for b in sides[1]],
    )
    report = certify(k33)
    assert (report.scheme, report.min_angle_over_pi) == (B2, Fraction(2))


# -- loop enumeration ---------------------------------------------------------


def test_enumerate_245_short_loops_exactly_two():
    link = classic_link(2, 4, 5)
    loops = enumerate_short_loops(link, 4)
    names = sorted(frozenset(v.bar_name for v in lp.vertices) for lp in loops)
    assert names == sorted(
        [
            frozenset({"a_bar", "b", "c_bar", "z_bar"}),
            frozenset({"a_bar", "b", "y", "c"}),
        ]
    )


def test_enumerate_333_up_to_five_is_empty():
    assert enumerate_short_loops(classic_link(3, 3, 3), 5) == []


def test_enumerate_transitive_triangle_has_one_top_or_bottom_loop():
    link = link_of(
        DefiningGraph(
            ("a", "b", "c"),
            [
                ("a", "b", 3, Orientation.FORWARD),
                ("a", "c", 3, Orientation.FORWARD),
                ("b", "c", 3, Orientation.FORWARD),
            ],
        )
    )
    loops = enumerate_short_loops(link, 4)
    assert loops
    found = False
    for lp in loops:
        extremes = [v for v in lp.vertices if v.level in (1, 4)]
        if len(extremes) == 1:
            found = True
    assert found


def test_enumerate_guard():
    with pytest.raises(LimitExceededError):
        enumerate_short_loops(classic_link(3, 3, 3), 9)


def test_enumerate_matches_dfs_oracle_lengths():
    for link in assorted_links():
        oracle = [n for n in dfs_all_cycle_lengths(link) if n <= 6]
        ours = [lp.length for lp in enumerate_short_loops(link, 6)]
        assert sorted(ours) == sorted(oracle)


def test_enumerate_reports_each_loop_once():
    link = classic_link(2, 4, 5)
    loops = enumerate_short_loops(link, 6)
    assert len(loops) == len(set(loops))
    for lp in loops:
        assert len(set(lp.vertices)) == lp.length
