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
    enumerate_short_loops,
    girth,
    link_of,
    make_loop,
    min_angle_cycle,
    triangle_presentation,
)
from artinlink.cycles import has_short_loop


def classic_link(m, n, p):
    return build_link(build_complex(triangle_presentation(m, n, p)))


def a2_link(link):
    return link.with_angles([Fraction(1, 3)] * len(link.ends))


def metric_link(link, scheme):
    """``link`` with the corner angles of ``scheme``'s metric: edge
    ``ei`` is corner ``ei % 3`` of its cell."""
    corners = assign_metric(link, scheme).corner_angles
    return link.with_angles(corners * len(link.complex.cells))


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


def assorted_links():
    yield link_of(DefiningGraph(("a", "b"), [("a", "b", 2, Orientation.WILDCARD)]))
    yield link_of(DefiningGraph(("a", "b"), [("a", "b", 5, Orientation.FORWARD)]))
    yield classic_link(2, 4, 5)
    yield classic_link(3, 3, 3)
    yield classic_link(2, 2, 2)
    # a transitive (pattern-carrying) triangle
    yield link_of(
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
    yield link_of(
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


def late_least_loops(label):
    """One edge of ``label`` on the first names beside an alternating
    square on the last: every least loop, of hops and of B2 weights,
    lies in the square's link, whose ids follow the edge's ~2 * label
    vertices, and each of those is next to the edge's hub star."""
    square = [("z0", "z1"), ("z2", "z1"), ("z2", "z3"), ("z0", "z3")]
    edges = [("a", "b", label)] + [(u, v, 3) for u, v in square]
    return DefiningGraph(
        ("a", "b", "z0", "z1", "z2", "z3"),
        [(u, v, m, Orientation.FORWARD) for u, v, m in edges],
    )


def late_hub_loops(label):
    """A transitive triangle with ``label`` on its first edge: every
    least loop is a 4-loop through that edge's hub, whose star of
    chain generators lies within half the key of the loop and holds
    the first ids, none of them on a least loop."""
    edges = [("z0", "z1", label), ("z0", "z2", 3), ("z1", "z2", 3)]
    return DefiningGraph(
        ("z0", "z1", "z2"), [(u, v, m, Orientation.FORWARD) for u, v, m in edges]
    )


def test_two_pass_engine_matches_the_id_order_oracle():
    """(key, ids) of both forms against the one-pass engine that starts
    in id order, on every B2 sweep link and on two links with hub
    stars of 50 and 500 vertices."""
    from oracle_tools import id_order_shortest_cycle

    from artinlink.batteries import (
        enumerate_triangle_free_oriented_states,
        graph_from_state,
    )
    from artinlink.cycles import _shortest_cycle

    links = [
        link_of(graph_from_state(state, 5))
        for state in enumerate_triangle_free_oriented_states(5)
    ]
    assert len(links) == 4_487
    edge = DefiningGraph(("a", "b"), [("a", "b", 500, Orientation.FORWARD)])
    links += [classic_link(50, 50, 50), link_of(edge)]
    for link in links:
        for weight in (None, metric_link(link, B2).weight):
            assert _shortest_cycle(link, weight) == id_order_shortest_cycle(link, weight)


def test_two_pass_engine_when_every_least_loop_starts_late(monkeypatch):
    from oracle_tools import id_order_shortest_cycle

    from artinlink import cycles

    starts = []
    for name in ("_least_cycle_through", "_lightest_cycle_through"):
        search = getattr(cycles, name)

        def counted(adj, s, best, search=search):
            starts.append(s)
            return search(adj, s, best)

        monkeypatch.setattr(cycles, name, counted)
    label = 200
    link = link_of(late_least_loops(label))
    for weight in (None, metric_link(link, B2).weight):
        starts.clear()
        key, ids = cycles._shortest_cycle(link, weight)
        assert (key, ids) == id_order_shortest_cycle(link, weight)
        assert len(ids) == 4 and ids[0] > 2 * label
        assert all("z" in v.gen for v in link._named(ids))
        # pass 1 searches from each rank, and pass 2 only from the
        # square's link: from none of the edge's 2 * label vertices,
        # each of them next to its hub star
        pass_2 = starts[len(link.nbrs) :]
        assert all("z" in v.gen for v in link._named(pass_2))
    # here pass 2 walks the hub's star, one start at a time
    link = link_of(late_hub_loops(label))
    for weight in (None, metric_link(link, B2).weight):
        key, ids = cycles._shortest_cycle(link, weight)
        assert (key, ids) == id_order_shortest_cycle(link, weight)
        assert len(ids) == 4 and ids[0] >= 2 * label


def test_girth_witness_is_least_of_all_minimal_loops():
    from oracle_tools import dfs_min_loops

    from artinlink.batteries import (
        enumerate_triangle_free_oriented_states,
        graph_from_state,
    )

    links = [
        link_of(graph_from_state(state, 5))
        for state in enumerate_triangle_free_oriented_states(5)
        if set(state) <= {0, 1, 2, 5}  # labels 2 and 3 only
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
        uniform = link.with_angles([theta] * len(link.ends))
        g, girth_loop = girth(link)
        value, witness = min_angle_cycle(uniform)
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
    angled_link = metric_link(link_of(square), B2)
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
        angled = metric_link(link, B2)
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

    angled_links = [
        metric_link(link_of(graph_from_state(state, 4)), B2)
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
    angles = [Fraction(1, 2)] + [Fraction(1, 4)] * (len(link.ends) - 1)
    value, witness = min_angle_cycle(link.with_angles(angles))
    assert (value, witness.length) == (Fraction(7, 4), 6)


RANDOM_ANGLES = (Fraction(1, 12), Fraction(1, 4), Fraction(1, 2), Fraction(1))


def assert_weights_are_the_angles(angled, angle_of):
    """Each integer weight over the unit is exactly the edge's angle."""
    assert len(angled.weight) == len(angled.ends)
    for ei, e in enumerate(angled.edges):
        exact = Fraction(angled.weight[ei], angled.angle_unit)
        assert exact == e.angle == angle_of[ei]


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
            angle_of = [rng.choice(RANDOM_ANGLES) for _ in link.ends]
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
    for link in assorted_links():
        angled = metric_link(link, scheme)
        corners = assign_metric(link, scheme).corner_angles
        assert_weights_are_the_angles(angled, [corners[e.corner] for e in link.edges])
        assert link.weight is None and not link.angles_assigned
        assert angled.nbrs is link.nbrs and angled.ends is link.ends


def test_subgraphs_of_an_angled_link_carry_its_weights():
    rng = random.Random(9)
    link = classic_link(2, 4, 5)
    angled = link.with_angles([rng.choice(RANDOM_ANGLES) for _ in link.ends])
    parts = [
        angled.subgraph(range(0, len(angled.ends), 3)),
        angled.middle_subgraph(),
        angled.induced(angled.vertices[:7]),
        angled.neighborhood(angled.vertex("x", "head"), 2),
    ]
    parts.append(parts[3].subgraph(range(1, len(parts[3].ends), 2)))  # a part's part
    for part in parts:
        assert part.ends and part.angles_assigned and part.complex is None
        for v in part.vertices:
            assert v in angled.index
        for ei, e in enumerate(part.edges):
            # the whole link's edge, with its cell, corner, piece, kind and angle
            assert angled.edges[angled._edge_between(e.a, e.b)] == e
            assert Fraction(part.weight[ei], part.angle_unit) == e.angle
        # re-angling a part replaces every angle
        half = [Fraction(1, 2)] * len(part.ends)
        reangled = part.with_angles(half)
        assert_weights_are_the_angles(reangled, half)
    for bad in ([-1], [0, len(angled.ends)]):
        with pytest.raises(ValueError, match="edge ids"):
            angled.subgraph(bad)


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


@pytest.mark.parametrize("name", ["grid4", "tri50"])
def test_a2_certify_never_builds_named_vertices(monkeypatch, name):
    """Under A2 the girth loop is the min-angle loop; it is re-read on
    the angled link by its edge ids, not renamed through the named view."""
    from test_smallcancel import CORPUS

    from artinlink import LinkGraph, certify, parse_gamma

    gamma = parse_gamma(CORPUS[name])
    expected = certify(gamma)

    def named_vertices(link):
        raise AssertionError("the named vertices of a link were built")

    monkeypatch.setattr(LinkGraph, "vertices", property(named_vertices))
    report = certify(gamma)
    assert report.scheme == A2
    assert report.to_json_dict() == expected.to_json_dict()


def test_with_angles_takes_one_angle_per_edge():
    link = classic_link(3, 3, 3)
    part = link.middle_subgraph()
    for graph in (link, part):
        for count in (len(graph.ends) - 1, len(graph.ends) + 1):
            with pytest.raises(ValueError, match="angles for"):
                graph.with_angles([Fraction(1, 3)] * count)


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
