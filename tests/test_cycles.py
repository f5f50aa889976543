import functools
import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_tools import brute_force_girth, dfs_all_cycle_lengths

from artinlink import (
    A2,
    B2,
    DefiningGraph,
    LimitExceededError,
    LinkVertex,
    Orientation,
    OrientationAssignment,
    UnassignedAnglesError,
    assign_metric,
    build_complex,
    build_link,
    enumerate_short_loops,
    girth,
    link_of,
    make_loop,
    min_angle_cycle,
    parse_gamma,
    resolve_orientations,
    search_orientation,
    triangle_presentation,
)
from artinlink.cycles import has_short_loop

F, B = Orientation.FORWARD, Orientation.BACKWARD


def classic_link(m, n, p):
    return build_link(build_complex(triangle_presentation(m, n, p)))


def a2_link(link):
    return link.with_angles([1] * len(link.ends), 3)


def metric_link(link, scheme):
    """``link`` with the corner angles of ``scheme``'s metric: edge
    ``ei`` is corner ``ei % 3`` of its cell."""
    metric = assign_metric(link, scheme)
    weight = metric.corner_weights * len(link.complex.cells)
    return link.with_angles(weight, metric.angle_unit)


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


def test_one_sided_short_loop_scan_matches_brute_force():
    """On every 4-vertex sweep link, the assorted links, and the middle
    subgraphs and radius-2 neighbourhoods of sampled 5-vertex links:
    parts that keep their levels.  The scan visits the even vertices by
    descending degree and leaves at its first repeated pair, so both
    exits are covered: cores whose even vertices of largest degree lie
    on no 4-cycle (the late-loop graphs, their middle subgraphs and
    neighbourhoods, and a square behind six hubs), and sampled 5-vertex
    links without a 4-cycle, which the scan reads to the end."""
    from artinlink.batteries import (
        enumerate_oriented_states,
        graph_from_state,
        wildcard_variants,
    )

    states4 = enumerate_oriented_states(4)
    states4 += wildcard_variants(states4, 4)
    links = [link_of(graph_from_state(state, 4)) for state in states4]
    links += assorted_links()
    rng = random.Random(2209)
    for _ in range(60):
        state = tuple(rng.choice((0, 1, 2, 3, 4, 5)) for _ in range(10))
        link = link_of(graph_from_state(state, 5))
        links.append(link.middle_subgraph())
        links += (link.neighborhood(v, 2) for v in rng.sample(link.vertices, 3))
    for graph in (late_hub_loops, late_least_loops):
        for label in (3, 4, 10, 40):
            link = link_of(graph(label))
            links += (link, link.middle_subgraph())
            links += (link.neighborhood(v, 2) for v in link.vertices)
    # six hubs of degree 10 on no 4-cycle, then an alternating square:
    # its 4-cycle is met at the tenth even vertex, after every hub
    edges = [(f"a{i}", f"b{i}", 10) for i in range(6)]
    edges += [("z0", "z1", 3), ("z2", "z1", 3), ("z2", "z3", 3), ("z0", "z3", 3)]
    names = sorted({v for e in edges for v in e[:2]})
    forward = [(u, v, m, Orientation.FORWARD) for u, v, m in edges]
    late_square = link_of(DefiningGraph(names, forward))
    links += (late_square, late_square.middle_subgraph())
    rng = random.Random(3301)
    no_four_cycle = 0
    while no_four_cycle < 50:  # sparse states: about one link in five
        state = tuple(rng.choice((0, 0, 0, 1, 2, 3, 4, 5)) for _ in range(10))
        link = link_of(graph_from_state(state, 5))
        girth_value = brute_force_girth(link)
        no_four_cycle += girth_value != 4
        assert has_short_loop(link) == (girth_value == 4)
    answers = Counter(has_short_loop(link) for link in links)
    assert answers[True] > 100 and answers[False] > 100
    for link in links:
        assert has_short_loop(link) == (brute_force_girth(link) == 4)


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
            expected = id_order_shortest_cycle(link, weight)
            assert _shortest_cycle(link, weight)[:2] == expected


@st.composite
def small_links_and_weights(draw):
    """The link of a graph on at most 4 vertices, labels 2 to 6 and
    either direction, with no weight or with one of 1 to 12 per edge:
    many ties, and edges heavier than the rest of a least loop, which
    the B2 weights never give."""
    names = "abcd"[: draw(st.integers(2, 4))]
    edges = []
    for u, v in itertools.combinations(names, 2):
        label = draw(st.sampled_from((0, 2, 3, 4, 5, 6)))  # 0: no edge
        if label:
            edges.append((u, v, label, draw(st.sampled_from((F, B)))))
    link = link_of(DefiningGraph(tuple(names), edges))
    count = len(link.ends)
    weights = st.lists(st.integers(1, 12), min_size=count, max_size=count)
    return link, draw(st.none() | weights)


class Core:
    """The integer core of a simple graph on ids ``0..n-1``, as a link
    holds it: ``ends[ei]``, lower id first, and ``nbrs`` in edge-id
    order."""

    def __init__(self, n, edges):
        self.ends = [(min(e), max(e)) for e in edges]
        self.nbrs = [[] for _ in range(n)]
        for ei, (a, b) in enumerate(self.ends):
            self.nbrs[a].append((b, ei))
            self.nbrs[b].append((a, ei))


@st.composite
def small_graphs_and_weights(draw):
    """The core of a simple graph on 3 to 9 ids, odd loops allowed,
    which no link has, with no weight or with one of 1 to 3 per edge."""
    n = draw(st.integers(3, 9))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    core = Core(n, [e for e, keep in zip(pairs, chosen) if keep])
    count = len(core.ends)
    weights = st.lists(st.integers(1, 3), min_size=count, max_size=count)
    return core, draw(st.none() | weights)


HEXAGON = link_of(DefiningGraph(("a", "b"), [("a", "b", 2, F)]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_links_and_weights() | small_graphs_and_weights())
# the link is one loop whose last edge outweighs the other five: each
# end of that edge is reached round the loop, and the loop closes over
# the edge only as that end is relabelled
@example((HEXAGON, [1, 1, 1, 1, 1, 6]))
# graphs with odd loops and odd least keys: a vertex is lowered by one,
# to half of the least key less one, after the edge it was first reached
# by was relaxed, so that loop closes only as the vertex is expanded
@example(
    (
        Core(9, [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 7), (7, 8), (1, 8)]),
        [1, 1, 1, 2, 1, 2, 2, 12, 12, 12],
    )
)
@example((Core(8, [(1, 6), (1, 7), (2, 3), (2, 4), (2, 6), (4, 5), (4, 7)]), [1, 3, 3, 3, 1, 1, 2]))
@example(
    (
        Core(8, [(0, 2), (0, 4), (1, 3), (1, 5), (2, 5), (2, 6), (2, 7), (3, 5), (4, 5), (5, 7)]),
        [7, 2, 11, 7, 11, 9, 6, 9, 1, 4],
    )
)
def test_engine_matches_the_id_order_oracle_on_random_weights(case):
    """On links and on any simple graph: the engine reads only the
    integer core."""
    from oracle_tools import id_order_shortest_cycle

    from artinlink.cycles import _shortest_cycle

    link, weight = case
    assert _shortest_cycle(link, weight)[:2] == id_order_shortest_cycle(link, weight)


def test_two_pass_engine_when_every_least_loop_starts_late(monkeypatch):
    """On a link with a lighter 4-cycle than its proven bound, pass 1
    runs no search, with weights or without, and the light check
    under weights runs none either; pass 2 searches once in all on
    ``link.nbrs`` itself, from the canonical start, however late it
    comes in id order and however many vertices lie near the least
    loops."""
    from oracle_tools import id_order_shortest_cycle

    from artinlink import cycles

    search = cycles._least_cycle_through
    starts = []

    def counted(nbrs, steps, s, best):
        starts.append((nbrs, s, best))
        return search(nbrs, steps, s, best)

    monkeypatch.setattr(cycles, "_least_cycle_through", counted)
    label = 200
    # late_least_loops: every least loop lies in the square's link, whose
    # ids follow the edge's 2 * label vertices; late_hub_loops: every
    # least loop runs through a hub whose star holds the first ids
    for graph, first in (late_least_loops, 2 * label + 1), (late_hub_loops, 2 * label):
        link = link_of(graph(label))
        for weight in (None, metric_link(link, B2).weight):
            starts.clear()
            key, ids, _ = cycles._shortest_cycle(link, weight)
            assert (key, ids) == id_order_shortest_cycle(link, weight)
            assert len(ids) == 4 and ids[0] >= first
            assert starts == [(link.nbrs, ids[0], key + 1)]
            assert starts[0][0] is link.nbrs
            if graph is late_least_loops:
                assert all("z" in v.gen for v in link._named(ids))


@functools.cache
def corpus_links():
    """The link ``certify`` builds for each graph of the bench corpus:
    unoriented edges take the searched orientation, else u -> v."""
    from test_bench_expected import CORPUS

    links = {}
    for name, text in CORPUS.items():
        gamma = parse_gamma(text)
        todo = gamma.unoriented_edges()
        if todo:
            found = search_orientation(gamma) or OrientationAssignment(
                {e.key: "forward" for e in todo}
            )
            gamma = resolve_orientations(gamma, found)
        links[name] = link_of(gamma)
    return links


@functools.cache
def sampled_oracle_links():
    """2,000 links of acceptance 06's cases, the oriented 5-vertex graph
    classes and their wildcard variants, sampled with a fixed seed."""
    from artinlink.batteries import (
        enumerate_oriented_states,
        graph_from_state,
        wildcard_variants,
    )

    states = enumerate_oriented_states(5)
    states += wildcard_variants(states, 5)
    sample = random.Random(2901).sample(states, 2_000)
    return [link_of(graph_from_state(state, 5)) for state in sample]


def scan_input(core, weight=None):
    """The 4-cycle scan's steps per edge of ``core`` and its ``unset``
    key, as the loop engine builds them: unit steps without ``weight``,
    else ``w * n + 1``."""
    n = len(core.nbrs)
    steps = [1] * len(core.ends) if weight is None else [w * n + 1 for w in weight]
    return steps, sum(steps) + 1


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_graphs_and_weights())
def test_least_id_on_a_four_cycle_matches_brute_force(case):
    """On any simple graph, odd loops allowed: the scan needs no levels.
    On unit steps every 4-cycle is keyed 4, so both ids it gives are
    the least id on a 4-cycle."""
    from oracle_tools import least_id_on_a_four_cycle

    from artinlink.cycles import _lightest_four_cycle

    core, _ = case
    steps, unset = scan_input(core)
    least = least_id_on_a_four_cycle(core)
    n = len(core.nbrs)
    expected = (unset, n, n) if least is None else (4, least, least)
    assert _lightest_four_cycle(core.nbrs, steps, unset) == expected


def test_least_id_on_a_four_cycle_on_sampled_oracle_links():
    from oracle_tools import least_id_on_a_four_cycle

    from artinlink.cycles import _lightest_four_cycle

    answers = Counter()
    for link in sampled_oracle_links():
        steps, unset = scan_input(link)
        least = least_id_on_a_four_cycle(link)
        n = len(link.nbrs)
        expected = (unset, n, n) if least is None else (4, least, least)
        assert _lightest_four_cycle(link.nbrs, steps, unset) == expected
        answers[least is None] += 1
    assert answers[True] > 20 and answers[False] > 1_000


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_graphs_and_weights())
def test_lightest_four_cycle_matches_brute_force(case):
    """The keyed scan against every pair with two common neighbours,
    on unit steps and on weighted ones, odd loops allowed."""
    from oracle_tools import lightest_four_cycle

    from artinlink.cycles import _lightest_four_cycle

    core, weight = case
    steps, unset = scan_input(core, weight)
    found = _lightest_four_cycle(core.nbrs, steps, unset)
    assert found == lightest_four_cycle(core, steps, unset)


def test_lightest_four_cycle_on_sampled_oracle_links():
    """The keyed scan on sampled oracle links, under unit steps and
    under B2 steps."""
    from oracle_tools import lightest_four_cycle

    from artinlink.cycles import _lightest_four_cycle

    keys = Counter()
    for link in sampled_oracle_links():
        for scheme, weight in (None, None), (B2, metric_link(link, B2).weight):
            steps, unset = scan_input(link, weight)
            found = _lightest_four_cycle(link.nbrs, steps, unset)
            assert found == lightest_four_cycle(link, steps, unset)
            keys[scheme, found[0] == unset] += 1
    assert all(keys[scheme, False] > 1_000 for scheme in (None, B2))
    assert all(keys[scheme, True] > 20 for scheme in (None, B2))


def test_lightest_four_cycle_takes_the_least_u_of_a_tie_in_any_order():
    """K2,3 with v = 4 and w = 3 opposite, u = 2 the one light path
    between them and u = 0 and 1 two heavier ones: every lightest
    4-cycle holds 2 and one of 0 and 1, so the least id is 0, whatever
    the order of the neighbour lists.  Were a tie kept by the first u
    met, the list 1, 0, 2 would give 1.  The least id on any 4-cycle is
    0 too."""
    from oracle_tools import lightest_four_cycle

    from artinlink.cycles import _lightest_four_cycle

    core = Core(5, [(0, 4), (1, 4), (2, 4), (0, 3), (1, 3), (2, 3)])
    steps, unset = [2, 2, 1, 2, 2, 1], 11
    assert lightest_four_cycle(core, steps, unset) == (6, 0, 0)
    at_v, at_w = core.nbrs[4], core.nbrs[3]
    for order_v, order_w in itertools.product(itertools.permutations(range(3)), repeat=2):
        core.nbrs[4] = [at_v[i] for i in order_v]
        core.nbrs[3] = [at_w[i] for i in order_w]
        assert _lightest_four_cycle(core.nbrs, steps, unset) == (6, 0, 0)


@functools.cache
def order_cores():
    """Cores whose neighbour lists the property below reorders: 150
    sampled oracle links and 150 B2 sweep links under their B2 angles,
    and the middle subgraph of each, which carries the angles."""
    from artinlink.batteries import (
        enumerate_triangle_free_oriented_states,
        graph_from_state,
    )

    states = enumerate_triangle_free_oriented_states(5)
    links = sampled_oracle_links()[:150]
    links += (link_of(graph_from_state(s, 5)) for s in random.Random(3801).sample(states, 150))
    angled = [metric_link(link, B2) for link in links]
    return angled + [link.middle_subgraph() for link in angled]


def with_lists(core, order):
    """A copy of ``core`` with ``order(ns)`` as each neighbour list and
    no hop answer or 4-cycle start yet; it shares the rest."""
    from artinlink.complex_link import LinkGraph

    copy = LinkGraph.__new__(LinkGraph)
    copy.__dict__.update(core.__dict__)
    copy.nbrs, copy._hops, copy._four = [order(ns) for ns in core.nbrs], [], []
    return copy


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 599), st.integers(0, 2**32 - 1))
def test_loop_readers_do_not_depend_on_the_order_of_neighbour_lists(index, seed):
    """Every reader of the core gives the same answers when each
    neighbour list is shuffled as when it is sorted; each reader gets
    a copy of its own, as the engine and the short-loop scan sort the
    lists they read in place."""
    from artinlink.cycles import (
        _has_short_light_loop,
        _lightest_four_cycle,
        _shortest_cycle,
    )

    core = order_cores()[index]

    def answers(order):
        fresh = functools.partial(with_lists, core, order)
        out = [has_short_loop(fresh()), _has_short_light_loop(fresh())]
        for weight in (None, core.weight):
            steps, unset = scan_input(core, weight)
            out.append(_lightest_four_cycle(fresh().nbrs, steps, unset))
            out.append(_shortest_cycle(fresh(), weight))
        out += girth(fresh()), min_angle_cycle(fresh())
        return out + [enumerate_short_loops(fresh(), 6)]

    rng = random.Random(seed)
    assert answers(lambda ns: rng.sample(ns, len(ns))) == answers(sorted)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 599))
def test_hop_search_reads_the_four_cycle_start_of_the_weighted_scan(index):
    """On sampled oracle links and B2 sweep links under their B2 angles,
    and on the middle subgraph of each: the weighted search holds the
    least id on any 4-cycle, which equals a fresh unit-step scan's start
    and the brute-force least id on a 4-cycle (the id count if none).
    A hop search after it scans nothing and gives what a fresh hop
    search gives."""
    from oracle_tools import least_id_on_a_four_cycle

    from artinlink import cycles

    core = order_cores()[index]
    n = len(core.nbrs)
    least = least_id_on_a_four_cycle(core)
    steps, unset = scan_input(core)
    fresh_start = cycles._lightest_four_cycle(with_lists(core, list).nbrs, steps, unset)[1]
    expected = cycles._shortest_cycle(with_lists(core, list))
    link = with_lists(core, list)
    cycles._shortest_cycle(link, link.weight)
    assert link._four == [fresh_start] == [n if least is None else least]
    scans = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycles, "_lightest_four_cycle", lambda *args: scans.append(args))
        assert cycles._shortest_cycle(link) == expected
    assert scans == []


def test_hop_start_held_by_a_weighted_scan_is_not_its_lightest_cycles():
    """Under B2 angles the lightest 4-cycles of this oracle link miss
    the least id on a 4-cycle: the weighted scan's start is 16, and the
    hop start it holds is 14, from which girth's search then runs."""
    from artinlink import cycles
    from artinlink.batteries import graph_from_state

    gamma = graph_from_state((0, 0, 1, 1, 1, 0, 3, 1, 1, 0), 5)
    link = metric_link(link_of(gamma), B2)
    steps, unset = scan_input(link, link.weight)
    assert cycles._lightest_four_cycle(link.nbrs, steps, unset)[1:] == (16, 14)
    length, loop = girth(link_of(gamma))
    cycles._shortest_cycle(link, link.weight)
    assert link._four == [14]
    held_length, held_loop = girth(link)  # the angled copy's loop has its angle sum
    assert (held_length, held_loop.vertices) == (length, loop.vertices)
    assert length == 4 and link._named([14])[0] == loop.vertices[0]


def test_girth_from_the_proven_bound_matches_the_id_order_oracle():
    """``girth`` against the one-pass engine on the corpus links and
    their middle subgraphs, hub stars of 50 and 500 vertices, the
    late-loop families and sampled oracle links; at label 4,000, where
    the one-pass engine is quadratic in the hub star, against the
    rank-order pass 1 that every other graph takes."""
    from oracle_tools import id_order_shortest_cycle

    from artinlink.cycles import _shortest_cycle

    def ids_of(link):
        value, loop = girth(link)
        return value, loop and tuple(map(link._resolve, loop.vertices))

    links = []
    for link in corpus_links().values():
        links += [link, link.middle_subgraph()]
    edge = DefiningGraph(("a", "b"), [("a", "b", 500, F)])
    links += [classic_link(50, 50, 50), link_of(edge)]
    links += [link_of(graph(200)) for graph in (late_least_loops, late_hub_loops)]
    links += sampled_oracle_links()
    # parts that keep 6 edges in 10: their least ids often lie on no
    # least loop, so a start serves only if its search meets the bound
    rng = random.Random(2902)
    for link in sampled_oracle_links()[:300]:
        kept = [ei for ei in range(len(link.ends)) if rng.random() < 0.6]
        links.append(link.subgraph(kept))
    girths = Counter()
    for link in links:
        value, ids = ids_of(link)
        assert (value, ids) == id_order_shortest_cycle(link)
        girths[value] += 1
    # each step of pass 1 runs: a 4-cycle, else girth 6, else 8 or a forest
    assert all(girths[value] > 3 for value in (4, 6, 8, None))
    for graph in (late_least_loops, late_hub_loops):
        link = link_of(graph(4_000))
        assert ids_of(link) == _shortest_cycle(Core(len(link.nbrs), link.ends))[:2]


def test_hop_search_from_the_proven_bound_searches_once(monkeypatch):
    """On the grids' links and tri(50, 50, 50), girth 6, and on K8,8's,
    girth 4, the hop search runs one search, from id 0."""
    from artinlink import cycles

    search = cycles._least_cycle_through
    starts = []

    def counted(nbrs, steps, s, best):
        starts.append(s)
        return search(nbrs, steps, s, best)

    monkeypatch.setattr(cycles, "_least_cycle_through", counted)
    links = [corpus_links()[name] for name in ("grid4", "grid12", "k88")]
    for link in links + [classic_link(50, 50, 50)]:
        starts.clear()
        cycles._shortest_cycle(link)
        assert starts == [0]


def test_min_angle_from_the_proven_bound_matches_the_id_order_oracle():
    """The B2 search against the one-pass engine on the corpus links
    and on sampled oracle links: these have triangles, so least loops
    of six bottom and top edges, which only the light check bounds."""
    from oracle_tools import id_order_shortest_cycle

    from artinlink.cycles import _shortest_cycle

    kinds = Counter()
    for link in [*corpus_links().values(), *sampled_oracle_links()[:1_000]]:
        weight = metric_link(link, B2).weight
        key, ids, eids = _shortest_cycle(link, weight)
        assert (key, ids) == id_order_shortest_cycle(link, weight)
        kinds[len(ids), sum(map(link.is_middle, eids))] += 1
    assert kinds[6, 0] > 10 and kinds[6, 2] > 5 and kinds[4, 2] > 900


def test_light_loop_scan_matches_a_dfs_on_the_light_edges():
    """The star scan behind the weighted bound against a DFS on the
    subgraph of light edges: on every B2 sweep link, the oriented
    4-vertex oracle links, their middle subgraphs and neighbourhoods,
    the corpus links, and a link whose light edges close a 4-loop: hubs
    h1 and h2 share the lefts u and w.  Of the Γ links, only those of
    Γs with a triangle fire."""
    from artinlink.batteries import (
        enumerate_oriented_states,
        enumerate_triangle_free_oriented_states,
        graph_from_state,
    )
    from artinlink.cycles import _has_short_light_loop
    from artinlink.presentations import HubRecord, Presentation

    sweep = [
        link_of(graph_from_state(state, 5))
        for state in enumerate_triangle_free_oriented_states(5)
    ]
    oracle = [link_of(graph_from_state(state, 4)) for state in enumerate_oriented_states(4)]
    parts = [link.middle_subgraph() for link in oracle]
    parts += [link.neighborhood(link.vertices[0], 3) for link in oracle]
    corpus = corpus_links()
    gens = ("h1", "h2", "u", "w", "a", "b", "c", "d")
    cells = ("h1", "u", "a"), ("h1", "w", "b"), ("h2", "u", "c"), ("h2", "w", "d")
    records = [HubRecord(h, (h, h), 3, (h, h)) for h in ("h1", "h2")]
    pres = Presentation.from_cells(gens, [tuple(map(gens.index, c)) for c in cells], records)
    square = build_link(build_complex(pres))
    assert girth(square)[0] == 4
    fired = Counter()
    for kind, links in (
        ("sweep", sweep),
        ("oracle", oracle),
        ("parts", parts),
        ("corpus", corpus.values()),
        ("square", [square]),
    ):
        for link in links:
            light = [ei for ei in range(len(link.ends)) if not link.is_middle(ei)]
            found = _has_short_light_loop(link)
            assert found == bool(dfs_all_cycle_lengths(link.subgraph(light), 6))
            fired[kind, found] += 1
    assert fired["sweep", True] == 0 and fired["oracle", True] > 100
    assert fired["parts", True] > 10 and fired["square", True] == 1
    assert [name for name, link in corpus.items() if _has_short_light_loop(link)] == [
        "tri345",
        "tri50",
        "tri200",
    ]


def test_light_loop_scan_on_top_edges_alone_and_on_one_centred_pairs():
    """Two parts that the scan's choices decide.  A triangle link's top
    (corner 2) edges: their only short loop is a hexagon of top edges,
    with its centres on level 4.  A hub whose bottom star holds three
    lefts, each also in a second two-edge star with a leaf at its other
    end: the three are kept and pairwise paired, but only by that hub,
    and no loop closes."""
    from artinlink.cycles import _has_short_light_loop
    from artinlink.presentations import HubRecord, Presentation

    link = classic_link(3, 3, 3)
    top = link.subgraph(range(2, len(link.ends), 3))
    assert {max(top.levels[a], top.levels[b]) for a, b in top.ends} == {4}
    assert _has_short_light_loop(top) and dfs_all_cycle_lengths(top, 6) == [6]

    hubs = ("h", "hx", "hy", "hz")
    lefts = ("x", "y", "z", "lx", "ly", "lz")
    rights = tuple(f"r{i}" for i in range(9))
    gens = hubs + lefts + rights
    cells = [("h", "x"), ("h", "y"), ("h", "z")]
    cells += [(f"h{u}", u) for u in "xyz"] + [(f"h{u}", f"l{u}") for u in "xyz"]
    ids = [(gens.index(h), gens.index(u), gens.index(r)) for (h, u), r in zip(cells, rights)]
    records = [HubRecord(h, (h, h), 3, (h, h)) for h in hubs]
    link = build_link(build_complex(Presentation.from_cells(gens, ids, records)))
    assert [link.degree(link.vertex(h, "tail")) for h in hubs] == [3, 2, 2, 2]
    assert not _has_short_light_loop(link) and dfs_all_cycle_lengths(link) == []


def test_weighted_search_from_the_proven_bound_searches_once(monkeypatch):
    """Under B2, K8,8's and grid4's links and sampled B2 sweep links run
    one search in all, on ``link.nbrs`` itself and its weighted steps:
    the least 4-cycle is lighter than the bound, or the first id that
    can start a loop meets it.  The light check runs no search."""
    from artinlink import cycles
    from artinlink.batteries import (
        enumerate_triangle_free_oriented_states,
        graph_from_state,
    )

    search = cycles._least_cycle_through
    calls = []

    def counted(nbrs, steps, s, best):
        calls.append((nbrs, steps))
        return search(nbrs, steps, s, best)

    monkeypatch.setattr(cycles, "_least_cycle_through", counted)
    states = enumerate_triangle_free_oriented_states(5)[1:]  # 0: no edge
    links = [link_of(graph_from_state(state, 5)) for state in states]
    links = random.Random(3001).sample(links, 400)
    links += [corpus_links()[name] for name in ("grid4", "k88")]
    for link in links:
        calls.clear()
        cycles._shortest_cycle(link, metric_link(link, B2).weight)
        assert len(calls) == 1
        nbrs, steps = calls[0]
        assert nbrs is link.nbrs and 1 not in steps


def test_the_searches_read_the_link_core_in_place(monkeypatch):
    """On whole corpus links and sampled B2 sweep links, with weights
    and without, the 4-cycle scan comes first, and it, the id-order
    step and pass 2 read ``link.nbrs`` itself, not a copy; under
    weights no call runs on unit steps, as the light check reads the
    stars in place and calls neither.  Each search starts with no
    4-cycle start held, so the hop search scans too."""
    from artinlink import cycles
    from artinlink.batteries import (
        enumerate_triangle_free_oriented_states,
        graph_from_state,
    )

    scan, search = cycles._lightest_four_cycle, cycles._least_cycle_through
    calls = []

    def scanned(nbrs, steps, unset):
        calls.append(("scan", nbrs, steps))
        return scan(nbrs, steps, unset)

    def searched(nbrs, steps, s, best):
        calls.append(("search", nbrs, steps))
        return search(nbrs, steps, s, best)

    monkeypatch.setattr(cycles, "_lightest_four_cycle", scanned)
    monkeypatch.setattr(cycles, "_least_cycle_through", searched)
    states = enumerate_triangle_free_oriented_states(5)[1:]  # 0: no edge
    sample = random.Random(3502).sample(states, 200)
    sweep = [link_of(graph_from_state(state, 5)) for state in sample]
    corpus = [corpus_links()[name] for name in ("grid4", "k88", "tri345")]
    for link in corpus + sweep:
        for weight in (None, metric_link(link, B2).weight):
            calls.clear()
            link._four.clear()
            key, ids, eids = cycles._shortest_cycle(link, weight)
            kinds = [kind for kind, _, _ in calls]
            assert kinds[0] == "scan" and kinds.count("scan") == 1
            assert len(calls) >= 2  # the scan, then the id-order step or pass 2
            assert all(nbrs is link.nbrs for _, nbrs, _ in calls)
            if weight:
                assert all(1 not in steps for _, _, steps in calls)
            assert eids == tuple(link._steps(ids))


def test_engine_edge_ids_name_the_steps_of_its_loops():
    """The witnesses of ``girth`` and of ``min_angle_cycle`` under A2
    and B2 weights, and the loops of ``enumerate_short_loops`` up to 6
    edges, carry the edge id of each step as the link's own lookup
    reads it: on the corpus links, the sampled oracle links and their
    middle subgraphs.  To keep the time down the enumeration skips
    tri200 and all but the first 100 sampled whole links (about 220
    loops each)."""

    def assert_steps(graph, loops):
        index = {v: i for i, v in enumerate(graph.vertices)}
        for loop in filter(None, loops):
            ids = tuple(map(index.__getitem__, loop.vertices))
            assert loop.edge_indices == tuple(graph._steps(ids))

    corpus = [link for name, link in corpus_links().items() if name != "tri200"]
    enumerated = {id(link) for link in [*corpus, *sampled_oracle_links()[:100]]}
    wholes = [corpus_links()["tri200"], *corpus, *sampled_oracle_links()]
    middles = [link.middle_subgraph() for link in wholes]
    loops = Counter()
    for graph in [*wholes, *middles]:
        found = [girth(graph)[1]]
        if id(graph) in enumerated or graph._whole:
            found += enumerate_short_loops(graph, 6)
        assert_steps(graph, found)
        loops.update(loop.length for loop in filter(None, found))
    for scheme in (A2, B2):
        for link in wholes:
            angled = metric_link(link, scheme)
            for graph in (angled, angled.middle_subgraph()):
                value, loop = min_angle_cycle(graph)
                if loop is not None:
                    assert_steps(graph, [loop])
                    weights = map(graph.weight.__getitem__, loop.edge_indices)
                    assert value == Fraction(sum(weights), graph.angle_unit)
                    loops[scheme] += 1
    assert loops[4] > 5_000 and loops[6] > 20_000
    assert loops[A2] > 2_000 and loops[B2] > 2_000


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_graphs_and_weights())
def test_engine_edge_ids_on_any_simple_graph(case):
    """The engine's (key, ids) against the id-order oracle, and its edge
    ids against the core's ends, odd loops allowed."""
    from oracle_tools import id_order_shortest_cycle

    from artinlink.cycles import _shortest_cycle

    core, weight = case
    key, ids, eids = _shortest_cycle(core, weight)
    assert (key, ids) == id_order_shortest_cycle(core, weight)
    if ids is None:
        assert eids is None
    else:
        edge_of = {pair: ei for ei, pair in enumerate(core.ends)}
        steps = zip(ids, ids[1:] + ids[:1])
        assert eids == tuple(edge_of[min(a, b), max(a, b)] for a, b in steps)


def test_a_loop_below_the_proven_bound_is_an_inconsistency(monkeypatch):
    """A 4-cycle scan that misses the least loops raises the bound that
    the id-order step starts from; the step's search then meets a loop
    below it, which it refutes rather than skips.  The links are built
    here, so that no 4-cycle start is held and the false scan leaves
    none on a shared link."""
    from test_bench_expected import CORPUS

    from artinlink import cycles
    from artinlink.errors import InternalInconsistencyError

    k88 = link_of(parse_gamma(CORPUS["k88"]))
    hub = link_of(late_hub_loops(20))
    monkeypatch.setattr(
        cycles,
        "_lightest_four_cycle",
        lambda nbrs, steps, top: (top, len(nbrs), len(nbrs)),
    )
    for link, weight in (k88, None), (hub, metric_link(hub, B2).weight):
        with pytest.raises(InternalInconsistencyError, match="below the proven bound"):
            cycles._shortest_cycle(link, weight)


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


def test_make_loop_refuses_what_is_no_loop_of_the_link():
    link = classic_link(3, 3, 3)
    a, b, c = girth(link)[1].vertices[:3]
    with pytest.raises(ValueError, match="^loop vertices must be pairwise distinct$"):
        make_loop(link, [a, b, a])
    with pytest.raises(ValueError, match="^a loop needs at least 3 vertices$"):
        make_loop(link, [a, b])
    # links are bipartite, so a path a - b - c does not close up
    with pytest.raises(ValueError, match=r"^loop step \S+ - \S+ is not a link edge$"):
        make_loop(link, [a, b, c])
    # a vertex the link lacks is named, not the step that reaches it
    missing = LinkVertex("zz", "head", 3, True)
    with pytest.raises(ValueError, match="^loop vertex zz is not in the link$"):
        make_loop(link, [missing, a, b])
    flipped = a._replace(special=not a.special)
    message = re.escape(f"loop vertex {a} is not in the link")
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_loop(link, [flipped, b, c])


# -- minimum-angle cycles ---------------------------------------------------


def test_min_angle_cycle_requires_angles():
    with pytest.raises(UnassignedAnglesError):
        min_angle_cycle(classic_link(3, 3, 3))


@pytest.mark.parametrize("bad", [0, -1])
def test_min_angle_cycle_refuses_a_non_positive_angle(bad):
    link = classic_link(3, 3, 3)
    weight = [1] * len(link.ends)
    weight[4] = bad
    e = link.edges[4]
    message = re.escape(f"non-positive angle on edge {e.a}-{e.b}")
    with pytest.raises(UnassignedAnglesError, match=f"^{message}$"):
        min_angle_cycle(link.with_angles(weight, 3))


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

    engine = cycles._shortest_cycle

    def hops_only(link, weight=None):
        assert weight is None, "uniform angles must not run a weighted search"
        return engine(link)

    monkeypatch.setattr(cycles, "_shortest_cycle", hops_only)
    link = classic_link(3, 3, 3)
    forest = link.neighborhood(link.vertex("y", "head"), 2)
    for link in [*assorted_links(), forest]:
        theta = Fraction(2, 7)
        uniform = link.with_angles([2] * len(link.ends), 7)
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
    weight = [2] + [1] * (len(link.ends) - 1)  # pi/2, then pi/4 each
    value, witness = min_angle_cycle(link.with_angles(weight, 4))
    assert (value, witness.length) == (Fraction(7, 4), 6)


RANDOM_WEIGHTS = (1, 3, 6, 12)  # over 12: pi/12, pi/4, pi/2, pi


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
            weight = [rng.choice(RANDOM_WEIGHTS) for _ in link.ends]
            angled = link.with_angles(weight, 12)
            assert_weights_are_the_angles(angled, [Fraction(w, 12) for w in weight])
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
        metric = assign_metric(link, scheme)
        corners = [Fraction(w, metric.angle_unit) for w in metric.corner_weights]
        assert_weights_are_the_angles(angled, [corners[e.corner] for e in link.edges])
        assert link.weight is None and not link.angles_assigned
        assert angled.nbrs is link.nbrs and angled.ends is link.ends


def test_subgraphs_of_an_angled_link_carry_its_weights():
    rng = random.Random(9)
    link = classic_link(2, 4, 5)
    angled = link.with_angles([rng.choice(RANDOM_WEIGHTS) for _ in link.ends], 12)
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
            assert v in angled.vertices
        for ei, e in enumerate(part.edges):
            # the whole link's edge, with its cell, corner, piece, kind and angle
            assert angled.edges[angled._edge_between(e.a, e.b)] == e
            assert Fraction(part.weight[ei], part.angle_unit) == e.angle
        # re-angling a part replaces every angle
        reangled = part.with_angles([1] * len(part.ends), 2)
        assert_weights_are_the_angles(reangled, [Fraction(1, 2)] * len(part.ends))
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
                graph.with_angles([1] * count, 3)


def test_with_angles_takes_int_weights_over_a_positive_int_unit():
    link = classic_link(3, 3, 3)
    n = len(link.ends)
    for weight, unit in (
        ([1.0] * n, 3),
        ([Fraction(1, 3)] * n, 1),
        ([1] * (n - 1) + [Fraction(1)], 3),
        ([True] * n, 3),
        ([1] * n, 3.0),
        ([1] * n, Fraction(3)),
        ([1] * n, 0),
    ):
        with pytest.raises(TypeError, match="ints over a positive int unit"):
            link.with_angles(weight, unit)
    assert link.weight is None


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


def test_enumerate_below_three_or_without_edges_is_empty():
    assert enumerate_short_loops(classic_link(3, 3, 3), 2) == []
    edgeless = link_of(DefiningGraph(("a", "b"), []))
    assert edgeless.vertices and enumerate_short_loops(edgeless, 8) == []


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
    from artinlink.cycles import _canonical

    # 100 sampled links: about 16 ms each, with the oracle
    for link in [*assorted_links(), *sampled_oracle_links()[:100]]:
        oracle = dfs_all_cycle_lengths(link, 6)
        loops = enumerate_short_loops(link, 6)
        assert sorted(lp.length for lp in loops) == sorted(oracle)
        # loops are built from the enumeration's ids as they come
        for lp in loops:
            ids = tuple(map(link._resolve, lp.vertices))
            assert ids == _canonical(ids)


def test_enumerate_reports_each_loop_once():
    link = classic_link(2, 4, 5)
    loops = enumerate_short_loops(link, 6)
    assert len(loops) == len(set(loops))
    for lp in loops:
        assert len(set(lp.vertices)) == lp.length
