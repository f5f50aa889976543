import itertools
import random
import re
from collections import Counter
from operator import itemgetter

import pytest
from oracle_tools import adjacency, reference_link

from artinlink import (
    HEAD,
    TAIL,
    DefiningGraph,
    InternalInconsistencyError,
    LinkVertex,
    NotTriangularError,
    Orientation,
    Presentation,
    TwoComplex,
    VertexNotFoundError,
    build_complex,
    build_link,
    build_standard,
    build_triangular,
    build_two_generator_family,
    link_of,
    triangle_graph,
    triangle_presentation,
)
from artinlink.batteries import (
    enumerate_oriented_states,
    graph_from_state,
    wildcard_variants,
)
from artinlink.presentations import HubRecord, chain_name, hub_name
from artinlink.words import CyclicWord, FreeWord


def classic_link(m, n, p):
    return build_link(build_complex(triangle_presentation(m, n, p)))


# -- the complex ---------------------------------------------------------


@pytest.mark.parametrize("m,n,p", [(3, 3, 3), (2, 4, 5), (4, 5, 6)])
def test_complex_cell_counts(m, n, p):
    pres = triangle_presentation(m, n, p)
    k = build_complex(pres)
    assert k.cells is pres.cells and k.one_cells is pres.generators
    total = m + n + p
    assert repr(k) == f"TwoComplex(1 zero-cell, {total} one-cells, {total} two-cells)"
    assert len(k.one_cells) == total
    assert len(k.cells) == total


def test_complex_counts_single_edge():
    g2 = DefiningGraph(("a", "b"), [("a", "b", 2, Orientation.WILDCARD)])
    p2 = build_triangular(g2)
    k2 = build_complex(p2)
    assert (len(k2.one_cells), len(k2.cells)) == (3, 2)

    g5 = DefiningGraph(("a", "b"), [("a", "b", 5, Orientation.FORWARD)])
    p5 = build_triangular(g5)
    k5 = build_complex(p5)
    assert (len(k5.one_cells), len(k5.cells)) == (6, 5)


def test_complex_rejects_non_triangular():
    g = DefiningGraph(("a", "b"), [("a", "b", 3)])
    standard = build_standard(g)
    message = f"^{re.escape(repr(standard))} has no triangular 2-cells$"
    for build in (TwoComplex, build_complex):
        with pytest.raises(NotTriangularError, match=message):
            build(standard)


def test_complex_refuses_a_presentation_without_cells():
    _, _, i4 = build_two_generator_family(4)
    assert i4.generators == ("a1", "a2", "x", "a3", "a4")
    assert build_complex(i4).cells == ((2, 0, 1), (2, 1, 3), (2, 3, 4), (2, 4, 0))
    with pytest.raises(NotTriangularError):
        build_complex(Presentation(i4.generators, i4.relators))


def test_rename_keeps_the_cells_and_refuses_collisions():
    pres = build_triangular(triangle_graph(3, 4, 5))
    renamed = pres.rename({hub_name("a", "b"): "x"})
    assert renamed.cells == pres.cells
    assert "x" in renamed.hubs and hub_name("a", "b") not in renamed.generators
    with pytest.raises(ValueError, match="duplicate"):
        pres.rename({hub_name("a", "b"): "a"})
    with pytest.raises(ValueError, match="triangular"):
        build_standard(triangle_graph(3, 4, 5)).rename({"a": "v"})


# -- the corner rule ------------------------------------------------------


def test_corner_rule_single_relation():
    g = DefiningGraph(("a", "b"), [("a", "b", 2, Orientation.WILDCARD)])
    link = link_of(g)
    h = hub_name("a", "b")
    # relation h^-1 a b alone contributes {h_bar, a_bar}, {a, b_bar}, {b, h}
    hb = link.vertex(h, TAIL)
    ab = link.vertex("a", TAIL)
    a = link.vertex("a", HEAD)
    bb = link.vertex("b", TAIL)
    b = link.vertex("b", HEAD)
    hh = link.vertex(h, HEAD)
    assert link.has_edge(hb, ab)
    assert link.has_edge(a, bb)
    assert link.has_edge(b, hh)
    assert link.edges[link._edge_between(a, bb)].kind == "middle"
    assert link.edges[link._edge_between(hb, ab)].kind == "bottom"
    assert link.edges[link._edge_between(b, hh)].kind == "top"


def test_levels_and_special_flags():
    link = classic_link(2, 4, 5)
    levels = {v.bar_name: v.level for v in link.vertices}
    assert levels["x"] == 4 and levels["x_bar"] == 1
    assert levels["a"] == 3 and levels["a_bar"] == 2
    assert levels["e3"] == 3 and levels["e3_bar"] == 2
    special = {v.bar_name for v in link.vertices if v.special}
    assert special == {"a", "a_bar", "b", "b_bar", "c", "c_bar"}


def test_link_contains_the_two_example_paths():
    link = classic_link(2, 4, 5)

    def v(name, end):
        return link.vertex(name, end)

    # a_bar - b - y - c - a_bar
    seq1 = [v("a", TAIL), v("b", HEAD), v("y", HEAD), v("c", HEAD)]
    # a_bar - b - c_bar - z_bar - a_bar
    seq2 = [v("a", TAIL), v("b", HEAD), v("c", TAIL), v("z", TAIL)]
    for seq in (seq1, seq2):
        for i in range(4):
            assert link.has_edge(seq[i], seq[(i + 1) % 4])


def test_vertex_and_edge_counts():
    for m, n, p in itertools.product((2, 3, 5), repeat=3):
        link = link_of(triangle_graph(m, n, p))
        pres = link.complex.presentation
        assert len(link.vertices) == 2 * len(pres.generators)
        assert len(link.edges) == 3 * len(pres.relators)


def test_bipartite_by_levels():
    link = classic_link(3, 4, 5)
    for e in link.edges:
        assert abs(e.a.level - e.b.level) == 1


def test_degree_laws():
    for m, n, p in [(3, 3, 3), (2, 4, 5), (4, 5, 6)]:
        gamma = triangle_graph(m, n, p)
        link = link_of(gamma)
        pres = link.complex.presentation
        label_of_hub = {rec.hub: rec.label for rec in pres.hub_records}
        gamma_degree = {v: gamma.degree(v) for v in gamma.vertices}
        for v in link.vertices:
            if v.level in (1, 4):
                assert link.degree(v) == label_of_hub[v.gen]
            elif v.special:
                assert link.degree(v) == 2 * gamma_degree[v.gen]
            else:
                assert link.degree(v) == 2
        assert sum(link.degree(v) for v in link.vertices) == 2 * len(link.edges)


def sweep_presentations():
    """Presentations from every builder path: the 4-vertex oriented
    states and their wildcard variants, seeded 5-vertex states, the
    renamed triangles and the two-generator I_m."""
    states4 = enumerate_oriented_states(4)
    for state in states4 + wildcard_variants(states4, 4):
        yield build_triangular(graph_from_state(state, 4))
    rng = random.Random(20260)
    for _ in range(2000):
        state = tuple(rng.choice((0, 0, 1, 2, 3, 4, 5)) for _ in range(10))
        yield build_triangular(graph_from_state(state, 5))
    for m, n, p in itertools.product((3, 4, 5), repeat=3):
        yield triangle_presentation(m, n, p)
    for m in range(2, 8):
        yield build_two_generator_family(m)[2]


def test_link_matches_the_named_corner_rule():
    cases = 0
    for pres in sweep_presentations():
        assert pres.cells is not None
        link = build_link(build_complex(pres))
        vertices, edges, nbrs, ends = reference_link(pres)
        assert link.vertices == vertices
        assert link.edges == edges
        assert link.nbrs == nbrs
        assert link.ends == ends
        part = link.middle_subgraph()
        assert all(ns == sorted(ns, key=itemgetter(1)) for ns in part.nbrs)
        cases += 1
    assert cases == 695 + 369 + 2000 + 27 + 6


def test_triangular_relators_follow_the_hub_records():
    gamma = DefiningGraph(
        ("a", "b", "c", "d"),
        [
            ("a", "b", 4, Orientation.BACKWARD),
            ("b", "c", 2, Orientation.WILDCARD),
            ("c", "d", 5, Orientation.FORWARD),
            ("a", "d", 3, Orientation.FORWARD),
        ],
    )
    pres = build_triangular(gamma)
    relators = [
        CyclicWord(FreeWord([(rec.hub, -1), (u, 1), (v, 1)]))
        for rec in pres.hub_records
        for u, v in zip(rec.cycle, rec.cycle[1:] + rec.cycle[:1])
    ]
    assert pres.relators == tuple(relators)


def two_hub_presentation(second_relators):
    """Hub x over a, b, plus a hub y with the given relators h^-1 u v."""
    gens = ("x", "y", "a", "b")
    relators = ["x^-1 a b", "x^-1 b a", *second_relators]
    cells = [
        tuple(gens.index(g.removesuffix("^-1")) for g in r.split()) for r in relators
    ]
    records = (
        HubRecord("x", ("a", "b"), 2, ("a", "b")),
        HubRecord("y", ("a", "x"), 2, ("a", "x")),
    )
    return Presentation.from_cells(gens, cells, records)


@pytest.mark.parametrize(
    "second_relators",
    [
        ("y^-1 a x", "y^-1 x a"),  # a hub as u or v: the corner joins levels
        ("y^-1 a b", "y^-1 b a"),  # the corners of x's cells again: parallel
    ],
)
def test_malformed_hand_built_link_is_rejected(second_relators):
    k = build_complex(two_hub_presentation(second_relators))
    with pytest.raises(InternalInconsistencyError):
        build_link(k)


def test_edge_kinds_follow_their_levels():
    for link in (classic_link(2, 4, 5), classic_link(3, 4, 5)):
        for e in link.edges:
            assert e.kind == ("bottom", "middle", "top")[min(e.a.level, e.b.level) - 1]
        assert link.middle_edges() == tuple(
            i for i, e in enumerate(link.edges) if e.kind == "middle"
        )


def test_unknown_generators_and_level_skips_are_rejected():
    pres = triangle_presentation(3, 3, 3)
    # without hub records every tail is on level 2, so bottom edges skip
    hubless = Presentation.from_cells(pres.generators, pres.cells, ())
    with pytest.raises(InternalInconsistencyError, match="joins levels 2 and 2"):
        build_link(build_complex(hubless))
    for cell in ((0, 1, 99), (-1, 0, 1)):
        with pytest.raises(ValueError, match="undeclared generator"):
            Presentation.from_cells(pres.generators, [cell], ())
    with pytest.raises(ValueError, match="distinct"):
        Presentation.from_cells(pres.generators, [(0, 1, 0)], ())
    with pytest.raises(ValueError, match="duplicate"):
        Presentation.from_cells(("x", "a", "a"), [(0, 1, 2)], ())


def test_parallel_corners_from_cells_are_rejected():
    # hubs x and y over the same sides a, b: the middle corners coincide
    records = (
        HubRecord("x", ("a", "b"), 2, ("a", "b")),
        HubRecord("y", ("a", "b"), 2, ("a", "b")),
    )
    cells = [(0, 2, 3), (0, 3, 2), (1, 2, 3), (1, 3, 2)]
    pres = Presentation.from_cells(("x", "y", "a", "b"), cells, records)
    # the first edge met again names the pair: the middle corner of cell 0
    with pytest.raises(
        InternalInconsistencyError, match="^parallel link edge between a and b_bar$"
    ):
        build_link(build_complex(pres))


def test_links_and_parts_are_freed_without_the_cycle_collector():
    """No link refers to itself, so none waits for the cyclic collector."""
    import gc
    import weakref

    gc.disable()
    try:
        link = classic_link(3, 4, 5)
        part = link.neighborhood(link.vertex("y", HEAD), 2).middle_subgraph()
        assert link.edges and part.edges
        refs = [weakref.ref(link), weakref.ref(part)]
        del link, part
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


# -- middle subgraph -------------------------------------------------------


def middle_shape(link):
    mid = link.middle_subgraph()
    shapes = Counter()
    for vs, es in mid.components():
        shapes[(len(vs), len(es))] += 1
    return shapes


@pytest.mark.parametrize("m,n,p", [(3, 3, 3), (5, 5, 5), (3, 4, 5), (6, 6, 6)])
def test_middle_subgraph_decomposition(m, n, p):
    shapes = middle_shape(classic_link(m, n, p))
    expected = Counter({(4, 3): 3})
    if m + n + p > 9:
        expected[(2, 1)] = m + n + p - 9
    assert shapes == expected


def test_middle_subgraph_single_edge_label_three():
    g = DefiningGraph(("a", "b"), [("a", "b", 3, Orientation.FORWARD)])
    assert middle_shape(link_of(g)) == Counter({(2, 1): 3})


def test_middle_edges_join_levels_two_three():
    link = classic_link(3, 4, 5)
    for i in link.middle_edges():
        e = link.edges[i]
        assert {e.a.level, e.b.level} == {2, 3}


# -- neighbourhoods --------------------------------------------------------


def test_neighborhood_radius_zero():
    link = classic_link(3, 3, 3)
    v = link.vertex("a", HEAD)
    nb = link.neighborhood(v, 0)
    assert nb.vertices == (v,) and nb.edges == ()
    with pytest.raises(ValueError, match="negative radius"):
        link.neighborhood(v, -1)


def test_neighborhood_unknown_vertex():
    link = classic_link(3, 3, 3)
    other = classic_link(2, 4, 5).vertex("e4", HEAD)
    with pytest.raises(VertexNotFoundError):
        link.neighborhood(other, 1)


def test_degree_of_an_unknown_vertex_names_it():
    link = classic_link(3, 3, 3)
    with pytest.raises(VertexNotFoundError, match="^'q'$"):
        link.degree(LinkVertex("q", "head", 3, False))
    with pytest.raises(VertexNotFoundError, match="^'q'$"):
        link.induced([link.vertex("a", HEAD), LinkVertex("q", "head", 3, False)])


def link_and_parts():
    """A whole link, an angled copy and the parts cut from it in
    test_cycles.py, all built without the named view."""
    link = classic_link(2, 4, 5)
    angled = link.with_angles([1 + ei % 3 for ei in range(len(link.ends))], 6)
    some = [angled.vertex(g, end) for g in ("a", "x", "e3", "f4") for end in (HEAD, TAIL)]
    around_x = angled.neighborhood(angled.vertex("x", HEAD), 2)
    return [
        link,
        angled,
        angled.subgraph(range(0, len(angled.ends), 3)),
        angled.middle_subgraph(),
        angled.induced(some),
        around_x,
        around_x.subgraph(range(1, len(around_x.ends), 2)),  # a part's part
    ]


def test_name_lookups_agree_with_a_scan_of_the_named_view():
    # the reference reads the named view only: positions in ``vertices``
    # and a scan of ``edges``; every vertex of the whole link is tried,
    # and each with its level or special flag flipped or its generator unknown
    whole = classic_link(2, 4, 5).vertices
    for graph in link_and_parts():
        candidates = [
            u
            for v in whole
            for u in (
                v,
                v._replace(level=5 - v.level),
                v._replace(special=not v.special),
                v._replace(gen=v.gen + "?"),
            )
        ]
        assert sum(v in graph.vertices for v in candidates) == len(graph.vertices)
        edge_of = {frozenset((e.a, e.b)): ei for ei, e in enumerate(graph.edges)}
        for v in candidates:
            if v in graph.vertices:
                i = graph.vertices.index(v)
                assert graph._id(v) == i and graph.vertex(v.gen, v.end) == v
                assert graph.degree(v) == sum(v in (e.a, e.b) for e in graph.edges)
            else:
                for lookup in (graph._id, graph.degree):
                    with pytest.raises(VertexNotFoundError) as err:
                        lookup(v)
                    assert err.value.args == (str(v),)
                if all(u[:2] != v[:2] for u in graph.vertices):
                    with pytest.raises(VertexNotFoundError) as err:
                        graph.vertex(v.gen, v.end)
                    assert err.value.args == (f"{v.gen}/{v.end}",)
            for u in candidates:
                assert graph._edge_between(v, u) == edge_of.get(frozenset((v, u)))
                assert graph.has_edge(v, u) == (frozenset((v, u)) in edge_of)
        with pytest.raises(VertexNotFoundError, match="^'a/middle'$"):
            graph.vertex("a", "middle")


def test_name_lookups_build_no_named_view():
    graphs = link_and_parts()
    for graph in graphs:
        a, b = graph._named(graph.ends[0])
        assert graph.vertex(a.gen, a.end) == a and graph.has_edge(a, b)
        assert graph.degree(b) >= 1 and not graph.has_edge(a, a._replace(level=0))
        assert graph.neighborhood(a, 2).ends
    assert not any("vertices" in graph.__dict__ for graph in graphs)


def test_building_and_cutting_a_link_build_no_edge_id_map():
    graphs = link_and_parts()
    assert not any("_edge_ids" in graph.__dict__ for graph in graphs)


def test_the_first_step_lookup_builds_the_edge_id_map():
    """On the corpus links, sampled oracle links and their middle
    subgraphs, built afresh: no map until the first ``_steps``, then the
    map of every edge's ends to its id."""
    from test_cycles import corpus_links, sampled_oracle_links

    wholes = [
        build_link(link.complex)
        for link in [*corpus_links().values(), *sampled_oracle_links()]
    ]
    for graph in [*wholes, *(link.middle_subgraph() for link in wholes)]:
        assert "_edge_ids" not in graph.__dict__
        if graph.ends:
            last = len(graph.ends) - 1
            assert graph._steps(graph.ends[last]) == [last, last]
            eager = {pair: ei for ei, pair in enumerate(graph.ends)}
            assert graph.__dict__["_edge_ids"] == eager


def test_an_angled_copy_made_after_girth_shares_the_edge_id_map():
    from artinlink import girth

    link = classic_link(3, 4, 5)
    girth(link)  # the engine's witness carries its edge ids: no map
    assert "_edge_ids" not in link.__dict__
    link._steps(link.ends[0])
    edge_ids = link.__dict__["_edge_ids"]
    angled = link.with_angles([1] * len(link.ends), 3)
    assert angled.__dict__["_edge_ids"] is edge_ids
    assert angled._steps(link.ends[0]) == [0, 0]


def test_an_oracle_case_without_girth_builds_no_edge_id_map(monkeypatch):
    from artinlink import batteries

    built = []

    def recording_link_of(gamma):
        built.append(link_of(gamma))
        return built[-1]

    monkeypatch.setattr(batteries, "link_of", recording_link_of)
    rng = random.Random(3301)
    shorts = Counter()
    for _ in range(200):
        state = tuple(rng.choice((0, 0, 0, 1, 2, 3, 4, 5)) for _ in range(10))
        ok, short, _ = batteries.oracle_case(state, 5, False)
        assert ok
        shorts[short] += 1
    assert shorts[True] > 20 and shorts[False] > 20
    assert not any("_edge_ids" in link.__dict__ for link in built)
    ok, short, girth_ok = batteries.oracle_case((1,) * 10, 5, True)
    assert ok and girth_ok and built[-1].ends
    # the girth cross-check's witness carries its edge ids
    assert "_edge_ids" not in built[-1].__dict__


def test_radius_two_neighborhood_of_y_is_tree():
    link = classic_link(5, 5, 5)
    nb = link.neighborhood(link.vertex("y", HEAD), 2)
    assert nb.is_forest()


@pytest.mark.parametrize("m,n,p", list(itertools.product((3, 4, 5), repeat=3)))
def test_radius_two_neighborhoods_all_top_bottom_acyclic(m, n, p):
    link = classic_link(m, n, p)
    for v in link.vertices:
        if v.level in (1, 4):
            assert link.neighborhood(v, 2).is_forest()


# -- the one traversal against independent references ----------------------


def union_find_components(graph):
    """Components by union-find over ``ends``, in the order of their
    least vertex ids: no breadth-first search."""
    root = list(range(len(graph.nbrs)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for a, b in graph.ends:
        root[find(a)] = find(b)
    groups = {}
    for i in range(len(root)):
        groups.setdefault(find(i), ([], []))[0].append(i)
    for ei, (a, _) in enumerate(graph.ends):
        groups[find(a)][1].append(ei)
    return [(tuple(vs), tuple(es)) for vs, es in groups.values()]


def reference_distances(adj, v, radius):
    """Named vertex -> its distance from ``v``, up to ``radius``, read
    from ``oracle_tools.adjacency`` rather than the link's ``nbrs``."""
    dist, frontier = {v: 0}, [v]
    for d in range(1, radius + 1):
        ahead = []
        for u in frontier:
            for w, _ in adj[u]:
                if w not in dist:
                    dist[w] = d
                    ahead.append(w)
        frontier = ahead
    return dist


def traversal_cases():
    """Sampled sweep links and their middle subgraphs, an empty part,
    and the whole link, angled copy and parts (a part's part among
    them) of ``link_and_parts``."""
    for k, pres in enumerate(sweep_presentations()):
        if k % 97 == 0:
            link = build_link(build_complex(pres))
            yield link
            yield link.middle_subgraph()
    yield link.subgraph([])
    yield from link_and_parts()


def test_components_and_neighborhoods_match_independent_references():
    cases = 0
    for graph in traversal_cases():
        assert graph.components() == union_find_components(graph)
        adj = adjacency(graph)
        for v in graph.vertices:
            for radius in range(4):
                ball = reference_distances(adj, v, radius)
                part = graph.neighborhood(v, radius)
                assert part.vertices == tuple(sorted(ball))
                assert part.edges == tuple(
                    e for e in graph.edges if e.a in ball and e.b in ball
                )
        cases += 1
    assert cases == 2 * 32 + 1 + 7


# -- local pieces: the link edges of one hub's cells -------------------------


def local_pieces(pres):
    """The link of ``pres`` and its edge ids grouped by the hub of their
    cell (edge ``ei`` is a corner of cell ``ei // 3``)."""
    k = build_complex(pres)
    link = build_link(k)
    pieces = {}
    for ei in range(len(link.ends)):
        pieces.setdefault(k.cells[ei // 3][0], []).append(ei)
    return link, list(pieces.values())


def piece_vertex_sets(pres):
    link, pieces = local_pieces(pres)
    return [{link.vertices[i] for ei in idxs for i in link.ends[ei]} for idxs in pieces]


def test_local_piece_sizes_245():
    _, pieces = local_pieces(triangle_presentation(2, 4, 5))
    assert sorted(len(idxs) for idxs in pieces) == [6, 12, 15]


def test_single_edge_graph_is_one_piece():
    g = DefiningGraph(("a", "b"), [("a", "b", 4, Orientation.FORWARD)])
    assert len(local_pieces(build_triangular(g))[1]) == 1


def test_star_pieces_meet_exactly_at_center_pair():
    g = DefiningGraph(
        ("c", "p", "q", "r"),
        [
            ("c", "p", 3, Orientation.FORWARD),
            ("c", "q", 3, Orientation.FORWARD),
            ("c", "r", 3, Orientation.BACKWARD),
        ],
    )
    vertex_sets = piece_vertex_sets(build_triangular(g))
    assert len(vertex_sets) == 3
    for s1, s2 in itertools.combinations(vertex_sets, 2):
        inter = {v.bar_name for v in s1 & s2}
        assert inter == {"c", "c_bar"}


def test_pieces_overlap_only_in_special_vertices():
    for m, n, p in [(3, 3, 3), (2, 4, 5)]:
        sets = piece_vertex_sets(triangle_presentation(m, n, p))
        assert len(sets) == 3
        for s1, s2 in itertools.combinations(sets, 2):
            assert all(v.special for v in s1 & s2)


# -- reversal covariance -----------------------------------------------------


def reversed_isomorphism_edge_set(gamma):
    """Edge set of link(reversed gamma) mapped back through the head/tail
    swap, top/bottom exchange and chain-index reversal."""
    link_fwd = link_of(gamma)
    link_rev = link_of(gamma.reversed())

    rename = {}
    for e in gamma.edges:
        tail, head, m = e.tail, e.head, e.label
        rename[hub_name(tail, head)] = hub_name(head, tail)
        for i in range(3, m + 1):
            rename[chain_name(tail, head, i)] = chain_name(head, tail, m + 3 - i)

    mapped = set()
    for e in link_fwd.edges:
        pair = []
        for v in (e.a, e.b):
            gen = rename.get(v.gen, v.gen)
            end = TAIL if v.end == HEAD else HEAD
            pair.append((gen, end))
        mapped.add(frozenset(pair))
        kind_map = {"top": "bottom", "bottom": "top", "middle": "middle"}
        assert kind_map[e.kind] is not None
    actual = {
        frozenset([(e.a.gen, e.a.end), (e.b.gen, e.b.end)]) for e in link_rev.edges
    }
    return mapped, actual


@pytest.mark.parametrize("m,n,p", [(3, 3, 3), (3, 4, 5)])
def test_link_reversal_covariance(m, n, p):
    gamma = triangle_graph(m, n, p)
    mapped, actual = reversed_isomorphism_edge_set(gamma)
    assert mapped == actual


# -- export -------------------------------------------------------------------


def test_dot_export_structure():
    g = DefiningGraph(("a", "b"), [("a", "b", 2, Orientation.WILDCARD)])
    dot = link_of(g).to_dot()
    assert dot.count("rank=same") == 4
    assert '"a_bar"' in dot and "doublecircle" in dot
    assert "[style=bold]" in dot
    assert dot == link_of(g).to_dot()  # deterministic


def test_dot_quotes_names_safely():
    import re

    # check_vertex_name accepts quotes and backslashes
    g = DefiningGraph(("a\"x", "b\\"), [("a\"x", "b\\", 2, Orientation.WILDCARD)])
    link = link_of(g)
    quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
    names = set()
    for line in link.to_dot().splitlines():
        # balanced: no quote is left over once the quoted strings are gone
        assert '"' not in quoted.sub("", line)
        names.update(re.sub(r"\\(.)", r"\1", m) for m in quoted.findall(line))
    assert names == {v.bar_name for v in link.vertices}


def test_dot_golden_hexagon():
    g = DefiningGraph(("a", "b"), [("a", "b", 2, Orientation.WILDCARD)])
    dot = link_of(g).to_dot()
    for edge_line in (
        '"a_bar" -- "x_{a,b}_bar";',
        '"a" -- "b_bar" [style=bold];',
        '"b" -- "x_{a,b}";',
        '"b_bar" -- "x_{a,b}_bar";',
        '"a_bar" -- "b" [style=bold];',
        '"a" -- "x_{a,b}";',
    ):
        assert edge_line in dot
