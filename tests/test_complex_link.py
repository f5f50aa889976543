import itertools
import random
from collections import Counter

import pytest
from oracle_tools import reference_link

from artinlink import (
    HEAD,
    TAIL,
    DefiningGraph,
    InternalInconsistencyError,
    NotTriangularError,
    Orientation,
    Presentation,
    VertexNotFoundError,
    build_complex,
    build_link,
    build_standard,
    build_triangular,
    build_two_generator_family,
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


def link_of(gamma):
    pres, _ = build_triangular(gamma)
    return build_link(build_complex(pres))


def classic_link(m, n, p):
    pres, _ = triangle_presentation(m, n, p)
    return build_link(build_complex(pres))


# -- the complex ---------------------------------------------------------


@pytest.mark.parametrize("m,n,p", [(3, 3, 3), (2, 4, 5), (4, 5, 6)])
def test_complex_cell_counts(m, n, p):
    pres, _ = triangle_presentation(m, n, p)
    k = build_complex(pres)
    assert k.zero_cells == 1
    assert len(k.one_cells) == m + n + p
    assert len(k.cells) == m + n + p


def test_complex_counts_single_edge():
    g2 = DefiningGraph(("a", "b"), [("a", "b", 2, Orientation.WILDCARD)])
    p2, _ = build_triangular(g2)
    k2 = build_complex(p2)
    assert (len(k2.one_cells), len(k2.cells)) == (3, 2)

    g5 = DefiningGraph(("a", "b"), [("a", "b", 5, Orientation.FORWARD)])
    p5, _ = build_triangular(g5)
    k5 = build_complex(p5)
    assert (len(k5.one_cells), len(k5.cells)) == (6, 5)


def test_complex_rejects_non_triangular():
    g = DefiningGraph(("a", "b"), [("a", "b", 3)])
    with pytest.raises(NotTriangularError):
        build_complex(build_standard(g))


def test_complex_infers_hub_records_when_missing():
    _, _, i4 = build_two_generator_family(4)
    bare = Presentation(i4.generators, i4.relators)
    k = build_complex(bare)
    rec = k.presentation.hub_records[0]
    assert rec.hub == "x"
    assert set(rec.cycle) == {"a1", "a2", "a3", "a4"}


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
    assert link.edges[link.edge_index(a, bb)].kind == "middle"
    assert link.edges[link.edge_index(hb, ab)].kind == "bottom"
    assert link.edges[link.edge_index(b, hh)].kind == "top"


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
        pres, _ = build_triangular(triangle_graph(m, n, p))
        link = build_link(build_complex(pres))
        assert len(link.vertices) == 2 * len(pres.generators)
        assert len(link.edges) == 3 * len(pres.relators)


def test_bipartite_by_levels():
    link = classic_link(3, 4, 5)
    for e in link.edges:
        assert abs(e.a.level - e.b.level) == 1


def test_degree_laws():
    for m, n, p in [(3, 3, 3), (2, 4, 5), (4, 5, 6)]:
        gamma = triangle_graph(m, n, p)
        pres, records = build_triangular(gamma)
        link = build_link(build_complex(pres))
        label_of_hub = {rec.hub: rec.label for rec in records}
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
    renamed triangles and the hand-built two-generator I_m."""
    states4 = enumerate_oriented_states(4)
    for state in states4 + wildcard_variants(states4, 4):
        yield build_triangular(graph_from_state(state, 4))[0]
    rng = random.Random(20260)
    for _ in range(2000):
        state = tuple(rng.choice((0, 0, 1, 2, 3, 4, 5)) for _ in range(10))
        yield build_triangular(graph_from_state(state, 5))[0]
    for m, n, p in itertools.product((3, 4, 5), repeat=3):
        yield triangle_presentation(m, n, p)[0]
    for m in range(2, 8):
        yield build_two_generator_family(m)[2]


def test_link_matches_the_named_corner_rule():
    cases = 0
    for pres in sweep_presentations():
        link = build_link(build_complex(pres))
        vertices, edges, nbrs, ends = reference_link(pres)
        assert link.vertices == vertices
        assert link.edges == edges
        assert link.nbrs == nbrs
        assert link.ends == ends
        cases += 1
    assert cases == 695 + 369 + 2000 + 27 + 6


def test_triangular_relators_and_provenance_follow_the_hub_records():
    gamma = DefiningGraph(
        ("a", "b", "c", "d"),
        [
            ("a", "b", 4, Orientation.BACKWARD),
            ("b", "c", 2, Orientation.WILDCARD),
            ("c", "d", 5, Orientation.FORWARD),
            ("a", "d", 3, Orientation.FORWARD),
        ],
    )
    pres, records = build_triangular(gamma)
    relators, provenance = [], {}
    for rec in records:
        for i in range(rec.label):
            u, v = rec.cycle[i], rec.cycle[(i + 1) % rec.label]
            r = CyclicWord(FreeWord([(rec.hub, -1), (u, 1), (v, 1)]))
            relators.append(r)
            provenance[r] = (tuple(sorted(rec.edge)), i)
    assert pres.relators == tuple(relators)
    assert pres.provenance == provenance


def two_hub_presentation(second_relators):
    """Hub x over a, b, plus a hub y with the given relators."""
    records = (HubRecord("x", ("a", "b"), 2, ("a", "b")),)
    relators = ["x^-1 a b", "x^-1 b a", *second_relators]
    return Presentation(
        ("x", "y", "a", "b"),
        [CyclicWord(FreeWord.parse(r)) for r in relators],
        hub_records=records + (HubRecord("y", ("a", "x"), 2, ("a", "x")),),
    )


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


def test_edge_kind_must_match_its_levels():
    from artinlink import LinkEdge, LinkGraph, LinkVertex

    h = LinkVertex("h", TAIL, 1, False)
    u = LinkVertex("u", TAIL, 2, True)
    v = LinkVertex("v", HEAD, 3, True)
    # levels 1-2 make a bottom edge, levels 2-3 a middle one
    with pytest.raises(InternalInconsistencyError, match="is not middle"):
        LinkGraph([h, u], [LinkEdge(h, u, "middle", 0, 1, "h")])
    with pytest.raises(InternalInconsistencyError, match="is not top"):
        LinkGraph([u, v], [LinkEdge(v, u, "top", 0, 2, "h")])
    link = LinkGraph(
        [h, u, v],
        [LinkEdge(h, u, "bottom", 0, 0, "h"), LinkEdge(v, u, "middle", 0, 1, "h")],
    )
    assert link.middle_edges() == (1,)
    # the level rule and the kinds agree on every built link too
    for link in (classic_link(2, 4, 5), classic_link(3, 4, 5)):
        assert link.middle_edges() == tuple(
            i for i, e in enumerate(link.edges) if e.kind == "middle"
        )


def test_unknown_vertices_and_level_skips_are_rejected():
    from artinlink import LinkEdge, LinkGraph, LinkVertex, TwoComplex

    a = LinkVertex("a", HEAD, 3, True)
    b = LinkVertex("b", TAIL, 2, True)
    x = LinkVertex("x", TAIL, 1, False)
    with pytest.raises(InternalInconsistencyError):
        LinkGraph([a], [LinkEdge(a, b, "middle", 0, 1, "x")])
    with pytest.raises(InternalInconsistencyError):
        LinkGraph([a, x], [LinkEdge(a, x, "middle", 0, 1, "x")])
    pres, _ = triangle_presentation(3, 3, 3)
    for cell in ((0, 1, 99), (-1, 0, 1)):
        with pytest.raises(InternalInconsistencyError):
            build_link(TwoComplex(pres, [cell]))
        with pytest.raises(ValueError, match="undeclared generator"):
            Presentation.from_cells(pres.generators, [cell], [None], ())
    with pytest.raises(ValueError, match="distinct"):
        Presentation.from_cells(pres.generators, [(0, 1, 0)], [None], ())
    with pytest.raises(ValueError, match="duplicate"):
        Presentation.from_cells(("x", "a", "a"), [(0, 1, 2)], [None], ())


def test_parallel_corners_from_cells_are_rejected():
    # hubs x and y over the same sides a, b: the middle corners coincide
    records = (
        HubRecord("x", ("a", "b"), 2, ("a", "b")),
        HubRecord("y", ("a", "b"), 2, ("a", "b")),
    )
    cells = [(0, 2, 3), (0, 3, 2), (1, 2, 3), (1, 3, 2)]
    pres = Presentation.from_cells(("x", "y", "a", "b"), cells, range(4), records)
    with pytest.raises(InternalInconsistencyError, match="parallel"):
        build_link(build_complex(pres))


def test_parallel_edges_rejected():
    from artinlink import LinkEdge, LinkGraph, LinkVertex

    a = LinkVertex("a", HEAD, 3, True)
    b = LinkVertex("b", TAIL, 2, True)
    e = LinkEdge(a, b, "middle", 0, 1, "x")
    with pytest.raises(InternalInconsistencyError):
        LinkGraph([a, b], [e, e._replace(cell=1)])


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


def test_neighborhood_unknown_vertex():
    link = classic_link(3, 3, 3)
    other = classic_link(2, 4, 5).vertex("e4", HEAD)
    with pytest.raises(VertexNotFoundError):
        link.neighborhood(other, 1)


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


# -- local pieces -----------------------------------------------------------


def test_local_piece_sizes_245():
    link = classic_link(2, 4, 5)
    sizes = sorted(len(idxs) for idxs in link.local_pieces().values())
    assert sizes == [6, 12, 15]


def test_single_edge_graph_is_one_piece():
    g = DefiningGraph(("a", "b"), [("a", "b", 4, Orientation.FORWARD)])
    link = link_of(g)
    assert len(link.local_pieces()) == 1


def test_star_pieces_meet_exactly_at_center_pair():
    g = DefiningGraph(
        ("c", "p", "q", "r"),
        [
            ("c", "p", 3, Orientation.FORWARD),
            ("c", "q", 3, Orientation.FORWARD),
            ("c", "r", 3, Orientation.BACKWARD),
        ],
    )
    link = link_of(g)
    pieces = list(link.local_pieces().values())
    vertex_sets = []
    for idxs in pieces:
        vs = set()
        for i in idxs:
            vs.update((link.edges[i].a, link.edges[i].b))
        vertex_sets.append(vs)
    for s1, s2 in itertools.combinations(vertex_sets, 2):
        inter = {v.bar_name for v in s1 & s2}
        assert inter == {"c", "c_bar"}


def test_pieces_overlap_only_in_special_vertices():
    for m, n, p in [(3, 3, 3), (2, 4, 5)]:
        link = classic_link(m, n, p)
        sets = []
        for idxs in link.local_pieces().values():
            vs = set()
            for i in idxs:
                vs.update((link.edges[i].a, link.edges[i].b))
            sets.append(vs)
        for s1, s2 in itertools.combinations(sets, 2):
            assert all(v.special for v in s1 & s2)


# -- reversal covariance -----------------------------------------------------


def reversed_isomorphism_edge_set(gamma):
    """Edge set of link(reversed gamma) mapped back through the head/tail
    swap, top/bottom exchange and chain-index reversal."""
    pres_fwd, recs_fwd = build_triangular(gamma)
    link_fwd = build_link(build_complex(pres_fwd))
    rev = gamma.reversed()
    pres_rev, _ = build_triangular(rev)
    link_rev = build_link(build_complex(pres_rev))

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
