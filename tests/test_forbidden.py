import itertools
import time
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_tools import (
    all_orientation_completions,
    brute_force_girth,
    brute_force_witnesses,
    checkerboard_faults,
    dual_conflict,
    face_faults,
    oriented_copy,
)

from artinlink import (
    DefiningGraph,
    DualNotBipartiteError,
    InternalInconsistencyError,
    OddDegreeVertexError,
    Orientation,
    UnorientedEdgeError,
    certify,
    detect_forbidden,
    has_forbidden,
    link_of,
    orient_from_rotation_system,
    resolve_orientations,
    search_orientation,
    trace_faces,
)
from artinlink import curvature, forbidden
from artinlink.complex_link import HEAD, TAIL, LinkGraph
from artinlink.batteries import enumerate_oriented_states, graph_from_state, wildcard_variants
from artinlink.forbidden import _c4_free_edges, _refuted_by_counting

F, B, WILD = Orientation.FORWARD, Orientation.BACKWARD, Orientation.WILDCARD


def directed_triangle(labels=(3, 3, 3)):
    m, n, p = labels
    return DefiningGraph(
        ("a", "b", "c"),
        [("a", "b", m, F), ("b", "c", n, F), ("c", "a", p, F)],
    )


def transitive_triangle():
    return DefiningGraph(
        ("a", "b", "c"),
        [("a", "b", 3, F), ("a", "c", 3, F), ("b", "c", 3, F)],
    )


def alternating_square():
    return DefiningGraph(
        ("u", "v", "w", "t"),
        [("u", "v", 3, F), ("w", "v", 3, F), ("w", "t", 3, F), ("u", "t", 3, F)],
    )


# -- detection ---------------------------------------------------------------


def test_directed_cycle_is_clean_and_link_confirms():
    g = directed_triangle()
    assert detect_forbidden(g) == []
    assert brute_force_girth(link_of(g)) >= 6


def test_transitive_triangle_is_type_a():
    ws = detect_forbidden(transitive_triangle())
    assert [w.kind for w in ws] == ["A"]
    assert ws[0].vertices == ("a", "b", "c")


def test_alternating_square_is_type_b():
    ws = detect_forbidden(alternating_square())
    assert [w.kind for w in ws] == ["B"]
    assert set(ws[0].directed_edges) == {
        ("u", "v"), ("w", "v"), ("w", "t"), ("u", "t")
    }


def test_wildcard_triangle_matches_as_needed():
    g = DefiningGraph(
        ("a", "b", "c"),
        [("a", "b", 2, WILD), ("a", "c", 3, F), ("b", "c", 3, F)],
    )
    ws = detect_forbidden(g)
    assert [w.kind for w in ws] == ["A"]


def test_directed_square_is_clean():
    g = DefiningGraph(
        ("u", "v", "w", "t"),
        [("u", "v", 3, F), ("v", "w", 3, F), ("w", "t", 3, F), ("u", "t", 3, B)],
    )
    assert detect_forbidden(g) == []


def test_unoriented_edge_rejected():
    g = DefiningGraph(("a", "b", "c"), [("a", "b", 3), ("b", "c", 3, F)])
    with pytest.raises(UnorientedEdgeError):
        detect_forbidden(g)
    with pytest.raises(UnorientedEdgeError, match=r"\('a', 'b'\) has no direction"):
        has_forbidden(g)


def test_first_hit_form_compiles_one_walk_before_its_hit(monkeypatch):
    # K5 with every edge u -> v: its first triangle (a, b, c) is
    # transitive, and 15 four-cycles follow its 10 triangles.
    names = ("a", "b", "c", "d", "e")
    k5 = DefiningGraph(
        names, [(u, v, 3, F) for u, v in itertools.combinations(names, 2)]
    )
    iter_walks = DefiningGraph.iter_walks
    walks = []

    def counted_walks(g):
        for cycle, walk in iter_walks(g):
            walks.append(cycle)
            yield cycle, walk

    monkeypatch.setattr(DefiningGraph, "iter_walks", counted_walks)
    assert has_forbidden(k5)
    # the enumerator compiles as it lists: one walk, and no 4-cycle listed
    assert walks == [("a", "b", "c")]
    assert "walks" not in vars(k5)  # nothing is kept on the graph
    # the detector reads the same iterator to its end, and keeps nothing
    walks.clear()
    found = detect_forbidden(k5)
    assert [len(cycle) for cycle in walks] == [3] * 10 + [4] * 15
    assert "walks" not in vars(k5)
    # walks a search left on the graph are read from there
    assert len(k5.walks) == 25
    walks.clear()
    assert has_forbidden(k5) and detect_forbidden(k5) == found and walks == []


def test_search_reads_the_graphs_walks_in_place():
    class CountedWalks(list):
        reads = 0

        def __iter__(self):
            CountedWalks.reads += 1
            return super().__iter__()

    # a 4-cycle of unoriented label-3 edges: the search completes it
    names = ("a", "b", "c", "d")
    g = DefiningGraph(names, [(u, v, 3) for u, v in zip(names, names[1:] + names[:1])])
    vars(g)["walks"] = CountedWalks(g.walks)
    found = search_orientation(g)
    # the load count, the check lists and the closing check each read the
    # graph's own list; no stripped copy is kept to read instead
    assert CountedWalks.reads == 3
    assert found is not None and not has_forbidden(resolve_orientations(g, found))


def test_witness_loops_exist_in_link():
    for gamma in (
        transitive_triangle(),
        alternating_square(),
        DefiningGraph(
            ("a", "b", "c"),
            [("a", "b", 2, WILD), ("a", "c", 3, F), ("b", "c", 3, F)],
        ),
    ):
        link = link_of(gamma)
        ws = detect_forbidden(gamma, link)  # raises if a loop is missing
        for w in ws:
            assert len(w.loop) == 4
            for i in range(4):
                assert link.has_edge(w.loop[i], w.loop[(i + 1) % 4])


def _with_loops(monkeypatch, edit):
    """Make every witness carry ``edit(loop)`` as its loop."""
    witness = forbidden._witness

    def edited(*args):
        w = witness(*args)
        return w._replace(loop=tuple(edit(w.loop)))

    monkeypatch.setattr(forbidden, "_witness", edited)


@pytest.mark.parametrize(
    "fault",
    [
        lambda v: v._replace(end=HEAD if v.end == TAIL else TAIL),
        lambda v: v._replace(level=v.level + 1),
        lambda v: v._replace(gen="nowhere"),
    ],
    ids=["wrong-end", "wrong-level", "unknown-generator"],
)
def test_witness_loop_check_on_ids_refuses_a_vertex_off_the_link(monkeypatch, fault):
    _with_loops(monkeypatch, lambda loop: (loop[0], fault(loop[1]), *loop[2:]))
    for gamma in (transitive_triangle(), alternating_square()):
        with pytest.raises(InternalInconsistencyError, match="witness loop step .* missing"):
            detect_forbidden(gamma, link_of(gamma))


@pytest.mark.parametrize("part", [False, True], ids=["whole-link", "middle-edges"])
def test_witness_loop_check_on_ids_agrees_with_has_edge(monkeypatch, part):
    # Put each vertex of the link, and each with one field changed, at
    # each place of each witness loop: the check on ids refuses the loop
    # exactly when link.has_edge refuses a step.  The middle-edge part
    # numbers its vertices apart from the whole link (its hub vertices,
    # x_{y0,z0} and so on, rank before y and z); it holds type-B loops
    # only, so it is given K_{2,3} with every edge y -> z.
    k23 = DefiningGraph(
        ("y0", "y1", "z0", "z1", "z2"),
        [(f"y{i}", f"z{j}", 3, F) for i in range(2) for j in range(3)],
    )
    gamma = k23 if part else DefiningGraph(
        ("a", "b", "c", "t", "u", "v", "w"),
        [("a", "b", 2, WILD), ("a", "c", 3, F), ("b", "c", 3, F),
         ("u", "v", 3, F), ("w", "v", 3, F), ("w", "t", 3, F), ("u", "t", 3, F)],
    )
    named = link_of(gamma).middle_subgraph() if part else link_of(gamma)
    if part:  # its ids are not the whole link's
        assert list(named._vids) != list(range(len(named.levels)))
    candidates = [
        u
        for v in named.vertices
        for u in (v, v._replace(level=5 - v.level), v._replace(special=not v.special))
    ]
    witnesses = detect_forbidden(gamma)
    assert {w.kind for w in witnesses} == ({"B"} if part else {"A", "B"})
    loops = [w.loop for w in witnesses]
    place = {}  # (loop, position) -> the vertex put there
    _with_loops(monkeypatch, lambda lp: (place.get((lp, i), v) for i, v in enumerate(lp)))
    refused = 0
    for loop, k, u in itertools.product(loops, range(4), candidates):
        place = {(loop, k): u}
        edited = [[place.get((lp, i), v) for i, v in enumerate(lp)] for lp in loops]
        ok = all(named.has_edge(a, b) for lp in edited for a, b in zip(lp, lp[1:] + lp[:1]))
        link = link_of(gamma).middle_subgraph() if part else link_of(gamma)
        if ok:
            detect_forbidden(gamma, link)
        else:
            refused += 1
            with pytest.raises(InternalInconsistencyError, match="missing from the link"):
                detect_forbidden(gamma, link)
        assert "vertices" not in link.__dict__
    assert 0 < refused < 4 * len(loops) * len(candidates)


def test_witness_loop_check_builds_no_named_view():
    k55 = complete_bipartite(5, 5, first=[(3, F)] * 25)
    link = link_of(k55)
    assert len(detect_forbidden(k55, link)) == 100
    assert "vertices" not in link.__dict__


@pytest.mark.parametrize("unique_first", [True, False], ids=["unique-first", "shared-first"])
def test_witness_loop_check_names_the_first_missing_step_in_detection_order(
    monkeypatch, unique_first
):
    # A step missing from one witness loop, and a missing step that
    # several loops share: however few lookups the check makes, it names
    # the first missing step of the first failing witness, as a scan of
    # each loop with has_edge finds it.
    triangle = [("t", "u", 3, F), ("u", "v", 3, F), ("t", "v", 3, F)]
    gamma = complete_bipartite(5, 5, first=[(3, F)] * 25, extra=triangle)
    named = link_of(gamma)
    loops = [w.loop for w in detect_forbidden(gamma)]
    assert loops[0][2].level == 4 and len(loops) == 101  # one type A, then type B
    p, q = loops[1][0], loops[1][2]
    assert not named.has_edge(p, q)
    shared = [i for i, lp in enumerate(loops) if i and lp[0] == p][2::7]
    unique = shared[0] - 1 if unique_first else shared[0] + 1
    assert len(shared) > 2 and unique not in shared
    edited = {loops[i]: (p, q, *loops[i][2:]) for i in shared}
    lp = loops[unique]
    edited[lp] = (*lp[:3], lp[3]._replace(gen="nowhere"))
    first = next(
        (a, b)
        for lp in (edited.get(lp, lp) for lp in loops)
        for a, b in zip(lp, lp[1:] + lp[:1])
        if not named.has_edge(a, b)
    )
    assert first == ((lp[2], edited[lp][3]) if unique_first else (p, q))
    _with_loops(monkeypatch, lambda lp: edited.get(lp, lp))
    with pytest.raises(InternalInconsistencyError) as info:
        detect_forbidden(gamma, link_of(gamma))
    assert str(info.value) == f"witness loop step {first[0]} - {first[1]} missing from the link"


def test_witness_loop_check_looks_up_each_distinct_step_once(monkeypatch):
    k88 = complete_bipartite(8, 8, first=[(3, F)] * 64)
    link = link_of(k88)
    loops = [w.loop for w in detect_forbidden(k88)]
    steps = {frozenset(s) for lp in loops for s in zip(lp, lp[1:] + lp[:1])}
    calls = Counter()
    for name in ("_steps", "_resolve"):
        method = getattr(LinkGraph, name)

        def counted(self, arg, name=name, method=method):
            calls[name] += 1
            return method(self, arg)

        monkeypatch.setattr(LinkGraph, name, counted)
    walks = []
    steps_of = LinkGraph._steps
    monkeypatch.setattr(
        LinkGraph, "_steps", lambda self, ids: walks.append(list(ids)) or steps_of(self, ids)
    )
    assert len(detect_forbidden(k88, link)) == len(loops) == 784
    # one lookup of the 64 distinct steps, each an id pair once, either way round
    assert len(steps) == 64 and calls["_steps"] == 1
    (walk,) = walks
    pairs = list(zip(walk[0::2], walk[1::2]))
    assert len({frozenset(p) for p in pairs}) == len(pairs) == len(steps)
    assert calls["_resolve"] == len(set(itertools.chain(*loops))) == 16
    assert "vertices" not in link.__dict__


def test_reversal_invariance_of_witness_counts():
    graphs = [
        transitive_triangle(),
        alternating_square(),
        directed_triangle(),
        DefiningGraph(
            ("a", "b", "c", "d"),
            [
                ("a", "b", 3, F), ("b", "c", 3, F), ("c", "d", 3, F),
                ("a", "d", 3, F), ("a", "c", 3, F),
            ],
        ),
    ]
    for g in graphs:
        fwd = detect_forbidden(g)
        rev = detect_forbidden(g.reversed())
        assert len(fwd) == len(rev)
        assert sorted(w.kind for w in fwd) == sorted(w.kind for w in rev)


def oriented_labelled_graphs(n, labels=(3, 4)):
    """All oriented labelled graphs on n named vertices (not reduced)."""
    names = tuple(f"v{i}" for i in range(n))
    pairs = list(itertools.combinations(names, 2))
    states = [(0,)] + [(lab, o) for lab in labels for o in (F, B)]
    for combo in itertools.product(states, repeat=len(pairs)):
        edges = []
        for (u, v), st in zip(pairs, combo):
            if st == (0,):
                continue
            lab, o = st
            edges.append((u, v, lab, o))
        yield DefiningGraph(names, edges)


def test_oracle_equivalence_exhaustive_four_vertices():
    for gamma in oriented_labelled_graphs(4, labels=(3,)):
        clean = not detect_forbidden(gamma)
        g = brute_force_girth(link_of(gamma))
        assert clean == (g is None or g >= 6)
        if not clean:
            assert g == 4


def test_oracle_equivalence_with_wildcard_edge():
    names = ("v0", "v1", "v2")
    pairs = list(itertools.combinations(names, 2))
    states = [(0,), (2, WILD), (3, F), (3, B)]
    for combo in itertools.product(states, repeat=3):
        edges = []
        for (u, v), st in zip(pairs, combo):
            if st == (0,):
                continue
            lab, o = st
            edges.append((u, v, lab, o))
        gamma = DefiningGraph(names, edges)
        clean = not detect_forbidden(gamma)
        g = brute_force_girth(link_of(gamma))
        assert clean == (g is None or g >= 6)


# -- orientation search --------------------------------------------------------


def good(gamma, assignment):
    return not detect_forbidden(oriented_copy(gamma, assignment))


def test_search_triangle_finds_cyclic_orientation():
    g = DefiningGraph(("a", "b", "c"), [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
    found = search_orientation(g)
    assert found is not None
    assert good(g, found)
    winners = [asg for asg in all_orientation_completions(g) if good(g, asg)]
    assert len(winners) == 2  # the two cyclic orientations


def test_search_k4_is_impossible():
    names = ("a", "b", "c", "d")
    edges = [(u, v, 3) for u, v in itertools.combinations(names, 2)]
    g = DefiningGraph(names, edges)
    assert search_orientation(g) is None
    assert not any(good(g, asg) for asg in all_orientation_completions(g))


def test_search_trivial_on_acyclic_graphs():
    tree = DefiningGraph(("a", "b", "c", "d"), [("a", "b", 3), ("b", "c", 4), ("b", "d", 3)])
    assert search_orientation(tree) is not None
    five_cycle = DefiningGraph(
        tuple("abcde"),
        [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3), ("a", "e", 3)],
    )
    found = search_orientation(five_cycle)
    assert found is not None and good(five_cycle, found)


def test_search_agrees_with_brute_force():
    cases = [
        DefiningGraph(
            ("a", "b", "c", "d"),
            [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", 3),
             ("a", "c", 3)],
        ),
        DefiningGraph(
            ("a", "b", "c", "d", "e"),
            [("a", "b", 3), ("b", "c", 3), ("c", "a", 3), ("c", "d", 3),
             ("d", "e", 3), ("e", "c", 3)],
        ),
        DefiningGraph(
            ("a", "b", "c"),
            [("a", "b", 2, WILD), ("b", "c", 3), ("a", "c", 3)],
        ),
        # a pattern among the fixed edges alone, off every searched edge
        DefiningGraph(("t", "u", "v", "w", "x"), [*alternating_square().edges, ("t", "x", 3)]),
    ]
    for g in cases:
        found = search_orientation(g)
        any_good = any(good(g, asg) for asg in all_orientation_completions(g))
        assert (found is not None) == any_good
        if found is not None:
            assert good(g, found)


def test_search_matches_brute_force_on_all_four_vertex_graphs():
    names = ("a", "b", "c", "d")
    pairs = list(itertools.combinations(names, 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = [(u, v, 3) for (u, v), bit in zip(pairs, bits) if bit]
        g = DefiningGraph(names, edges)
        found = search_orientation(g)
        any_good = any(good(g, asg) for asg in all_orientation_completions(g))
        assert (found is not None) == any_good, edges
        if found is not None:
            assert good(g, found)


def test_search_wildcard_triangle_hopeless():
    # with a wildcard edge, any triangle matches type A under some reading
    g = DefiningGraph(
        ("a", "b", "c"), [("a", "b", 2, WILD), ("b", "c", 3), ("a", "c", 3)]
    )
    assert search_orientation(g) is None


def test_search_is_deterministic():
    g = DefiningGraph(
        ("a", "b", "c", "d"),
        [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", 3)],
    )
    assert search_orientation(g) == search_orientation(g)


# The compiled predicate and the witnesses built from its walks must
# match the brute-force witnesses of tests/oracle_tools.py on every
# direction pattern: +1 and -1 for the two directions of an edge, 0 for
# a wildcard.
EDGE_STATES = {1: (3, F), -1: (3, B), 0: (2, WILD)}


def witness_tuples(g):
    return [(w.kind, w.vertices, w.directed_edges, w.loop) for w in detect_forbidden(g)]


@pytest.mark.parametrize("pattern", list(itertools.product((1, -1, 0), repeat=3)))
def test_compiled_triangle_predicate_matches_witness(pattern):
    pairs = [("a", "b"), ("b", "c"), ("a", "c")]
    g = DefiningGraph(
        ("a", "b", "c"),
        [(u, v, *EDGE_STATES[d]) for (u, v), d in zip(pairs, pattern)],
    )
    assert witness_tuples(g) == brute_force_witnesses(g)


@pytest.mark.parametrize("pattern", list(itertools.product((1, -1, 0), repeat=4)))
def test_compiled_four_cycle_predicate_matches_witness(pattern):
    pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    g = DefiningGraph(
        ("a", "b", "c", "d"),
        [(u, v, *EDGE_STATES[d]) for (u, v), d in zip(pairs, pattern)],
    )
    assert witness_tuples(g) == brute_force_witnesses(g)


def test_reversing_every_direction_keeps_the_predicate():
    # why search_orientation, with nothing oriented in advance, tries
    # its first edge forward only
    from artinlink.forbidden import _forms_pattern

    for n in (3, 4):
        for signs in itertools.product((1, -1), repeat=n):
            walk = tuple(zip(range(n), signs))
            for dirs in itertools.product((1, 0, -1), repeat=n):
                mirror = [-d for d in dirs]
                assert _forms_pattern(walk, mirror) == _forms_pattern(walk, dirs)


def test_witnesses_match_brute_force_on_sampled_sweep_states():
    # every 97th graph of the acceptance-06 sweep, wildcard variants
    # included; the first-hit form must agree with the witness list
    states = enumerate_oriented_states(5)
    work = (states + wildcard_variants(states, 5))[::97]
    for state in work:
        g = graph_from_state(state, 5)
        witnesses = witness_tuples(g)
        assert witnesses == brute_force_witnesses(g), state
        assert has_forbidden(g) == bool(witnesses), state


@st.composite
def mixed_graphs(draw, max_unoriented=8):
    """Graphs on at most 6 vertices with fixed, wildcard and unoriented
    edges, at most ``max_unoriented`` of them unoriented."""
    names = "abcdef"[: draw(st.integers(1, 6))]
    edges = []
    unoriented = 0
    for u, v in itertools.combinations(names, 2):
        kinds = ["none", "forward", "backward", "wildcard"]
        if unoriented < max_unoriented:
            kinds += ["unoriented"] * 3  # mostly searched edges
        kind = draw(st.sampled_from(kinds))
        if kind == "unoriented":
            unoriented += 1
            edges.append((u, v, draw(st.sampled_from((3, 4)))))
        elif kind == "wildcard":
            edges.append((u, v, 2, WILD))
        elif kind != "none":
            edges.append((u, v, 3, F if kind == "forward" else B))
    return DefiningGraph(tuple(names), edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mixed_graphs())
def test_search_agrees_with_exhaustive_completions(g):
    found = search_orientation(g)
    any_good = any(good(g, asg) for asg in all_orientation_completions(g))
    assert (found is not None) == any_good
    if found is not None:
        assert good(g, found)


# -- the counting refutation on bipartite graphs ---------------------------------


def complete_bipartite(m, n, extra=(), first=()):
    """K_{m,n} on a0.. and b0.., its edges in order taking the (label,
    orientation) states in ``first`` and then label 3 unoriented, plus
    the ``extra`` edges on new vertices."""
    a = [f"a{i}" for i in range(m)]
    b = [f"b{j}" for j in range(n)]
    states = itertools.chain(first, itertools.repeat((3,)))
    edges = [(u, v, *st) for (u, v), st in zip(itertools.product(a, b), states)]
    names = sorted({w for e in extra for w in e[:2]})
    return DefiningGraph(a + b + names, edges + list(extra))


WILDCARDS_3 = [(2, WILD)] * 3


def test_complete_bipartite_search_matches_the_rectangle_free_grid_theorem():
    # Fenner, Gasarch, Glover and Purewal (2012): the m x n grid has a
    # 2-colouring with no monochromatic rectangle iff it contains neither
    # 5 x 5 nor 3 x 7; on K_{m,n} the colours are the two directions
    start = time.perf_counter()
    for m in range(2, 9):
        for n in range(m, 9):
            g = complete_bipartite(m, n)
            found = search_orientation(g)
            assert (found is None) == (m >= 5 or (m >= 3 and n >= 7)), (m, n)
            assert _refuted_by_counting(g) == (found is None), (m, n)
            if found is not None:
                assert good(g, found)
    assert time.perf_counter() - start < 5


def test_reiman_count_is_the_optimum_of_its_degree_program():
    # the largest sum of d_v <= cap_v with sum C(d_v, 2) <= C(n, 2),
    # by trying every degree vector
    for n in range(1, 6):
        for caps in itertools.product(range(6), repeat=3):
            best = max(
                sum(ds)
                for ds in itertools.product(*(range(c + 1) for c in caps))
                if sum(d * (d - 1) for d in ds) <= n * (n - 1)
            )
            stub = SimpleNamespace(degree=caps.__getitem__)
            assert _c4_free_edges(stub, range(n), range(3)) == best, (n, caps)


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(
            DefiningGraph(
                complete_bipartite(5, 5).vertices,
                complete_bipartite(5, 5).edges[1:],
            ),
            id="k55-minus-an-edge",
        ),
        pytest.param(complete_bipartite(3, 6), id="k36"),
        pytest.param(complete_bipartite(4, 6), id="k46"),
        # not bipartite: read as sides {a, c, d, f} and {b, e}, its
        # edges would exceed the count, yet it is already clean
        pytest.param(
            DefiningGraph(
                tuple("abcdef"),
                [(u, v, 2, WILD) for u, v in ("ab", "bc", "cd", "de", "ae")]
                + [("e", "f", 3)],
            ),
            id="wildcard-five-cycle",
        ),
    ],
)
def test_counting_does_not_fire_where_an_orientation_exists(g):
    assert not _refuted_by_counting(g)
    found = search_orientation(g)
    assert found is not None and good(g, found)


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(complete_bipartite(5, 5, [("x", "y", 3)]), id="k55-and-an-edge"),
        pytest.param(
            complete_bipartite(5, 5, [("x", "y", 3), ("y", "z", 3), ("x", "z", 3)]),
            id="k55-and-a-triangle",
        ),
        pytest.param(complete_bipartite(3, 7), id="k37"),
        pytest.param(complete_bipartite(3, 4, first=WILDCARDS_3), id="k34-three-wildcards"),
    ],
)
def test_counting_refutes_a_bipartite_component(g):
    assert _refuted_by_counting(g)
    assert search_orientation(g) is None


@st.composite
def bipartite_graphs(draw, max_unoriented=10):
    """Bipartite graphs on at most 3 + 4 vertices with fixed, wildcard
    and unoriented edges, at most ``max_unoriented`` unoriented."""
    a = [f"a{i}" for i in range(draw(st.integers(1, 3)))]
    b = [f"b{j}" for j in range(draw(st.integers(1, 4)))]
    edges = []
    for u, v in itertools.product(a, b):
        kinds = ["none", "forward", "backward", "wildcard", "wildcard"]
        if sum(len(e) == 3 for e in edges) < max_unoriented:
            kinds += ["unoriented"] * 3
        kind = draw(st.sampled_from(kinds))
        if kind == "unoriented":
            edges.append((u, v, draw(st.sampled_from((3, 4)))))
        elif kind == "wildcard":
            edges.append((u, v, 2, WILD))
        elif kind != "none":
            edges.append((u, v, 3, F if kind == "forward" else B))
    return DefiningGraph(tuple(a + b), edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(bipartite_graphs())
@example(complete_bipartite(3, 4, first=[(3, F)] + WILDCARDS_3))
def test_counting_refutes_only_graphs_without_a_good_completion(g):
    if _refuted_by_counting(g):
        assert search_orientation(g) is None
        assert not any(good(g, asg) for asg in all_orientation_completions(g))


def test_search_self_check_raises_on_a_bad_assignment(monkeypatch):
    # A search fault: 4-walks pass while any direction is undecided.  The
    # pendant edge a - z lies on no cycle, so it is decided last and every
    # 4-walk is checked while it is open.  The search then makes every
    # octahedron face cyclic, which forces each equator to alternate, and
    # its closing check must refuse the result, even under python -O.
    forms_pattern = forbidden._forms_pattern

    def faulty(walk, dirs):
        return (len(walk) == 3 or None not in dirs) and forms_pattern(walk, dirs)

    monkeypatch.setattr(forbidden, "_forms_pattern", faulty)
    octa = octahedron()
    g = DefiningGraph((*octa.vertices, "z"), [*octa.edges, ("a", "z", 3)])
    with pytest.raises(InternalInconsistencyError, match="orientation search returned"):
        search_orientation(g)


def test_certify_refuses_a_searched_orientation_with_a_pattern(monkeypatch):
    # certify's own check: a completion applied with one searched edge
    # flipped leaves a bare label-3 triangle transitive, and the detection
    # certify runs on the completed graph must refuse it.
    def flip_one(gamma, assignment):
        (key, d), *rest = assignment.directions.items()
        flipped = {key: "backward" if d == "forward" else "forward", **dict(rest)}
        return resolve_orientations(gamma, flipped)

    monkeypatch.setattr(curvature, "resolve_orientations", flip_one)
    bare = DefiningGraph(("a", "b", "c"), [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
    assert search_orientation(bare) is not None
    with pytest.raises(InternalInconsistencyError, match="orientation search returned"):
        certify(bare)


def test_certify_resolves_and_compiles_a_searched_orientation_once(monkeypatch):
    from test_smallcancel import CORPUS

    from artinlink import parse_gamma

    calls = Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(
        curvature, "resolve_orientations", counted("resolve", resolve_orientations)
    )
    for name, f in (("apply", "with_edges"), ("compile", "iter_walks")):
        monkeypatch.setattr(DefiningGraph, f, counted(name, getattr(DefiningGraph, f)))
    # grid4, grid8 and grid12 search and find a completion, and their
    # walks are kept; k55 is refuted and given u -> v defaults; k88
    # comes fully oriented.  Without kept walks the detection compiles
    # them all, and the triangle check compiles again up to the first
    # 4-cycle.
    resolved = {"grid4": 1, "grid8": 1, "grid12": 1, "k55": 1, "k88": 0}
    for name, n in resolved.items():
        gamma = parse_gamma(CORPUS[name])
        calls.clear()
        report = certify(gamma)
        compiles = 1 if name.startswith("grid") else 2
        assert calls == Counter(resolve=n, apply=n, compile=compiles), name
        if name.startswith("grid"):
            assert report.notes == ("orientation found by search",)
            # the search alone compiles once and applies nothing
            calls.clear()
            assert search_orientation(parse_gamma(CORPUS[name])) == report.orientation
            assert calls == {"compile": 1}, name
    assert not hasattr(forbidden, "resolve_orientations")


# -- checkerboard orientation ----------------------------------------------------


def square_with_rotations():
    return DefiningGraph(
        ("a", "b", "c", "d"),
        [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", 3)],
    )


def test_checkerboard_square_is_directed_cycle():
    g = square_with_rotations()
    assignment = orient_from_rotation_system(g)
    oriented = resolve_orientations(g, assignment)
    assert detect_forbidden(oriented) == []
    outdeg = {v: 0 for v in oriented.vertices}
    for e in oriented.edges:
        outdeg[e.tail] += 1
    assert sorted(outdeg.values()) == [1, 1, 1, 1]


def test_checkerboard_single_triangle_is_cyclic():
    g = DefiningGraph(("a", "b", "c"), [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
    assignment = orient_from_rotation_system(g)
    oriented = resolve_orientations(g, assignment)
    assert detect_forbidden(oriented) == []


def test_checkerboard_refuses_an_oriented_edge():
    g = DefiningGraph(
        ("a", "b", "c"), [("a", "b", 3, Orientation.FORWARD), ("b", "c", 3), ("a", "c", 3)]
    )
    with pytest.raises(ValueError, match=r"^edge \('a', 'b'\) is already oriented$"):
        orient_from_rotation_system(g)


def test_checkerboard_rejects_odd_degrees():
    g = DefiningGraph(
        ("a", "b", "c", "d"),
        [("a", "b", 3), ("b", "c", 3), ("a", "c", 3), ("c", "d", 3), ("b", "d", 3)],
    )
    with pytest.raises(OddDegreeVertexError):
        orient_from_rotation_system(g)


def bowtie():
    return DefiningGraph(
        ("c", "p", "q", "r", "s"),
        [("c", "p", 3), ("c", "q", 3), ("p", "q", 3),
         ("c", "r", 3), ("c", "s", 3), ("r", "s", 3)],
        rotations={"c": ("p", "q", "r", "s")},
    )


def test_checkerboard_bowtie_is_clean():
    g = bowtie()
    faces = trace_faces(g)
    assert sorted(len(f) for f in faces) == [3, 3, 6]
    assignment = orient_from_rotation_system(g)
    oriented = resolve_orientations(g, assignment)
    assert detect_forbidden(oriented) == []


def octahedron():
    return DefiningGraph(
        ("n", "s", "a", "b", "c", "d"),
        [("n", "a", 3), ("n", "b", 3), ("n", "c", 3), ("n", "d", 3),
         ("s", "a", 3), ("s", "b", 3), ("s", "c", 3), ("s", "d", 3),
         ("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", 3)],
        rotations={
            "n": ("a", "b", "c", "d"), "s": ("a", "d", "c", "b"),
            "a": ("n", "d", "s", "b"), "b": ("n", "a", "s", "c"),
            "c": ("n", "b", "s", "d"), "d": ("n", "c", "s", "a"),
        },
    )


def test_octahedron_checkerboard_hits_equatorial_squares():
    # The octahedron's three equatorial 4-cycles bound no face, so the
    # checkerboard construction does not apply to it: orienting every
    # facial triangle cyclically forces each equator to alternate.
    g = octahedron()
    faces = trace_faces(g)
    assert sorted(len(f) for f in faces) == [3] * 8
    assignment = orient_from_rotation_system(g)
    oriented = resolve_orientations(g, assignment)
    ws = detect_forbidden(oriented)
    assert [w.kind for w in ws] == ["B", "B", "B"]
    assert {w.vertices for w in ws} == {
        ("a", "b", "c", "d"), ("a", "n", "c", "s"), ("b", "n", "d", "s")
    }
    # and no orientation at all avoids both patterns
    assert search_orientation(octahedron()) is None


def test_checkerboard_rejects_inconsistent_embedding():
    # interleaving the rotation at the cut vertex puts the bowtie on a
    # torus: one face borders every edge twice, so no 2-colouring exists
    g = DefiningGraph(
        ("c", "p", "q", "r", "s"),
        [("c", "p", 3), ("c", "q", 3), ("p", "q", 3),
         ("c", "r", 3), ("c", "s", 3), ("r", "s", 3)],
        rotations={"c": ("p", "r", "q", "s")},
    )
    assert len(trace_faces(g)) == 1
    with pytest.raises(DualNotBipartiteError):
        orient_from_rotation_system(g)


def k5_with_five_faces():
    # K5, every label 3: every edge borders two distinct faces, but the
    # five faces of this embedding admit no 2-colouring
    rotations = {"a": "ecdb", "b": "daec", "c": "ebda", "d": "bace", "e": "adbc"}
    return DefiningGraph(
        tuple("abcde"),
        [(u, v, 3) for u, v in itertools.combinations("abcde", 2)],
        rotations={v: tuple(order) for v, order in rotations.items()},
    )


def test_checkerboard_reports_a_face_colouring_conflict():
    g = k5_with_five_faces()
    assert len(trace_faces(g)) == 5
    with pytest.raises(DualNotBipartiteError, match="^face colouring conflict"):
        orient_from_rotation_system(g)


def test_trace_faces_requires_rotations_for_high_degree():
    g = DefiningGraph(
        ("c", "p", "q", "r", "s"),
        [("c", "p", 3), ("c", "q", 3), ("p", "q", 3),
         ("c", "r", 3), ("c", "s", 3), ("r", "s", 3)],
    )
    with pytest.raises(ValueError):
        trace_faces(g)


LONG = "n" * 5000  # a valid vertex name


@pytest.mark.parametrize(
    "call, gamma, message",
    [
        (trace_faces,
         DefiningGraph(("a", "b", "c", LONG), [(LONG, x, 3) for x in "abc"]),
         "has degree 3 but no rotation"),
        (orient_from_rotation_system,
         DefiningGraph((LONG, "a"), [("a", LONG, 3)]),
         "has odd degree"),
        (orient_from_rotation_system,
         DefiningGraph(("a", "b", LONG), [("a", LONG, 3, F), ("b", LONG, 3), ("a", "b", 3)]),
         "is already oriented"),
        (orient_from_rotation_system,
         DefiningGraph(
             (LONG, "p", "q", "r", "s"),
             [(LONG, "p", 3), (LONG, "q", 3), ("p", "q", 3),
              (LONG, "r", 3), (LONG, "s", 3), ("r", "s", 3)],
             rotations={LONG: ("p", "r", "q", "s")},
         ),
         "borders a single face"),
    ],
)
def test_embedding_messages_cut_long_names(call, gamma, message):
    with pytest.raises(ValueError, match=message) as raised:
        call(gamma)
    text = str(raised.value)
    assert "\n" not in text and len(text) < 200
    assert "(5000 characters)" in text


def test_trace_faces_steps_each_dart_once():
    # one face of 32,000 darts round a hub of degree 16,000; finding each
    # arrival in the hub's rotation by a scan made this quadratic
    leaves = [f"x{i}" for i in range(16000)]
    g = DefiningGraph(["c", *leaves], [("c", x, 3) for x in leaves], {"c": leaves})
    start = time.perf_counter()
    faces = trace_faces(g)
    assert time.perf_counter() - start < 0.5
    assert [len(face) for face in faces] == [32000]


@st.composite
def rotation_systems(draw):
    """A graph on 1 to 7 vertices with a random rotation at each vertex
    (left out at some of degree <= 2): the symmetric difference of a few
    cycles, so every degree is even, then perhaps one edge more; label 3,
    or a wildcard label 2."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 7)))]
    keys = set()
    for _ in range(draw(st.integers(0, 5))):
        if len(names) < 3:
            break
        cycle = draw(st.permutations(names))[: draw(st.integers(3, len(names)))]
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            keys ^= {(min(u, v), max(u, v))}
    if len(names) > 1 and draw(st.integers(0, 3)) == 0:
        keys ^= {tuple(sorted(draw(st.permutations(names))[:2]))}
    edges = [
        (u, v, 2, WILD) if draw(st.integers(0, 5)) == 0 else (u, v, 3)
        for u, v in sorted(keys)
    ]
    g = DefiningGraph(names, edges)
    rotations = {
        v: draw(st.permutations(g.neighbors(v)))
        for v in names
        if g.degree(v) > 2 or draw(st.booleans())
    }
    return DefiningGraph(names, edges, rotations)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(rotation_systems())
@example(k5_with_five_faces())
@example(DefiningGraph(bowtie().vertices, bowtie().edges, {"c": ("p", "r", "q", "s")}))
def test_checkerboard_matches_the_embedding_oracles(g):
    # faces checked step by step against the rotations, and the verdict
    # against a parity union-find over those faces
    faces = trace_faces(g)
    assert face_faults(g, faces) == []
    try:
        assignment = orient_from_rotation_system(g)
    except OddDegreeVertexError:
        assert any(g.degree(v) % 2 for v in g.vertices)
    except DualNotBipartiteError:
        assert dual_conflict(g, faces) is not None
    else:
        assert dual_conflict(g, faces) is None
        assert checkerboard_faults(g, faces, assignment.directions) == []
