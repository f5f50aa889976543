import copy
import itertools
import pickle
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artinlink import (
    CyclicWord,
    DefiningGraph,
    FreeWord,
    GammaEdge,
    IncompleteAssignmentError,
    Orientation,
    OrientationAssignment,
    TooManyGeneratorsError,
    UnorientedEdgeError,
    alternating_word,
    build_standard,
    build_triangular,
    build_two_generator_family,
    resolve_orientations,
    triangle_graph,
    triangle_presentation,
    verify_tietze_equivalence,
)
from artinlink import assign_metric, certify, cli, link_of, presentations
from artinlink.gamma_io import (
    ParseError,
    gamma_to_json_dict,
    gamma_from_json_dict,
    gamma_to_text,
    load_gamma,
    parse_gamma,
    parse_gamma_json,
)

W = FreeWord.parse
F, B = Orientation.FORWARD, Orientation.BACKWARD


def rel(text):
    return CyclicWord(W(text))


# -- defining graphs ---------------------------------------------------


def test_graph_rejects_loops_multiedges_bad_labels():
    with pytest.raises(ValueError):
        DefiningGraph(("a",), [("a", "a", 3)])
    with pytest.raises(ValueError):
        DefiningGraph(("a", "b"), [("a", "b", 3), ("b", "a", 4)])
    with pytest.raises(ValueError):
        DefiningGraph(("a", "b"), [("a", "b", 1)])
    with pytest.raises(ValueError):
        DefiningGraph(("a", "b"), [("a", "b", 3, Orientation.WILDCARD)])


def test_graph_and_assignment_equality_read_their_fields_and_neither_hashes():
    edges = [("a", "b", 3, F), ("b", "c", 2, Orientation.WILDCARD)]
    g = DefiningGraph("abc", edges)
    assert g == DefiningGraph("abc", edges[::-1])  # edges are kept sorted
    assert g != DefiningGraph("acb", edges) and g != g.reversed()
    rotated = DefiningGraph("abc", edges, {"b": ("c", "a")})
    assert rotated != g and rotated == DefiningGraph("abc", edges, {"b": ["c", "a"]})
    assert rotated != DefiningGraph("abc", edges, {"b": ("a", "c")})
    assert g != "abc" and g != None  # noqa: E711
    directions = {("a", "b"): "forward"}
    a = OrientationAssignment(directions)
    assert a == OrientationAssignment(dict(directions)) and a != OrientationAssignment()
    assert a != OrientationAssignment({("a", "b"): "backward"}) and a != directions
    for value in (g, rotated, a):
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize(
    "directions,message",
    [
        ({("a", "b"): "sideways"}, "direction for ('a', 'b') must be forward/backward"),
        ({("b", "a"): "forward"}, "edge key ('b', 'a') must be ordered u < v"),
    ],
)
def test_assignment_refuses_a_bad_direction_or_edge_key(directions, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OrientationAssignment(directions)


LONG = "n" * 5000  # a valid vertex name
CUT = "'nnnnnnnnnnnnnnnnnnnn'... (5000 characters)"
LEAVES = [f"v{i}" for i in range(2000)]
STAR = DefiningGraph(["h", *LEAVES], [("h", v, 3) for v in LEAVES])
FIRST_THREE = "('h', 'v0'), ('h', 'v1'), ('h', 'v10'), ... (2000 edges)"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: OrientationAssignment({("a", LONG): "sideways"}),
         f"direction for ('a', {CUT}) must be forward/backward"),
        (lambda: OrientationAssignment({(LONG, "a"): "forward"}),
         f"edge key ({CUT}, 'a') must be ordered u < v"),
        (lambda: resolve_orientations(DefiningGraph(["a", LONG], [("a", LONG, 3)]), {}),
         f"no direction for edges: ('a', {CUT})"),
        (lambda: resolve_orientations(STAR, {}), f"no direction for edges: {FIRST_THREE}"),
        (lambda: resolve_orientations(
            STAR.with_edges(GammaEdge("h", v, 3, Orientation.FORWARD) for v in LEAVES),
            dict.fromkeys([("h", v) for v in LEAVES], "forward"),
        ), f"assignment covers non-unoriented edges: {FIRST_THREE}"),
        (lambda: certify(triangle_graph(3, 3, 3), scheme=LONG), f"unknown scheme {CUT}"),
        (lambda: assign_metric(link_of(triangle_graph(3, 3, 3)), LONG),
         f"unknown metric scheme {CUT}"),
    ],
    ids=["direction", "edge-key", "missing-key", "missing-star", "extra-star",
         "scheme", "metric-scheme"],
)
def test_assignment_and_scheme_messages_cut_long_values(call, message):
    # a 5,000-character vertex or scheme, or 2,000 keys, in under 200 characters
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
    assert len(message) < 200


@pytest.mark.parametrize(
    "name",
    ["x_{a,b}", "d_{a,b,3}", "a,b", "", 7, "a_bar", "a^-1", "a b", "a\tb",
     "a--b", "--", "a-", "-"],
)
def test_graph_rejects_names_that_clash_with_generators(name):
    with pytest.raises(ValueError):
        DefiningGraph(("a", "b", name), [("a", "b", 3, Orientation.FORWARD)])


def test_reserved_name_pattern_is_the_character_test_on_every_code_point():
    # ``\s`` of ``re`` on ``str`` against ``str.isspace``, per character,
    # with the C0 controls and DEL
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    expected = [c for c in every if c in "{},^" or c.isspace() or c < " " or c == "\x7f"]
    assert presentations._RESERVED.findall(every) == expected
    for c in expected:
        with pytest.raises(ValueError):
            presentations.check_vertex_name(f"a{c}b")


def test_names_refuse_control_characters_and_keep_quotes_and_letters():
    for name in ("a\x00b", "\x01", "a\x7f"):
        with pytest.raises(ValueError, match="control characters"):
            presentations.check_vertex_name(name)
    for name in ('a"b', "a\\b", "\u00e9"):
        presentations.check_vertex_name(name)


def brute_force_triangles_and_four_cycles(g):
    vs = sorted(g.vertices)
    tris = [t for t in itertools.combinations(vs, 3)
            if all(g.has_edge(x, y) for x, y in itertools.combinations(t, 2))]
    cycs = [
        (v0, v1, v2, v3)
        for v0, v1, v2, v3 in itertools.permutations(vs, 4)
        if v0 == min(v0, v1, v2, v3) and v1 < v3
        and all(g.has_edge(x, y) for x, y in ((v0, v1), (v1, v2), (v2, v3), (v3, v0)))
    ]
    return sorted(tris), sorted(cycs)


def test_triangles_and_four_cycles_match_brute_force_on_all_five_vertex_graphs():
    names = ("e", "b", "d", "a", "c")  # declaration order differs from sorted
    pairs = list(itertools.combinations(names, 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        g = DefiningGraph(names, [(u, v, 3) for (u, v), b in zip(pairs, bits) if b])
        expected = brute_force_triangles_and_four_cycles(g)
        assert (g.triangles(), g.four_cycles()) == expected


def test_edge_normalization_flips_direction():
    e = GammaEdge("b", "a", 3, Orientation.FORWARD)  # drawn b -> a
    assert e.key == ("a", "b")
    assert (e.tail, e.head) == ("b", "a")


@pytest.mark.parametrize("value", [None, "bogus", ">", 1])
def test_edge_refuses_an_orientation_that_is_not_one(value):
    with pytest.raises(ValueError, match=r"edge \('a', 'b'\) orientation must be"):
        GammaEdge("a", "b", 3, value)


@pytest.mark.parametrize("value", [*Orientation, *(o.value for o in Orientation)])
def test_edge_stores_its_orientation_as_a_member(value):
    label = 2 if value == Orientation.WILDCARD else 3
    e = GammaEdge("a", "b", label, value)
    assert e.orientation is Orientation(value)


def test_graph_tuples_still_read_orientation_symbols():
    g = DefiningGraph(("a", "b", "c"), [("b", "a", 3, ">"), ("b", "c", 2, "?")])
    assert g.edge("a", "b").orientation is Orientation.BACKWARD
    assert g.edge("b", "c").orientation is Orientation.WILDCARD
    assert g.edge("a", "b") == GammaEdge("b", "a", 3, "forward")


def test_wildcard_tail_is_lexicographically_smaller():
    e = GammaEdge("b", "a", 2, Orientation.WILDCARD)
    assert (e.tail, e.head) == ("a", "b")


def test_unoriented_edge_refuses_its_ends_on_every_read():
    e = GammaEdge("a", "b", 3)
    for _ in range(3):
        with pytest.raises(UnorientedEdgeError):
            e.tail
        with pytest.raises(UnorientedEdgeError):
            e.head
        with pytest.raises(UnorientedEdgeError):
            e.hub_chain
    assert e.key == ("a", "b")
    # read on the class, the ends are the descriptor itself
    assert GammaEdge.tail is GammaEdge.head is vars(GammaEdge)["tail"]


@pytest.mark.parametrize(
    "args",
    [
        ("b", "a", 3, Orientation.FORWARD),
        ("a", "b", 4, Orientation.BACKWARD),
        ("b", "a", 2, Orientation.WILDCARD),
    ],
)
def test_edge_with_cached_ends_is_its_fresh_self(args):
    read = GammaEdge(*args)
    ends = (read.tail, read.head, read.key, read.hub_chain)
    fresh = GammaEdge(*args)
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)
    assert pickle.dumps(read) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(read))
    assert back == fresh and (back.tail, back.head, back.key, back.hub_chain) == ends


ORIENTATION_VALUES = ("forward", "backward", "unoriented", "wildcard")


def expected_edge(u, v, label, o):
    """What ``GammaEdge(u, v, label, o)`` promises, worked out without
    it: ``("error", type, message)`` for the first failing check, else
    ``("edge", u, v, orientation value, (tail, head) or None)``."""
    if u == v:
        return "error", ValueError, f"loop edge at {u!r} not allowed"
    if not isinstance(label, int) or label < 2:
        return "error", ValueError, f"edge label must be an integer >= 2, got {label!r}"
    if not isinstance(o, str) or o not in ORIENTATION_VALUES:
        return "error", ValueError, (
            f"edge {(u, v)} orientation must be one of forward, backward, "
            f"unoriented, wildcard, got {o!r}"
        )
    value = str.__str__(o)  # a member's value, a value itself
    if u > v:
        u, v = v, u
        value = {"forward": "backward", "backward": "forward"}.get(value, value)
    if value == "wildcard" and label != 2:
        message = f"wildcard orientation requires label 2 on edge {(u, v)}"
        return "error", ValueError, message
    ends = {"forward": (u, v), "wildcard": (u, v), "backward": (v, u)}.get(value)
    return "edge", u, v, value, ends


def built_edge(u, v, label, o):
    """``GammaEdge(u, v, label, o)`` read as :func:`expected_edge` writes
    it."""
    try:
        e = GammaEdge(u, v, label, o)
    except Exception as exc:
        return "error", type(exc), str(exc)
    return observed(e)


def observed(e):
    """``e`` read as :func:`expected_edge` writes it; ``tail`` and
    ``head`` are read twice, so a read that raises must raise every
    time."""
    assert e.key == (e.u, e.v) and type(e.orientation) is Orientation
    reads = []
    for _ in range(2):
        try:
            reads.append((e.tail, e.head))
        except UnorientedEdgeError:
            reads.append(None)
    assert reads[0] == reads[1]
    return "edge", e.u, e.v, e.orientation.value, reads[0]


def reversed_orientation(o):
    """``o`` read from the other end, in the form it was given: members
    stay members and values stay values; anything else is kept."""
    if isinstance(o, Orientation):
        return {F: B, B: F}.get(o, o)
    if o in ("forward", "backward"):
        return "backward" if o == "forward" else "forward"
    return o


@settings(derandomize=True, max_examples=600, deadline=None)
@given(
    u=st.sampled_from("abc"),
    v=st.sampled_from("abc"),
    label=st.one_of(st.integers(-1, 6), st.sampled_from([True, 3.0, "3", None])),
    o=st.one_of(
        st.sampled_from(list(Orientation)),
        st.sampled_from(ORIENTATION_VALUES),
        st.sampled_from([None, "bogus", ">", "FORWARD", 1, ("forward",), ["forward"]]),
    ),
)
def test_edge_constructor_keeps_its_promise_in_both_argument_orders(u, v, label, o):
    given_order = built_edge(u, v, label, o)
    assert given_order == expected_edge(u, v, label, o)
    other = (v, u, label, reversed_orientation(o))
    assert built_edge(*other) == expected_edge(*other)
    if given_order[0] == "edge":
        e, f = GammaEdge(u, v, label, o), GammaEdge(*other)
        assert e == f and hash(e) == hash(f) and repr(e) == repr(f)
        assert pickle.dumps(e) == pickle.dumps(f)
        for twin in (copy.deepcopy(e), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert twin == e and observed(twin) == given_order


# -- standard presentations --------------------------------------------


def test_standard_single_edge_label_three():
    g = DefiningGraph(("a", "b"), [("a", "b", 3)])
    p = build_standard(g)
    assert p.generators == ("a", "b")
    assert p.relators == (rel("a b a b^-1 a^-1 b^-1"),)


def test_standard_single_edge_label_two():
    g = DefiningGraph(("a", "b"), [("a", "b", 2)])
    p = build_standard(g)
    assert p.relators == (rel("a b a^-1 b^-1"),)


@pytest.mark.parametrize("m,n,p", [(3, 3, 3), (2, 4, 5), (6, 3, 4)])
def test_standard_triangle_relator_lengths(m, n, p):
    pres = build_standard(triangle_graph(m, n, p))
    assert len(pres.generators) == 3
    assert sorted(len(r) for r in pres.relators) == sorted((2 * m, 2 * n, 2 * p))


# -- triangular presentations ------------------------------------------


def test_triangular_single_edge_label_five():
    g = DefiningGraph(("a", "b"), [("a", "b", 5, Orientation.FORWARD)])
    p = build_triangular(g)
    h = "x_{a,b}"
    d = "d_{{a,b},I}"  # noqa: F841  (readability only)
    d3, d4, d5 = "d_{a,b,3}", "d_{a,b,4}", "d_{a,b,5}"
    assert set(p.relators) == {
        rel(f"{h}^-1 a b"),
        rel(f"{h}^-1 b {d3}"),
        rel(f"{h}^-1 {d3} {d4}"),
        rel(f"{h}^-1 {d4} {d5}"),
        rel(f"{h}^-1 {d5} a"),
    }
    assert p.hub_records[0].cycle == ("a", "b", d3, d4, d5)


def test_triangular_label_two_gives_both_orders():
    g = DefiningGraph(("a", "b"), [("a", "b", 2, Orientation.WILDCARD)])
    p = build_triangular(g)
    h = "x_{a,b}"
    assert set(p.relators) == {rel(f"{h}^-1 a b"), rel(f"{h}^-1 b a")}


@pytest.mark.parametrize(
    "m,n,p", list(itertools.product((2, 3, 4, 5, 6), repeat=3))
)
def test_triangular_triangle_counts(m, n, p):
    pres = build_triangular(triangle_graph(m, n, p))
    assert len(pres.generators) == m + n + p
    assert len(pres.relators) == m + n + p


def test_triangle_presentation_classic_names_245():
    pres = triangle_presentation(2, 4, 5)
    assert sorted(rec.hub for rec in pres.hub_records) == ["x", "y", "z"]
    expected = {
        rel("x^-1 a b"), rel("x^-1 b a"),
        rel("y^-1 b c"), rel("y^-1 c e3"), rel("y^-1 e3 e4"), rel("y^-1 e4 b"),
        rel("z^-1 c a"), rel("z^-1 a f3"), rel("z^-1 f3 f4"),
        rel("z^-1 f4 f5"), rel("z^-1 f5 c"),
    }
    assert set(pres.relators) == expected


def test_triangular_requires_orientations():
    g = DefiningGraph(("a", "b"), [("a", "b", 3)])
    with pytest.raises(UnorientedEdgeError):
        build_triangular(g)


def test_triangular_generator_cap_is_checked_before_building():
    from artinlink.presentations import MAX_GENERATORS

    def one_edge(label):
        return DefiningGraph(("a", "b"), [("a", "b", label, Orientation.FORWARD)])

    # two vertices, one hub and label - 2 chain generators
    pres = build_triangular(one_edge(MAX_GENERATORS - 1))
    assert len(pres.generators) == MAX_GENERATORS
    with pytest.raises(TooManyGeneratorsError, match=f"{MAX_GENERATORS + 1} gen"):
        build_triangular(one_edge(MAX_GENERATORS))
    # a label far beyond the cap fails at once: nothing is built first
    with pytest.raises(TooManyGeneratorsError, match="1000000001 generators"):
        build_triangular(one_edge(10**9))
    # a count past the 4300 digits str() writes is cut, not written out
    with pytest.raises(
        TooManyGeneratorsError, match=r"have 10000000000000000000\.\.\. \(4301 characters\) gen"
    ):
        build_triangular(one_edge(10**4300 - 1))


def test_shown_cuts_a_long_value_to_20_characters():
    # ints past the 4300 digits str() writes are cut too, and a tuple item by item
    for value, text in [
        ("a" * 20, repr("a" * 20)),
        ("a'" * 15, repr("a'" * 10) + "... (30 characters)"),
        (-3, "-3"),
        (10**19, "10000000000000000000"),
        (10**20, "10000000000000000000... (21 characters)"),
        (-(10**5000) + 1, "-9999999999999999999... (5001 characters)"),
        (10**9000, "10000000000000000000... (9001 characters)"),
        (True, "True"),
        (["x" * 30], "['xxxxxxxxxxxxxxxxxx... (34 characters)"),
        (("a", "b"), "('a', 'b')"),
        (("forward",), "('forward',)"),
        (("a", "x" * 30), "('a', 'xxxxxxxxxxxxxxxxxxxx'... (30 characters))"),
    ]:
        assert presentations.shown(value) == text


def memo_free_triangular(gamma):
    """``build_triangular`` on a copy of ``gamma`` made of fresh edges,
    so that every hub chain is built afresh."""
    edges = (GammaEdge(e.u, e.v, e.label, e.orientation) for e in gamma.edges)
    return build_triangular(DefiningGraph(gamma.vertices, edges, gamma.rotations))


def assert_same_presentation(p, q):
    assert p.generators == q.generators
    assert (p.cells, p.hub_records) == (q.cells, q.hub_records)


def test_memoized_hub_chains_build_the_memo_free_presentation():
    from test_smallcancel import CORPUS

    for text in CORPUS.values():
        g = parse_gamma(text)  # the grids and k55 are unoriented: orient them
        forward = {e.key: "forward" for e in g.unoriented_edges()}
        g = resolve_orientations(g, forward)
        fresh = memo_free_triangular(g)
        cold = build_triangular(g)
        assert_same_presentation(cold, fresh)
        warm = build_triangular(g)  # every chain read back from its edge
        assert_same_presentation(warm, fresh)
        assert all(r is s for r, s in zip(warm.hub_records, cold.hub_records))


def test_memo_keeps_labels_and_directions_of_one_pair_apart():
    """One (tail, head) pair at labels 2, 3, 4 and 50, in both label
    orders and both directions, with each edge built twice."""
    for labels in ((2, 3, 4, 50), (50, 4, 3, 2)):
        for tail, head, o in (("a", "b", F), ("b", "a", B)):
            for m in labels:
                g = DefiningGraph(("a", "b"), [("a", "b", m, o)])
                chain = tuple(f"d_{{{tail},{head},{i}}}" for i in range(3, m + 1))
                for _ in range(2):
                    pres = build_triangular(g)
                    assert pres.generators == ("a", "b", f"x_{{{tail},{head}}}", *chain)
                    assert pres.hub_records[0].cycle == (tail, head, *chain)
                    assert pres.hub_records[0].label == m
                    assert_same_presentation(pres, memo_free_triangular(g))


def test_built_presentations_leave_no_hub_chains_behind():
    """A hub chain is cached on its edge only, so it is freed with its
    graph: at the generator cap one chain is about 2.3 MB."""
    import gc
    import tracemalloc

    m = presentations.MAX_GENERATORS - 1
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for i in range(4):
            build_triangular(DefiningGraph((f"a{i}", "b"), [(f"a{i}", "b", m, F)]))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000


def test_graphs_of_one_state_share_their_hub_chains():
    """The sweeps build each state's graph afresh from shared edges, so
    every build after the first reads its chains from those edges."""
    from artinlink.batteries import graph_from_state

    state = (1, 4, 5, 2, 3, 5)  # every code, on K_4
    p, q = (build_triangular(graph_from_state(state, 4)) for _ in range(2))
    assert len(p.hub_records) == 6
    assert all(r is s for r, s in zip(p.hub_records, q.hub_records))


def test_unique_positive_products_across_relators():
    for m, n, p in [(3, 3, 3), (2, 4, 5), (4, 5, 6)]:
        pres = build_triangular(triangle_graph(m, n, p))
        seen = set()
        for r in pres.relators:
            rot = [lt for lt in r.letters]
            pos = [
                (rot[i].gen, rot[(i + 1) % 3].gen)
                for i in range(3)
                if rot[i].exp == 1 and rot[(i + 1) % 3].exp == 1
            ]
            assert len(pos) == 1
            assert pos[0] not in seen
            seen.add(pos[0])


def all_unlabeled_graph_classes(n):
    """Canonical edge sets of graphs on n vertices, one per iso class."""
    import itertools as it

    pairs = list(it.combinations(range(n), 2))
    classes = set()
    for bits in it.product((0, 1), repeat=len(pairs)):
        best = None
        for perm in it.permutations(range(n)):
            mapped = frozenset(
                tuple(sorted((perm[a], perm[b])))
                for (a, b), bit in zip(pairs, bits)
                if bit
            )
            key = tuple(sorted(mapped))
            if best is None or key < best:
                best = key
        classes.add(best)
    return sorted(classes)


def test_generator_relator_count_closed_forms():
    label_patterns = [(2,), (5,), (2, 3, 4, 5), (3, 5, 2, 4)]
    for n in (3, 4, 5):
        for edge_set in all_unlabeled_graph_classes(n):
            for pattern in label_patterns:
                edges = [
                    (f"v{a}", f"v{b}", pattern[i % len(pattern)],
                     Orientation.WILDCARD if pattern[i % len(pattern)] == 2
                     else Orientation.FORWARD)
                    for i, (a, b) in enumerate(edge_set)
                ]
                g = DefiningGraph(tuple(f"v{i}" for i in range(n)), edges)
                pres = build_triangular(g)
                labels = [e.label for e in g.edges]
                assert len(pres.generators) == n + len(labels) + sum(
                    m - 2 for m in labels
                )
                assert len(pres.relators) == sum(labels)


# -- two-generator family and Tietze equivalence ------------------------


def test_family_label_five():
    _, h, i5 = build_two_generator_family(5)
    assert h.relators[0] == rel("x x x a1^-1 x^-1 x^-1 a1^-1")
    assert rel("x^-1 a1 a2") in i5.relators
    assert len(i5.relators) == 5


def test_family_label_four():
    _, h, i4 = build_two_generator_family(4)
    assert h.relators[0] == rel("x x a1 x^-1 x^-1 a1^-1")
    # I_4 is build_triangular's own presentation of the edge, renamed
    edge = DefiningGraph(("a1", "a2"), [("a1", "a2", 4, Orientation.FORWARD)])
    assert i4.cells == build_triangular(edge).cells
    assert i4.generators == ("a1", "a2", "x", "a3", "a4")
    record = presentations.HubRecord("x", ("a1", "a2", "a3", "a4"), 4, ("a1", "a2"))
    assert i4.hub_records == (record,)


def test_alternating_word_and_family_refuse_labels_too_small():
    assert alternating_word("a", "b", 1) == W("a")
    with pytest.raises(ValueError, match="^alternating word needs m >= 1$"):
        alternating_word("a", "b", 0)
    with pytest.raises(ValueError, match="^label must be at least 2$"):
        build_two_generator_family(1)


def test_family_label_two():
    g, h, i2 = build_two_generator_family(2)
    assert g.relators[0] == rel("a1 a2 a1^-1 a2^-1")
    assert h.relators[0] == rel("x a1 x^-1 a1^-1")
    assert set(i2.relators) == {rel("x^-1 a1 a2"), rel("x^-1 a2 a1")}


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 12])
def test_tietze_equivalence_small(m):
    report = verify_tietze_equivalence(m)
    assert report.substitution_ok and report.chain_ok
    assert any("substitute" in t for t in report.traces)


def test_tietze_report_traces_show_elimination():
    report = verify_tietze_equivalence(5)
    assert "a5 = x^-1 x^-1 a1 x x" in report.traces


def test_tietze_chain_direction_reads_the_cells_of_i_m(monkeypatch):
    # a closing cell h^-1 dm (head) instead of h^-1 dm (tail) must fail
    family = presentations.build_two_generator_family

    def bent(m):
        g, h, i_pres = family(m)
        *cells, (hub, u, _) = i_pres.cells
        head = i_pres.generators.index("a2")
        bent_i = presentations.Presentation.from_cells(
            i_pres.generators, [*cells, (hub, u, head)], i_pres.hub_records
        )
        return g, h, bent_i

    monkeypatch.setattr(presentations, "build_two_generator_family", bent)
    for m in range(2, 12):
        report = verify_tietze_equivalence(m)
        assert report.substitution_ok and not report.chain_ok


# -- orientation resolution ---------------------------------------------


def test_resolve_empty_assignment_identity():
    g = triangle_graph(3, 3, 3)
    assert resolve_orientations(g, OrientationAssignment()) == g


def test_resolve_directed_cycle_has_no_source():
    g = DefiningGraph(("a", "b", "c"), [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
    assignment = OrientationAssignment(
        {("a", "b"): "forward", ("b", "c"): "forward", ("a", "c"): "backward"}
    )
    oriented = resolve_orientations(g, assignment)
    outdeg = {v: 0 for v in oriented.vertices}
    for e in oriented.edges:
        outdeg[e.tail] += 1
    assert sorted(outdeg.values()) == [1, 1, 1]


def test_resolve_incomplete_assignment_raises():
    g = DefiningGraph(("a", "b", "c"), [("a", "b", 3), ("b", "c", 3)])
    with pytest.raises(IncompleteAssignmentError):
        resolve_orientations(g, OrientationAssignment({("a", "b"): "forward"}))
    with pytest.raises(IncompleteAssignmentError):
        resolve_orientations(
            g,
            OrientationAssignment(
                {("a", "b"): "forward", ("b", "c"): "forward", ("a", "c"): "forward"}
            ),
        )


@st.composite
def graphs_and_assignments(draw):
    """A graph on 2 to 6 vertices with fixed, wildcard and unoriented
    edges, its rotations reversed or absent, perhaps with its walks
    compiled, and a direction for each unoriented edge, then perhaps
    one key dropped or added or one direction misspelt."""
    names = [f"v{i}" for i in range(draw(st.integers(2, 6)))]
    pairs = list(itertools.combinations(names, 2))
    edges = []
    for u, v in pairs:
        kind = draw(st.sampled_from(["none", "unoriented", "unoriented", F, B, "wild"]))
        if kind == "wild":
            edges.append((u, v, 2, Orientation.WILDCARD))
        elif kind != "none":
            label = draw(st.sampled_from((2, 3, 4)))
            edges.append((u, v, label) if kind == "unoriented" else (u, v, label, kind))
    g = DefiningGraph(names, edges)
    if draw(st.booleans()):
        g = DefiningGraph(names, edges, {v: g.neighbors(v)[::-1] for v in names})
    if draw(st.booleans()):
        g.walks
    keys = [e.key for e in g.unoriented_edges()]
    directions = {k: draw(st.sampled_from(("forward", "backward"))) for k in keys}
    fault = draw(st.sampled_from(["none", "none", "drop", "add", "misspell"]))
    if fault == "drop" and keys:
        del directions[draw(st.sampled_from(keys))]
    elif fault == "add":
        directions[draw(st.sampled_from(pairs))] = "forward"
    elif fault == "misspell" and keys:
        directions[draw(st.sampled_from(keys))] = "forwards"
    return g, directions


@settings(derandomize=True, max_examples=300, deadline=None)
@given(graphs_and_assignments())
def test_resolve_matches_a_full_rebuild(case):
    # resolve_orientations applies the directions in place of the
    # graph's edges; the oracle builds the same graph from scratch
    from oracle_tools import oriented_copy

    g, directions = case
    todo = {e.key for e in g.unoriented_edges()}
    missing, extra = todo - directions.keys(), directions.keys() - todo
    if "forwards" in directions.values():
        with pytest.raises(ValueError, match="must be forward/backward"):
            resolve_orientations(g, directions)
        return
    if missing or extra:
        named = sorted(missing) if missing else sorted(extra)
        message = "no direction for" if missing else "covers non-unoriented"
        with pytest.raises(IncompleteAssignmentError, match=message) as raised:
            resolve_orientations(g, directions)
        assert str(raised.value).endswith(", ".join(map(str, named)))
        return
    fast = resolve_orientations(g, directions)
    full = oriented_copy(g, OrientationAssignment(directions))
    assert fast == full and fast.rotations == full.rotations
    assert fast.unoriented_edges() == full.unoriented_edges() == ()
    for v in g.vertices:
        assert fast.neighbors(v) == full.neighbors(v)
        assert fast.degree(v) == full.degree(v)
    for e in full.edges:
        assert fast.edge(e.v, e.u) == e and fast.has_edge(e.v, e.u)
    assert fast.triangles() == full.triangles()
    assert fast.four_cycles() == full.four_cycles()
    assert fast.walks == full.walks == list(fast.iter_walks())


def test_with_edges_refuses_a_different_key_set():
    g = DefiningGraph(("a", "b", "c"), [("a", "b", 3), ("b", "c", 3)])
    ab, bc = g.edges
    ac = GammaEdge("a", "c", 3)
    for edges in ([ab], [ab, bc, ac], [ab, ac], [ab, ab]):
        with pytest.raises(ValueError, match="own keys"):
            g.with_edges(edges)
    flipped = g.with_edges([GammaEdge("c", "b", 4), ab])
    assert flipped.edges == (ab, GammaEdge("b", "c", 4)) and g.edges == (ab, bc)
    # as many edges as the graph's, one key twice in two directions and
    # one key missing: the sorted keys differ from the graph's
    tri = DefiningGraph(("a", "b", "c"), [("a", "b", 3), ("a", "c", 3), ("b", "c", 3)])
    twice = [GammaEdge("a", "b", 3, F), GammaEdge("a", "b", 3, B), tri.edge("b", "c")]
    with pytest.raises(ValueError, match="own keys"):
        tri.with_edges(twice)


def test_reorientations_share_the_key_index_and_the_walks():
    # an edge's position in ``edges`` is its one identity: a re-orientation
    # keeps every position, so it shares the graph's key index and walks
    g = DefiningGraph(
        ("a", "b", "c", "d"),
        [("a", "b", 3), ("b", "c", 3, F), ("a", "c", 2, "?"), ("c", "d", 4)],
    )
    walks = g.walks
    assignment = {("a", "b"): "backward", ("c", "d"): "forward"}
    resolved = resolve_orientations(g, assignment)
    for h in (resolved, g.with_edges(g.edges[::-1]), g.reversed()):
        assert h._index is g._index and h.walks is walks
    # only the assigned positions change; every other edge is the same object
    for old, new in zip(g.edges, resolved.edges):
        assert (new is old) == (old.key not in assignment)
    for (u, v), d in assignment.items():
        new = GammaEdge(u, v, g.edge(u, v).label, d)
        assert resolved.edge(u, v) == resolved.edge(v, u) == new
        assert resolved.edge(v, u) is resolved.edges[g._index[u, v]]
        assert g.edge(v, u).orientation == Orientation.UNORIENTED


def test_iter_walks_reads_the_graphs_own_step_map():
    class Unread(dict):
        def __getitem__(self, key):
            raise AssertionError("the walks read the key index")

        __contains__ = get = __getitem__

    names = ("a", "b", "c", "d")
    g = DefiningGraph(names, [(u, v, 3) for u, v in itertools.combinations(names, 2)])
    g._index = Unread(g._index)
    walks = list(g.iter_walks())
    # 4 triangles and 3 four-cycles, each step the map's own (index, sign)
    # pair: no key tuple and no step is built per walk
    assert len(walks) == 7
    for cycle, walk in walks:
        pairs = zip(cycle, cycle[1:] + cycle[:1])
        assert all(s is g._step[a][b] for s, (a, b) in zip(walk, pairs))
    assert sum(len(walk) for _, walk in walks) == 24


@st.composite
def walk_graphs(draw):
    """A graph on 0 to 8 vertices, declared in any order, with fixed,
    wildcard and unoriented edges of labels 2 to 4."""
    names = draw(st.permutations(["a", "b", "c", "d", "e", "f", "g", "h"]))
    vertices = names[: draw(st.integers(0, 8))]
    pairs = list(itertools.combinations(vertices, 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = []
    for (u, v), keep in zip(pairs, chosen):
        if keep:
            label = draw(st.integers(2, 4))
            ways = [">", "<", "."] + ["?"] * (label == 2)
            edges.append((u, v, label, draw(st.sampled_from(ways))))
    return DefiningGraph(vertices, edges)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(walk_graphs())
def test_iter_walks_lists_the_cycles_of_the_brute_force_lister(g):
    from oracle_tools import brute_force_walks

    expected = brute_force_walks(g)
    assert list(g.iter_walks()) == expected
    assert g.triangles() == [cycle for cycle, _ in expected if len(cycle) == 3]
    assert g.four_cycles() == [cycle for cycle, _ in expected if len(cycle) == 4]
    assert g.is_triangle_free() == (not expected or len(expected[0][0]) == 4)
    # walks kept on the graph are shared by a re-oriented copy, and read
    assert g.walks == expected and g.reversed().triangles() == g.triangles()


# -- file formats --------------------------------------------------------


GAMMA_TEXT = """\
# triangle with one commuting edge
vertex a
vertex b
vertex c
edge a b 2 ?
edge b c 4 >
edge c a 5 >
"""


def test_parse_gamma_round_trip():
    g = parse_gamma(GAMMA_TEXT)
    assert g == triangle_graph(2, 4, 5)
    assert parse_gamma(gamma_to_text(g)) == g


def test_parse_gamma_json_round_trip():
    g = parse_gamma(GAMMA_TEXT)
    assert gamma_from_json_dict(gamma_to_json_dict(g)) == g


@pytest.mark.parametrize(
    "bad,line",
    [
        ("vertex a\nvertex a\n", 2),
        ("vertex a\nedge a b 3\n", 2),
        ("vertex a\nvertex b\nedge a b x\n", 3),
        ("vertex a\nvertex b\nedge a b 3 !\n", 3),
        ("flurb\n", 1),
        ("vertex a\nvertex b\nedge a b 3 ?\n", 3),
        ("vertex a\nvertex b\nedge a b 3\n\nedge b a 4\n", 5),
        ("edge a c 3\nvertex a\nvertex b\n", 1),
        ("vertex a\nvertex x_{a,b}\n", 2),
        ("vertex a\nvertex b\nedge a b 3\n# b is missing\nrot a:\n", 5),
        ("vertex a\nvertex b\nedge a b 3\nrot a: x y z\nrot a: b\n", 5),
    ],
)
def test_parse_gamma_errors(bad, line):
    with pytest.raises(ParseError) as err:
        parse_gamma(bad)
    assert err.value.line == line


def test_parse_gamma_breaks_lines_at_newline_only():
    # str.splitlines would end the comment at U+2028 and read "more"
    text = "vertex a\nvertex c # note \u2028 more\nedge a c 3 >\nbogus\n"
    with pytest.raises(ParseError) as err:
        parse_gamma(text)
    assert str(err.value) == "line 4: unknown directive 'bogus'"
    for mark in "\x0c", "\x85", "\u2029":
        g = parse_gamma(f"vertex a # one {mark} vertex b\nvertex c\nedge a c 3 >\n")
        assert g.vertices == ("a", "c")


def test_parse_gamma_reads_crlf_files():
    assert parse_gamma(GAMMA_TEXT.replace("\n", "\r\n")) == parse_gamma(GAMMA_TEXT)


def test_a_file_breaks_lines_where_its_text_does(tmp_path, capsys):
    # a lone "\r" ends no line: the parser, the loader and the CLI agree
    path = tmp_path / "cr.gamma"
    path.write_bytes(b"vertex a\rvertex b\nbogus\n")
    message = "line 1: expected: vertex <name>"
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_gamma(path.read_bytes().decode("utf-8"))
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_gamma(str(path))
    assert cli.main(["certify", str(path)]) == 1
    assert capsys.readouterr().err == f"parse error: {message}\n"
    crlf = tmp_path / "crlf.gamma"
    crlf.write_bytes(GAMMA_TEXT.replace("\n", "\r\n").encode("utf-8"))
    assert load_gamma(str(crlf)) == parse_gamma(GAMMA_TEXT)


def test_rotation_error_names_its_line():
    with pytest.raises(ParseError) as err:
        parse_gamma("vertex a\nrot b: a\n")
    assert str(err.value) == "line 2: rotation at undeclared vertex 'b'"
    # a JSON graph has no source line for its rotations
    with pytest.raises(ParseError) as err:
        parse_gamma_json('{"vertices": ["a"], "rotations": {"b": ["a"]}}')
    assert err.value.line is None
    assert str(err.value) == "bad graph object: rotation at undeclared vertex 'b'"


def test_rotation_lines_parse():
    text = GAMMA_TEXT + "rot a: b c\nrot b: a c\nrot c: b a\n"
    g = parse_gamma(text)
    assert g.rotations["a"] == ("b", "c")


def test_rotations_round_trip_through_text():
    g = DefiningGraph(
        ("a", "b", "c", "d"),
        [("a", "b", 3), ("b", "c", 4, F), ("c", "d", 3), ("a", "d", 2)],
        rotations={"a": ("d", "b"), "c": ("b", "d")},
    )
    text = gamma_to_text(g)
    assert text.endswith("rot a: d b\nrot c: b d\n")
    assert parse_gamma(text) == g


@st.composite
def embedded_graphs(draw):
    """A graph on 0 to 5 vertices, some of them isolated, with fixed,
    wildcard and unoriented edges, and no rotation table, an empty one,
    or rotations at some vertices (an empty order at an isolated one)."""
    names = [f"v{i}" for i in range(draw(st.integers(0, 5)))]
    pairs = list(itertools.combinations(names, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
    edges = []
    for u, v in chosen:
        o = draw(st.sampled_from([F, B, Orientation.UNORIENTED, Orientation.WILDCARD]))
        edges.append((u, v, 2 if o == Orientation.WILDCARD else draw(st.integers(2, 5)), o))
    kind = draw(st.sampled_from(["none", "empty", "some"]))
    if kind != "some":
        return DefiningGraph(names, edges, None if kind == "none" else {})
    g = DefiningGraph(names, edges)
    at = draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    return DefiningGraph(names, edges, {v: draw(st.permutations(g.neighbors(v))) for v in at})


@settings(derandomize=True, max_examples=300, deadline=None)
@given(embedded_graphs())
@example(DefiningGraph(("a",), (), rotations={"a": ()}))
@example(DefiningGraph(("a",), (), rotations={}))
def test_graphs_round_trip_through_both_writers(g):
    assert g.rotations is None or len(g.rotations) > 0  # {} is no embedding
    text = gamma_to_text(g)
    assert parse_gamma(text) == g
    assert " \n" not in text  # an empty rotation is "rot v:"
    assert gamma_from_json_dict(gamma_to_json_dict(g)) == g


def test_presentation_text_format():
    pres = triangle_presentation(2, 2, 2)
    text = pres.to_text()
    assert text.splitlines()[0] == "gen: a"
    assert any(line.startswith("rel: ") for line in text.splitlines())


def test_presentation_validation():
    from artinlink import Presentation

    with pytest.raises(ValueError):
        Presentation(("a", "a"), ())  # duplicate generators
    with pytest.raises(ValueError):
        Presentation(("a",), (CyclicWord(W("")),))  # empty relator
    with pytest.raises(ValueError):
        Presentation(("a",), (CyclicWord(W("a b")),))  # undeclared generator


def test_presentation_repr_counts_cells_without_building_relators():
    from artinlink import Presentation

    edge = DefiningGraph(("a", "b"), [("a", "b", 300, F)])
    tri = build_triangular(edge)
    assert repr(tri) == "Presentation(301 generators, 300 relators)"
    assert "relators" not in tri.__dict__
    assert len(tri.relators) == 300
    assert repr(tri) == "Presentation(301 generators, 300 relators)"
    std = build_standard(edge)
    assert repr(std) == "Presentation(2 generators, 1 relators)"
    plain = Presentation(tri.generators, tri.relators)
    assert repr(plain) == repr(tri)
    assert repr(edge) == "DefiningGraph(2 vertices, 1 edges)"
