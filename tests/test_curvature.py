import itertools
import json
from fractions import Fraction

from artinlink import (
    A2,
    B2,
    DefiningGraph,
    Orientation,
    OrientationAssignment,
    assign_metric,
    build_complex,
    build_link,
    build_triangular,
    certify,
    check_link_condition,
    girth,
    triangle_graph,
)
from artinlink.curvature import (
    THEOREM_ORIENTATION,
    THEOREM_TRIANGLE,
    THEOREM_TRIANGLE_FREE,
    VERDICT_INCONCLUSIVE,
    VERDICT_NPC,
)

F, WILD = Orientation.FORWARD, Orientation.WILDCARD


def complex_and_link(gamma):
    pres, _ = build_triangular(gamma)
    k = build_complex(pres)
    return k, build_link(k)


def alternating_square(labels=(3, 3, 3, 3)):
    lu, lw1, lw2, lu2 = labels

    def o(lab):
        return WILD if lab == 2 else F

    return DefiningGraph(
        ("u", "v", "w", "t"),
        [
            ("u", "v", lu, o(lu)),
            ("w", "v", lw1, o(lw1)),
            ("w", "t", lw2, o(lw2)),
            ("u", "t", lu2, o(lu2)),
        ],
    )


# -- metric assignment ---------------------------------------------------


def test_a2_all_angles_third_of_pi():
    k, link = complex_and_link(triangle_graph(3, 4, 5))
    metric = assign_metric(k, link, A2)
    assert all(a == Fraction(1, 3) for a in metric.corner_angles.values())
    assert all(s == 1 for s in metric.one_cell_lengths_sq.values())


def test_b2_angles_and_lengths_single_edge_label_four():
    g = DefiningGraph(("a", "b"), [("a", "b", 4, F)])
    k, link = complex_and_link(g)
    metric = assign_metric(k, link, B2)
    hub = "x_{a,b}"
    assert metric.one_cell_lengths_sq[hub] == 2  # length sqrt(2)
    assert metric.one_cell_lengths_sq["a"] == 1
    angled = link.with_angles(metric.corner_angles)
    middle = [e for e in angled.edges if e.kind == "middle"]
    extreme = [e for e in angled.edges if e.kind != "middle"]
    assert len(middle) == 4 and all(e.angle == Fraction(1, 2) for e in middle)
    assert len(extreme) == 8 and all(e.angle == Fraction(1, 4) for e in extreme)


def test_b2_triangle_angle_sums():
    k, link = complex_and_link(triangle_graph(3, 3, 3))
    metric = assign_metric(k, link, B2)
    for ci in range(len(k.cells)):
        assert sum(metric.corner_angles[(ci, c)] for c in range(3)) == 1


def test_angle_sums_are_checked_without_assert(monkeypatch):
    import pytest

    from artinlink import InternalInconsistencyError, curvature

    k, link = complex_and_link(triangle_graph(3, 3, 3))
    # corners of pi/4 sum to 3*pi/4; the check must not be a bare assert,
    # which python -O strips
    monkeypatch.setattr(curvature, "Fraction", lambda n, d: Fraction(1, 4))
    with pytest.raises(InternalInconsistencyError, match="do not sum to pi"):
        assign_metric(k, link, A2)


def test_corner_angles_must_fit_the_side_lengths(monkeypatch):
    import pytest

    from artinlink import InternalInconsistencyError, curvature

    k, link = complex_and_link(alternating_square((2, 2, 2, 2)))
    # (hub^2, other^2) per scheme: a hub side of length 1 would make the
    # B2 cell equilateral, and one of length sqrt(3) its middle corner
    # obtuse; a hub side of length sqrt(2) is no equilateral A2 cell
    for scheme, lengths_sq in ((B2, (1, 1)), (B2, (3, 1)), (A2, (2, 1))):
        monkeypatch.setitem(curvature._LENGTHS_SQ, scheme, lengths_sq)
        with pytest.raises(InternalInconsistencyError, match="do not fit"):
            assign_metric(k, link, scheme)
    monkeypatch.setitem(curvature._LENGTHS_SQ, B2, (4, 2))  # B2 scaled by sqrt(2)
    assert assign_metric(k, link, B2).one_cell_lengths_sq["u"] == 2


# -- link condition --------------------------------------------------------


def test_link_condition_holds_for_333_a2():
    k, link = complex_and_link(triangle_graph(3, 3, 3))
    res = check_link_condition(link, assign_metric(k, link, A2))
    assert res.holds and res.min_over_pi == Fraction(2)


def test_link_condition_fails_for_245_a2():
    k, link = complex_and_link(triangle_graph(2, 4, 5))
    res = check_link_condition(link, assign_metric(k, link, A2))
    assert not res.holds
    assert res.min_over_pi == Fraction(4, 3)
    assert res.witness.length == 4


def test_link_condition_square_b2_tight():
    k, link = complex_and_link(alternating_square())
    metric = assign_metric(k, link, B2)
    res = check_link_condition(link, metric)
    assert res.holds and res.min_over_pi == Fraction(2)
    angled = link.with_angles(metric.corner_angles)
    assert res.witness.middle_edge_count(angled) == 4


# -- certification -----------------------------------------------------------


def test_certify_333_cites_triangle_theorem():
    report = certify(triangle_graph(3, 3, 3))
    assert report.verdict == VERDICT_NPC
    assert report.biautomatic
    assert report.scheme == A2
    assert report.theorem_cited == THEOREM_TRIANGLE
    assert report.girth == 6
    assert report.min_angle_over_pi == Fraction(2)
    assert report.small_cancellation == (3, 6)


def test_certify_square_2323_triangle_free_b2():
    g = alternating_square((2, 3, 2, 3))
    report = certify(g)
    assert report.verdict == VERDICT_NPC
    assert report.scheme == B2
    assert report.theorem_cited == THEOREM_TRIANGLE_FREE
    assert report.min_angle_over_pi >= Fraction(2)


def test_certify_alternating_square_all_threes_falls_back_to_b2():
    # labels allow A2, but the type-B pattern rules the A2 branch out;
    # the triangle-free branch still certifies, tightly.
    report = certify(alternating_square())
    assert report.scheme == B2
    assert report.verdict == VERDICT_NPC
    assert report.theorem_cited == THEOREM_TRIANGLE_FREE
    assert report.min_angle_over_pi == Fraction(2)
    assert report.forbidden and report.forbidden[0].kind == "B"


def test_certify_245_triangle_inconclusive():
    report = certify(triangle_graph(2, 4, 5))
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert not report.biautomatic
    assert report.scheme is None
    assert report.girth == 4
    assert report.forbidden and report.forbidden[0].kind == "A"
    assert report.min_angle_over_pi == Fraction(4, 3)  # A2 diagnostics


def test_certify_unoriented_triangle_searches():
    g = DefiningGraph(("a", "b", "c"), [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
    report = certify(g)
    assert report.verdict == VERDICT_NPC
    assert report.scheme == A2
    assert report.orientation is not None
    assert "orientation found by search" in report.notes


def test_certify_larger_graph_cites_orientation_theorem():
    g = DefiningGraph(
        ("a", "b", "c", "d"),
        [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", 3)],
    )
    report = certify(g)
    assert report.verdict == VERDICT_NPC
    assert report.theorem_cited == THEOREM_ORIENTATION


def test_certify_transitive_triangle_auto_reorients():
    # given orientation is bad, but searching is only done when edges
    # are unoriented; a fully oriented bad graph stays bad
    g = DefiningGraph(
        ("a", "b", "c"),
        [("a", "b", 3, F), ("a", "c", 3, F), ("b", "c", 3, F)],
    )
    report = certify(g)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.forbidden


def test_certify_forced_b2_on_large_triangle():
    # B2 on the directed triangle fails: the all-top hexagon over the
    # three hubs has six pi/4 corners, total 3/2 pi.
    report = certify(triangle_graph(3, 3, 3), scheme=B2)
    assert report.scheme == B2
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.min_angle_over_pi == Fraction(3, 2)
    assert not report.biautomatic


def test_certify_forced_a2_on_245():
    report = certify(triangle_graph(2, 4, 5), scheme=A2)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.min_angle_over_pi == Fraction(4, 3)


def test_certify_edgeless_graph_is_vacuously_npc():
    g = DefiningGraph(("a", "b"), [])
    report = certify(g)
    assert report.verdict == VERDICT_NPC
    assert report.girth is None
    assert report.min_angle_over_pi is None


def test_certify_runs_the_shortest_cycle_engine_once(monkeypatch):
    from artinlink import cycles

    engine = cycles._shortest_cycle
    runs = []

    def counted(link, weight=None):
        runs.append("hops" if weight is None else "weights")
        return engine(link, weight)

    monkeypatch.setattr(cycles, "_shortest_cycle", counted)
    k33 = DefiningGraph(
        ("a", "b", "c", "x", "y", "z"),
        [(u, v, 3, F) for u in "abc" for v in "xyz"],
    )
    for gamma, scheme, expected in [
        # one angle everywhere: the girth answers the min-angle question
        (triangle_graph(3, 3, 3), A2, ["hops"]),
        (triangle_graph(2, 4, 5), None, ["hops"]),  # A2 diagnostics
        # girth, then one weighted run for the B2 angles
        (k33, B2, ["hops", "weights"]),
    ]:
        runs.clear()
        assert certify(gamma).scheme == scheme
        assert runs == expected


def test_certify_with_explicit_assignment():
    g = DefiningGraph(("a", "b", "c"), [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
    cyclic = OrientationAssignment(
        {("a", "b"): "forward", ("b", "c"): "forward", ("a", "c"): "backward"}
    )
    report = certify(g, assignment=cyclic)
    assert report.verdict == VERDICT_NPC
    assert report.orientation == cyclic


def test_a2_condition_iff_girth_at_least_six():
    graphs = [
        triangle_graph(3, 3, 3),
        triangle_graph(2, 4, 5),
        alternating_square(),
        DefiningGraph(("a", "b"), [("a", "b", 2, WILD)]),
        DefiningGraph(("a", "b"), [("a", "b", 5, F)]),
    ]
    for g in graphs:
        k, link = complex_and_link(g)
        res = check_link_condition(link, assign_metric(k, link, A2))
        gv, _ = girth(link)
        assert res.holds == (gv is None or gv >= 6)


# -- mechanized triangle-free theorem at small scale ---------------------------


def triangle_free_graphs_up_to_four(labels=(2, 3, 4)):
    names = ("v0", "v1", "v2", "v3")
    pairs = list(itertools.combinations(names, 2))
    states = [(0, None)] + [
        (lab, o) for lab in labels for o in ((WILD,) if lab == 2 else (F, Orientation.BACKWARD))
    ]
    for combo in itertools.product(states, repeat=len(pairs)):
        edges = []
        for (u, v), (lab, o) in zip(pairs, combo):
            if lab == 0:
                continue
            edges.append((u, v, lab, o if lab != 2 else WILD))
        g = DefiningGraph(names, edges)
        if g.is_triangle_free():
            yield g


def test_b2_theorem_mechanized_up_to_four_vertices():
    seen = 0
    for g in triangle_free_graphs_up_to_four(labels=(2, 3)):
        k, link = complex_and_link(g)
        metric = assign_metric(k, link, B2)
        res = check_link_condition(link, metric)
        assert res.holds, f"B2 link condition failed on {g.edges}"
        seen += 1
    assert seen > 100


def test_b2_loop_structure_sub_checks():
    from artinlink import enumerate_short_loops

    for g in [
        alternating_square(),
        alternating_square((2, 3, 4, 3)),
        DefiningGraph(
            ("a", "b", "c", "d", "e"),
            [("a", "b", 3, F), ("b", "c", 2, WILD), ("c", "d", 4, F),
             ("d", "e", 3, F), ("a", "e", 3, F)],
        ),
    ]:
        assert g.is_triangle_free()
        k, link = complex_and_link(g)
        metric = assign_metric(k, link, B2)
        angled = link.with_angles(metric.corner_angles)
        for lp in enumerate_short_loops(angled, 6):
            middles = lp.middle_edge_count(angled)
            if lp.length == 4:
                assert middles == 4
            elif lp.length == 6:
                assert middles >= 2


# -- exactness and serialization ------------------------------------------------


def test_no_floats_anywhere_in_report():
    report = certify(triangle_graph(3, 3, 3))
    assert isinstance(report.min_angle_over_pi, Fraction)

    def no_floats(obj):
        if isinstance(obj, float):
            return False
        if isinstance(obj, dict):
            return all(no_floats(v) for v in obj.values())
        if isinstance(obj, list):
            return all(no_floats(v) for v in obj)
        return True

    assert no_floats(report.to_json_dict())


def test_json_report_round_trips():
    for g in (triangle_graph(3, 3, 3), triangle_graph(2, 4, 5)):
        report = certify(g)
        text = json.dumps(report.to_json_dict(), indent=2)
        assert json.dumps(json.loads(text), indent=2) == text


def test_min_angle_printed_as_rational_string():
    report = certify(triangle_graph(2, 4, 5))
    assert report.to_json_dict()["min_angle_over_pi"] == "4/3"
