import itertools
import json
import time
from fractions import Fraction

from artinlink import (
    A2,
    B2,
    DefiningGraph,
    Orientation,
    OrientationAssignment,
    assign_metric,
    certify,
    check_link_condition,
    girth,
    link_of,
    min_angle_cycle,
    resolve_orientations,
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


def corner_angles(metric):
    """The metric's corner angles over pi, as exact fractions."""
    return tuple(Fraction(w, metric.angle_unit) for w in metric.corner_weights)


def angled_link(link, metric):
    """``link`` with ``metric``'s corner weights: edge ``ei`` is corner
    ``ei % 3`` of its cell."""
    weight = metric.corner_weights * len(link.complex.cells)
    return link.with_angles(weight, metric.angle_unit)


def test_a2_all_angles_third_of_pi():
    metric = assign_metric(link_of(triangle_graph(3, 4, 5)), A2)
    assert (metric.corner_weights, metric.angle_unit) == ((1, 1, 1), 3)
    assert corner_angles(metric) == (Fraction(1, 3),) * 3
    assert metric.lengths_sq == (1, 1)  # every 1-cell, hub or not


def test_b2_angles_and_lengths_single_edge_label_four():
    g = DefiningGraph(("a", "b"), [("a", "b", 4, F)])
    link = link_of(g)
    metric = assign_metric(link, B2)
    assert link.complex.hubs == {"x_{a,b}"}
    assert metric.lengths_sq == (2, 1)  # hub sqrt(2), "a" and the rest 1
    angled = angled_link(link, metric)
    middle = [e for e in angled.edges if e.kind == "middle"]
    extreme = [e for e in angled.edges if e.kind != "middle"]
    assert len(middle) == 4 and all(e.angle == Fraction(1, 2) for e in middle)
    assert len(extreme) == 8 and all(e.angle == Fraction(1, 4) for e in extreme)


def test_b2_triangle_angle_sums():
    metric = assign_metric(link_of(triangle_graph(3, 3, 3)), B2)
    assert (metric.corner_weights, metric.angle_unit) == ((1, 2, 1), 4)
    assert corner_angles(metric) == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    assert sum(corner_angles(metric)) == 1


def test_angle_sums_are_checked_without_assert(monkeypatch):
    import pytest

    from artinlink import InternalInconsistencyError, curvature

    link = link_of(triangle_graph(3, 3, 3))
    # corners of pi/4 sum to 3*pi/4; the check must not be a bare assert,
    # which python -O strips
    monkeypatch.setitem(curvature._METRICS, A2, ((1, 1), (1, 1, 1), 4))
    with pytest.raises(InternalInconsistencyError, match="do not sum to pi"):
        assign_metric(link, A2)


def test_corner_angles_must_fit_the_side_lengths(monkeypatch):
    import pytest

    from artinlink import InternalInconsistencyError, curvature

    link = link_of(alternating_square((2, 2, 2, 2)))
    # (hub^2, other^2) per scheme, with the scheme's own corners: a hub
    # side of length 1 would make the B2 cell equilateral, and one of
    # length sqrt(3) its middle corner obtuse; a hub side of length
    # sqrt(2) is no equilateral A2 cell
    metrics = dict(curvature._METRICS)
    for scheme, lengths_sq in ((B2, (1, 1)), (B2, (3, 1)), (A2, (2, 1))):
        _, corners, unit = metrics[scheme]
        monkeypatch.setitem(curvature._METRICS, scheme, (lengths_sq, corners, unit))
        with pytest.raises(InternalInconsistencyError, match="do not fit"):
            assign_metric(link, scheme)
    # B2 scaled by sqrt(2)
    monkeypatch.setitem(curvature._METRICS, B2, ((4, 2),) + metrics[B2][1:])
    assert "u" not in link.complex.hubs
    assert assign_metric(link, B2).lengths_sq == (4, 2)


def test_metric_and_link_weights_build_no_fraction(monkeypatch):
    """Angles stay integers from the metric to the loop engine; a
    Fraction is built only for a value that leaves it."""
    link = link_of(triangle_graph(3, 3, 3))

    def refused(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refused)
    angled = {}
    for scheme in (A2, B2):
        angled[scheme] = angled_link(link, assign_metric(link, scheme))
        assert {type(w) for w in angled[scheme].weight} == {int}
    monkeypatch.undo()
    assert min_angle_cycle(angled[A2])[0] == Fraction(2)  # girth 6 times pi/3
    assert min_angle_cycle(angled[B2])[0] == Fraction(3, 2)


def test_unknown_scheme_is_refused():
    import pytest

    with pytest.raises(ValueError, match="^unknown metric scheme 'C3'$"):
        assign_metric(link_of(triangle_graph(3, 3, 3)), "C3")
    with pytest.raises(ValueError, match="^unknown scheme 'C3'$"):
        certify(triangle_graph(3, 3, 3), scheme="C3")


def test_metric_needs_a_link_built_from_cells():
    import pytest

    from artinlink import InternalInconsistencyError

    link = link_of(triangle_graph(3, 3, 3))
    part = link.middle_subgraph()
    with pytest.raises(InternalInconsistencyError, match="not built from cells"):
        assign_metric(part, A2)
    with pytest.raises(InternalInconsistencyError, match="not built from cells"):
        check_link_condition(part, assign_metric(link, A2))


# -- link condition --------------------------------------------------------


def test_link_condition_holds_for_333_a2():
    link = link_of(triangle_graph(3, 3, 3))
    res = check_link_condition(link, assign_metric(link, A2))
    assert res.holds and res.min_over_pi == Fraction(2)


def test_link_condition_fails_for_245_a2():
    link = link_of(triangle_graph(2, 4, 5))
    res = check_link_condition(link, assign_metric(link, A2))
    assert not res.holds
    assert res.min_over_pi == Fraction(4, 3)
    assert res.witness.length == 4


def test_link_condition_square_b2_tight():
    link = link_of(alternating_square())
    res = check_link_condition(link, assign_metric(link, B2))
    assert res.holds and res.min_over_pi == Fraction(2)
    assert res.witness.middle_edge_count(link) == 4


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


def test_one_hop_search_per_link_in_any_order(monkeypatch):
    from artinlink import cycles

    engine = cycles._shortest_cycle
    runs = []

    def counted(link, weight=None):
        if weight is None:
            runs.append(link)
        return engine(link, weight)

    def a2(link):
        return link.with_angles([1] * len(link.ends), 3)

    monkeypatch.setattr(cycles, "_shortest_cycle", counted)
    queries = {
        "girth": girth,
        "condition": lambda link: check_link_condition(link, assign_metric(link, A2)),
        "angled": lambda link: min_angle_cycle(a2(link)),
    }
    k33 = DefiningGraph(
        ("a", "b", "c", "x", "y", "z"),
        [(u, v, 3, F) for u in "abc" for v in "xyz"],
    )
    # (3, 3, 3): girth 6 and a middle forest; K3,3: a middle loop of its own
    for gamma in (triangle_graph(3, 3, 3), k33):
        answers = []
        for order in itertools.permutations(queries):
            link = link_of(gamma)
            runs.clear()
            answers.append({name: queries[name](link) for name in order})
            assert len(runs) == 1  # on the link, or on its angled copy
        assert all(a == answers[0] for a in answers)
        g, loop = answers[0]["girth"]
        condition = answers[0]["condition"]
        assert condition.min_over_pi == Fraction(g, 3) == answers[0]["angled"][0]
        assert condition.witness.vertices == loop.vertices
        # a part is its own graph: its own search, its own answer
        part = link.middle_subgraph()
        length, ids, _ = engine(part)  # not counted
        part_g, part_loop = girth(part)
        value, witness = min_angle_cycle(a2(part))
        assert len(runs) == 2 and runs[1] is part
        assert part_g == length
        if ids is None:
            assert part_loop is witness is value is None
        else:
            assert tuple(map(part.vertices.index, part_loop.vertices)) == ids
            assert value == Fraction(length, 3)
            assert witness.vertices == part_loop.vertices


def test_one_edge_at_the_generator_cap_certifies_within_two_seconds():
    from artinlink.presentations import MAX_GENERATORS

    # two vertices, one hub and label - 2 chain generators
    label = MAX_GENERATORS - 1
    gamma = DefiningGraph(("a", "b"), [("a", "b", label, F)])
    start = time.perf_counter()
    report = certify(gamma)
    elapsed = time.perf_counter() - start
    assert (report.verdict, report.girth) == (VERDICT_NPC, 6)
    assert report.min_angle_over_pi == 2
    assert elapsed < 2.0, f"certify took {elapsed:.2f}s"


def test_hub_star_loops_at_the_generator_cap_search_within_two_seconds():
    from test_cycles import late_hub_loops, metric_link

    from artinlink.cycles import _shortest_cycle
    from artinlink.presentations import MAX_GENERATORS, build_triangular

    # every least loop runs through the hub of the first edge, whose
    # star of about 2 * label vertices holds the first ids and lies
    # within half the least key of each least loop
    label = MAX_GENERATORS - 6
    gamma = late_hub_loops(label)
    assert len(build_triangular(gamma).generators) == MAX_GENERATORS
    link = link_of(gamma)
    for weight in (None, metric_link(link, B2).weight):
        start = time.perf_counter()
        key, ids, _ = _shortest_cycle(link, weight)
        elapsed = time.perf_counter() - start
        assert len(ids) == 4 and ids[0] >= 2 * label
        assert elapsed < 2.0, f"the loop search took {elapsed:.2f}s"


def test_certify_b2_of_a_late_hub_star_within_half_a_second(tmp_path, capsys):
    from test_cycles import late_hub_loops

    from artinlink import cli
    from artinlink.gamma_io import gamma_to_text

    path = tmp_path / "hub.gamma"
    path.write_text(gamma_to_text(late_hub_loops(4000)))
    start = time.perf_counter()
    assert cli.main(["certify", str(path), "--scheme", "b2"]) == 0
    elapsed = time.perf_counter() - start
    assert "min angle over pi: 3/2" in capsys.readouterr().out
    assert elapsed < 0.5, f"certify took {elapsed:.2f}s"


def test_certify_with_explicit_assignment():
    g = DefiningGraph(("a", "b", "c"), [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
    cyclic = OrientationAssignment(
        {("a", "b"): "forward", ("b", "c"): "forward", ("a", "c"): "backward"}
    )
    report = certify(resolve_orientations(g, cyclic))
    assert report.verdict == VERDICT_NPC
    # nothing was left to search, so the report names no completion
    assert report.orientation is None


def test_a2_condition_iff_girth_at_least_six():
    graphs = [
        triangle_graph(3, 3, 3),
        triangle_graph(2, 4, 5),
        alternating_square(),
        DefiningGraph(("a", "b"), [("a", "b", 2, WILD)]),
        DefiningGraph(("a", "b"), [("a", "b", 5, F)]),
    ]
    for g in graphs:
        link = link_of(g)
        res = check_link_condition(link, assign_metric(link, A2))
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
        link = link_of(g)
        res = check_link_condition(link, assign_metric(link, B2))
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
        link = link_of(g)
        angled = angled_link(link, assign_metric(link, B2))
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
