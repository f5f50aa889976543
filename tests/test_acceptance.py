"""Acceptance suite: one test per criterion, each printing a PASS line.

Runtimes are asserted where the criterion states one.  All angle
comparisons are exact Fraction arithmetic; nothing here touches
floating point.
"""

import itertools
import time
from fractions import Fraction

from artinlink import (
    B2,
    DefiningGraph,
    Orientation,
    assign_metric,
    build_complex,
    build_link,
    build_triangular,
    certify,
    check_link_condition,
    check_conditions,
    detect_forbidden,
    enumerate_short_loops,
    girth,
    min_angle_cycle,
    orient_from_rotation_system,
    resolve_orientations,
    triangle_graph,
    triangle_presentation,
    verify_tietze_equivalence,
)
from artinlink.batteries import (
    battery_pattern_oracle,
    battery_triangle_free_b2,
    middle_decomposition,
)

PROCESSES = 2


def classic_link(m, n, p):
    pres, _ = triangle_presentation(m, n, p)
    return build_link(build_complex(pres))


def test_acceptance_01_two_generator_equivalences():
    start = time.perf_counter()
    for m in range(2, 51):
        report = verify_tietze_equivalence(m)
        assert report.substitution_ok, f"substitution direction failed at {m}"
        assert report.chain_ok, f"chain direction failed at {m}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"battery took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 01 PASS: equivalences verified for m=2..50 in {elapsed:.2f}s")


def test_acceptance_02_triangular_presentation_counts():
    for m, n, p in itertools.product((2, 3, 4, 5, 6), repeat=3):
        pres, records = build_triangular(triangle_graph(m, n, p))
        assert len(pres.generators) == m + n + p
        assert len(pres.relators) == m + n + p
        assert sorted(rec.label for rec in records) == sorted((m, n, p))
    print("ACCEPTANCE 02 PASS: generator/relator counts exact for m,n,p in 2..6")


def test_acceptance_03_short_loops_girth_and_middle_subgraph():
    start = time.perf_counter()
    for m, n, p in itertools.product((3, 4, 5, 6), repeat=3):
        link = classic_link(m, n, p)
        value, witness = girth(link)
        assert value == 6, f"girth {value} at ({m},{n},{p})"
        assert witness.length == 6
        singles, chains, clean = middle_decomposition(link)
        assert clean and chains == 3 and singles == m + n + p - 9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"battery took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 03 PASS: 64 links have girth 6 and the stated middle "
        f"decomposition in {elapsed:.2f}s"
    )


def test_acceptance_04_the_245_example():
    link = classic_link(2, 4, 5)
    value, _ = girth(link)
    assert value == 4
    loops = enumerate_short_loops(link, 4)

    def cycle_names(seq):
        n = len(seq)
        forms = []
        for s in (list(seq), list(reversed(seq))):
            for i in range(n):
                forms.append(tuple(s[i:] + s[:i]))
        return min(forms)

    found = {cycle_names([v.bar_name for v in lp.vertices]) for lp in loops}
    expected = {
        cycle_names(["a_bar", "b", "y", "c"]),
        cycle_names(["a_bar", "b", "c_bar", "z_bar"]),
    }
    assert found == expected
    print("ACCEPTANCE 04 PASS: girth(L_245) = 4 with exactly the two known loops")


def test_acceptance_05_radius_two_neighborhoods_are_trees():
    link = classic_link(5, 5, 5)
    checked = 0
    for v in link.vertices:
        if v.level in (1, 4):
            assert link.neighborhood(v, 2).is_forest(), f"cycle near {v.bar_name}"
            checked += 1
    assert checked == 6
    print("ACCEPTANCE 05 PASS: all 6 top/bottom radius-2 neighborhoods in "
          "L_555 are trees")


def test_acceptance_06_pattern_girth_oracle_equivalence():
    start = time.perf_counter()
    result = battery_pattern_oracle(
        max_vertices=5, wildcard_sweep=True, processes=PROCESSES
    )
    elapsed = time.perf_counter() - start
    assert result.ok, result.failures[:5]
    assert result.cases == 124_378
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 06 PASS: pattern detection matches link girth on "
        f"{result.cases} graph classes (wildcard sweep included) in {elapsed:.1f}s"
    )


def test_acceptance_07_triangle_free_b2_at_desk_scale():
    start = time.perf_counter()
    result = battery_triangle_free_b2(max_vertices=5, processes=PROCESSES)
    elapsed = time.perf_counter() - start
    assert result.ok, result.failures[:5]
    assert result.cases == 4_487
    assert elapsed < 5.0, f"sweep took {elapsed:.1f}s"

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
    angled = link.with_angles(assign_metric(k, link, B2).corner_angles)
    value, witness = min_angle_cycle(angled)
    assert value == Fraction(2)
    assert witness.length == 4
    assert witness.middle_edge_count(angled) == 4
    print(
        f"ACCEPTANCE 07 PASS: B2 minimum is >= 2*pi on {result.cases} "
        f"triangle-free classes in {elapsed:.1f}s; alternating square is "
        f"tight via 4 middles"
    )


def test_acceptance_08_small_cancellation_conditions():
    for m, n, p in itertools.product((3, 4, 5, 6), repeat=3):
        pres, _ = triangle_presentation(m, n, p)
        link = build_link(build_complex(pres))
        cond = check_conditions(pres, link)
        assert (cond.c_value, cond.t_value) == (3, 6), (m, n, p)
    pres, _ = triangle_presentation(2, 4, 5)
    link = build_link(build_complex(pres))
    cond = check_conditions(pres, link)
    assert (cond.c_value, cond.t_value) == (3, 4)
    print("ACCEPTANCE 08 PASS: C(3)-T(6) on the 64 large triangles and "
          "C(3)-T(4) on the 2,4,5 triangle")


def test_acceptance_09_planar_checkerboard_example():
    # Even-degree plane graphs whose short embedded loops all bound
    # faces, so the checkerboard orientation avoids both patterns.
    bowtie = DefiningGraph(
        ("c", "p", "q", "r", "s"),
        [("c", "p", 3), ("c", "q", 3), ("p", "q", 3),
         ("c", "r", 3), ("c", "s", 3), ("r", "s", 3)],
        rotations={"c": ("p", "q", "r", "s")},
    )
    square = DefiningGraph(
        ("a", "b", "c", "d"),
        [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", 3)],
    )
    for gamma in (bowtie, square):
        assignment = orient_from_rotation_system(gamma)
        oriented = resolve_orientations(gamma, assignment)
        assert detect_forbidden(oriented) == []
        report = certify(oriented)
        assert report.verdict == "NonPositivelyCurved"
        assert report.scheme == "A2"
        assert report.min_angle_over_pi >= Fraction(2)
    print("ACCEPTANCE 09 PASS: checkerboard orientations of even-degree "
          "plane graphs certify as non-positively curved under A2")


def test_acceptance_10_exactness_of_angle_arithmetic():
    checks = []
    for gamma in (triangle_graph(3, 3, 3), triangle_graph(2, 4, 5)):
        report = certify(gamma)
        assert isinstance(report.min_angle_over_pi, Fraction)
        payload = report.to_json_dict()
        assert isinstance(payload["min_angle_over_pi"], str)
        checks.append(payload["min_angle_over_pi"])

        def no_floats(obj):
            if isinstance(obj, float):
                return False
            if isinstance(obj, dict):
                return all(no_floats(v) for v in obj.values())
            if isinstance(obj, list):
                return all(no_floats(v) for v in obj)
            return True

        assert no_floats(payload)
    pres, _ = triangle_presentation(3, 3, 3)
    k = build_complex(pres)
    link = build_link(k)
    res = check_link_condition(link, assign_metric(k, link, B2))
    assert isinstance(res.min_over_pi, Fraction)
    assert checks == ["2", "4/3"]
    print("ACCEPTANCE 10 PASS: every reported angle is an exact rational "
          "multiple of pi")
