import itertools

import pytest
from oracle_tools import brute_force_pieces, symmetrize
from test_complex_link import sweep_presentations

from artinlink import (
    CyclicWord,
    DefiningGraph,
    FreeWord,
    HubRecord,
    InternalInconsistencyError,
    Orientation,
    Presentation,
    build_complex,
    build_link,
    build_standard,
    certify,
    check_conditions,
    compute_pieces,
    curvature,
    girth,
    link_of,
    parse_gamma,
    triangle_graph,
    triangle_presentation,
)
from artinlink.smallcancel import CONDITION_CAP

W = FreeWord.parse

F, WILD = Orientation.FORWARD, Orientation.WILDCARD


def rel(text):
    return CyclicWord(W(text))


def assert_matches_brute_force(link, cond=None):
    """The piece table and C value from the cells of ``link`` equal the
    oracle's on its presentation."""
    pieces, max_len, decompositions = brute_force_pieces(link.complex.presentation)
    table = compute_pieces(link)
    assert (table.pieces, table.max_piece_len) == (pieces, max_len)
    assert table.decompositions == decompositions
    finite = [n for n in decompositions.values() if n is not None]
    c_value = min(min(finite), CONDITION_CAP) if finite else CONDITION_CAP
    cond = cond or check_conditions(link, None)  # no girth search
    assert cond.c_value == c_value


def test_symmetrize_single_relator():
    p = Presentation(("a", "b"), (rel("a b a^-1 b^-1"),))
    sym = symmetrize(p)
    assert set(sym) == {rel("a b a^-1 b^-1"), rel("a b a^-1 b^-1").inverse()}


def test_symmetrize_count_333():
    pres = triangle_presentation(3, 3, 3)
    assert len(symmetrize(pres)) == 18


def test_no_triangular_relator_is_its_own_inverse():
    for m, n, p in [(2, 2, 2), (3, 4, 5), (2, 4, 5)]:
        pres = triangle_presentation(m, n, p)
        for r in pres.relators:
            assert r != r.inverse()


def test_pieces_of_triangular_presentations_have_length_one():
    for m, n, p in itertools.product((2, 3, 4, 5), repeat=3):
        table = compute_pieces(link_of(triangle_graph(m, n, p)))
        assert table.max_piece_len == 1, (m, n, p)


def test_pieces_closed_under_inversion():
    for gamma in (triangle_graph(3, 3, 3), triangle_graph(2, 4, 5)):
        table = compute_pieces(link_of(gamma))
        pieces = set(table.pieces)
        assert all(w.inverse() in pieces for w in pieces)


def test_pieces_repeated_subword_unit_case():
    p = Presentation(("a", "b"), (rel("a b a b"),))
    pieces, max_len, decompositions = brute_force_pieces(p)
    assert W("a b") in pieces
    assert max_len == 4  # the whole relator repeats at offset 2
    assert decompositions[rel("a b a b")] == 1


def test_pieces_of_standard_presentation_are_longer():
    pres = build_standard(triangle_graph(3, 3, 3))
    assert brute_force_pieces(pres)[1] >= 2


def test_check_conditions_c3_t6_large_triangles():
    for m, n, p in [(3, 3, 3), (4, 5, 6), (6, 6, 6)]:
        link = build_link(build_complex(triangle_presentation(m, n, p)))
        assert check_conditions(link, girth(link)[0]) == (3, 6)


def test_check_conditions_245():
    link = build_link(build_complex(triangle_presentation(2, 4, 5)))
    cond = check_conditions(link, girth(link)[0])
    assert cond == (3, 4)
    assert cond.c_value >= 3 and cond.t_value < 6


def test_check_conditions_caps_on_pieceless_relator():
    rec = HubRecord("x", ("a", "b"), 1, ("a", "b"))
    p = Presentation.from_cells(("x", "a", "b"), [(0, 1, 2)], [rec])
    link = build_link(build_complex(p))
    cond = check_conditions(link, girth(link)[0])
    assert cond == (12, 12)
    assert_matches_brute_force(link, cond)


def test_t_value_equals_girth():
    for m, n, p in [(3, 3, 3), (2, 4, 5), (2, 2, 2)]:
        gamma = triangle_graph(m, n, p)
        t_value = certify(gamma).small_cancellation.t_value
        assert t_value == girth(link_of(gamma))[0]
    assert check_conditions(link_of(triangle_graph(2, 2, 2)), None).t_value == 12


def test_max_piece_len_one_for_small_graphs():
    names = ("v0", "v1", "v2", "v3")
    pairs = list(itertools.combinations(names, 2))
    for combo in itertools.product((0, 2, 3), repeat=len(pairs)):
        edges = []
        for (u, v), lab in zip(pairs, combo):
            if lab == 0:
                continue
            edges.append((u, v, lab, WILD if lab == 2 else F))
        if not edges:
            continue
        table = compute_pieces(link_of(DefiningGraph(names, edges)))
        assert table.max_piece_len == 1


def test_piece_table_text_dump_is_sorted_and_stable():
    link = build_link(build_complex(triangle_presentation(2, 2, 2)))
    table = compute_pieces(link)
    assert table.to_text() == compute_pieces(link).to_text()
    assert table.to_text().startswith("max piece length: 1")


# -- the counts against the brute-force oracle --------------------------------


def _grid(n):
    lines = [f"vertex v{i}_{j}" for i in range(n) for j in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        if i + 1 < n:
            lines.append(f"edge v{i}_{j} v{i + 1}_{j} 3")
        if j + 1 < n:
            lines.append(f"edge v{i}_{j} v{i}_{j + 1} 3")
    return "\n".join(lines)


def _complete_bipartite(n, direction):
    lines = [f"vertex a{i}" for i in range(n)] + [f"vertex b{i}" for i in range(n)]
    lines += [f"edge a{i} b{j} 3 {direction}" for i in range(n) for j in range(n)]
    return "\n".join(lines)


def _triangle(m, n, p):
    return f"vertex a\nvertex b\nvertex c\nedge a b {m} >\nedge b c {n} >\nedge c a {p} >"


# The certify corpus of bench/workloads.py.
CORPUS = {
    "grid4": _grid(4),
    "grid8": _grid(8),
    "grid12": _grid(12),
    "k55": _complete_bipartite(5, "."),
    "k88": _complete_bipartite(8, ">"),
    "tri345": _triangle(3, 4, 5),
    "tri50": _triangle(50, 50, 50),
    "tri200": _triangle(200, 200, 200),
}


def test_pieces_match_brute_force_on_the_certify_corpus(monkeypatch):
    seen = []

    def spy(link, *args):
        cond = check_conditions(link, *args)
        seen.append((link, cond))
        return cond

    monkeypatch.setattr(curvature, "check_conditions", spy)
    for text in CORPUS.values():
        certify(parse_gamma(text))
    assert len(seen) == len(CORPUS)
    for link, cond in seen:
        assert_matches_brute_force(link, cond)
        assert cond.c_value == 3


def test_pieces_match_brute_force_on_sweep_presentations():
    cases = 0
    for pres in sweep_presentations():
        assert_matches_brute_force(build_link(build_complex(pres)))
        cases += 1
    assert cases == 3097


# Cells over the generators x, y (hubs), a, b, c (ids 0 to 4).
HAND_BUILT = [
    # one cell: no letter repeats, so no pieces
    [(0, 2, 3)],
    # a label-2 hub: every letter is a piece
    [(0, 2, 3), (0, 3, 2)],
    # a partial chain: x and b are pieces, a and c are not
    [(0, 2, 3), (0, 3, 4)],
    # a relator of pieces next to one with no piece but a
    [(0, 2, 3), (0, 3, 2), (1, 2, 4)],
    # y^-1 c c is 3 pieces, its c twice; x^-1 a b is none
    [(0, 2, 3), (1, 4, 4), (1, 3, 2)],
]
HUBS = (
    HubRecord("x", ("a", "b"), 2, ("a", "b")),
    HubRecord("y", ("b", "c"), 2, ("b", "c")),
)


@pytest.mark.parametrize("cells", HAND_BUILT)
def test_pieces_match_brute_force_on_hand_built_cells(cells):
    p = Presentation.from_cells(("x", "y", "a", "b", "c"), cells, HUBS)
    assert_matches_brute_force(build_link(build_complex(p)))


@pytest.mark.parametrize(
    "cells, max_len, fewest",
    [
        ([(0, 1, 2), (1, 0, 3)], 2, None),
        ([(0, 1, 2), (0, 2, 1), (0, 1, 3)], 2, 2),
        ([(0, 1, 2), (0, 1, 2)], 0, None),  # the oracle's set merges the copies
    ],
)
def test_cells_with_longer_pieces_have_no_link(cells, max_len, fewest):
    """The oracle finds pieces of two letters, or a relator of two
    pieces, only where build_link refuses the cells, so the counts are
    never asked about them."""
    rec = HubRecord("x", ("a", "b"), 2, ("a", "b"))
    p = Presentation.from_cells(("x", "a", "b", "c"), cells, [rec])
    _, found_len, decompositions = brute_force_pieces(p)
    assert found_len == max_len
    assert min(filter(None, decompositions.values()), default=None) == fewest
    with pytest.raises(InternalInconsistencyError):
        build_link(build_complex(p))


def test_conditions_need_the_presentations_own_link():
    """The counts read the cells of the complex the link was built
    from; a part of the link has none and is refused."""
    part = link_of(triangle_graph(3, 4, 5)).subgraph(range(6))
    with pytest.raises(InternalInconsistencyError, match="not built from cells"):
        check_conditions(part, girth(part)[0])
    with pytest.raises(InternalInconsistencyError, match="not built from cells"):
        compute_pieces(part)


def _refuse(*args, **kwargs):
    raise AssertionError("a word was built")


@pytest.mark.parametrize(
    "text, scheme",
    [
        pytest.param(CORPUS["grid4"], "A2", id="grid4"),
        pytest.param(CORPUS["tri50"], "A2", id="tri50"),
        # triangle-free, and every edge a -> b makes 4-cycle patterns
        pytest.param(_complete_bipartite(3, ">"), "B2", id="k33"),
    ],
)
def test_certify_builds_no_words(monkeypatch, text, scheme):
    """Every word starts from one of these three constructors; the rest
    derive new words from existing ones."""
    monkeypatch.setattr(Presentation, "relators", property(_refuse))
    monkeypatch.setattr(CyclicWord, "_from_cyclically_reduced", _refuse)
    for cls in (CyclicWord, FreeWord):
        monkeypatch.setattr(cls, "__init__", _refuse)
    report = certify(parse_gamma(text))
    assert report.scheme == scheme
    assert report.small_cancellation.c_value == 3
