import itertools

from artinlink import (
    CyclicWord,
    DefiningGraph,
    FreeWord,
    HubRecord,
    Orientation,
    Presentation,
    build_complex,
    build_link,
    build_standard,
    build_triangular,
    check_conditions,
    compute_pieces,
    girth,
    symmetrize,
    triangle_graph,
    triangle_presentation,
)

W = FreeWord.parse

F, WILD = Orientation.FORWARD, Orientation.WILDCARD


def rel(text):
    return CyclicWord(W(text))


def test_symmetrize_single_relator():
    p = Presentation(("a", "b"), (rel("a b a^-1 b^-1"),))
    sym = symmetrize(p)
    assert set(sym) == {rel("a b a^-1 b^-1"), rel("a b a^-1 b^-1").inverse()}


def test_symmetrize_count_333():
    pres, _ = triangle_presentation(3, 3, 3)
    assert len(symmetrize(pres)) == 18


def test_no_triangular_relator_is_its_own_inverse():
    for m, n, p in [(2, 2, 2), (3, 4, 5), (2, 4, 5)]:
        pres, _ = triangle_presentation(m, n, p)
        for r in pres.relators:
            assert r != r.inverse()


def test_pieces_of_triangular_presentations_have_length_one():
    for m, n, p in itertools.product((2, 3, 4, 5), repeat=3):
        pres, _ = build_triangular(triangle_graph(m, n, p))
        table = compute_pieces(pres)
        assert table.max_piece_len == 1, (m, n, p)


def test_pieces_closed_under_inversion():
    for gamma in (triangle_graph(3, 3, 3), triangle_graph(2, 4, 5)):
        pres, _ = build_triangular(gamma)
        table = compute_pieces(pres)
        pieces = set(table.pieces)
        assert all(w.inverse() in pieces for w in pieces)


def test_pieces_repeated_subword_unit_case():
    p = Presentation(("a", "b"), (rel("a b a b"),))
    table = compute_pieces(p)
    assert W("a b") in table.pieces
    assert table.max_piece_len == 4  # the whole relator repeats at offset 2
    assert table.decompositions[rel("a b a b")] == 1


def test_pieces_of_standard_presentation_are_longer():
    pres = build_standard(triangle_graph(3, 3, 3))
    table = compute_pieces(pres)
    assert table.max_piece_len >= 2


def test_check_conditions_c3_t6_large_triangles():
    for m, n, p in [(3, 3, 3), (4, 5, 6), (6, 6, 6)]:
        pres, _ = triangle_presentation(m, n, p)
        link = build_link(build_complex(pres))
        assert check_conditions(pres, link) == (3, 6)


def test_check_conditions_245():
    pres, _ = triangle_presentation(2, 4, 5)
    link = build_link(build_complex(pres))
    cond = check_conditions(pres, link)
    assert cond == (3, 4)
    assert cond.satisfies_c3 and not cond.satisfies_t6


def test_check_conditions_caps_on_pieceless_relator():
    rec = HubRecord("x", ("a", "b"), 1, ("a", "b"))
    p = Presentation.from_cells(("x", "a", "b"), [(0, 1, 2)], [rec])
    link = build_link(build_complex(p))
    cond = check_conditions(p, link)
    assert cond == (12, 12)


def test_t_value_equals_girth():
    for m, n, p in [(3, 3, 3), (2, 4, 5), (2, 2, 2)]:
        pres, _ = triangle_presentation(m, n, p)
        link = build_link(build_complex(pres))
        cond = check_conditions(pres, link)
        assert cond.t_value == girth(link)[0]


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
        pres, _ = build_triangular(DefiningGraph(names, edges))
        assert compute_pieces(pres).max_piece_len == 1


def test_piece_table_text_dump_is_sorted_and_stable():
    pres, _ = triangle_presentation(2, 2, 2)
    table = compute_pieces(pres)
    assert table.to_text() == compute_pieces(pres).to_text()
    assert table.to_text().startswith("max piece length: 1")
