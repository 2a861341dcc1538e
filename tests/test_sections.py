import pytest
from hypothesis import given, settings

from unsharp import (
    NoBottomElement,
    NotPseudocomplemented,
    NotPseudocomplementedSections,
    build_from_covers,
    glivenko_skeleton,
    negation,
    negation_laws_report,
    pseudocomplement,
    relative_pseudocomplement,
    section_pseudocomplement,
    sectional_pseudocomplement,
    verify_pseudocomplemented_sections,
)

from conftest import (
    naive_conjunction,
    naive_implication,
    naive_section_pc,
    naive_section_pc_inside,
)
from reference_tables import CROWN_TAIL_XY, CROWN_XY, PENTAGON_XY
from test_order import posets


def as_cells(P, table):
    """Section table re-encoded in the printed-cell convention."""
    out = [["-"] * P.n for _ in range(P.n)]
    for (x, y), z in table.entries.items():
        out[x][y] = P.labels[z]
    return out


def test_pentagon_section_table(pentagon):
    report, table = verify_pseudocomplemented_sections(pentagon)
    assert report.passed
    assert as_cells(pentagon, table) == PENTAGON_XY
    c, a = pentagon.index("c"), pentagon.index("a")
    assert section_pseudocomplement(pentagon, c, a) == a


def test_crown_section_table(crown):
    report, table = verify_pseudocomplemented_sections(crown)
    assert report.passed
    # one defined cell per comparable pair y <= x
    assert len(table) == sum(crown.le(y, x) for x in range(crown.n) for y in range(crown.n)) == 19
    assert as_cells(crown, table) == CROWN_XY


def test_crown_tail_section_table(crown_tail):
    report, table = verify_pseudocomplemented_sections(crown_tail)
    assert report.passed
    assert len(table) == 25
    assert as_cells(crown_tail, table) == CROWN_TAIL_XY


def test_section_pc_diagonal_is_top(crown_tail):
    for x in range(crown_tail.n):
        assert section_pseudocomplement(crown_tail, x, x) == crown_tail.top


def test_section_pc_absent_for_incomparable_pair(crown):
    # a is not above b, so nothing satisfies the defining equation
    a, b = crown.index("a"), crown.index("b")
    assert section_pseudocomplement(crown, a, b) is None
    # while the sectional pseudocomplement of the same pair exists
    assert sectional_pseudocomplement(crown, a, b) == b


def test_verify_fails_without_top():
    P = build_from_covers(["0", "a", "b"], [("0", "a"), ("0", "b")])
    report, table = verify_pseudocomplemented_sections(P)
    assert not report.passed and table is None
    assert not report.verdict("top").passed


def test_verify_fails_on_m3(m3):
    report, table = verify_pseudocomplemented_sections(m3)
    assert not report.passed and table is None
    witness = report.verdict("sections").witness
    assert witness is not None and len(witness) == 2


def test_relative_pc_values(crown, crown_tail, pentagon):
    a, b = crown.index("a"), crown.index("b")
    assert relative_pseudocomplement(crown, a, b) == b
    c, d = crown.index("c"), crown.index("d")
    assert relative_pseudocomplement(crown, c, d) == d
    for P in (crown, crown_tail, pentagon):
        for x in range(P.n):
            assert relative_pseudocomplement(P, x, x) == P.top
    # the two quoted non-existence witnesses
    assert relative_pseudocomplement(pentagon, pentagon.index("c"), pentagon.index("a")) is None
    assert relative_pseudocomplement(crown_tail, crown_tail.index("b"), crown_tail.index("a")) is None


def test_crown_is_relatively_pseudocomplemented(crown):
    assert all(
        relative_pseudocomplement(crown, x, y) is not None
        for x in range(crown.n)
        for y in range(crown.n)
    )


def test_sectional_pc_values(crown, pentagon):
    for P in (crown, pentagon):
        for x in range(P.n):
            assert sectional_pseudocomplement(P, x, x) == P.top
    c, a = pentagon.index("c"), pentagon.index("a")
    assert sectional_pseudocomplement(pentagon, c, a) == a == section_pseudocomplement(pentagon, c, a)


def test_sectional_below_section_pc_on_reference_posets(pentagon, crown, crown_tail):
    for P in (pentagon, crown, crown_tail):
        for y in range(P.n):
            for x in range(P.n):
                if not P.le(y, x):
                    continue
                circ = sectional_pseudocomplement(P, x, y)
                sec = section_pseudocomplement(P, x, y)
                if circ is not None and sec is not None:
                    assert P.le(circ, sec)


def test_negation_values(crown, crown_tail):
    from unsharp import negation_map

    t = crown_tail
    assert negation(t, t.index("a")) == t.index("c")
    assert negation(t, t.bottom) == t.top
    assert negation(t, t.top) == t.bottom
    assert negation(crown, crown.index("c")) == crown.bottom
    assert negation_map(t) == tuple(negation(t, x) for x in range(t.n))


def test_negation_needs_bottom_and_sections(m3):
    P = build_from_covers(["a", "b", "1"], [("a", "1"), ("b", "1")])
    with pytest.raises(NoBottomElement):
        negation(P, 0)
    with pytest.raises(NotPseudocomplementedSections):
        negation(m3, 0)


def test_negation_rejects_out_of_range_elements(crown_tail):
    for x in (-1, crown_tail.n):
        with pytest.raises(ValueError):
            negation(crown_tail, x)


def test_negation_laws_on_reference_posets(pentagon, crown, crown_tail, singleton):
    for P in (pentagon, crown, crown_tail, singleton):
        assert negation_laws_report(P).passed


def test_glivenko_skeleton_crown_tail(crown_tail):
    sub, report = glivenko_skeleton(crown_tail)
    assert sub.labels == ("0", "b", "c", "1")
    assert report.passed
    b, c = sub.index("b"), sub.index("c")
    assert not sub.le(b, c) and not sub.le(c, b)


def test_glivenko_skeleton_crown(crown):
    # double negation fixes only 0, a, b, 1 here
    sub, report = glivenko_skeleton(crown)
    assert sub.labels == ("0", "a", "b", "1")
    assert report.passed


def test_glivenko_skeleton_diamond_is_whole(diamond):
    sub, report = glivenko_skeleton(diamond)
    assert sub.labels == diamond.labels
    assert report.passed


def test_glivenko_skeleton_singleton(singleton):
    sub, report = glivenko_skeleton(singleton)
    assert sub.labels == singleton.labels and report.passed


def test_glivenko_needs_total_pseudocomplement(m3):
    with pytest.raises(NotPseudocomplemented):
        glivenko_skeleton(m3)
    assert pseudocomplement(m3, m3.index("x")) is None


@settings(max_examples=120)
@given(posets(max_n=5))
def test_section_pc_matches_both_oracles(P):
    if P.top is None:
        return
    for y in range(P.n):
        for x in range(P.n):
            got = section_pseudocomplement(P, x, y)
            assert got == naive_section_pc(P, x, y)
            if P.le(y, x):
                # the whole-carrier search and the in-section search agree
                assert got == naive_section_pc_inside(P, x, y)


def test_mask_tables_match_oracles(pc_corpus):
    for P, table in pc_corpus:
        for x in range(P.n):
            for y in range(P.n):
                assert table.arrow[x][y] == P.mask_of(naive_implication(P, x, y))
                assert table.conj[x][y] == P.mask_of(naive_conjunction(P, x, y))
                assert table.join[x][y] == P.join(x, y)
                assert table.meet[x][y] == P.meet(x, y)
