from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from unsharp import (
    NoBottomElement,
    NotPseudocomplemented,
    NotPseudocomplementedSections,
    NoTopElement,
    Poset,
    algebra_of,
    build_from_covers,
    conjunction,
    enumerate_posets,
    glivenko_skeleton,
    implication,
    negation,
    negation_laws_report,
    negation_map,
    operator_table,
    pseudocomplement,
    relative_pseudocomplement,
    section_pseudocomplement,
    section_table,
    sectional_pseudocomplement,
    verify_pseudocomplemented_sections,
)
from unsharp.cli import parse_poset_file
from unsharp.sections import settled_sections

from conftest import (
    naive_conjunction,
    naive_greatest,
    naive_implication,
    naive_least,
    naive_lower,
    naive_section_pc,
    naive_section_pc_inside,
    naive_upper,
)
from reference_tables import CROWN_TAIL_XY, CROWN_XY, PENTAGON_XY
from test_order import posets

DATA = Path(__file__).parent / "data"

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


def test_verify_matches_per_pair_oracle_in_order():
    # every labeled poset with n <= 5, pc or not, topless ones included:
    # the settled entries and missing pairs, and the witnesses, in the
    # order of a per-pair scan, y then x
    pc = failing = 0
    for n in range(1, 6):
        for P in enumerate_posets(n):
            entries, missing = [], []
            for y in range(n):
                for x in range(n):
                    if P.le(y, x):
                        z = naive_section_pc(P, x, y)
                        if z is None:
                            missing.append((x, y))
                        else:
                            entries.append(((x, y), z))
            settled = settled_sections(P)
            assert list(settled.entries.items()) == entries, P.up
            assert settled.missing == tuple(missing), P.up
            if P.top is None:
                continue
            witnesses = tuple(map(P.labels_of, missing))
            report, table = verify_pseudocomplemented_sections(P, True)
            assert report.verdict("sections").witnesses == witnesses, P.up
            if missing:
                assert table is None
                first, _ = verify_pseudocomplemented_sections(P)
                assert first.verdict("sections").witnesses == witnesses[:1]
                failing += 1
            else:
                assert table is settled
                pc += 1
    assert pc and failing


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
                # the whole-carrier oracle and the in-section oracle agree
                assert got == naive_section_pc_inside(P, x, y)


def test_mask_tables_match_oracles(pc_corpus):
    for P, table in pc_corpus:
        for x in range(P.n):
            for y in range(P.n):
                assert table.arrow[x][y] == P.mask_of(naive_implication(P, x, y))
                assert table.conj[x][y] == P.mask_of(naive_conjunction(P, x, y))
                assert table.join[x][y] == P.join(x, y)
                assert table.meet[x][y] == P.meet(x, y)


@st.composite
def pc_posets(draw, min_n=8, max_n=12):
    """Random posets with pseudocomplemented sections and a top.

    Each new element m is added minimal, below the up-closure U of a few
    drawn elements, which leaves every old section as it was; when the
    new section {m} + U is not pseudocomplemented, U shrinks to the cone
    of one element, which always is.  The last element may instead go
    below everything, giving a bottom when the whole poset allows one.
    The indices are then shuffled.
    """
    n = draw(st.integers(min_n, max_n))
    up = [1]  # element 0 is the top
    bounded = draw(st.booleans())
    for k in range(1, n):
        gens = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=5))
        above = (1 << k) - 1 if bounded and k == n - 1 else 0
        for g in gens:
            above |= up[g]
        P = Poset([f"e{i}" for i in range(k + 1)], up + [1 << k | above])
        if any(naive_section_pc(P, x, k) is None for x in range(k + 1) if P.le(k, x)):
            above = up[gens[0]]
        up.append(1 << k | above)
    perm = draw(st.permutations(range(n)))
    rows = [0] * n
    for i, row in enumerate(up):
        rows[perm[i]] = sum(1 << perm[j] for j in range(n) if row >> j & 1)
    return Poset([f"e{i}" for i in range(n)], rows)


@settings(max_examples=25, deadline=None)
@given(pc_posets())
def test_section_table_grids_match_oracles_on_large_posets(P):
    report, table = verify_pseudocomplemented_sections(P)
    assert report.passed
    for x in range(P.n):
        for y in range(P.n):
            assert table.arrow[x][y] == P.mask_of(naive_implication(P, x, y))
            assert table.conj[x][y] == P.mask_of(naive_conjunction(P, x, y))
            assert table.join[x][y] == naive_least(P, naive_upper(P, [x, y]))
            assert table.meet[x][y] == naive_greatest(P, naive_lower(P, [x, y]))
    if P.bottom is None:
        with pytest.raises(NoBottomElement):
            negation_map(P)
    else:
        assert negation_map(P) == tuple(naive_section_pc(P, x, P.bottom) for x in range(P.n))


def test_settled_sections_keep_one_table_complete_or_not(pentagon, m3):
    P = Poset(pentagon.labels, pentagon.up)
    table = settled_sections(P)
    assert settled_sections(P) is table and section_table(P) is table
    assert table.missing == ()
    Q = Poset(m3.labels, m3.up)  # x^0 is missing, so the table is not complete
    table = settled_sections(Q)
    assert settled_sections(Q) is table
    pairs = [(x, y) for y in range(Q.n) for x in range(Q.n) if Q.le(y, x)]
    want = {p: z for p in pairs if (z := naive_section_pc(Q, *p)) is not None}
    assert table.entries == want
    assert table.missing == tuple(p for p in pairs if p not in want)
    assert table.missing == tuple((Q.index(a), Q.bottom) for a in "xyz")
    with pytest.raises(NotPseudocomplementedSections):
        section_table(Q)
    assert settled_sections(Q) is table


def test_readers_of_a_complete_table_fail_at_its_first_missing_pair(m3):
    # every one of them passes section_table, which names the first pair
    # y <= x without an x^y, y then x ascending
    message = r"^missing section pseudocomplement at \(x,0\)$"
    for read in (section_table, algebra_of, negation_laws_report,
                 lambda P: negation(P, P.bottom)):
        with pytest.raises(NotPseudocomplementedSections, match=message):
            read(m3)


def test_section_table_without_a_top_says_so():
    second = parse_poset_file((DATA / "pair.poset").read_text())[1].build()
    with pytest.raises(NoTopElement, match="^section pseudocomplements require a top element$"):
        section_table(second)


def test_per_pair_readers_reject_an_index_outside_the_carrier(pentagon):
    # a negative index would alias an element from the end of the carrier
    readers = (section_pseudocomplement, implication, conjunction,
               relative_pseudocomplement, sectional_pseudocomplement,
               lambda P, x, y: operator_table(P, "conj").cell(x, y),
               lambda P, x, y: algebra_of(P).with_cell(x, y, {0}),
               Poset.join, Poset.meet, Poset.le, Poset.lt,
               lambda P, x, y: P.restrict([x, y]),
               lambda P, x, y: P.labels_of((x, y)),
               lambda P, x, y: algebra_of(P).labels_of((x, y)))
    P = Poset(pentagon.labels, pentagon.up)
    for x, y in ((P.n, 0), (0, P.n), (-1, 0), (0, -1)):
        for reader in readers:
            bad = x if not 0 <= x < P.n else y
            with pytest.raises(ValueError, match=f"^element index {bad} out of range$"):
                reader(P, x, y)
    for x in (P.n, -1):
        with pytest.raises(ValueError, match=f"^element index {x} out of range$"):
            pseudocomplement(P, x)
        with pytest.raises(ValueError, match=f"^element index {x} out of range$"):
            P.restrict([x])
