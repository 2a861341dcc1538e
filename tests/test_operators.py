import pytest
from hypothesis import given, settings

from unsharp import (
    EmptyOperand,
    NoBottomElement,
    NoTopElement,
    NotPseudocomplementedSections,
    PosetError,
    build_from_covers,
    conjunction,
    conjunction_of_sets,
    downset_conjunction,
    enumerate_posets,
    implication,
    implication_properties_report,
    is_lattice,
    operator_table,
    pseudocomplement,
    relative_pseudocomplement,
    section_pseudocomplement,
    section_table,
    sectional_pseudocomplement,
)
from unsharp.cli import render_table
from unsharp.operators import KINDS

from conftest import (
    naive_conjunction,
    naive_implication,
    naive_relative_pc,
    naive_section_pc,
    naive_sectional_pc,
)
from reference_tables import (
    CROWN_IMP,
    CROWN_REL,
    CROWN_TAIL_CONJ,
    CROWN_TAIL_IMP,
    PENTAGON_IMP,
)
from test_order import posets


def table_cells(P, kind):
    """Operator table re-encoded in the printed-cell convention."""
    table = operator_table(P, kind)
    out = []
    for row in table.cells:
        cells = []
        for c in row:
            if c is None:
                cells.append("-")
            elif len(c) == 1:
                cells.append(P.labels[next(iter(c))])
            else:
                cells.append("{" + ",".join(P.labels[i] for i in sorted(c)) + "}")
        out.append(cells)
    return out


def labset(P, elems):
    return {P.labels[i] for i in elems}


def test_pentagon_implication_table(pentagon):
    assert table_cells(pentagon, "imp") == PENTAGON_IMP
    b, c = pentagon.index("b"), pentagon.index("c")
    assert labset(pentagon, implication(pentagon, b, c)) == {"c"}


def test_crown_implication_table(crown):
    assert table_cells(crown, "imp") == CROWN_IMP
    a, b = crown.index("a"), crown.index("b")
    assert labset(crown, implication(crown, a, b)) == {"c", "d"}


def test_crown_tail_implication_table(crown_tail):
    assert table_cells(crown_tail, "imp") == CROWN_TAIL_IMP
    d, c = crown_tail.index("d"), crown_tail.index("c")
    assert labset(crown_tail, implication(crown_tail, d, c)) == {"e"}


def test_crown_relative_table(crown):
    assert table_cells(crown, "rel") == CROWN_REL


def test_unit_implication_is_identity(pentagon, crown, crown_tail):
    for P in (pentagon, crown, crown_tail):
        for a in range(P.n):
            assert implication(P, P.top, a) == (a,)


def test_implication_requires_sections(m3):
    with pytest.raises(NotPseudocomplementedSections):
        implication(m3, m3.index("x"), m3.index("0"))
    with pytest.raises(NotPseudocomplementedSections):
        operator_table(m3, "imp")


def test_conjunction_table_and_values(crown_tail):
    assert table_cells(crown_tail, "conj") == CROWN_TAIL_CONJ
    d, e = crown_tail.index("d"), crown_tail.index("e")
    assert labset(crown_tail, conjunction(crown_tail, d, e)) == {"b", "c"}
    for P in (crown_tail,):
        for x in range(P.n):
            assert conjunction(P, x, P.top) == (x,)
            assert conjunction(P, x, x) == (x,)


def test_conjunction_of_sets(crown_tail):
    t = crown_tail
    d = t.index("d")
    bc = [t.index("b"), t.index("c")]
    # the common cone of {d} u {b,c} collapses to the bottom
    assert conjunction_of_sets(t, [d], bc) == (t.bottom,)
    for x in range(t.n):
        for y in range(t.n):
            assert conjunction_of_sets(t, [x], [y]) == conjunction(t, x, y)
    assert conjunction_of_sets(t, bc, [t.top]) == tuple(
        sorted(t.set_of(t.max_mask(t.lower_mask(t.mask_of(bc)))))
    )
    with pytest.raises(EmptyOperand):
        conjunction_of_sets(t, [], [d])


def test_downset_conjunction_is_associative_where_cone_lift_is_not(crown_tail):
    t = crown_tail
    d, e, c = t.index("d"), t.index("e"), t.index("c")
    de = downset_conjunction(t, [d], [e])
    assert labset(t, de) == {"b", "c"}
    left = downset_conjunction(t, de, [c])
    right = downset_conjunction(t, [d], downset_conjunction(t, [e], [c]))
    assert left == right == (c,)
    # the cone lift gives a strictly smaller left association here
    assert conjunction_of_sets(t, de, [c]) == (t.bottom,)


def test_operator_table_kinds(pentagon):
    with pytest.raises(ValueError):
        operator_table(pentagon, "bogus")
    xy = operator_table(pentagon, "xy")
    a = pentagon.index("a")
    assert xy.cell(a, pentagon.index("c")) is None
    assert xy.cell(pentagon.index("c"), a) == frozenset((a,))


def test_properties_report_on_reference_posets(pentagon, crown, crown_tail, singleton):
    for P in (pentagon, crown, crown_tail, singleton):
        report = implication_properties_report(P)
        assert report.passed, report.failures()


def test_weakening_bound_instance(crown):
    # a sits below both members of b -> a
    a, b = crown.index("a"), crown.index("b")
    cell = implication(crown, b, a)
    assert labset(crown, cell) == {"c", "d"}
    assert all(crown.le(a, w) for w in cell)


def test_lattice_collapse(pentagon):
    assert is_lattice(pentagon)
    for x in range(pentagon.n):
        for y in range(pentagon.n):
            assert len(implication(pentagon, x, y)) == 1
            cell = conjunction(pentagon, x, y)
            assert cell == (pentagon.meet(x, y),)


def test_render_table_replays_goldens(pentagon, tmp_path):
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / "pentagon_imp.txt"
    assert render_table(operator_table(pentagon, "imp")) + "\n" == golden.read_text(encoding="utf-8")


@settings(max_examples=80)
@given(posets(max_n=5))
def test_operators_match_oracles(P):
    if P.top is None:
        return
    from unsharp import verify_pseudocomplemented_sections

    report, _ = verify_pseudocomplemented_sections(P)
    for x in range(P.n):
        for y in range(P.n):
            assert set(conjunction(P, x, y)) == naive_conjunction(P, x, y)
            if report.passed:
                assert set(implication(P, x, y)) == naive_implication(P, x, y)


@settings(max_examples=80)
@given(posets(max_n=5))
def test_outputs_are_antichains_and_determined(P):
    from unsharp import has_pseudocomplemented_sections

    if not has_pseudocomplemented_sections(P):
        return
    table = section_table(P)
    for x in range(P.n):
        for y in range(P.n):
            cell = implication(P, x, y)
            for s in cell:
                for t in cell:
                    assert s == t or not P.le(s, t)
            if P.le(y, x):
                assert cell == (table.entries[(x, y)],)
            # order reflection both ways
            assert (cell == (P.top,)) == P.le(x, y)


@settings(max_examples=80)
@given(posets(max_n=5))
def test_unsharp_dominates_relative_pc_where_total(P):
    # the dominance claim needs the relative operator to be total; with a
    # partially defined * the pointwise comparison can genuinely flip
    from unsharp import has_pseudocomplemented_sections

    if not has_pseudocomplemented_sections(P):
        return
    stars = [
        [relative_pseudocomplement(P, x, y) for y in range(P.n)]
        for x in range(P.n)
    ]
    if any(s is None for row in stars for s in row):
        return
    for x in range(P.n):
        for y in range(P.n):
            assert all(P.le(stars[x][y], w) for w in implication(P, x, y))


def test_dominance_fails_per_pair_without_totality():
    # pc sections hold, d*c = b exists, yet d -> c = {c} with c < b; the
    # relative operator is partial here (b*c has two maximal candidates)
    P = build_from_covers(["a", "b", "c", "d"], [("b", "a"), ("c", "b"), ("d", "a")])
    d, c, b = P.index("d"), P.index("c"), P.index("b")
    from unsharp import has_pseudocomplemented_sections

    assert has_pseudocomplemented_sections(P)
    assert relative_pseudocomplement(P, d, c) == b
    assert implication(P, d, c) == (c,)
    assert P.lt(c, b)
    assert relative_pseudocomplement(P, b, c) is None


def outcome(call, *args):
    """What ``call(*args)`` returns, or the type of the PosetError it raises."""
    try:
        return call(*args)
    except PosetError as exc:
        return type(exc)


def naive_table_cells(P, kind):
    """The cells ``operator_table(P, kind)`` must hold, or the error type it must raise."""
    pairs = [(x, y) for x in range(P.n) for y in range(P.n)]
    if kind == "conj":
        return [frozenset(naive_conjunction(P, x, y)) for x, y in pairs]
    if P.top is None and kind in ("xy", "imp"):
        return NoTopElement if kind == "xy" else NotPseudocomplementedSections
    xy = {(x, y): naive_section_pc(P, x, y) for x, y in pairs}
    if kind == "imp":
        if any(xy[x, y] is None for x, y in pairs if P.le(y, x)):
            return NotPseudocomplementedSections
        return [frozenset(naive_implication(P, x, y)) for x, y in pairs]
    single = {"xy": xy.get, "rel": lambda p: naive_relative_pc(P, *p),
              "circ": lambda p: naive_sectional_pc(P, *p)}[kind]
    return [None if z is None else frozenset((z,)) for z in map(single, pairs)]


def check_searches_and_tables(P):
    for x in range(P.n):
        for y in range(P.n):
            want = NoTopElement if P.top is None else naive_section_pc(P, x, y)
            assert outcome(section_pseudocomplement, P, x, y) == want
            assert relative_pseudocomplement(P, x, y) == naive_relative_pc(P, x, y)
            assert sectional_pseudocomplement(P, x, y) == naive_sectional_pc(P, x, y)
        # x^0 is the section pseudocomplement against the bottom
        want = NoBottomElement if P.bottom is None else naive_section_pc(P, x, P.bottom)
        assert outcome(pseudocomplement, P, x) == want
    for kind in KINDS:
        got = outcome(lambda: [c for row in operator_table(P, kind).cells for c in row])
        assert got == naive_table_cells(P, kind), kind


def test_searches_and_tables_match_oracles_on_small_posets():
    # every labeled poset on 1-4 points, topless and not-pc ones included
    for n in range(1, 5):
        for P in enumerate_posets(n):
            check_searches_and_tables(P)


@settings(max_examples=12, deadline=None)
@given(posets(max_n=16, min_n=9))
def test_searches_and_tables_match_oracles_on_large_posets(P):
    check_searches_and_tables(P)
