from pathlib import Path

import pytest
from hypothesis import example, given, settings

import unsharp.operators

from unsharp import (
    NoBottomElement,
    NoTopElement,
    NotPseudocomplemented,
    NotPseudocomplementedSections,
    PosetError,
    build_from_covers,
    conjunction,
    enumerate_posets,
    implication,
    implication_properties_report,
    is_lattice,
    negation_map,
    operator_table,
    pseudocomplement,
    relative_pseudocomplement,
    section_pseudocomplement,
    section_table,
    sectional_pseudocomplement,
    verify_pseudocomplemented_sections,
)
from unsharp.cli import parse_poset_file, render_table
from unsharp.operators import KINDS

from conftest import (
    naive_conjunction,
    naive_implication,
    naive_min,
    naive_relative_pc,
    naive_section_pc,
    naive_sectional_pc,
    naive_upper,
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
    report, _ = verify_pseudocomplemented_sections(P)
    for x in range(P.n):
        for y in range(P.n):
            assert set(conjunction(P, x, y)) == naive_conjunction(P, x, y)
            if report.passed:
                assert set(implication(P, x, y)) == naive_implication(P, x, y)


@settings(max_examples=80)
@given(posets(max_n=5))
def test_outputs_are_antichains_and_determined(P):
    if not verify_pseudocomplemented_sections(P)[0].passed:
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
    if not verify_pseudocomplemented_sections(P)[0].passed:
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
    assert verify_pseudocomplemented_sections(P)[0].passed
    assert relative_pseudocomplement(P, d, c) == b
    assert implication(P, d, c) == (c,)
    assert P.le(c, b) and c != b
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
        return NoTopElement
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


# multi-member imp and conj cells and an undefined rel cell
NINE = parse_poset_file((Path(__file__).parent / "data" / "nine.poset").read_text())[0].build()


@settings(max_examples=12, deadline=None)
@given(posets(max_n=16, min_n=9))
@example(NINE)
def test_searches_and_tables_match_oracles_on_large_posets(P):
    check_searches_and_tables(P)


def test_rel_and_circ_search_each_distinct_key_once(monkeypatch):
    calls = []
    search = unsharp.operators.greatest_outside
    monkeypatch.setattr(unsharp.operators, "greatest_outside",
                        lambda base, seeds, *rows: calls.append((base, seeds))
                        or search(base, seeds, *rows))
    for kind in ("rel", "circ"):
        calls.clear()
        operator_table(NINE, kind)
        assert len(calls) == len(set(calls)) < NINE.n ** 2, kind


def value_or_error(call, *args):
    """What ``call(*args)`` returns, or the type and message of the PosetError it raises."""
    try:
        return call(*args)
    except PosetError as exc:
        return type(exc), str(exc)


def naive_per_pair(P):
    """What the per-pair x^y readers return or raise on ``P``, from ``naive_section_pc``."""
    pairs = [(x, y) for x in range(P.n) for y in range(P.n)]
    xy = {(x, y): naive_section_pc(P, x, y) for x, y in pairs}
    out = {}
    if P.top is None:
        out["section"] = {p: (NoTopElement, "section pseudocomplements require a top element")
                          for p in pairs}
        out["implication"] = {p: (NoTopElement, "implication requires a top element")
                              for p in pairs}
        out["xy"] = (NoTopElement, "section tables require a top element")
    else:
        out["section"] = xy
        out["implication"] = {}
        for x, y in pairs:
            mins = sorted(naive_min(P, naive_upper(P, [x, y])))
            gaps = [m for m in mins if xy[m, y] is None]
            out["implication"][x, y] = (
                (NotPseudocomplementedSections, f"no pseudocomplement of {P.labels[gaps[0]]} "
                 f"in the section above {P.labels[y]}")
                if gaps else tuple(sorted({xy[m, y] for m in mins}))
            )
        out["xy"] = [None if xy[p] is None else frozenset((xy[p],)) for p in pairs]
    if P.bottom is None:
        no_bottom = (NoBottomElement, "pseudocomplements require a bottom element")
        out["pc"] = [no_bottom] * P.n
        out["negation"] = no_bottom
    else:
        out["pc"] = [xy[x, P.bottom] for x in range(P.n)]
        gaps = [x for x in range(P.n) if xy[x, P.bottom] is None]
        out["negation"] = (
            (NotPseudocomplemented, f"element {P.labels[gaps[0]]} has no pseudocomplement")
            if gaps else tuple(out["pc"])
        )
    return out


def test_per_pair_readers_match_oracles_on_every_small_poset():
    # every labeled poset on 1-5 points, topless, bottomless and not-pc ones
    # included: each reader answers what exists and raises as it always has
    for n in range(1, 6):
        for P in enumerate_posets(n):
            want = naive_per_pair(P)
            got = {
                "section": {(x, y): value_or_error(section_pseudocomplement, P, x, y)
                            for x in range(P.n) for y in range(P.n)},
                "implication": {(x, y): value_or_error(implication, P, x, y)
                                for x in range(P.n) for y in range(P.n)},
                "xy": value_or_error(
                    lambda: [c for row in operator_table(P, "xy").cells for c in row]),
                "pc": [value_or_error(pseudocomplement, P, x) for x in range(P.n)],
                "negation": value_or_error(negation_map, P),
            }
            assert got == want, P


def test_implication_reads_only_the_sections_it_needs(m3):
    # m3 has no x^0, so its section table does not exist; x -> y still does
    x, y, zero = m3.index("x"), m3.index("y"), m3.bottom
    assert implication(m3, x, y) == (y,)
    with pytest.raises(NotPseudocomplementedSections,
                       match="^no pseudocomplement of x in the section above 0$"):
        implication(m3, x, zero)
