import pytest

from unsharp import (
    NotALattice,
    NotPseudocomplementedSections,
    build_from_covers,
    conjunction,
    divisibility_report,
    implication,
    lattice_relative_residuation_report,
    unsharp_residuation_report,
)


def test_crown_tail_passes(crown_tail):
    report = unsharp_residuation_report(crown_tail)
    assert report.passed
    assert (report.verdict("commutative").passed and report.verdict("associative").passed
            and report.verdict("unit").passed)
    assert (report.verdict("monotone").passed and report.verdict("adjoint").passed
            and report.verdict("divisible").passed)


def test_dominant_reading_fails_exactly_where_cells_split(crown_tail, pentagon):
    # d (.) e = {b,c} is an antichain, so no single dominator exists at x = y = d
    report = unsharp_residuation_report(crown_tail)
    assert not report.verdict("monotone-dominant").passed
    assert report.readings_diverge
    assert report.passed  # the recorded reading does not gate the verdict
    # on a lattice every cell is a singleton and the readings agree
    lattice_report = unsharp_residuation_report(pentagon)
    assert lattice_report.verdict("monotone-dominant").passed
    assert not lattice_report.readings_diverge


def test_adjointness_instance(crown_tail):
    t = crown_tail
    b, d, e = t.index("b"), t.index("d"), t.index("e")
    assert b in conjunction(t, d, e)
    assert t.le(b, d) and t.le(b, e)
    assert implication(t, e, b) == (d,)
    # and the converse membership for c
    c = t.index("c")
    assert c in conjunction(t, e, d)
    assert implication(t, d, c) == (e,)
    assert t.le(e, e)


def test_divisibility_instances(crown_tail):
    t = crown_tail
    report = divisibility_report(t)
    assert report.passed
    d, b = t.index("d"), t.index("b")
    assert implication(t, d, b) == (t.index("e"),)
    cell = conjunction(t, d, t.index("e"))
    meet_in_section = [z for z in cell if t.le(b, z)]
    assert meet_in_section == [b]
    # x = y degenerates to the unit arrow
    for x in range(t.n):
        assert implication(t, x, x) == (t.top,)
        assert conjunction(t, x, t.top) == (x,)


def test_residuation_requires_sections(m3):
    with pytest.raises(NotPseudocomplementedSections):
        unsharp_residuation_report(m3)
    with pytest.raises(NotPseudocomplementedSections):
        divisibility_report(m3)


def test_lattice_reduction_on_pentagon_and_chain(pentagon):
    report = lattice_relative_residuation_report(pentagon)
    assert report.passed, report.failures()
    chain = build_from_covers(["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert lattice_relative_residuation_report(chain).passed


def test_lattice_reduction_rejects_non_lattice(crown, m3):
    with pytest.raises(NotALattice):
        lattice_relative_residuation_report(crown)
    with pytest.raises(NotPseudocomplementedSections):
        lattice_relative_residuation_report(m3)


def test_strong_reading_counterexample_at_five_elements():
    # two incomparable atoms under two incomparable coatoms, no bottom:
    # sections are pseudocomplemented yet x (.) z = {p,q} has no dominator
    P = build_from_covers(
        ["p", "q", "x", "z", "1"],
        [("p", "x"), ("p", "z"), ("q", "x"), ("q", "z"), ("x", "1"), ("z", "1")],
    )
    report = unsharp_residuation_report(P)
    assert report.passed
    assert not report.verdict("monotone-dominant").passed
    assert report.readings_diverge
    x, z = P.index("x"), P.index("z")
    assert set(conjunction(P, x, z)) == {P.index("p"), P.index("q")}
