"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines on
passing runs as well.
"""

import itertools
import time
from pathlib import Path

import pytest

from unsharp import (
    AXIOMS,
    NonSingletonSection,
    OrderAxiomFailure,
    SectionMismatch,
    algebra_of,
    axioms_report,
    divisibility_report,
    enumerate_canonical,
    enumerate_posets,
    filter_pc_sections,
    glivenko_skeleton,
    implication,
    implication_properties_report,
    is_lattice,
    lattice_relative_residuation_report,
    negation_laws_report,
    poset_of,
    relative_pseudocomplement,
    roundtrip_check,
    section_pseudocomplement,
    sectional_pseudocomplement,
    unsharp_residuation_report,
)
from unsharp.cli import main

from conftest import corpus_n6_enabled
from test_ialgebra import single_cell_mutants

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def report_line(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {status} {desc}")
    assert not failures, f"criterion {num}: {desc}: {failures[:5]}"


def test_criterion_1_golden_tables(capsys):
    started = time.perf_counter()
    failures = []
    for stem, kind in [
        ("pentagon", "xy"), ("pentagon", "imp"),
        ("crown", "xy"), ("crown", "imp"), ("crown", "rel"),
        ("crown_tail", "xy"), ("crown_tail", "imp"), ("crown_tail", "conj"),
    ]:
        code = main(["tables", "--kind", kind, str(DATA / f"{stem}.poset")])
        out = capsys.readouterr().out
        expected = (GOLDEN / f"{stem}_{kind}.txt").read_text(encoding="utf-8")
        if code != 0 or out != expected:
            failures.append(f"{stem}/{kind}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s")
    with capsys.disabled():
        report_line(1, f"eight golden tables byte-identical ({elapsed*1000:.0f} ms)", failures)


def test_criterion_2_nonexistence_witnesses(pentagon, crown, crown_tail):
    failures = []
    if relative_pseudocomplement(pentagon, pentagon.index("c"), pentagon.index("a")) is not None:
        failures.append("pentagon c*a should be absent")
    if relative_pseudocomplement(crown_tail, crown_tail.index("b"), crown_tail.index("a")) is not None:
        failures.append("crown_tail b*a should be absent")
    a, b = crown.index("a"), crown.index("b")
    if section_pseudocomplement(crown, a, b) is not None:
        failures.append("crown a^b should be absent")
    if sectional_pseudocomplement(crown, a, b) != b:
        failures.append("crown a o b should be b")
    report_line(2, "quoted non-existence witnesses and the sectional exception", failures)


def test_criterion_3_glivenko_skeleton(crown_tail):
    failures = []
    sub, report = glivenko_skeleton(crown_tail)
    if sub.labels != ("0", "b", "c", "1"):
        failures.append(f"carrier {sub.labels}")
    if not report.passed:
        failures.append("complementation report failed")
    b, c = sub.index("b"), sub.index("c")
    meet = sub.greatest_of(sub.down[b] & sub.down[c])
    join = sub.least_of(sub.up[b] & sub.up[c])
    if (meet, join) != (sub.index("0"), sub.index("1")):
        failures.append("b and c are not mutual complements")
    report_line(3, "double-negation skeleton is the four-element complemented poset", failures)


def _bijection_failures(corpus):
    """The bijection suite's failures, and how each single-cell mutant
    that passes the five structural axioms but fails reconstruction was
    stopped (mutants of the posets with n <= 4 only)."""
    failures = []
    stopped = {"roundtrip": 0, "NonSingletonSection": 0, "SectionMismatch": 0}
    for P, _ in corpus:
        A = algebra_of(P)
        if not axioms_report(A).passed:
            failures.append(("axioms", P.up))
            continue
        if not roundtrip_check(P).passed:
            failures.append(("poset-roundtrip", P.up))
        if not roundtrip_check(A).passed:
            failures.append(("algebra-roundtrip", P.up))
        back, _ = poset_of(A)
        if back != P:
            failures.append(("poset_of", P.up))
        if P.n > 4:
            continue
        for M in single_cell_mutants(A):
            *structural, reconstruction = axioms_report(M).verdicts
            if reconstruction.passed or not all(v.passed for v in structural):
                continue
            try:
                if roundtrip_check(M).passed:
                    failures.append(("structural-axioms", P.up, M.cells))
                else:
                    stopped["roundtrip"] += 1
            except (NonSingletonSection, SectionMismatch) as exc:
                stopped[type(exc).__name__] += 1
    return failures, stopped


def test_criterion_4_bijection_suite(pc_corpus):
    failures, stopped = _bijection_failures(pc_corpus)
    report_line(
        4,
        f"bijection suite over {len(pc_corpus)} posets (n <= 5); structural-only "
        f"mutants (n <= 4): {stopped['roundtrip']} fail the roundtrip, "
        f"{stopped['NonSingletonSection']} NonSingletonSection, "
        f"{stopped['SectionMismatch']} SectionMismatch",
        failures,
    )


def _theorem_failures(corpus):
    failures, diverged = [], 0
    for P, _ in corpus:
        res = unsharp_residuation_report(P)
        if not res.passed:
            failures.append(("residuation", P.up))
        if not {"monotone", "monotone-dominant"} <= {v.law for v in res.verdicts}:
            failures.append(("missing-reading", P.up))
        if res.readings_diverge:
            diverged += 1
            if not res.verdict("monotone-dominant").witnesses:
                failures.append(("unsurfaced-divergence", P.up))
        if not divisibility_report(P).passed:
            failures.append(("divisibility", P.up))
    return failures, diverged


def test_criterion_5_residuation_and_divisibility(pc_corpus):
    failures, diverged = _theorem_failures(pc_corpus)
    if diverged == 0:
        failures.append("expected divergent monotonicity readings to exist")
    report_line(
        5,
        f"residuation/divisibility over {len(pc_corpus)} posets "
        f"({diverged} divergent readings recorded)",
        failures,
    )


def _property_failures(corpus):
    failures, dominance_failures = [], []
    for P, table in corpus:
        if not implication_properties_report(P).passed:
            failures.append(("properties", P.up))
        if P.bottom is not None and not negation_laws_report(P).passed:
            failures.append(("negation", P.up))
        stars = [
            [relative_pseudocomplement(P, x, y) for y in range(P.n)]
            for x in range(P.n)
        ]
        relatively_pc = all(s is not None for row in stars for s in row)
        for y in range(P.n):
            for x in range(P.n):
                if P.le(y, x):
                    circ = sectional_pseudocomplement(P, x, y)
                    sec = table.entries[(x, y)]
                    if circ is not None and not P.le(circ, sec):
                        failures.append(("circ-vs-section", P.up, x, y))
                # dominance needs the relative operator to be total; a
                # heuristic, not a theorem: true through n = 5, not beyond
                if relatively_pc and not all(
                    P.le(stars[x][y], w) for w in implication(P, x, y)
                ):
                    dominance_failures.append(("dominance", P.up, x, y))
    return failures, dominance_failures


def test_criterion_6_property_suites(pc_corpus):
    failures, dominance_failures = _property_failures(pc_corpus)
    report_line(
        6,
        f"operator/negation law suites over {len(pc_corpus)} posets",
        failures + dominance_failures,
    )


def _lattice_failures(corpus):
    failures, lattices = [], 0
    for P, _ in corpus:
        if not is_lattice(P):
            continue
        lattices += 1
        report = lattice_relative_residuation_report(P)
        if not report.verdict("bundle-equivalence").passed:
            failures.append(("equivalence", P.up))
        if not report.verdict("meet-collapse").passed:
            failures.append(("meet-collapse", P.up))
        if not report.passed:
            failures.append(("laws", P.up))
    return failures, lattices


def test_criterion_7_lattice_reduction(pc_corpus):
    failures, lattices = _lattice_failures(pc_corpus)
    report_line(7, f"lattice reduction over {lattices} lattices", failures)


def test_criterion_8_corpus_self_consistency():
    failures = []
    expected = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}
    for n, count in expected.items():
        seen = set()
        for P in enumerate_posets(n):
            seen.add(P.up)
        if len(seen) != count:
            failures.append(f"n={n}: {len(seen)} != {count}")
        orbit_sum = sum(orbit for _, orbit in enumerate_canonical(n))
        if orbit_sum != count:
            failures.append(f"n={n}: orbit sum {orbit_sum} != {count}")
    report_line(8, "labeled counts 1,3,19,219,4231 and canonical orbit sums", failures)


def test_criterion_9_mutation_search(pentagon):
    A = algebra_of(pentagon)
    n = A.n
    subsets = [frozenset(s) for r in range(1, n + 1)
               for s in itertools.combinations(range(n), r)]
    broken_by = {law: None for law in AXIOMS}
    failures = []
    relabelled = exotic = 0
    for x in range(n):
        for y in range(n):
            for cell in subsets:
                if cell == A.arrow[x][y]:
                    continue
                mutant = A.with_cell(x, y, cell)
                report = axioms_report(mutant)
                if report.passed:
                    # an edit the axioms accept is either the valid table of
                    # a different poset, or an exotic algebra that the
                    # structural guards of poset_of must refuse
                    try:
                        if roundtrip_check(mutant).passed:
                            relabelled += 1
                        else:
                            failures.append(("incoherent-accepted-mutant", x, y))
                    except (NonSingletonSection, SectionMismatch, OrderAxiomFailure):
                        exotic += 1
                    continue
                for v in report.failures():
                    if not v.witness:
                        failures.append(("witness-missing", v.law, x, y))
                    if broken_by[v.law] is None:
                        broken_by[v.law] = (x, y, tuple(sorted(cell)), v.witness)
    failures += [f"no single-cell mutation trips {law}"
                 for law, hit in broken_by.items() if hit is None]
    # the two single-cell edits used as worked examples must be rejected
    a, zero = A.index("a"), A.index("0")
    b, c = A.index("b"), A.index("c")
    anti = axioms_report(A.with_cell(a, zero, {A.unit}))
    if anti.passed or not anti.verdict("antisymmetry").witness:
        failures.append("unit edit at (a,0) not caught by antisymmetry")
    minim = axioms_report(A.with_cell(b, c, {A.unit}))
    if minim.passed or not minim.verdict("minimality").witness:
        failures.append("unit edit at (b,c) not caught by minimality")
    report_line(
        9,
        f"single-cell mutations: every axiom witnessed; {relabelled} edit(s) "
        f"rebuild another poset, {exotic} exotic table(s) stopped by poset_of",
        failures,
    )


@pytest.mark.n6
@pytest.mark.skipif(not corpus_n6_enabled(), reason="set UNSHARP_CORPUS_N6=1 to run the n=6 sweep")
def test_criteria_4_to_7_at_n6():
    corpus = list(filter_pc_sections(enumerate_posets(6)))
    failures, _ = _bijection_failures(corpus)
    res_failures, diverged = _theorem_failures(corpus)
    failures += res_failures
    prop_failures, dominance_failures = _property_failures(corpus)
    failures += prop_failures
    lat_failures, lattices = _lattice_failures(corpus)
    failures += lat_failures
    # the dominance heuristic provably stops holding at six elements; the
    # sweep records that boundary instead of pretending it is a theorem
    if not dominance_failures:
        failures.append("expected dominance counterexamples at n=6")
    report_line(
        "4-7/n6",
        f"theorem suites over {len(corpus)} posets on 6 elements "
        f"({diverged} divergent readings, {lattices} lattices, "
        f"{len(dominance_failures)} dominance heuristic violations)",
        failures,
    )


@pytest.mark.n6
def test_criterion_8_n6_count():
    if not corpus_n6_enabled():
        pytest.skip("set UNSHARP_CORPUS_N6=1 to count the 130023 posets on 6 elements")
    total = sum(1 for _ in enumerate_posets(6))
    report_line("8/n6", "labeled count at n=6", [] if total == 130023 else [total])
