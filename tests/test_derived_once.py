"""Each derived structure is computed once per object and shared safely.

A poset keeps its section table, complete or not, the table its
algebra, the algebra its rebuilt poset.  These tests count the
section-pseudocomplement searches that sharing saves (each pair y <= x
of a poset is searched once, whether its sections pass or fail and
whichever reader asks first), check that a poset or an algebra which
has already served every other report answers exactly as a fresh one
does, and that none of these links makes a reference cycle.
"""

import gc
import itertools
from pathlib import Path

import pytest

import unsharp.sections
from unsharp import (
    IAlgebra,
    Poset,
    PosetError,
    SectionMismatch,
    SectionTable,
    algebra_of,
    axioms_report,
    build_from_covers,
    divisibility_report,
    enumerate_posets,
    glivenko_skeleton,
    implication,
    implication_properties_report,
    is_lattice,
    lattice_relative_residuation_report,
    negation,
    negation_laws_report,
    operator_table,
    poset_of,
    roundtrip_check,
    section_pseudocomplement,
    section_table,
    unsharp_residuation_report,
    verify_pseudocomplemented_sections,
)
from unsharp.cli import main
from unsharp.operators import KINDS
from unsharp.order import iter_bits

from test_cli_golden import COMMANDS
from test_ialgebra import single_cell_mutants
from test_mask_laws import corrupted

DATA = Path(__file__).parent / "data"
# a 9-point document of the CLI benchmark's generated files
NINE = build_from_covers(
    [f"x{i}" for i in range(9)],
    [(f"x{a}", f"x{b}") for a, b in ((0, 4), (2, 5), (2, 7), (3, 0), (4, 1), (5, 0),
                                     (6, 2), (6, 8), (7, 3), (8, 5), (8, 7))],
)


@pytest.fixture
def searches(monkeypatch):
    """Every section pseudocomplement x^y the library searches for, as (x, y):
    each pair that the one-pass section kernel settles, the only x^y
    search there is."""
    calls = []
    settle = unsharp.sections._settle_section

    def counted_section(P, y, entries):
        calls.extend((x, y) for x in iter_bits(P.up[y]))
        return settle(P, y, entries)

    monkeypatch.setattr(unsharp.sections, "_settle_section", counted_section)
    return calls


def outcomes(P: Poset) -> dict:
    """Every public report on ``P`` (all witnesses) and the values read from its table."""
    out = {
        "sections": lambda: verify_pseudocomplemented_sections(P, True)[0].as_dict(),
        "implication": lambda: implication_properties_report(P, True).as_dict(),
        "axioms": lambda: axioms_report(algebra_of(P), all_witnesses=True).as_dict(),
        "roundtrip-poset": lambda: roundtrip_check(P, True).as_dict(),
        "roundtrip-algebra": lambda: roundtrip_check(algebra_of(P), True).as_dict(),
        "residuation": lambda: unsharp_residuation_report(P, True).as_dict(),
        "divisibility": lambda: divisibility_report(P, True).as_dict(),
        "arrow": lambda: algebra_of(P).arrow,
        "tables": lambda: [operator_table(P, kind).cells for kind in KINDS],
        "rebuilt": lambda: rebuilt(poset_of(algebra_of(P))),
    }
    if P.bottom is not None:
        out["negation"] = lambda: [negation(P, x) for x in range(P.n)]
        out["negation-laws"] = lambda: negation_laws_report(P, True).as_dict()
        out["skeleton"] = lambda: skeleton(P)
    if is_lattice(P):
        out["lattice"] = lambda: lattice_relative_residuation_report(P, True).as_dict()
    return out


def skeleton(P: Poset) -> tuple:
    sub, report = glivenko_skeleton(P, True)
    return sub.labels, report.as_dict()


def rebuilt(result) -> tuple:
    P, table = result
    return P.labels, P.up, table.entries


def fresh(P: Poset) -> Poset:
    return Poset(P.labels, P.up)


def each_pair_once(P: Poset) -> list[tuple[int, int]]:
    """Every pair y <= x as (x, y), y then x ascending: one search of each."""
    return [(x, y) for y in range(P.n) for x in iter_bits(P.up[y])]


@pytest.mark.parametrize("command, expected", [
    # crown_tail has 25 pairs y <= x; roundtrip searches them again to
    # validate the one rebuild both of its roundtrips share
    ("check", 25),
    ("residuation", 25),
    ("roundtrip", 50),
])
def test_cli_searches_each_section_once(searches, capsys, command, expected):
    assert main([command, str(DATA / "crown_tail.poset")]) == 0
    capsys.readouterr()
    assert len(searches) == expected


def test_second_battery_on_one_poset_searches_nothing(searches, crown_tail):
    P = fresh(crown_tail)
    first = {name: run() for name, run in outcomes(P).items()}
    assert searches
    searches.clear()
    second = {name: run() for name, run in outcomes(P).items()}
    assert searches == []
    assert second == {name: first[name] for name in second}
    assert algebra_of(P) is algebra_of(P) is section_table(P).algebra
    A = algebra_of(P)
    assert poset_of(A) is poset_of(A)


def test_reports_on_a_used_poset_match_a_fresh_one(pc_corpus):
    for template, _ in pc_corpus:
        if template.n > 4:
            continue
        names = list(outcomes(template))
        for name in names:
            expected = outcomes(fresh(template))[name]()
            used = fresh(template)
            runs = outcomes(used)
            for other in reversed(names):
                if other != name:
                    runs[other]()
            assert runs[name]() == expected, (template, name)


def test_failed_verification_settles_each_pair_once(searches):
    failing = 0
    for n in range(1, 6):  # the smallest posets with a top but a section not pc have 5 points
        for template in enumerate_posets(n):
            if template.top is None:
                continue
            first = verify_pseudocomplemented_sections(fresh(template))[0].as_dict()
            if first["pass"]:
                continue
            every = verify_pseudocomplemented_sections(fresh(template), True)[0].as_dict()
            P = fresh(template)
            searches.clear()
            for _ in range(2):
                assert verify_pseudocomplemented_sections(P)[0].as_dict() == first
                assert verify_pseudocomplemented_sections(P, True)[0].as_dict() == every
            assert searches == each_pair_once(P)  # no early exit, and nothing searched again
            failing += 1
    assert failing


@pytest.mark.parametrize("reader", [implication, section_pseudocomplement])
@pytest.mark.parametrize("name", ["m3", "pentagon", "nine"])
def test_per_pair_grid_searches_each_pair_once(searches, request, name, reader):
    P = fresh(NINE if name == "nine" else request.getfixturevalue(name))
    for x in range(P.n):
        for y in range(P.n):
            try:
                reader(P, x, y)
            except PosetError:
                pass  # m3 has no x -> 0: its section above 0 lacks x^0
    assert searches == each_pair_once(P)


def failure(call):
    try:
        call()
    except PosetError as exc:
        return type(exc), str(exc)
    return None


def test_poset_of_fails_alike_on_every_call(pc_corpus):
    failing = 0
    for P, _ in pc_corpus:
        if P.n > 3:  # each of poset_of's failures already occurs here
            continue
        for M in single_cell_mutants(algebra_of(P)):
            first = failure(lambda: poset_of(M))
            assert failure(lambda: poset_of(M)) == first
            twin = IAlgebra(M.labels, M.arrow, M.unit)
            assert failure(lambda: poset_of(twin)) == first
            if first is None:
                assert poset_of(M) is poset_of(M)
                assert rebuilt(poset_of(M)) == rebuilt(poset_of(twin))
            failing += first is not None
    assert failing


def test_with_cell_shares_no_cached_view(pentagon):
    A = algebra_of(pentagon)
    views = (A.cells, A.up, A.down, poset_of(A))
    x, y = pentagon.bottom, pentagon.top  # bottom -> top = {top}; make it {bottom}
    M = A.with_cell(x, y, {x})
    twin = IAlgebra(M.labels, M.arrow, M.unit)
    assert (M.cells, M.up, M.down) == (twin.cells, twin.up, twin.down)
    assert M.cells != A.cells and M.up != A.up and M.down != A.down
    assert failure(lambda: poset_of(M)) == failure(lambda: poset_of(twin)) is not None
    assert (A.cells, A.up, A.down, poset_of(A)) == views


@pytest.mark.parametrize("name", ["pentagon", "crown"])
def test_a_mutant_keeping_the_unit_relation_searches_nothing(searches, request, name):
    A = algebra_of(fresh(request.getfixturevalue(name)))
    parent, _ = poset_of(A)
    kept = changed = 0
    for M in single_cell_mutants(A):
        searches.clear()
        rebuild = failure(lambda: poset_of(M))
        assert failure(lambda: roundtrip_check(M, True)) == rebuild
        if M.up == A.up:
            assert searches == [] and M.order is parent
            if rebuild is None:
                assert poset_of(M)[0] is poset_of(A)[0]
                kept += 1
        elif rebuild is None or rebuild[0] is SectionMismatch:
            # a changed relation settles its own order, each pair once
            assert M.order is not parent and searches == each_pair_once(M.order)
            changed += 1
        else:
            assert searches == []  # failed before any section was settled
    assert kept and changed


def scanned_roundtrips(P: Poset) -> dict:
    """The all-witness lists of both roundtrips of ``P``, by the element scan
    alone, or the error the rebuild raises."""
    table = section_table(P)
    A = table.algebra
    try:
        back, back_table = poset_of(A)
    except PosetError as exc:
        return type(exc), str(exc)
    keys = sorted(set(table.entries) | set(back_table.entries))
    scans = {
        "order": [(x, y) for x in range(P.n) for y in iter_bits(P.up[x] ^ back.up[x])],
        "sections": [key for key in keys if table.get(*key) != back_table.get(*key)],
        "arrow": [(x, y) for x in range(A.n) for y in range(A.n)
                  if back_table.arrow[x][y] != A.cells[x][y]],
    }
    return {law: [P.labels_of(w) for w in found] for law, found in scans.items()}


def roundtrip_lists(P: Poset) -> dict:
    """The all-witness lists of both roundtrips of ``P``, or the error raised."""
    try:
        reports = roundtrip_check(P, True), roundtrip_check(section_table(P).algebra, True)
    except PosetError as exc:
        return type(exc), str(exc)
    return {v.law: list(v.witnesses) for report in reports for v in report.verdicts}


def test_roundtrips_on_corrupted_tables_match_the_element_scan(pc_corpus):
    failed = set()
    for P, _ in pc_corpus:
        if P.n > 4:
            continue
        for x, y, bit in itertools.product(*[range(P.n)] * 3):
            value = section_table(P).arrow[x][y] ^ 1 << bit
            if not value:
                continue
            # two copies, so the reports reuse nothing the scan derived
            expected = scanned_roundtrips(corrupted(P, "arrow", x, y, value))
            assert roundtrip_lists(corrupted(P, "arrow", x, y, value)) == expected, (P, x, y)
            if isinstance(expected, dict):
                failed |= {law for law, found in expected.items() if found}
    assert failed == {"order", "sections", "arrow"}


def test_nothing_is_left_to_the_cycle_collector(capsys):
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collector frees, to inspect it
    try:
        for path in sorted(DATA.glob("*.poset")):
            for lead, flag_sets in COMMANDS.values():
                for flags in flag_sets:
                    main([*lead, *flags, str(path)])
        for n in range(1, 5):
            for P in enumerate_posets(n):
                if P.top is not None and verify_pseudocomplemented_sections(P)[0].passed:
                    for run in outcomes(P).values():
                        run()
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, (Poset, SectionTable, IAlgebra))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert cyclic == []


def test_table_outlives_its_poset(crown_tail):
    table = section_table(fresh(crown_tail))  # the fresh poset is freed at once
    expected = section_table(crown_tail)
    assert table.arrow == expected.arrow
    assert table.algebra == expected.algebra
    assert rebuilt(poset_of(table.algebra)) == rebuilt(poset_of(expected.algebra))
