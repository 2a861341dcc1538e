"""The row-mask law checkers agree with their element-loop oracles.

``unsharp_residuation_report`` and ``implication_properties_report``
quantify with row masks, and ``lattice_relative_residuation_report``
with bit tests on local rows; ``naive_residuation``,
``naive_implication_properties`` and ``naive_lattice_relative`` keep
the element loops they replaced.  All read the poset's stored section
table, so a table with one corrupted cell, installed on a fresh poset,
makes the laws fail and shows that the two agree on failures and
witnesses too.
"""

import itertools

from unsharp import (
    Poset,
    SectionTable,
    implication_properties_report,
    is_lattice,
    lattice_relative_residuation_report,
    section_table,
    unsharp_residuation_report,
)

from conftest import naive_implication_properties, naive_lattice_relative, naive_residuation

REWRITTEN = {"monotone", "monotone-dominant", "adjoint", "weakening-law", "antitone-in-premise"}
LATTICE_LAWS = {"multiplication-monotone", "relative-adjointness", "join-dominance",
                "residual-bound", "modus-ponens-bound"}


def reports(P: Poset) -> tuple:
    fast = (unsharp_residuation_report(P, True), implication_properties_report(P, True))
    naive = (naive_residuation(P), naive_implication_properties(P))
    return [r.as_dict() for r in fast], [r.as_dict() for r in naive]


def corrupted(P: Poset, grid: str, x: int, y: int, value: int) -> Poset:
    """A fresh copy of ``P`` holding a table whose ``grid`` cell (x, y) is ``value``."""
    Q = Poset(P.labels, P.up)
    table = SectionTable(Q, section_table(P).entries)
    rows = [list(row) for row in getattr(table, grid)]
    rows[x][y] = value
    table.__dict__[grid] = tuple(map(tuple, rows))  # preset the cached grid
    Q._section_table = table
    return Q


def failed_laws(dicts) -> set:
    return {v["law"] for d in dicts for v in d["verdicts"] if not v["pass"]}


def test_fast_reports_match_oracles(pc_corpus):
    failed = set()
    for P, _ in pc_corpus:
        fast, naive = reports(P)
        assert fast == naive, P
        failed |= failed_laws(fast)
    assert failed == {"monotone-dominant"}  # the recorded non-theorem, nothing else


def test_fast_reports_match_oracles_on_corrupted_tables(pc_corpus):
    failed = set()
    for P, _ in pc_corpus:
        if P.n > 4:
            continue
        for grid, x, y, bit in itertools.product(("arrow", "conj"), *[range(P.n)] * 3):
            flipped = getattr(section_table(P), grid)[x][y] ^ 1 << bit
            fast, naive = reports(corrupted(P, grid, x, y, flipped))
            assert fast == naive, (P, grid, x, y, bit)
            failed |= failed_laws(fast)
    assert REWRITTEN <= failed


def lattice_reports(P: Poset) -> tuple:
    return lattice_relative_residuation_report(P, True).as_dict(), naive_lattice_relative(P).as_dict()


def test_lattice_report_matches_oracle(pc_corpus):
    lattices = 0
    for P, _ in pc_corpus:
        if is_lattice(P):
            fast, naive = lattice_reports(P)
            assert fast == naive, P
            assert fast["pass"], P
            lattices += 1
    assert lattices == 405


def test_lattice_report_matches_oracle_on_corrupted_tables(pc_corpus):
    failed = set()
    for P, _ in pc_corpus:
        if P.n > 4 or not is_lattice(P):
            continue
        table = section_table(P)
        for grid, x, y, v in itertools.product(("join", "meet"), *[range(P.n)] * 3):
            if getattr(table, grid)[x][y] != v:
                fast, naive = lattice_reports(corrupted(P, grid, x, y, v))
                assert fast == naive, (P, grid, x, y, v)
                failed |= failed_laws([fast])
    assert LATTICE_LAWS <= failed
