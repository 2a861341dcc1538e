"""Shared fixtures and deliberately naive oracles.

The oracle functions below recompute everything from the raw <= matrix
with set comprehensions and explicit quantifier loops; they never touch
the bitmask fast paths they are used to check.
"""

from __future__ import annotations

import os

import pytest

from unsharp import (
    AXIOMS,
    CheckReport,
    build_from_covers,
    enumerate_posets,
    verify_pseudocomplemented_sections,
)

from reference_tables import (
    CROWN_COVERS,
    CROWN_LABELS,
    CROWN_TAIL_COVERS,
    CROWN_TAIL_LABELS,
    PENTAGON_COVERS,
    PENTAGON_LABELS,
)


@pytest.fixture(scope="session")
def pentagon():
    return build_from_covers(PENTAGON_LABELS, PENTAGON_COVERS)


@pytest.fixture(scope="session")
def crown():
    return build_from_covers(CROWN_LABELS, CROWN_COVERS)


@pytest.fixture(scope="session")
def crown_tail():
    return build_from_covers(CROWN_TAIL_LABELS, CROWN_TAIL_COVERS)


@pytest.fixture(scope="session")
def m3():
    return build_from_covers(
        ["0", "x", "y", "z", "1"],
        [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
    )


@pytest.fixture(scope="session")
def diamond():
    return build_from_covers(
        ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    )


@pytest.fixture(scope="session")
def singleton():
    return build_from_covers(["u"], [])


@pytest.fixture(scope="session")
def pc_corpus():
    """Every labeled poset on at most 5 elements with pseudocomplemented sections."""
    out = []
    for n in range(1, 6):
        for P in enumerate_posets(n):
            report, table = verify_pseudocomplemented_sections(P)
            if report.passed:
                out.append((P, table))
    return out


def corpus_n6_enabled() -> bool:
    return os.environ.get("UNSHARP_CORPUS_N6", "") == "1"


# -- naive oracles ---------------------------------------------------------


def naive_lower(P, elems) -> set[int]:
    return {x for x in range(P.n) if all(P.le(x, a) for a in elems)}


def naive_upper(P, elems) -> set[int]:
    return {x for x in range(P.n) if all(P.le(a, x) for a in elems)}


def naive_min(P, elems) -> set[int]:
    return {a for a in elems if not any(b != a and P.le(b, a) for b in elems)}


def naive_max(P, elems) -> set[int]:
    return {a for a in elems if not any(b != a and P.le(a, b) for b in elems)}


def naive_greatest(P, elems) -> int | None:
    for a in elems:
        if all(P.le(b, a) for b in elems):
            return a
    return None


def naive_section_pc(P, x, y) -> int | None:
    """Greatest z with L(x,z) n [y,1] = {y}, straight from the set definition."""
    sec = {w for w in range(P.n) if P.le(y, w)}
    cands = [z for z in range(P.n) if naive_lower(P, [x, z]) & sec == {y}]
    return naive_greatest(P, cands)


def naive_section_pc_inside(P, x, y) -> int | None:
    """Same search but restricted to candidates inside the section."""
    sec = {w for w in range(P.n) if P.le(y, w)}
    cands = [z for z in sec if naive_lower(P, [x, z]) & sec == {y}]
    return naive_greatest(P, cands)


def naive_implication(P, x, y) -> set[int]:
    mins = naive_min(P, naive_upper(P, [x, y]))
    return {naive_section_pc(P, m, y) for m in mins}


def naive_conjunction(P, x, y) -> set[int]:
    return naive_max(P, naive_lower(P, [x, y]))


def naive_relative_pc(P, x, y) -> int | None:
    cands = [z for z in range(P.n) if naive_lower(P, [x, z]) <= naive_lower(P, [y])]
    return naive_greatest(P, cands)


def naive_is_poset(up_rows: tuple[int, ...]) -> bool:
    """Order-axiom check on raw bit rows, written with quantifier loops only."""
    n = len(up_rows)
    le = lambda i, j: bool(up_rows[i] >> j & 1)
    for i in range(n):
        if not le(i, i):
            return False
    for i in range(n):
        for j in range(n):
            if i != j and le(i, j) and le(j, i):
                return False
            for k in range(n):
                if le(i, j) and le(j, k) and not le(i, k):
                    return False
    return True


def naive_axioms(A) -> list:
    """The six algebra axioms evaluated on the frozenset cells, all witnesses.

    The frozenset axiom checker as it stood before the mask rewrite,
    kept as the oracle the mask checker is compared against.
    """
    n, arrow = A.n, A.arrow
    unit = frozenset((A.unit,))
    le = [[arrow[x][y] == unit for y in range(n)] for x in range(n)]
    labels = A.labels

    def to_labels(w):
        return tuple(labels[i] for i in w)

    def unit_law():
        for x in range(n):
            if arrow[x][x] != unit or arrow[x][A.unit] != unit:
                yield (x,)

    def antisymmetry():
        for x in range(n):
            for y in range(n):
                if x != y and le[x][y] and le[y][x]:
                    yield (x, y)

    def transitivity():
        for x in range(n):
            for y in range(n):
                if not le[x][y]:
                    continue
                for z in range(n):
                    if le[y][z] and not le[x][z]:
                        yield (x, y, z)

    def minimality():
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if z == y or not (le[y][z] and le[z][x]):
                        continue
                    if all(le[z][w] for w in arrow[x][y]):
                        yield (x, y, z)

    def adjointness():
        for y in range(n):
            for x in range(n):
                if not le[y][x]:
                    continue
                for u in range(n):
                    if not le[y][u]:
                        continue
                    if any(
                        z != y and le[y][z] and le[z][x] and le[z][u]
                        for z in range(n)
                    ):
                        continue
                    if not all(le[u][w] for w in arrow[x][y]):
                        yield (x, y, u)

    def reconstruction():
        for x in range(n):
            for y in range(n):
                image: set[int] = set()
                for z in range(n):
                    if not (le[x][z] and le[y][z]):
                        continue
                    if any(
                        u != z and le[x][u] and le[y][u] and le[u][z]
                        for u in range(n)
                    ):
                        continue
                    image |= arrow[z][y]
                if arrow[x][y] != image:
                    yield (x, y)

    generators = {
        "unit": unit_law,
        "antisymmetry": antisymmetry,
        "transitivity": transitivity,
        "minimality": minimality,
        "adjointness": adjointness,
        "reconstruction": reconstruction,
    }
    report = CheckReport("algebra-axioms")
    for law in AXIOMS:
        report.run_law(law, generators[law](), to_labels, True)
    return report.verdicts
