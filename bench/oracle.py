"""Naive oracle for the benchmark, computed from the raw <= matrix alone.

Everything here re-derives the paper's notions from their set
definitions: a poset is a square boolean matrix ``le`` with
``le[x][y]`` true iff x <= y, sets are Python sets, quantifiers are
explicit loops.  Nothing is imported from ``unsharp`` or from the
repository's test suite, so a disagreement between this module and the
library is a real disagreement.

Run as a script to recompute the corpus counts the benchmark checks
against (labeled posets, isomorphism classes, orbit sums, posets with a
top, posets with pseudocomplemented sections) from an independent
enumeration::

    python3 bench/oracle.py --n 6
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

# Hand-written known answers, each confirmed once with ``census`` below.
# Labeled posets follow OEIS A001035, classes OEIS A000112; a poset on n
# points with a top is a poset on n - 1 points plus that top, so
# with_top(n) = n * labeled(n - 1).  ``pc_bottom`` counts the posets with
# pseudocomplemented sections and a bottom, ``pc_lattices`` the lattices
# among those; theorem-sweep draws its strata in these proportions.
CORPUS_STATS = {
    4: {"total_posets": 219, "classes": 16, "orbit_sum": 219, "with_top": 76,
        "pc_sections": 76, "lattices": 36, "rel_pc": 48, "pc_bottom": 36, "pc_lattices": 36},
    5: {"total_posets": 4231, "classes": 63, "orbit_sum": 4231, "with_top": 1095,
        "pc_sections": 1075, "lattices": 380, "rel_pc": 450, "pc_bottom": 360,
        "pc_lattices": 360},
    6: {"total_posets": 130023, "classes": 318, "orbit_sum": 130023, "with_top": 25386,
        "pc_sections": 23136, "lattices": 6390, "rel_pc": 4860, "pc_bottom": 5220,
        "pc_lattices": 5040},
}


# -- order primitives ----------------------------------------------------------


def closure(n: int, pairs) -> tuple[tuple[bool, ...], ...]:
    """Reflexive-transitive closure of index pairs (Warshall)."""
    le = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in pairs:
        le[lo][hi] = True
    for k in range(n):
        for i in range(n):
            if le[i][k]:
                row_k = le[k]
                row_i = le[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return tuple(tuple(row) for row in le)


def is_partial_order(le) -> bool:
    n = len(le)
    return (
        all(le[x][x] for x in range(n))
        and all(not (x != y and le[x][y] and le[y][x]) for x in range(n) for y in range(n))
        and all(
            le[x][z] or not (le[x][y] and le[y][z])
            for x in range(n) for y in range(n) for z in range(n)
        )
    )


def lower(le, elems) -> set[int]:
    return {x for x in range(len(le)) if all(le[x][a] for a in elems)}


def upper(le, elems) -> set[int]:
    return {x for x in range(len(le)) if all(le[a][x] for a in elems)}


def minimal(le, elems) -> set[int]:
    return {a for a in elems if not any(b != a and le[b][a] for b in elems)}


def maximal(le, elems) -> set[int]:
    return {a for a in elems if not any(b != a and le[a][b] for b in elems)}


def greatest(le, elems) -> int | None:
    for a in elems:
        if all(le[b][a] for b in elems):
            return a
    return None


def least(le, elems) -> int | None:
    for a in elems:
        if all(le[a][b] for b in elems):
            return a
    return None


def top(le) -> int | None:
    return greatest(le, range(len(le)))


def bottom(le) -> int | None:
    return least(le, range(len(le)))


def covers(le) -> set[tuple[int, int]]:
    n = len(le)
    return {
        (x, y) for x in range(n) for y in range(n)
        if x != y and le[x][y]
        and not any(z not in (x, y) and le[x][z] and le[z][y] for z in range(n))
    }


def is_lattice(le) -> bool:
    n = len(le)
    return all(
        least(le, upper(le, [x, y])) is not None and greatest(le, lower(le, [x, y])) is not None
        for x in range(n) for y in range(n)
    )


# -- pseudocomplements and the two operators -----------------------------------


def section_pc(le, x: int, y: int) -> int | None:
    """Greatest z with L(x, z) n [y, 1] = {y}."""
    sec = upper(le, [y])
    return greatest(le, [z for z in range(len(le)) if lower(le, [x, z]) & sec == {y}])


def relative_pc(le, x: int, y: int) -> int | None:
    """Greatest z with L(x, z) contained in L(y)."""
    below_y = lower(le, [y])
    return greatest(le, [z for z in range(len(le)) if lower(le, [x, z]) <= below_y])


def sectional_pc(le, x: int, y: int) -> int | None:
    """Greatest z with L(U(x, y), z) = L(y)."""
    ub = upper(le, [x, y])
    below_y = lower(le, [y])
    return greatest(le, [z for z in range(len(le)) if lower(le, list(ub) + [z]) == below_y])


def section_table(le) -> dict[tuple[int, int], int] | None:
    """All x^y for y <= x, or None when there is no top or some x^y is missing."""
    if top(le) is None:
        return None
    n = len(le)
    out = {}
    for y in range(n):
        for x in range(n):
            if le[y][x]:
                z = section_pc(le, x, y)
                if z is None:
                    return None
                out[(x, y)] = z
    return out


def implication(le, x: int, y: int, table=None) -> frozenset[int]:
    """x -> y: the section pseudocomplements against y of Min U(x, y)."""
    return frozenset(
        table[(m, y)] if table is not None else section_pc(le, m, y)
        for m in minimal(le, upper(le, [x, y]))
    )


def conjunction(le, x: int, y: int) -> frozenset[int]:
    """x (.) y: the maximal common lower bounds."""
    return frozenset(maximal(le, lower(le, [x, y])))


def arrow_table(le, table=None):
    """The full implication table, or None without pseudocomplemented sections."""
    if table is None:
        table = section_table(le)
        if table is None:
            return None
    n = len(le)
    return tuple(tuple(implication(le, x, y, table) for y in range(n)) for x in range(n))


def negation(le) -> tuple[int, ...]:
    """x^0 for every x; needs a bottom and pseudocomplemented sections."""
    b = bottom(le)
    return tuple(section_pc(le, x, b) for x in range(len(le)))


def readings_diverge(le) -> bool:
    """Some conjunction cell is a proper antichain, so the single-dominator
    monotonicity reading fails where the per-member reading holds."""
    n = len(le)
    return any(len(conjunction(le, x, y)) > 1 for x in range(n) for y in range(n))


def table_is_valid(arrow, unit: int) -> bool:
    """True iff ``arrow`` is exactly the implication table of the order it induces."""
    n = len(arrow)
    cell_unit = frozenset((unit,))
    le = tuple(tuple(arrow[x][y] == cell_unit for y in range(n)) for x in range(n))
    if not is_partial_order(le) or top(le) != unit:
        return False
    return arrow_table(le) == tuple(tuple(row) for row in arrow)


# -- independent enumeration -------------------------------------------------------


def natural_posets(n: int):
    """Every order on 0..n-1 in which x <= y implies x <= y as integers."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for choice in range(1 << len(pairs)):
        rel = {p for k, p in enumerate(pairs) if choice >> k & 1}
        if all((i, k) in rel for (i, j) in rel for (j2, k) in rel if j == j2):
            yield rel


def _encode(rel, perm, n) -> int:
    code = 0
    for i, j in rel:
        code |= 1 << (perm[i] * n + perm[j])
    return code


def orbits(n: int) -> dict[int, tuple[set, set[int]]]:
    """Isomorphism classes on n points: canonical code -> (a member, its orbit).

    Every labeled poset is a relabeling of a naturally labeled one (take
    a linear extension), so the orbits of the natural posets cover the
    labeled universe.  A code has bit i * n + j set iff i < j in the order.
    """
    perms = list(itertools.permutations(range(n)))
    classes: dict[int, tuple[set, set[int]]] = {}
    for rel in natural_posets(n):
        orbit = {_encode(rel, perm, n) for perm in perms}
        canon = min(orbit)
        if canon not in classes:
            classes[canon] = (rel, orbit)
    return classes


def census(n: int) -> dict[str, int]:
    """Corpus counts; label-invariant properties are evaluated once per
    class and weighted by the orbit size."""
    classes = orbits(n)
    out = {"total_posets": 0, "classes": len(classes), "orbit_sum": 0, "with_top": 0,
           "pc_sections": 0, "lattices": 0, "rel_pc": 0, "pc_bottom": 0, "pc_lattices": 0}
    labeled: set[int] = set()
    for rel, orbit in classes.values():
        labeled |= orbit
        size = len(orbit)
        out["orbit_sum"] += size
        le = closure(n, rel)
        if top(le) is None:
            continue
        out["with_top"] += size
        pc, lattice = section_table(le) is not None, is_lattice(le)
        if pc:
            out["pc_sections"] += size
            if bottom(le) is not None:
                out["pc_bottom"] += size
                out["pc_lattices"] += size * lattice
        if lattice:
            out["lattices"] += size
        if all(relative_pc(le, x, y) is not None for x in range(n) for y in range(n)):
            out["rel_pc"] += size
    out["total_posets"] = len(labeled)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="recompute corpus counts with the oracle")
    parser.add_argument("--n", type=int, required=True)
    args = parser.parse_args(argv)
    got = census(args.n)
    print(json.dumps(got, sort_keys=True))
    want = CORPUS_STATS.get(args.n)
    if want is None:
        return 0
    if got != want:
        print(f"mismatch with the hand-written counts: {want}", file=sys.stderr)
        return 1
    print("matches the hand-written counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
