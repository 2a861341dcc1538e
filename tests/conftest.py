"""Shared fixtures and deliberately naive oracles.

The oracle functions below recompute everything from the raw <= matrix
with set comprehensions and explicit quantifier loops; they never touch
the bitmask fast paths they are used to check.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os

import pytest

from unsharp import (
    AXIOMS,
    CheckReport,
    CycleDetected,
    NonSingletonSection,
    NotALattice,
    NotAntisymmetric,
    NotTransitive,
    OrderAxiomFailure,
    Poset,
    SectionMismatch,
    SectionTable,
    build_from_covers,
    enumerate_posets,
    is_lattice,
    section_table,
    verify_pseudocomplemented_sections,
)
from unsharp.corpus import LABELS, CorpusStats, _labeled_relations, _relatively_pseudocomplemented
from unsharp.order import iter_bits
from unsharp.residuation import ResiduationReport
from unsharp.sections import settled_sections

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


def naive_least(P, elems) -> int | None:
    for a in elems:
        if all(P.le(a, b) for b in elems):
            return a
    return None


def naive_greatest_outside(P, base, seeds) -> int | None:
    """The z in ``base`` with no seed below it that lies above every other such z."""
    cands = [z for z in base if not any(P.le(s, z) for s in seeds)]
    greatest = [z for z in cands if all(P.le(w, z) for w in cands)]
    return greatest[0] if greatest else None


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


def naive_sectional_pc(P, x, y) -> int | None:
    """Greatest z with L(U(x,y), z) = L(y), straight from the set definition."""
    lu, ly = naive_lower(P, naive_upper(P, [x, y])), naive_lower(P, [y])
    cands = [z for z in range(P.n) if lu & naive_lower(P, [z]) == ly]
    return naive_greatest(P, cands)


def naive_rebuild(A) -> tuple[Poset, SectionTable]:
    """``poset_of(A)``, or the error it raises.

    The rebuild as it stood before it read the one settled section table of the
    rebuilt order: each claimed cell below the diagonal is recomputed on
    its own, here by ``naive_section_pc``, x then y.  The entries come
    back y then x ascending, the order the settled table holds them in.
    The order verdict is ``naive_order_failure``'s, then the unit on top.
    """
    n, cells, up = A.n, A.cells, A.up
    failure = naive_order_failure(A.labels, up)
    if failure is not None:
        raise OrderAxiomFailure(failure[1])
    for x in range(n):
        if not up[x] >> A.unit & 1:
            raise OrderAxiomFailure(f"unit is not above {A.labels[x]}")
    P = Poset(A.labels, up)
    entries: dict[tuple[int, int], int] = {}
    for x in range(n):
        for y in iter_bits(P.down[x]):
            cell = cells[x][y]
            if cell & (cell - 1):
                raise NonSingletonSection(
                    f"cell ({A.labels[x]},{A.labels[y]}) must be a singleton"
                )
            entries[(x, y)] = cell.bit_length() - 1
    for (x, y), z in entries.items():
        recomputed = naive_section_pc(P, x, y)
        if recomputed != z:
            raise SectionMismatch(
                f"cell ({A.labels[x]},{A.labels[y]}) = {A.labels[z]} but the "
                f"induced order gives "
                f"{'nothing' if recomputed is None else A.labels[recomputed]}"
            )
    return P, SectionTable(P, {(x, y): entries[(x, y)] for y in range(n) for x in range(n)
                               if (x, y) in entries})


def naive_closure(labels, covers) -> tuple[int, ...]:
    """Up rows of ``build_from_covers(labels, covers)``, or its CycleDetected.

    The closure as it stood before the one-pass Warshall closure: whole
    passes over every row until one changes nothing; the bits of a row
    are read with a plain range scan.
    """
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    up = [1 << i for i in range(n)]
    for low, high in covers:
        up[index[low]] |= 1 << index[high]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in [j for j in range(n) if acc >> j & 1]:
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    for i in range(n):
        for j in [j for j in range(n) if up[i] >> j & 1]:
            if i != j and up[j] >> i & 1:
                raise CycleDetected(
                    f"covers force {labels[i]} <= {labels[j]} and conversely"
                )
    return tuple(up)


def naive_order_failure(labels, up_rows) -> tuple[type, str] | None:
    """The type and message of the first order axiom ``Poset(labels, up_rows)``
    finds broken, or None when the rows are a partial order.

    Quantifier loops over the carrier: reflexivity at each i, then for
    each i and each j with i <= j, antisymmetry of (i, j) and then
    transitivity through j to the least k.
    """
    n = len(labels)
    le = lambda i, j: bool(up_rows[i] >> j & 1)
    for i in range(n):
        if not le(i, i):
            return ValueError, f"relation is not reflexive at {labels[i]}"
    for i in range(n):
        for j in range(n):
            if not le(i, j):
                continue
            if i != j and le(j, i):
                return NotAntisymmetric, f"{labels[i]} <= {labels[j]} and conversely"
            for k in range(n):
                if le(j, k) and not le(i, k):
                    return NotTransitive, (f"{labels[i]} <= {labels[j]} <= {labels[k]} "
                                           f"but not {labels[i]} <= {labels[k]}")
    return None


def naive_labeled_relations(n: int):
    """The closed up-rows of every labeled poset on n points, in stream order.

    The generator as it stood before the last level was streamed from
    one frame: every labeled poset climbs n - 1 nested ``yield from``
    frames of ``grow``, which carries ``down`` rows down to the leaves.
    """
    def grow(k: int, up: list[int], down: list[int]):
        if k == n:
            yield tuple(up)
            return
        bit = 1 << k
        full = (1 << k) - 1
        for ideal in range(full + 1):
            closure = 0
            for x in iter_bits(ideal):
                closure |= down[x]
            if closure != ideal:
                continue
            region = full & ~ideal
            for x in iter_bits(ideal):
                region &= up[x]
            flt = region
            while True:
                closure = 0
                for y in iter_bits(flt):
                    closure |= up[y]
                if closure == flt:
                    new_up = [
                        up[x] | (bit if ideal >> x & 1 else 0) for x in range(k)
                    ]
                    new_up.append(bit | flt)
                    new_down = [
                        down[x] | (bit if flt >> x & 1 else 0) for x in range(k)
                    ]
                    new_down.append(bit | ideal)
                    yield from grow(k + 1, new_up, new_down)
                if flt == 0:
                    break
                flt = (flt - 1) & region
    yield from grow(1, [1], [1])


def naive_relabel(up: tuple[int, ...], perm: tuple[int, ...], n: int) -> tuple[int, ...]:
    rows = []
    for i in range(n):
        old = up[perm[i]]
        m = 0
        for j in range(n):
            if old >> perm[j] & 1:
                m |= 1 << j
        rows.append(m)
    return tuple(rows)


def naive_canonical(n: int):
    """(up, orbit) of each lexicographically least labeled encoding.

    The canonical filter as it stood before the per-permutation lookup
    tables: every labeled poset is relabeled row by row under all n!
    permutations and kept when no relabeling encodes smaller.
    """
    perms = list(itertools.permutations(range(n)))
    fact = math.factorial(n)
    for up in naive_labeled_relations(n):
        automorphisms = 0
        least = up
        for perm in perms:
            enc = naive_relabel(up, perm, n)
            if enc == up:
                automorphisms += 1
            if enc < least:
                least = enc
                break
        if least == up:
            yield up, fact // automorphisms


def naive_is_lattice(P) -> bool:
    """Every pair has a least upper and a greatest lower bound."""
    return all(
        naive_least(P, naive_upper(P, [a, b])) is not None
        and naive_greatest(P, naive_lower(P, [a, b])) is not None
        for a in range(P.n)
        for b in range(a + 1, P.n)
    )


def naive_corpus_stats(n: int) -> dict:
    """The ``corpus_stats(n)`` census, counted pair by pair from the set
    definitions over the oracle stream."""
    total = with_top = pc = lattices = rel = 0
    for up in naive_labeled_relations(n):
        P = Poset([f"e{i}" for i in range(n)], up)
        total += 1
        if naive_greatest(P, range(n)) is None:
            continue
        with_top += 1
        pairs = [(x, y) for x in range(n) for y in range(n)]
        pc += all(naive_section_pc(P, x, y) is not None for x, y in pairs if P.le(y, x))
        lattices += naive_is_lattice(P)
        rel += all(naive_relative_pc(P, x, y) is not None for x, y in pairs)
    return {"n": n, "total_posets": total, "with_top": with_top, "pc_sections": pc,
            "lattices": lattices, "rel_pc": rel}


def labeled_census(n: int) -> CorpusStats:
    """The ``corpus_stats(n)`` census over every topped poset of the n-point
    labeled stream, with the library's own three tests on each: the
    route the census took before it counted topped posets by body."""
    labels = LABELS[:n]
    total = with_top = pc = lattices = rel = 0
    for up, down in _labeled_relations(n):
        total += 1
        if not functools.reduce(operator.and_, up):
            continue  # no element is in every up-cone: no top
        with_top += 1
        P = Poset.closed(labels, up, down)
        pc += not settled_sections(P).missing
        lattices += is_lattice(P)
        rel += _relatively_pseudocomplemented(P)
    return CorpusStats(n, total, with_top, pc, lattices, rel)


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


def naive_residuation(P, all_witnesses: bool = True) -> ResiduationReport:
    """The unsharp residuation report with its element-loop law bodies.

    The laws as they stood before the row-mask rewrite, read from the
    poset's section table, kept as the oracle the fast report is
    compared against.
    """
    table = section_table(P)
    imp, conj = table.arrow, table.conj
    top = P.top
    n = P.n
    report = ResiduationReport("unsharp-residuation")

    def commutative():
        for x in range(n):
            for y in range(x + 1, n):
                if conj[x][y] != conj[y][x]:
                    yield (x, y)

    def associative():
        below = [[P.down_closure(cell) for cell in row] for row in conj]
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if below[x][y] & P.down[z] != P.down[x] & below[y][z]:
                        yield (x, y, z)

    def unit():
        for x in range(n):
            if conj[x][top] != 1 << x:
                yield (x,)

    def monotone():
        for x in range(n):
            for y in iter_bits(P.up[x]):
                for z in range(n):
                    target = conj[y][z]
                    for s in iter_bits(conj[x][z]):
                        if not P.up[s] & target:
                            yield (x, y, z)
                            break

    def monotone_dominant():
        for x in range(n):
            for y in iter_bits(P.up[x]):
                for z in range(n):
                    small = conj[x][z]
                    if not small:
                        continue
                    if not any(
                        small & ~P.down[t] == 0 for t in iter_bits(conj[y][z])
                    ):
                        yield (x, y, z)

    def adjoint():
        for x in range(n):
            for y in range(n):
                cell = conj[x][y]
                for z in range(n):
                    member = bool(cell >> z & 1)
                    cond = P.le(z, x) and P.le(z, y) and not imp[y][z] & ~P.up[x]
                    if member != cond:
                        yield (x, y, z)

    def divisible():
        for y in range(P.n):
            for x in iter_bits(P.up[y]):
                cell = imp[x][y]
                if cell & (cell - 1):
                    yield (x, y)
                elif conj[x][cell.bit_length() - 1] & P.up[y] != 1 << y:
                    yield (x, y)

    report.run_law("commutative", commutative(), P.labels_of, all_witnesses)
    report.run_law("associative", associative(), P.labels_of, all_witnesses)
    report.run_law("unit", unit(), P.labels_of, all_witnesses)
    report.run_law("monotone", monotone(), P.labels_of, all_witnesses)
    report.run_law("monotone-dominant", monotone_dominant(), P.labels_of, all_witnesses)
    report.run_law("adjoint", adjoint(), P.labels_of, all_witnesses)
    report.run_law("divisible", divisible(), P.labels_of, all_witnesses)
    return report


def naive_implication_properties(P, all_witnesses: bool = True) -> CheckReport:
    """The implication law suite with its element-loop law bodies.

    The laws as they stood before the row-mask rewrite, read from the
    poset's section table, kept as the oracle the fast report is
    compared against.
    """
    table = section_table(P)
    arrow, joins, entries = table.arrow, table.join, table.entries
    top = P.top
    unit = 1 << top
    report = CheckReport("implication-properties")

    def arrow_from_join():
        for a in range(P.n):
            for b in range(P.n):
                j = joins[a][b]
                if j is not None and arrow[a][b] != 1 << entries[(j, b)]:
                    yield (a, b)

    def arrow_restricts_to_section():
        for a in range(P.n):
            for b in iter_bits(P.down[a]):
                if arrow[a][b] != 1 << entries[(a, b)]:
                    yield (a, b)

    def order_reflection():
        for a in range(P.n):
            for b in range(P.n):
                if P.le(a, b) != (arrow[a][b] == unit):
                    yield (a, b)

    def join_absorption():
        for a in range(P.n):
            for b in range(P.n):
                j = joins[a][b]
                if j is not None and arrow[j][b] != arrow[a][b]:
                    yield (a, b)

    def unit_arrow_identity():
        for a in range(P.n):
            if arrow[top][a] != 1 << a:
                yield (a,)

    def weakening_bound():
        for a in range(P.n):
            for b in range(P.n):
                if arrow[b][a] & ~P.up[a]:
                    yield (a, b)

    def weakening_law():
        for a in range(P.n):
            for b in range(P.n):
                if any(arrow[a][w] != unit for w in iter_bits(arrow[b][a])):
                    yield (a, b)

    def antitone_in_premise():
        for a in range(P.n):
            for b in iter_bits(P.up[a]):
                for c in range(P.n):
                    if joins[a][c] is not None and arrow[a][c] & ~P.upper_mask(arrow[b][c]):
                        yield (a, b, c)

    def double_arrow_expansion():
        for a in range(P.n):
            for b in range(P.n):
                if joins[a][b] is None:
                    continue
                if table.arrow_image(arrow[a][b], b) & ~P.up[a]:
                    yield (a, b)

    def triple_arrow_collapse():
        for a in range(P.n):
            for b in range(P.n):
                if joins[a][b] is None:
                    continue
                twice = table.arrow_image(table.arrow_image(arrow[a][b], b), b)
                if arrow[a][b] != twice:
                    yield (a, b)

    report.run_law("arrow-from-join", arrow_from_join(), P.labels_of, all_witnesses)
    report.run_law("arrow-restricts-to-section", arrow_restricts_to_section(), P.labels_of, all_witnesses)
    report.run_law("order-reflection", order_reflection(), P.labels_of, all_witnesses)
    report.run_law("join-absorption", join_absorption(), P.labels_of, all_witnesses)
    report.run_law("unit-arrow-identity", unit_arrow_identity(), P.labels_of, all_witnesses)
    report.run_law("weakening-bound", weakening_bound(), P.labels_of, all_witnesses)
    report.run_law("weakening-law", weakening_law(), P.labels_of, all_witnesses)
    report.run_law("antitone-in-premise", antitone_in_premise(), P.labels_of, all_witnesses)
    report.run_law("double-arrow-expansion", double_arrow_expansion(), P.labels_of, all_witnesses)
    report.run_law("triple-arrow-collapse", triple_arrow_collapse(), P.labels_of, all_witnesses)
    return report


def naive_lattice_relative(P, all_witnesses: bool = True) -> CheckReport:
    """The lattice-mode relative residuation report with its ``P.le`` law bodies.

    The laws as they stood before the inline bit tests, read from the
    poset's section table, kept as the oracle the fast report is
    compared against.
    """
    if not is_lattice(P):
        raise NotALattice("the relative residuation check needs a lattice")
    table = section_table(P)
    # on a lattice Min U(x,y) is the join alone, so every arrow cell is a singleton
    imp = [[cell.bit_length() - 1 for cell in row] for row in table.arrow]
    join, meet = table.join, table.meet
    n = P.n
    report = CheckReport("relative-residuation")

    def multiplication_monotone():
        for x in range(n):
            for y in iter_bits(P.up[x]):
                for z in range(n):
                    if not P.le(meet[x][z], meet[y][z]):
                        yield (x, y, z)

    def relative_adjointness():
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    xz, yz = join[x][z], join[y][z]
                    if P.le(meet[xz][yz], z) != P.le(xz, imp[y][z]):
                        yield (x, y, z)

    def join_dominance():
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if not P.le(meet[x][z], meet[join[x][y]][z]):
                        yield (x, y, z)

    def residual_bound():
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    inner = join[meet[join[x][y]][join[z][y]]][y]
                    if not P.le(join[z][y], imp[x][inner]):
                        yield (x, y, z)

    def modus_ponens_bound():
        for x in range(n):
            for y in range(n):
                if not P.le(meet[imp[x][y]][join[x][y]], y):
                    yield (x, y)

    def meet_collapse():
        for x in range(n):
            for y in range(n):
                if table.conj[x][y] != 1 << meet[x][y]:
                    yield (x, y)

    v_ii = report.run_law("multiplication-monotone", multiplication_monotone(), P.labels_of, all_witnesses)
    v_iii = report.run_law("relative-adjointness", relative_adjointness(), P.labels_of, all_witnesses)
    v_iv = report.run_law("join-dominance", join_dominance(), P.labels_of, all_witnesses)
    v_v = report.run_law("residual-bound", residual_bound(), P.labels_of, all_witnesses)
    v_vi = report.run_law("modus-ponens-bound", modus_ponens_bound(), P.labels_of, all_witnesses)
    same = (v_ii.passed and v_iii.passed) == (v_iv.passed and v_v.passed and v_vi.passed)
    report.run_law("bundle-equivalence", iter(()) if same else iter([()]),
                   lambda w: (), all_witnesses)
    report.run_law("meet-collapse", meet_collapse(), P.labels_of, all_witnesses)
    return report
