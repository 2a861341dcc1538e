"""Exhaustive enumeration of small labeled posets.

Every theorem-level property in this package is checked against this
universe, so the generator has to be exact: each reflexive,
antisymmetric, transitive relation on n labeled points appears exactly
once.  Posets are grown one element at a time; the new element chooses
an order ideal below it and an order filter above it, with every
ideal member strictly below every filter member, which characterises
the valid one-point extensions without any rejection step.  Each level
hands the next its closed up and down rows, and every corpus poset is
built from them by ``Poset.closed`` without transposing them again.

Canonical mode keeps one representative per isomorphism class (the
lexicographically least up-row encoding over all relabelings) and
reports its orbit size, so summing orbits reproduces the labeled count.
The representatives are grown from the (n - 1)-point ones, by this
lemma:

- The least encoding lists the points in a reverse linear extension:
  every point comes after all points above it.  At step i, a point whose
  strict upper cone is already placed gives a row below 2^(i+1), and a
  point with an unplaced point above it gives a row of at least 2^(i+1);
  a point of the first kind always exists (a maximal unplaced point).
- So the last point is minimal, and no other row holds bit n - 1.  A
  relabeling that undercuts the first n - 1 rows extends, by fixing the
  last point, to one that undercuts the whole encoding.
- Hence every n-point representative is an (n - 1)-point representative
  plus one minimal point under one of its filters: the empty-ideal
  branch of the labeled stream (R. C. Read, "Every one a winner", Ann.
  Discrete Math. 2, 1978).

Each candidate is tested by a depth-first automorphism search that
places only points whose upper cone is placed, compares each relabeled
row with the candidate's, rejects on a smaller row, prunes a larger one
and counts every full placement as an automorphism.  The candidates come
in the labeled stream's order, so the representatives do too.

The census counts the labeled posets without streaming them: each
(n - 1)-point poset knows how many one-point extensions it has, one per
order ideal and per filter that fits above it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

from .errors import SizeLimitExceeded
from .order import Poset, greatest_outside, is_lattice, iter_bits
from .sections import SectionTable, settled_sections

LABELS = "abcdefg"
MAX_N = 7
OPEN_N = 6  # sizes above this need the explicit opt-in flag


def _labels(n: int, force: bool) -> tuple[str, ...]:
    # the labels of an n-point corpus, once n passes the size guard
    if not 1 <= n <= MAX_N:
        raise SizeLimitExceeded(f"n must be between 1 and {MAX_N}, got {n}")
    if n > OPEN_N and not force:
        raise SizeLimitExceeded(
            f"n = {n} enumerates millions of posets; pass force=True to run it"
        )
    return tuple(LABELS[:n])


def _ideals(up: tuple[int, ...], down: tuple[int, ...]) -> list[tuple[int, int]]:
    # each order ideal of the poset, ascending, with its region: the points
    # outside the ideal and above all of it, where the filter of a one-point
    # extension above that ideal must lie
    full = (1 << len(down)) - 1
    ideals = []
    for ideal in range(full + 1):
        closure = 0
        for x in iter_bits(ideal):
            closure |= down[x]
        if closure == ideal:
            region = full & ~ideal
            for x in iter_bits(ideal):
                region &= up[x]
            ideals.append((ideal, region))
    return ideals


def _extension_count(up: tuple[int, ...], down: tuple[int, ...]) -> int:
    # the number of one-point extensions _labeled_relations makes of this
    # poset, without building their rows: one per ideal and per filter (the
    # complement of an ideal) inside that ideal's region
    full = (1 << len(down)) - 1
    ideals = _ideals(up, down)
    filters = {full & ~ideal for ideal, _ in ideals}
    count = 0
    for _, region in ideals:
        flt = region
        while True:
            if flt in filters:
                count += 1
            if flt == 0:
                break
            flt = (flt - 1) & region
    return count


def _labeled_relations(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    # yields the closed (up, down) rows of every labeled poset on n points:
    # each (n - 1)-point poset in its own order, then its one-point
    # extensions (ideals ascending, filters descending), all streamed from
    # this frame; n = 0 yields the one empty relation
    if n == 0:
        yield (), ()
        return
    bit = 1 << (n - 1)
    full = bit - 1
    for up, down in _labeled_relations(n - 1):
        # the filters are the complements of the ideals; each keeps, once
        # first used, the old down rows with the new point below its members
        ideals = _ideals(up, down)
        filters = {full & ~ideal for ideal, _ in ideals}
        old_down = {}
        for ideal, region in ideals:
            # every filter of this ideal shares the old rows, with the new point above the ideal
            prefix = tuple([row | bit if ideal >> x & 1 else row for x, row in enumerate(up)])
            new_down = (ideal | bit,)
            flt = region
            while True:
                if flt in filters:
                    d = old_down.get(flt)
                    if d is None:
                        d = old_down[flt] = tuple(
                            [row | bit if flt >> y & 1 else row for y, row in enumerate(down)]
                        )
                    yield prefix + (bit | flt,), d + new_down
                if flt == 0:
                    break
                flt = (flt - 1) & region


def enumerate_posets(n: int, force: bool = False) -> Iterator[Poset]:
    """Stream of every labeled poset on n elements."""
    labels = _labels(n, force)
    for up, down in _labeled_relations(n):
        yield Poset.closed(labels, up, down)


def _least_automorphisms(up: tuple[int, ...]) -> int | None:
    # None when some relabeling encodes the rows smaller; otherwise the
    # number of automorphisms.  Points are placed one index at a time, each
    # once every point above it is placed, so its relabeled row is known:
    # a smaller row than up[i] undoes the poset, a larger one ends the
    # branch, an equal one descends
    n = len(up)
    full = (1 << n) - 1
    strict = [row & ~(1 << p) for p, row in enumerate(up)]
    image = [0] * n  # image[q] is the bit of q's new index once q is placed

    def place(i: int, placed: int) -> int | None:
        if i == n:
            return 1
        target = up[i]
        count = 0
        for p in iter_bits(full & ~placed):
            cone = strict[p]
            if cone & ~placed:
                continue  # a point above p is not placed yet
            row = 1 << i
            for q in iter_bits(cone):
                row |= image[q]
            if row < target:
                return None
            if row == target:
                image[p] = 1 << i
                found = place(i + 1, placed | 1 << p)
                if found is None:
                    return None
                count += found
        return count

    return place(0, 0)


def _canonical_rows(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    # yields the closed (up, down) rows and the automorphism count of every
    # n-point representative: each (n - 1)-point representative in its own
    # order, then the new minimal point under each of its filters,
    # descending; n = 0 yields the one empty relation
    if n == 0:
        yield (), (), 1
        return
    bit = 1 << (n - 1)
    full = bit - 1
    for body, body_down, _ in _canonical_rows(n - 1):
        for ideal, _ in _ideals(body, body_down):
            flt = full & ~ideal
            up = body + (bit | flt,)
            automorphisms = _least_automorphisms(up)
            if automorphisms is not None:
                down = tuple([row | bit if flt >> y & 1 else row for y, row in enumerate(body_down)])
                yield up, down + (bit,), automorphisms


def enumerate_canonical(n: int, force: bool = False) -> Iterator[tuple[Poset, int]]:
    """Canonical representatives with their orbit sizes under relabeling."""
    labels = _labels(n, force)
    fact = math.factorial(n)
    for up, down, automorphisms in _canonical_rows(n):
        yield Poset.closed(labels, up, down), fact // automorphisms


def filter_pc_sections(stream: Iterable[Poset]) -> Iterator[tuple[Poset, SectionTable]]:
    """Keep the posets with a top whose settled section table misses
    nothing, each with that table."""
    for P in stream:
        if P.top is None:
            continue  # skipped before anything is settled
        table = settled_sections(P)
        if not table.missing:
            yield P, table


@dataclass(frozen=True)
class CorpusStats:
    n: int
    total_posets: int
    with_top: int
    pc_sections: int
    lattices: int
    rel_pc: int

    def as_dict(self) -> dict:
        return asdict(self)


def _relatively_pseudocomplemented(P: Poset) -> bool:
    # x * y is the greatest member of the carrier above nothing in L(x) - L(y)
    if P.top is None:
        return False  # a pair x <= y leaves the whole carrier, which then has no greatest
    up, down, full = P.up, P.down, P.full
    for dx in down:
        for dy in down:
            diff = dx & ~dy  # empty: the whole carrier is left, and its greatest is the top
            if diff and greatest_outside(full, diff, up, down) is None:
                return False
    return True


def corpus_stats(n: int, force: bool = False) -> CorpusStats:
    """Aggregate counts over the labeled stream, taken from one pass over
    the (n - 1)-point posets.

    Every labeled n-point poset is a one-point extension of the poset on
    its first n - 1 points, so ``total_posets`` sums their extension
    counts and no n-point row is built.  A labeled poset with a top is a
    label for the top plus a labeled poset, its body, on the other n - 1
    points, and every counted property is invariant under relabeling.
    So each body is settled once with its top adjoined at the last index,
    and its counts are taken n times: n = 6 settles 4231 posets instead
    of 25386.
    """
    labels = _labels(n, force)
    top = 1 << (n - 1)
    full = (top << 1) - 1
    total = bodies = pc = lattices = rel = 0
    for body, body_down in _labeled_relations(n - 1):
        total += _extension_count(body, body_down)
        bodies += 1
        P = Poset.closed(labels, tuple([row | top for row in body]) + (top,), body_down + (full,))
        if not settled_sections(P).missing:
            pc += 1
        if is_lattice(P):
            lattices += 1
        if _relatively_pseudocomplemented(P):
            rel += 1
    return CorpusStats(n, total, n * bodies, n * pc, n * lattices, n * rel)
