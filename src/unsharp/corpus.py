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
lexicographically least incidence encoding over all relabelings) and
reports its orbit size, so summing orbits reproduces the labeled count.
Each call builds one byte table per permutation that maps a row mask to
its relabeled mask; a relabeling is compared with the poset one row at a
time, stops at the first row that differs, and rejects the poset when
that row is smaller.  The identity is never tried, and the other
relabelings are tried by total displacement, smallest first, because a
poset that is not least is most often undone by moving few points.
Kept posets count their automorphisms on the way, starting from the
identity's one.

The census counts the labeled posets without streaming them: each
(n - 1)-point poset knows how many one-point extensions it has, one per
order ideal and per filter that fits above it.
"""

from __future__ import annotations

import itertools
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


def enumerate_canonical(n: int, force: bool = False) -> Iterator[tuple[Poset, int]]:
    """Canonical representatives with their orbit sizes under relabeling."""
    labels = _labels(n, force)
    fact = math.factorial(n)
    # the identity (displacement 0) sorts first and is left out: it fixes
    # every poset, so the scan starts with one automorphism; the smallest
    # moves come next, since they reject most posets that are not least
    perms = sorted(
        itertools.permutations(range(n)),
        key=lambda perm: (sum(abs(p - i) for i, p in enumerate(perm)), perm),
    )[1:]
    # table[mask] moves bit perm[j] of a row mask to bit j
    tables = []
    for perm in perms:
        table = [0]
        for k in range(n):
            bit = 1 << perm.index(k)
            table += [m | bit for m in table]
        tables.append((perm, bytes(table)))
    for up, down in _labeled_relations(n):
        automorphisms = 1
        for perm, table in tables:
            # relabeled row i is table[up[perm[i]]]; the first differing row decides
            for p, row in zip(perm, up):
                image = table[up[p]]
                if image != row:
                    break
            else:
                automorphisms += 1
                continue
            if image < row:
                break
        else:
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
