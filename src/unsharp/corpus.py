"""Exhaustive enumeration of small labeled posets.

Every theorem-level property in this package is checked against this
universe, so the generator has to be exact: each reflexive,
antisymmetric, transitive relation on n labeled points appears exactly
once.  Posets are grown one element at a time; the new element chooses
an order ideal below it and an order filter above it, with every
ideal member strictly below every filter member, which characterises
the valid one-point extensions without any rejection step.

Canonical mode keeps one representative per isomorphism class (the
lexicographically least incidence encoding over all relabelings) and
reports its orbit size, so summing orbits reproduces the labeled count.
Each call builds one byte table per permutation that maps a row mask to
its relabeled mask; a relabeling is compared with the poset one row at a
time, stops at the first row that differs, and rejects the poset when
that row is smaller.  Kept posets count their automorphisms on the way.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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


def _labeled_relations(n: int) -> Iterator[tuple[int, ...]]:
    # yields the closed up-rows of every labeled poset on n points: each
    # (n - 1)-point poset in its own order, then its one-point extensions
    # (ideals ascending, filters descending), all streamed from this frame
    if n == 1:
        yield (1,)
        return
    bit = 1 << (n - 1)
    full = bit - 1
    for up in _labeled_relations(n - 1):
        down = [0] * (n - 1)
        for x, row in enumerate(up):
            for y in iter_bits(row):
                down[y] |= 1 << x
        for ideal in range(bit):
            closure = 0
            for x in iter_bits(ideal):
                closure |= down[x]
            if closure != ideal:
                continue
            region = full & ~ideal
            for x in iter_bits(ideal):
                region &= up[x]
            # every filter of this ideal shares the old rows, with the new point above the ideal
            prefix = tuple([row | bit if ideal >> x & 1 else row for x, row in enumerate(up)])
            flt = region
            while True:
                closure = 0
                for y in iter_bits(flt):
                    closure |= up[y]
                if closure == flt:
                    yield prefix + (bit | flt,)
                if flt == 0:
                    break
                flt = (flt - 1) & region


def enumerate_posets(n: int, force: bool = False) -> Iterator[Poset]:
    """Stream of every labeled poset on n elements."""
    labels = _labels(n, force)
    for up in _labeled_relations(n):
        yield Poset(labels, up, validate=False)


def enumerate_canonical(n: int, force: bool = False) -> Iterator[tuple[Poset, int]]:
    """Canonical representatives with their orbit sizes under relabeling."""
    labels = _labels(n, force)
    fact = math.factorial(n)
    # table[mask] moves bit perm[j] of a row mask to bit j
    tables = []
    for perm in itertools.permutations(range(n)):
        table = [0]
        for k in range(n):
            bit = 1 << perm.index(k)
            table += [m | bit for m in table]
        tables.append((perm, bytes(table)))
    for up in _labeled_relations(n):
        automorphisms = 0
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
            yield Poset(labels, up, validate=False), fact // automorphisms


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
    """Aggregate counts over the labeled stream."""
    labels = _labels(n, force)
    total = with_top = pc = lattices = rel = 0
    for up in _labeled_relations(n):
        total += 1
        if not functools.reduce(operator.and_, up):
            continue  # no element is in every up-cone: no top
        with_top += 1
        P = Poset(labels, up, validate=False)
        if not settled_sections(P).missing:
            pc += 1
        if is_lattice(P):
            lattices += 1
        if _relatively_pseudocomplemented(P):
            rel += 1
    return CorpusStats(n, total, with_top, pc, lattices, rel)
