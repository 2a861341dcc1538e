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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import SizeLimitExceeded
from .order import Poset, is_lattice, iter_bits
from .sections import SectionTable, relative_pseudocomplement, verify_pseudocomplemented_sections

LABELS = "abcdefg"
MAX_N = 7
OPEN_N = 6  # sizes above this need the explicit opt-in flag


def _guard(n: int, force: bool) -> None:
    if not 1 <= n <= MAX_N:
        raise SizeLimitExceeded(f"n must be between 1 and {MAX_N}, got {n}")
    if n > OPEN_N and not force:
        raise SizeLimitExceeded(
            f"n = {n} enumerates millions of posets; pass force=True to run it"
        )


def _labeled_relations(n: int) -> Iterator[tuple[int, ...]]:
    # yields the closed up-rows of every labeled poset on n points
    def grow(k: int, up: list[int], down: list[int]) -> Iterator[tuple[int, ...]]:
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


def _relabel(up: tuple[int, ...], perm: tuple[int, ...], n: int) -> tuple[int, ...]:
    rows = []
    for i in range(n):
        old = up[perm[i]]
        m = 0
        for j in range(n):
            if old >> perm[j] & 1:
                m |= 1 << j
        rows.append(m)
    return tuple(rows)


def enumerate_posets(n: int, force: bool = False) -> Iterator[Poset]:
    """Stream of every labeled poset on n elements."""
    _guard(n, force)
    labels = tuple(LABELS[:n])
    for up in _labeled_relations(n):
        yield Poset(labels, up, validate=False)


def enumerate_canonical(n: int, force: bool = False) -> Iterator[tuple[Poset, int]]:
    """Canonical representatives with their orbit sizes under relabeling."""
    _guard(n, force)
    labels = tuple(LABELS[:n])
    perms = list(itertools.permutations(range(n)))
    fact = math.factorial(n)
    for up in _labeled_relations(n):
        automorphisms = 0
        least = up
        for perm in perms:
            enc = _relabel(up, perm, n)
            if enc == up:
                automorphisms += 1
            if enc < least:
                least = enc
                break
        if least == up:
            yield Poset(labels, up, validate=False), fact // automorphisms


def filter_pc_sections(stream: Iterable[Poset]) -> Iterator[tuple[Poset, SectionTable]]:
    """Keep the posets whose sections are all pseudocomplemented."""
    for P in stream:
        report, table = verify_pseudocomplemented_sections(P)
        if report.passed:
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
        return {
            "n": self.n,
            "total_posets": self.total_posets,
            "with_top": self.with_top,
            "pc_sections": self.pc_sections,
            "lattices": self.lattices,
            "rel_pc": self.rel_pc,
        }


def _relatively_pseudocomplemented(P: Poset) -> bool:
    return all(
        relative_pseudocomplement(P, x, y) is not None
        for x in range(P.n)
        for y in range(P.n)
    )


def corpus_stats(n: int, force: bool = False) -> CorpusStats:
    """Aggregate counts over the labeled stream."""
    total = with_top = pc = lattices = rel = 0
    for P in enumerate_posets(n, force=force):
        total += 1
        if P.top is None:
            continue
        with_top += 1
        report, _ = verify_pseudocomplemented_sections(P)
        if report.passed:
            pc += 1
        if is_lattice(P):
            lattices += 1
        if _relatively_pseudocomplemented(P):
            rel += 1
    return CorpusStats(n, total, with_top, pc, lattices, rel)
