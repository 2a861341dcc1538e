"""Single-valued pseudocomplement notions on finite posets.

Covers pseudocomplements inside sections [y,1], the relative and the
sectional pseudocomplement, negation against the bottom element, the
standard negation laws, and the complemented skeleton carved out by
double negation (the Glivenko construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    NoBottomElement,
    NotPseudocomplemented,
    NotPseudocomplementedSections,
    NoTopElement,
)
from .order import Poset, iter_bits
from .reports import CheckReport


@dataclass(frozen=True)
class SectionTable:
    """Partial map (x, y) -> pseudocomplement of x inside [y, 1].

    Entries exist exactly for the pairs where y <= x and the
    pseudocomplement exists; the undefined cells are the dashes of the
    printed tables.  A complete table (every section pseudocomplemented)
    also carries the structures derived from it, each an n x n grid
    computed once on first use: the implication cells ``arrow`` and the
    conjunction cells ``conj`` as element bitmasks, and the pairwise
    ``join`` and ``meet`` (None where absent).
    """

    poset: Poset
    entries: dict[tuple[int, int], int]

    def defined(self, x: int, y: int) -> bool:
        return (x, y) in self.entries

    def get(self, x: int, y: int) -> int | None:
        return self.entries.get((x, y))

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def arrow(self) -> tuple[tuple[int, ...], ...]:
        """x -> y: the section pseudocomplements against y of Min U(x,y)."""
        P, entries = self.poset, self.entries
        rows = []
        for x in range(P.n):
            row = []
            for y in range(P.n):
                cell = 0
                for m in iter_bits(P.min_mask(P.up[x] & P.up[y])):
                    cell |= 1 << entries[(m, y)]
                row.append(cell)
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def conj(self) -> tuple[tuple[int, ...], ...]:
        """x (.) y: the maximal common lower bounds Max L(x,y)."""
        P = self.poset
        return tuple(
            tuple(P.max_mask(P.down[x] & P.down[y]) for y in range(P.n))
            for x in range(P.n)
        )

    @cached_property
    def join(self) -> tuple[tuple[int | None, ...], ...]:
        P = self.poset
        return tuple(tuple(P.join(x, y) for y in range(P.n)) for x in range(P.n))

    @cached_property
    def meet(self) -> tuple[tuple[int | None, ...], ...]:
        P = self.poset
        return tuple(tuple(P.meet(x, y) for y in range(P.n)) for x in range(P.n))

    def arrow_image(self, mask: int, y: int) -> int:
        """Union of the cells w -> y over the members w of ``mask``."""
        out = 0
        for w in iter_bits(mask):
            out |= self.arrow[w][y]
        return out

    def arrow_sets(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """The implication cells as frozensets, the form the public tables carry."""
        return tuple(
            tuple(frozenset(iter_bits(cell)) for cell in row) for row in self.arrow
        )


def section_pseudocomplement(P: Poset, x: int, y: int) -> int | None:
    """Greatest z with L(x,z) n [y,1] = {y}, or None when no greatest exists.

    The candidate set is searched over the whole carrier; any candidate
    automatically satisfies y <= z (and requires y <= x), so for
    comparable pairs this coincides with the search inside the section.
    """
    if P.top is None:
        raise NoTopElement("section pseudocomplements require a top element")
    sec = P.up[y]
    want = 1 << y
    cand = 0
    for z in range(P.n):
        if P.down[x] & P.down[z] & sec == want:
            cand |= 1 << z
    if not cand:
        return None
    return P.greatest_of(cand)


def verify_pseudocomplemented_sections(
    P: Poset, all_witnesses: bool = False
) -> tuple[CheckReport, SectionTable | None]:
    """Check that every section [y,1] is pseudocomplemented.

    Returns the report plus the full table of x^y values on success
    (None on failure; the report then carries a witness pair).
    """
    report = CheckReport("pseudocomplemented-sections")
    if P.top is None:
        report.run_law("top", iter([()]), lambda w: (), all_witnesses)
        return report, None
    report.run_law("top", iter(()), lambda w: (), all_witnesses)
    entries: dict[tuple[int, int], int] = {}

    def failures():
        for y in range(P.n):
            for x in iter_bits(P.up[y]):
                z = section_pseudocomplement(P, x, y)
                if z is None:
                    yield (x, y)
                else:
                    entries[(x, y)] = z

    verdict = report.run_law("sections", failures(), P.labels_of, all_witnesses)
    if not verdict.passed:
        return report, None
    return report, SectionTable(P, entries)


def has_pseudocomplemented_sections(P: Poset) -> bool:
    report, _ = verify_pseudocomplemented_sections(P)
    return report.passed


def section_table(P: Poset) -> SectionTable:
    """The full x^y table; raises when some section pseudocomplement is missing."""
    report, table = verify_pseudocomplemented_sections(P)
    if table is None:
        fail = report.failures()[0]
        where = f" at ({','.join(fail.witness)})" if fail.witness else ""
        raise NotPseudocomplementedSections(f"missing section pseudocomplement{where}")
    return table


def relative_pseudocomplement(P: Poset, x: int, y: int) -> int | None:
    """Greatest z with L(x,z) contained in L(y), or None."""
    cand = 0
    for z in range(P.n):
        if not P.down[x] & P.down[z] & ~P.down[y]:
            cand |= 1 << z
    if not cand:
        return None
    return P.greatest_of(cand)


def sectional_pseudocomplement(P: Poset, x: int, y: int) -> int | None:
    """Greatest z with L(U(x,y), z) = L(y), or None."""
    lu = P.lower_mask(P.up[x] & P.up[y])
    cand = 0
    for z in range(P.n):
        if lu & P.down[z] == P.down[y]:
            cand |= 1 << z
    if not cand:
        return None
    return P.greatest_of(cand)


def pseudocomplement(P: Poset, x: int) -> int | None:
    """Greatest z with L(x,z) = {0}; needs a bottom element."""
    if P.bottom is None:
        raise NoBottomElement("pseudocomplements require a bottom element")
    want = 1 << P.bottom
    cand = 0
    for z in range(P.n):
        if P.down[x] & P.down[z] == want:
            cand |= 1 << z
    if not cand:
        return None
    return P.greatest_of(cand)


def negation(P: Poset, x: int) -> int:
    """x^0, i.e. the pseudocomplement of x inside the whole bounded poset."""
    P.mask_of((x,))  # rejects an index outside the carrier
    if P.bottom is None:
        raise NoBottomElement("negation requires a bottom element")
    _, table = verify_pseudocomplemented_sections(P)
    if table is None:
        raise NotPseudocomplementedSections("negation requires pseudocomplemented sections")
    return table.entries[(x, P.bottom)]


def negation_map(P: Poset) -> tuple[int, ...]:
    """The value of x^0 for every element, as a tuple indexed by element.

    Requires a bottom element and a total pseudocomplement (no check of
    the other sections is made here)."""
    out = []
    for x in range(P.n):
        z = pseudocomplement(P, x)
        if z is None:
            raise NotPseudocomplemented(
                f"element {P.labels[x]} has no pseudocomplement"
            )
        out.append(z)
    return tuple(out)


def negation_laws_report(P: Poset, all_witnesses: bool = False) -> CheckReport:
    """Negation laws on a bounded poset with pseudocomplemented sections:
    bounds swap, antitonicity, x <= not not x, triple-negation collapse,
    and contraposition through the implication operator."""
    if P.bottom is None:
        raise NoBottomElement("negation laws require a bottom element")
    _, table = verify_pseudocomplemented_sections(P)
    if table is None:
        raise NotPseudocomplementedSections(
            "negation laws require pseudocomplemented sections"
        )
    neg = tuple(table.entries[(x, P.bottom)] for x in range(P.n))
    top = P.top
    report = CheckReport("negation-laws")

    def bounds_swap():
        if neg[P.bottom] != top or neg[top] != P.bottom:
            yield (P.bottom, top)

    def antitone():
        for x in range(P.n):
            for y in iter_bits(P.up[x]):
                if not P.le(neg[y], neg[x]):
                    yield (x, y)

    def extensive():
        for x in range(P.n):
            if not P.le(x, neg[neg[x]]):
                yield (x,)

    def triple_collapse():
        for x in range(P.n):
            if neg[neg[neg[x]]] != neg[x]:
                yield (x,)

    def contraposition():
        arrow, unit = table.arrow, 1 << top
        for x in range(P.n):
            for y in range(P.n):
                if arrow[x][y] == unit and arrow[neg[y]][neg[x]] != unit:
                    yield (x, y)

    report.run_law("bounds-swap", bounds_swap(), P.labels_of, all_witnesses)
    report.run_law("antitone", antitone(), P.labels_of, all_witnesses)
    report.run_law("double-negation-extensive", extensive(), P.labels_of, all_witnesses)
    report.run_law("triple-negation-collapse", triple_collapse(), P.labels_of, all_witnesses)
    report.run_law("contraposition", contraposition(), P.labels_of, all_witnesses)
    return report


def glivenko_skeleton(P: Poset, all_witnesses: bool = False) -> tuple[Poset, CheckReport]:
    """Induced subposet on the double-negation-closed elements.

    Works on any bounded poset whose pseudocomplement x^0 is total.  The
    report certifies that the carrier is exactly the set of fixed points
    of double negation and that negation complements every member
    inside the subposet.
    """
    if P.top is None:
        raise NoTopElement("the skeleton requires a top element")
    if P.bottom is None:
        raise NoBottomElement("the skeleton requires a bottom element")
    neg = negation_map(P)
    prime = sorted(set(neg))
    prime_mask = P.mask_of(prime)
    sub = P.restrict(prime)
    report = CheckReport("glivenko-skeleton")

    def fixed_points():
        fixed = {x for x in range(P.n) if neg[neg[x]] == x}
        for x in fixed.symmetric_difference(prime):
            yield (x,)

    def complementation():
        bot, top = 1 << P.bottom, 1 << P.top
        for a in prime:
            na = neg[a]
            meets_at_bottom = P.down[a] & P.down[na] & prime_mask == bot
            joins_at_top = P.up[a] & P.up[na] & prime_mask == top
            if not (na in prime and meets_at_bottom and joins_at_top):
                yield (a,)

    report.run_law("double-negation-fixed-points", fixed_points(), P.labels_of, all_witnesses)
    report.run_law("complementation", complementation(), P.labels_of, all_witnesses)
    return sub, report
