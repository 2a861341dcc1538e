"""Single-valued pseudocomplement notions on finite posets.

Covers pseudocomplements inside sections [y,1], the relative and the
sectional pseudocomplement, negation against the bottom element, the
standard negation laws, and the complemented skeleton carved out by
double negation (the Glivenko construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import (
    NoBottomElement,
    NotPseudocomplemented,
    NotPseudocomplementedSections,
    NoTopElement,
)
from .order import Poset, bounding_member, extremal, greatest_outside, iter_bits
from .reports import CheckReport

if TYPE_CHECKING:
    from .ialgebra import IAlgebra


@dataclass(frozen=True, init=False)
class SectionTable:
    """Partial map (x, y) -> pseudocomplement of x inside [y, 1].

    Entries exist exactly for the pairs where y <= x and the
    pseudocomplement exists; ``missing`` holds the other pairs y <= x.
    Both run y then x ascending.  The undefined cells are the dashes of
    the printed tables.  ``settled_sections`` builds a poset's one table
    and ``section_table`` hands it out only when nothing is missing.  A
    complete table also carries the structures derived from it, each
    computed once on first use: the n x n grids ``arrow`` (implication
    cells) and ``conj`` (conjunction cells) as element bitmasks, the
    pairwise ``join`` and ``meet`` (None where absent), and the
    arrow-table algebra.  It keeps the order rows it reads, not the
    poset that holds it: no reference cycle, and it outlives the poset.
    """

    labels: tuple[str, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]
    top: int | None
    entries: dict[tuple[int, int], int]
    missing: tuple[tuple[int, int], ...]

    def __init__(self, P: Poset, entries: dict[tuple[int, int], int], missing=()):
        self.__dict__.update(labels=P.labels, up=P.up, down=P.down, top=P.top,
                             entries=entries, missing=missing)

    def get(self, x: int, y: int) -> int | None:
        return self.entries.get((x, y))

    @cached_property
    def arrow(self) -> tuple[tuple[int, ...], ...]:
        """x -> y: the section pseudocomplements against y of Min U(x,y)."""
        up, down, entries = self.up, self.down, self.entries
        mins: dict[int, tuple[int, ...]] = {}  # Min U per upper-bound mask
        rows = []
        for x in range(len(up)):
            row = []
            for y in range(len(up)):
                ub = up[x] & up[y]
                if ub not in mins:
                    mins[ub] = iter_bits(extremal(ub, down))
                cell = 0
                for m in mins[ub]:
                    cell |= 1 << entries[(m, y)]
                row.append(cell)
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def conj(self) -> tuple[tuple[int, ...], ...]:
        """x (.) y: the maximal common lower bounds Max L(x,y)."""
        up, down = self.up, self.down
        return tuple(tuple(extremal(dx & dy, up) for dy in down) for dx in down)

    @cached_property
    def join(self) -> tuple[tuple[int | None, ...], ...]:
        up = self.up
        return tuple(tuple(bounding_member(ux & uy, up) for uy in up) for ux in up)

    @cached_property
    def meet(self) -> tuple[tuple[int | None, ...], ...]:
        down = self.down
        return tuple(tuple(bounding_member(dx & dy, down) for dy in down) for dx in down)

    @cached_property
    def algebra(self) -> IAlgebra:
        """The arrow-table algebra: these implication cells, with the top as unit."""
        from .ialgebra import IAlgebra  # ialgebra imports this module

        return IAlgebra.from_cells(self.labels, self.arrow, self.top)

    def arrow_image(self, mask: int, y: int) -> int:
        """Union of the cells w -> y over the members w of ``mask``."""
        out = 0
        for w in iter_bits(mask):
            out |= self.arrow[w][y]
        return out


def section_pseudocomplement(P: Poset, x: int, y: int) -> int | None:
    """Greatest z with L(x,z) n [y,1] = {y}, or None when no greatest exists.

    y must lie in L(x,z), so there is no candidate unless y <= x.
    """
    P.mask_of((x, y))  # rejects an index outside the carrier
    if P.top is None:
        raise NoTopElement("section pseudocomplements require a top element")
    return settled_sections(P).get(x, y)


def _settle_section(P: Poset, y: int, entries: dict[tuple[int, int], int]) -> list[int]:
    """Store x^y in ``entries`` under (x, y) for each x in [y,1], ascending
    in x, and return the x that have none.

    x^y is the greatest member of [y,1] above nothing in (y, x].  Every
    s in (y, x] lies above some minimal element ("atom") a of (y, 1],
    and such an a <= s <= x lies in (y, x] itself, so the atoms a <= x
    seed the same up-closure as all of (y, x].
    """
    up, down = P.up, P.down
    sec = up[y]
    atoms = extremal(sec & ~(1 << y), down)
    missing = []
    for x in iter_bits(sec):
        z = greatest_outside(sec, atoms & down[x], up, down)
        if z is None:
            missing.append(x)
        else:
            entries[(x, y)] = z
    return missing


def settled_sections(P: Poset) -> SectionTable:
    """Every section [y,1] of ``P`` settled, complete or not, and kept on
    ``P``: the first call settles them, y then x ascending, and every
    later one returns the same table."""
    table = getattr(P, "_section_table", None)
    if table is None:
        entries: dict[tuple[int, int], int] = {}
        missing = [(x, y) for y in range(P.n) for x in _settle_section(P, y, entries)]
        table = P._section_table = SectionTable(P, entries, tuple(missing))
    return table


def verify_pseudocomplemented_sections(
    P: Poset, all_witnesses: bool = False
) -> tuple[CheckReport, SectionTable | None]:
    """Check that every section [y,1] is pseudocomplemented.

    Returns the report plus the full table of x^y values on success
    (None on failure; the report then carries the witness pairs, y then
    x ascending).  A poset without a top fails the first law and
    settles nothing; otherwise its sections are settled once, all of
    them, and kept on ``P`` whatever the verdict (``settled_sections``),
    so a later call or a per-pair reader searches nothing.
    """
    report = CheckReport("pseudocomplemented-sections")
    if P.top is None:
        report.run_law("top", iter([()]), lambda w: (), all_witnesses)
        return report, None
    report.run_law("top", iter(()), lambda w: (), all_witnesses)
    table = settled_sections(P)
    verdict = report.run_law("sections", iter(table.missing), P.labels_of, all_witnesses)
    return report, table if verdict.passed else None


def section_table(P: Poset) -> SectionTable:
    """The settled x^y table of ``P``, only when it is complete: the one
    gate every reader of a complete table passes.  Raises without a top,
    or at the first missing pair, y then x ascending."""
    if P.top is None:
        raise NoTopElement("section pseudocomplements require a top element")
    table = settled_sections(P)
    if table.missing:
        raise NotPseudocomplementedSections(
            f"missing section pseudocomplement at ({','.join(P.labels_of(table.missing[0]))})"
        )
    return table


def relative_pseudocomplement(P: Poset, x: int, y: int) -> int | None:
    """Greatest z with L(x,z) contained in L(y), or None.

    z fails exactly when some s in L(x) - L(y) lies below it, so z is the
    greatest member of the carrier above nothing in L(x) - L(y).
    """
    P.mask_of((x, y))  # rejects an index outside the carrier
    return greatest_outside(P.full, P.down[x] & ~P.down[y], P.up, P.down)


def sectional_pseudocomplement(P: Poset, x: int, y: int) -> int | None:
    """Greatest z with L(U(x,y), z) = L(y), or None.

    L(y) lies inside L(U(x,y)), so the equation asks y <= z and that no
    s in L(U(x,y)) - L(y) lies below z: z is the greatest member of
    [y,1] above nothing in L(U(x,y)) - L(y).
    """
    P.mask_of((x, y))  # rejects an index outside the carrier
    lu = P.lower_mask(P.up[x] & P.up[y])
    return greatest_outside(P.up[y], lu & ~P.down[y], P.up, P.down)


def pseudocomplement(P: Poset, x: int) -> int | None:
    """Greatest z with L(x,z) = {0}; needs a bottom element.

    This is x^0: the section [0,1] is the whole carrier.
    """
    P.mask_of((x,))  # rejects an index outside the carrier
    if P.bottom is None:
        raise NoBottomElement("pseudocomplements require a bottom element")
    return settled_sections(P).get(x, P.bottom)


def negation(P: Poset, x: int) -> int:
    """x^0, i.e. the pseudocomplement of x inside the whole bounded poset."""
    P.mask_of((x,))  # rejects an index outside the carrier
    if P.bottom is None:
        raise NoBottomElement("negation requires a bottom element")
    return section_table(P).entries[(x, P.bottom)]


def negation_map(P: Poset) -> tuple[int, ...]:
    """The value of x^0 for every element, as a tuple indexed by element.

    Requires a bottom element and a total pseudocomplement (no check of
    the other sections is made here)."""
    if P.bottom is None:
        raise NoBottomElement("pseudocomplements require a bottom element")
    table = settled_sections(P)
    for x, y in table.missing:  # y then x ascending: the least x without one
        if y == P.bottom:
            raise NotPseudocomplemented(f"element {P.labels[x]} has no pseudocomplement")
    return tuple(table.entries[(x, P.bottom)] for x in range(P.n))


def negation_laws_report(P: Poset, all_witnesses: bool = False) -> CheckReport:
    """Negation laws on a bounded poset with pseudocomplemented sections:
    bounds swap, antitonicity, x <= not not x, triple-negation collapse,
    and contraposition through the implication operator."""
    if P.bottom is None:
        raise NoBottomElement("negation laws require a bottom element")
    table = section_table(P)
    neg = negation_map(P)
    top, up = P.top, P.up
    report = CheckReport("negation-laws")

    def bounds_swap():
        if neg[P.bottom] != top or neg[top] != P.bottom:
            yield (P.bottom, top)

    def antitone():
        for x in range(P.n):
            for y in iter_bits(up[x]):
                if not up[neg[y]] >> neg[x] & 1:
                    yield (x, y)

    def extensive():
        for x in range(P.n):
            if not up[x] >> neg[neg[x]] & 1:
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
