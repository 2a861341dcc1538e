"""Set-valued implication and conjunction, their tables, and the law suite.

The implication of x and y collects the section pseudocomplements of
the minimal upper bounds of {x, y}; the conjunction collects the
maximal lower bounds.  Both return antichains, rendered as bare
elements when they are singletons.

Comparison conventions used throughout: a set "equals 1" when it is
exactly {top}; A <= B between sets means every member of A is below
every member of B; a set equals an element only when it is that
singleton.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyOperand, NotPseudocomplementedSections, NoTopElement
from .order import Poset, iter_bits
from .reports import CheckReport
from .sections import (
    relative_pseudocomplement,
    section_pseudocomplement,
    section_table,
    sectional_pseudocomplement,
)

KINDS = ("xy", "imp", "conj", "rel", "circ")


@dataclass(frozen=True)
class OperatorTable:
    """Total table of one binary operator; None marks an undefined cell."""

    poset: Poset
    kind: str
    cells: tuple[tuple[frozenset[int] | None, ...], ...]

    def cell(self, x: int, y: int) -> frozenset[int] | None:
        return self.cells[x][y]


def implication(P: Poset, x: int, y: int) -> tuple[int, ...]:
    """Image of Min U(x,y) under the section pseudocomplement against y."""
    if P.top is None:
        raise NoTopElement("implication requires a top element")
    out = 0
    for m in iter_bits(P.min_mask(P.up[x] & P.up[y])):
        s = section_pseudocomplement(P, m, y)
        if s is None:
            raise NotPseudocomplementedSections(
                f"no pseudocomplement of {P.labels[m]} in the section above {P.labels[y]}"
            )
        out |= 1 << s
    return P.set_of(out)


def conjunction(P: Poset, x: int, y: int) -> tuple[int, ...]:
    """Maximal common lower bounds of x and y."""
    return P.set_of(P.max_mask(P.down[x] & P.down[y]))


def conjunction_of_sets(P: Poset, A, B) -> tuple[int, ...]:
    """Maximal elements of the common lower cone of A u B.

    This is the literal cone reading: the result bounds every member of
    both operands.  It coincides with ``conjunction`` on singletons but
    is not associative; see ``downset_conjunction`` for the lift used by
    the residuation checks.
    """
    amask, bmask = P.mask_of(A), P.mask_of(B)
    if not amask or not bmask:
        raise EmptyOperand("conjunction operands must be non-empty")
    return P.set_of(P.max_mask(P.lower_mask(amask | bmask)))


def downset_conjunction(P: Poset, A, B) -> tuple[int, ...]:
    """Maximal elements of downclosure(A) n downclosure(B).

    Coincides with ``conjunction`` on singletons, tolerates empty
    operands, and is associative, because the down-closure of the
    maximal elements of a down-set is that down-set again.
    """
    da = P.down_closure(P.mask_of(A))
    db = P.down_closure(P.mask_of(B))
    return P.set_of(P.max_mask(da & db))


def operator_table(P: Poset, kind: str) -> OperatorTable:
    """Full n x n table for one of the operator kinds in ``KINDS``."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "imp":
        return OperatorTable(P, kind, section_table(P).arrow_sets())
    cells: list[list[frozenset[int] | None]] = []
    if kind == "xy":
        if P.top is None:
            raise NoTopElement("section tables require a top element")
        for x in range(P.n):
            row: list[frozenset[int] | None] = []
            for y in range(P.n):
                if P.le(y, x):
                    z = section_pseudocomplement(P, x, y)
                    row.append(None if z is None else frozenset((z,)))
                else:
                    row.append(None)
            cells.append(row)
    else:
        single = {
            "rel": relative_pseudocomplement,
            "circ": sectional_pseudocomplement,
        }
        for x in range(P.n):
            row = []
            for y in range(P.n):
                if kind == "conj":
                    row.append(frozenset(conjunction(P, x, y)))
                else:
                    z = single[kind](P, x, y)
                    row.append(None if z is None else frozenset((z,)))
            cells.append(row)
    return OperatorTable(P, kind, tuple(tuple(row) for row in cells))


def implication_properties_report(P: Poset, all_witnesses: bool = False) -> CheckReport:
    """Law suite for the implication operator.

    Join-guarded laws are only evaluated on tuples where the needed
    join exists; everything else is quantified over the whole carrier.
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
        # every member of b -> c below every member of a -> c
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
