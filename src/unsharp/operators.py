"""Set-valued implication and conjunction, their tables, and the law suite.

The implication of x and y collects the section pseudocomplements of
the minimal upper bounds of {x, y}; the conjunction collects the
maximal lower bounds.  Both return antichains, rendered as bare
elements when they are singletons.

Comparison conventions used throughout: a set "equals 1" when it is
exactly {top}; A <= B between sets means every member of A is below
every member of B; a set equals an element only when it is that
singleton.

``operator_table`` builds one grid per kind (cell masks for imp and
conj, single elements for xy, rel and circ), with one ``greatest_outside``
per distinct (base, seeds) key and one lower cone per distinct upper-bound
mask, and makes one frozenset per distinct cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotPseudocomplementedSections, NoTopElement
from .order import Poset, extremal, greatest_outside, iter_bits
from .reports import CheckReport
from .sections import section_table, settled_sections

KINDS = ("xy", "imp", "conj", "rel", "circ")


@dataclass(frozen=True)
class OperatorTable:
    """Total table of one binary operator; None marks an undefined cell."""

    poset: Poset
    kind: str
    cells: tuple[tuple[frozenset[int] | None, ...], ...]

    def cell(self, x: int, y: int) -> frozenset[int] | None:
        self.poset.mask_of((x, y))  # rejects an index outside the carrier
        return self.cells[x][y]


def implication(P: Poset, x: int, y: int) -> tuple[int, ...]:
    """Image of Min U(x,y) under the section pseudocomplement against y."""
    P.mask_of((x, y))  # rejects an index outside the carrier
    if P.top is None:
        raise NoTopElement("implication requires a top element")
    entries = settled_sections(P).entries
    out = 0
    for m in iter_bits(P.min_mask(P.up[x] & P.up[y])):
        s = entries.get((m, y))
        if s is None:
            raise NotPseudocomplementedSections(
                f"no pseudocomplement of {P.labels[m]} in the section above {P.labels[y]}"
            )
        out |= 1 << s
    return P.set_of(out)


def conjunction(P: Poset, x: int, y: int) -> tuple[int, ...]:
    """Maximal common lower bounds of x and y."""
    P.mask_of((x, y))  # rejects an index outside the carrier
    return P.set_of(P.max_mask(P.down[x] & P.down[y]))


def operator_table(P: Poset, kind: str) -> OperatorTable:
    """Full n x n table for one of the operator kinds in ``KINDS``."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    up, down = P.up, P.down
    if kind in ("imp", "conj"):
        grid = (section_table(P).arrow if kind == "imp"
                else [[extremal(dx & dy, up) for dy in down] for dx in down])
        sets = {m: frozenset(iter_bits(m)) for m in set().union(*grid)}
    else:
        if kind == "xy":
            if P.top is None:
                raise NoTopElement("section tables require a top element")
            entries = settled_sections(P).entries
            grid = [[entries.get((x, y)) for y in range(P.n)] for x in range(P.n)]
        else:
            # the (base, seeds) search of relative_ or sectional_pseudocomplement
            if kind == "rel":
                keys = [[(P.full, dx & ~dy) for dy in down] for dx in down]
            else:
                lower = {ub: P.lower_mask(ub) for ub in {ux & uy for ux in up for uy in up}}
                keys = [[(uy, lower[ux & uy] & ~dy) for uy, dy in zip(up, down)] for ux in up]
            found = {key: greatest_outside(*key, up, down) for key in set().union(*keys)}
            grid = [[found[key] for key in row] for row in keys]
        sets = {z: None if z is None else frozenset((z,)) for z in set().union(*grid)}
    return OperatorTable(P, kind, tuple(tuple(map(sets.__getitem__, row)) for row in grid))


def implication_properties_report(P: Poset, all_witnesses: bool = False) -> CheckReport:
    """Law suite for the implication operator.

    Join-guarded laws are only evaluated on tuples where the needed
    join exists; everything else is quantified over the whole carrier.
    """
    table = section_table(P)
    arrow, joins, entries = table.arrow, table.join, table.entries
    top = P.top
    unit = 1 << top
    img = [[table.arrow_image(cell, b) for b, cell in enumerate(row)] for row in arrow]
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
                if (P.up[a] >> b & 1) != (arrow[a][b] == unit):
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
        # every member w of b -> a has a -> w = 1
        for a in range(P.n):
            units = sum(1 << w for w in range(P.n) if arrow[a][w] == unit)
            for b in range(P.n):
                if arrow[b][a] & ~units:
                    yield (a, b)

    def antitone_in_premise():
        # every member of b -> c below every member of a -> c
        upper = [[P.upper_mask(cell) for cell in row] for row in arrow]
        for a in range(P.n):
            for b in iter_bits(P.up[a]):
                for c in range(P.n):
                    if joins[a][c] is not None and arrow[a][c] & ~upper[b][c]:
                        yield (a, b, c)

    def double_arrow_expansion():
        for a in range(P.n):
            for b in range(P.n):
                if joins[a][b] is None:
                    continue
                if img[a][b] & ~P.up[a]:
                    yield (a, b)

    def triple_arrow_collapse():
        for a in range(P.n):
            for b in range(P.n):
                if joins[a][b] is None:
                    continue
                twice = table.arrow_image(img[a][b], b)
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
