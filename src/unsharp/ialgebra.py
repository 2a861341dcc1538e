"""Arrow-table algebras, their axiom checker, and the two translations.

An algebra is a finite carrier with a total set-valued arrow and a
distinguished unit.  The six axioms characterise exactly the arrow
tables that arise from finite posets with pseudocomplemented sections;
``algebra_of`` and ``poset_of`` are the mutually inverse translations,
and ``roundtrip_check`` certifies the inversion on concrete instances.

Inside axioms, "cell = 1" means the cell is exactly {unit}, and an
arrow applied to an inner set is required to hit {unit} for every
member of that set.  The checker and the translations read the table
through the masks an algebra derives once: its cells as element
bitmasks and the unit relation x -> y = 1 as bitmask rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DuplicateLabel,
    NonSingletonSection,
    OrderAxiomFailure,
    SectionMismatch,
    UnknownLabel,
)
from .order import Poset, iter_bits
from .reports import CheckReport
from .sections import SectionTable, section_pseudocomplement, section_table

AXIOMS = (
    "unit",            # x -> x = x -> 1 = 1
    "antisymmetry",    # x -> y = y -> x = 1  implies  x = y
    "transitivity",    # x -> y = y -> z = 1  implies  x -> z = 1
    "minimality",      # y -> z = z -> x = z -> (x -> y) = 1  implies  z = y
    "adjointness",     # bounded pairs land below the arrow value
    "reconstruction",  # x -> y is the image of its minimal upper bounds
)


@dataclass(frozen=True)
class IAlgebra:
    """Carrier labels, total arrow table of non-empty cells, unit element."""

    labels: tuple[str, ...]
    arrow: tuple[tuple[frozenset[int], ...], ...]
    unit: int

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise DuplicateLabel("carrier labels must be distinct")
        if not 0 <= self.unit < n:
            raise ValueError("unit must be a carrier element")
        if len(self.arrow) != n or any(len(row) != n for row in self.arrow):
            raise ValueError("arrow table must be n x n")
        for row in self.arrow:
            for cell in row:
                if not cell or any(not 0 <= v < n for v in cell):
                    raise ValueError("arrow cells must be non-empty carrier subsets")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"unknown label {label!r}") from None

    def labels_of(self, elems) -> tuple[str, ...]:
        return tuple(self.labels[e] for e in elems)

    def with_cell(self, x: int, y: int, value) -> "IAlgebra":
        """Copy of the algebra with one cell replaced (for mutation testing)."""
        rows = [list(row) for row in self.arrow]
        rows[x][y] = frozenset(value)
        return IAlgebra(self.labels, tuple(tuple(r) for r in rows), self.unit)

    @cached_property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        """The arrow cells as element bitmasks."""
        return tuple(
            tuple(sum(1 << v for v in cell) for cell in row) for row in self.arrow
        )

    @cached_property
    def up(self) -> tuple[int, ...]:
        """The unit relation: bit y of row x is set iff x -> y = 1."""
        one = 1 << self.unit
        return tuple(
            sum(1 << y for y, cell in enumerate(row) if cell == one) for row in self.cells
        )

    @cached_property
    def down(self) -> tuple[int, ...]:
        """The transpose of ``up``: bit x of row y is set iff x -> y = 1."""
        return tuple(
            sum(1 << x for x, row in enumerate(self.up) if row >> y & 1) for y in range(self.n)
        )


def axioms_report(A: IAlgebra, laws=None, all_witnesses: bool = False) -> CheckReport:
    """Evaluate the axioms by exhaustive quantification over the carrier.

    ``laws`` restricts the check to a subset of ``AXIOMS`` (in that
    order); by default all six run.
    """
    n, cells, up, down = A.n, A.cells, A.up, A.down

    def unit_law():
        for x in range(n):
            if not (up[x] >> x & 1 and up[x] >> A.unit & 1):
                yield (x,)

    def antisymmetry():
        for x in range(n):
            for y in iter_bits(up[x] & down[x] & ~(1 << x)):
                yield (x, y)

    def transitivity():
        for x in range(n):
            for y in iter_bits(up[x]):
                for z in iter_bits(up[y] & ~up[x]):
                    yield (x, y, z)

    def minimality():
        for x in range(n):
            for y in range(n):
                for z in iter_bits(up[y] & down[x] & ~(1 << y)):
                    if not cells[x][y] & ~up[z]:
                        yield (x, y, z)

    def adjointness():
        for y in range(n):
            for x in iter_bits(up[y]):
                strictly_between = up[y] & down[x] & ~(1 << y)
                for u in iter_bits(up[y]):
                    if not strictly_between & down[u] and cells[x][y] & ~up[u]:
                        yield (x, y, u)

    def reconstruction():
        for x in range(n):
            for y in range(n):
                ub = up[x] & up[y]
                image = 0
                for z in iter_bits(ub):
                    if not down[z] & ub & ~(1 << z):
                        image |= cells[z][y]
                if cells[x][y] != image:
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
    for law in laws if laws is not None else AXIOMS:
        report.run_law(law, generators[law](), A.labels_of, all_witnesses)
    return report


def algebra_of(P: Poset) -> IAlgebra:
    """Arrow table of a poset with pseudocomplemented sections; unit is the top."""
    return _algebra_of_table(section_table(P))


def _algebra_of_table(table: SectionTable) -> IAlgebra:
    P = table.poset
    return IAlgebra(P.labels, table.arrow_sets(), P.top)


def poset_of(A: IAlgebra) -> tuple[Poset, SectionTable]:
    """Rebuild the poset and its section table from an arrow table.

    The order is x <= y iff the cell (x, y) is {unit}.  Validation is
    structural: the relation must be a partial order with the unit on
    top, cells below the diagonal must be singletons, and those
    singletons must agree with the pseudocomplements recomputed from
    the rebuilt order.
    """
    n, cells, up = A.n, A.cells, A.up
    for x in range(n):
        if not up[x] >> x & 1:
            raise OrderAxiomFailure(f"relation is not reflexive at {A.labels[x]}")
    for x in range(n):
        for y in iter_bits(up[x]):
            if x != y and up[y] >> x & 1:
                raise OrderAxiomFailure(
                    f"relation is not antisymmetric at ({A.labels[x]},{A.labels[y]})"
                )
            missing = up[y] & ~up[x]
            if missing:
                k = next(iter_bits(missing))
                raise OrderAxiomFailure(
                    f"relation is not transitive at "
                    f"({A.labels[x]},{A.labels[y]},{A.labels[k]})"
                )
        if not up[x] >> A.unit & 1:
            raise OrderAxiomFailure(f"unit is not above {A.labels[x]}")
    P = Poset(A.labels, up, validate=False)
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
        recomputed = section_pseudocomplement(P, x, y)
        if recomputed != z:
            raise SectionMismatch(
                f"cell ({A.labels[x]},{A.labels[y]}) = {A.labels[z]} but the "
                f"induced order gives "
                f"{'nothing' if recomputed is None else A.labels[recomputed]}"
            )
    return P, SectionTable(P, entries)


def roundtrip_check(obj, all_witnesses: bool = False) -> CheckReport:
    """Certify the double translation returns the original structure.

    Accepts either a poset with pseudocomplemented sections or an
    algebra that passes the axioms; equality is label-preserving.
    """
    if isinstance(obj, Poset):
        return _roundtrip_poset(obj, all_witnesses)
    if isinstance(obj, IAlgebra):
        return _roundtrip_algebra(obj, all_witnesses)
    raise TypeError(f"expected Poset or IAlgebra, got {type(obj).__name__}")


def _roundtrip_poset(P: Poset, all_witnesses: bool) -> CheckReport:
    table = section_table(P)
    back, back_table = poset_of(_algebra_of_table(table))
    report = CheckReport("poset-roundtrip")

    def order():
        for x in range(P.n):
            for y in iter_bits(P.up[x] ^ back.up[x]):
                yield (x, y)

    def sections():
        keys = set(table.entries) | set(back_table.entries)
        for x, y in sorted(keys):
            if table.get(x, y) != back_table.get(x, y):
                yield (x, y)

    report.run_law("labels", iter(()) if back.labels == P.labels else iter([()]),
                   lambda w: (), all_witnesses)
    report.run_law("order", order(), P.labels_of, all_witnesses)
    report.run_law("sections", sections(), P.labels_of, all_witnesses)
    return report


def _roundtrip_algebra(A: IAlgebra, all_witnesses: bool) -> CheckReport:
    P, table = poset_of(A)  # a complete table: every cell below the diagonal was checked
    report = CheckReport("algebra-roundtrip")

    def unit():
        if P.top != A.unit:
            yield (A.unit,)

    def arrow():
        for x in range(A.n):
            for y in range(A.n):
                if table.arrow[x][y] != A.cells[x][y]:
                    yield (x, y)

    report.run_law("labels", iter(()) if P.labels == A.labels else iter([()]),
                   lambda w: (), all_witnesses)
    report.run_law("unit", unit(), A.labels_of, all_witnesses)
    report.run_law("arrow", arrow(), A.labels_of, all_witnesses)
    return report
