"""Arrow-table algebras, their axiom checker, and the two translations.

An algebra is a finite carrier with a total set-valued arrow and a
distinguished unit.  The six axioms hold on every arrow table that
arises from a finite poset with pseudocomplemented sections, but they
are necessary, not sufficient: on the 2-chain b < a, setting a -> b to
{a, b} passes all six, and ``poset_of`` rejects it with
``NonSingletonSection``.  Until an axiom closes that gap, ``poset_of``
rejects the tables that pass the axioms without coming from a poset.
``algebra_of`` and ``poset_of`` are the mutually inverse translations,
and ``roundtrip_check`` certifies the inversion on concrete instances.
The rebuild checks, in this order, the order axioms (through
``IAlgebra.order``, the unit relation as a checked ``Poset``: the
algebra layer's one order check), the unit on top, the singleton cells
below the diagonal, and their agreement with the sections of the
rebuilt order.  A single-cell mutant (``with_cell``) that keeps its
parent's unit relation shares the parent's ``order``, and with it the
sections that order has settled; its own checks all still run.

Inside axioms, "cell = 1" means the cell is exactly {unit}, and an
arrow applied to an inner set is required to hit {unit} for every
member of that set.  The checker and the translations read the table
as masks: the cells an algebra stores as element bitmasks, and the
unit relation x -> y = 1 as bitmask rows derived once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    NonSingletonSection,
    NotAntisymmetric,
    NotTransitive,
    OrderAxiomFailure,
    SectionMismatch,
    UnknownLabel,
)
from .order import Poset, checked_labels, iter_bits, labels_at
from .reports import CheckReport
from .sections import SectionTable, section_table, settled_sections

AXIOMS = (
    "unit",            # x -> x = x -> 1 = 1
    "antisymmetry",    # x -> y = y -> x = 1  implies  x = y
    "transitivity",    # x -> y = y -> z = 1  implies  x -> z = 1
    "minimality",      # y -> z = z -> x = z -> (x -> y) = 1  implies  z = y
    "adjointness",     # bounded pairs land below the arrow value
    "reconstruction",  # x -> y is the image of its minimal upper bounds
)


def _cell_mask(cell, n: int) -> int:
    # the bitmask of a cell of elements, each member counted once; 0, which
    # no table accepts, when the cell is not a collection of carrier indices
    try:
        members = set(cell)
        return sum(1 << v for v in members) if all(0 <= v < n for v in members) else 0
    except TypeError:
        return 0


@dataclass(frozen=True, init=False)
class IAlgebra:
    """Carrier labels, total arrow table of non-empty cells, unit element.

    The table is stored as element bitmasks (``cells``); ``arrow`` is the
    same table as frozensets, derived on first use.
    """

    labels: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]
    unit: int

    def __init__(self, labels, arrow, unit: int):
        labels = checked_labels(labels)
        n = len(labels)
        self._set(labels, [[_cell_mask(cell, n) for cell in row] for row in arrow], unit)

    @classmethod
    def from_cells(cls, labels, cells, unit: int) -> "IAlgebra":
        """The algebra whose arrow cells are the given element bitmasks."""
        A = cls.__new__(cls)
        A._set(checked_labels(labels), cells, unit)
        return A

    def _set(self, labels: tuple[str, ...], cells, unit: int) -> None:
        # the one table check of both constructors
        n = len(labels)
        if type(unit) is not int or not 0 <= unit < n:
            raise ValueError("unit must be a carrier element")
        if len(cells) != n or any(len(row) != n for row in cells):
            raise ValueError("arrow table must be n x n")
        full = (1 << n) - 1
        if any(not cell or cell & ~full for row in cells for cell in row):
            raise ValueError("arrow cells must be non-empty carrier subsets")
        self.__dict__.update(labels=labels, cells=tuple(map(tuple, cells)), unit=unit)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"unknown label {label!r}") from None

    def labels_of(self, elems) -> tuple[str, ...]:
        return labels_at(self.labels, elems)

    def with_cell(self, x: int, y: int, value) -> "IAlgebra":
        """Copy of the algebra with one cell replaced (for mutation testing).

        Only the new cell is checked.  The copy's ``up`` and ``down`` are
        the parent's with at most bit (x, y) and bit (y, x) flipped; when
        that bit is unchanged, the copy also shares the parent's ``order``
        (built here if need be), unless the parent's relation is no order.
        """
        self.labels_of((x, y))  # a negative index would alias a cell from the end
        cell = _cell_mask(value, self.n)
        if not cell:
            raise ValueError("arrow cells must be non-empty carrier subsets")
        row = list(self.cells[x])
        row[y] = cell
        M = IAlgebra.__new__(IAlgebra)
        M.__dict__.update(labels=self.labels, unit=self.unit,
                          cells=(*self.cells[:x], tuple(row), *self.cells[x + 1:]))
        up, down = self.up, self.down
        if (cell == 1 << self.unit) != bool(up[x] >> y & 1):
            up, down = list(up), list(down)
            up[x] ^= 1 << y
            down[y] ^= 1 << x
        else:
            try:
                M.__dict__["order"] = self.order  # identical rows, identical order
            except OrderAxiomFailure:
                pass
        M.__dict__.update(up=tuple(up), down=tuple(down))
        return M

    @cached_property
    def arrow(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """The arrow cells as frozensets of elements, one per distinct cell."""
        sets = {cell: frozenset(iter_bits(cell)) for cell in set().union(*self.cells)}
        return tuple(tuple(map(sets.__getitem__, row)) for row in self.cells)

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
        down = [0] * self.n
        for x, row in enumerate(self.up):
            for y in iter_bits(row):
                down[y] |= 1 << x
        return tuple(down)

    @cached_property
    def order(self) -> Poset:
        """The unit relation as a checked ``Poset``: the algebra layer's one
        order check.  A relation that is no order raises
        ``OrderAxiomFailure`` with the constructor's message."""
        try:
            return Poset(self.labels, self.up)
        except (ValueError, NotAntisymmetric, NotTransitive) as exc:
            raise OrderAxiomFailure(str(exc)) from None

    @cached_property
    def _rebuilt(self) -> tuple[Poset, SectionTable]:
        # kept only once every check of _rebuild has passed: a
        # cached_property stores nothing when its getter raises
        return _rebuild(self)


def axioms_report(A: IAlgebra, all_witnesses: bool = False) -> CheckReport:
    """Evaluate the six ``AXIOMS``, in that order, by exhaustive
    quantification over the carrier."""
    n, cells, up, down = A.n, A.cells, A.up, A.down
    full = (1 << n) - 1

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
        # u fails when no z strictly between y and x lies below it and u is
        # not below every member of the cell (x, y)
        for y in range(n):
            for x in iter_bits(up[y]):
                above_between = 0
                for z in iter_bits(up[y] & down[x] & ~(1 << y)):
                    above_between |= up[z]
                below_cell = full
                for w in iter_bits(cells[x][y]):
                    below_cell &= down[w]
                for u in iter_bits(up[y] & ~above_between & ~below_cell):
                    yield (x, y, u)

    def reconstruction():
        mins: dict[int, tuple[int, ...]] = {}  # Min U per upper-bound mask
        for x in range(n):
            for y in range(n):
                ub = up[x] & up[y]
                if ub not in mins:
                    mins[ub] = tuple(z for z in iter_bits(ub) if not down[z] & ub & ~(1 << z))
                image = 0
                for z in mins[ub]:
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
    for law in AXIOMS:
        report.run_law(law, generators[law](), A.labels_of, all_witnesses)
    return report


def algebra_of(P: Poset) -> IAlgebra:
    """Arrow table of a poset with pseudocomplemented sections; unit is the top.

    It is the algebra the poset's section table holds, built once per poset.
    """
    return section_table(P).algebra


def poset_of(A: IAlgebra) -> tuple[Poset, SectionTable]:
    """Rebuild the poset from an arrow table, with its own settled section table.

    The order is x <= y iff the cell (x, y) is {unit}.  Validation is
    structural and runs in four steps, each raising at its first failure:
    the order axioms, through ``A.order`` (the checked ``Poset``
    constructor, whose failure is re-raised as ``OrderAxiomFailure`` with
    its message); then the unit on top ("unit is not above x" for the
    least x not below it); then every cell below the diagonal a
    singleton; then those singletons agreeing with the pseudocomplements
    settled on the rebuilt order.  The table returned is that order's own
    settled one, complete, as ``section_table`` gives it.  The rebuild is
    made once per algebra; an algebra that fails a check raises the same
    error on every call.
    """
    return A._rebuilt


def _rebuild(A: IAlgebra) -> tuple[Poset, SectionTable]:
    n, cells, P = A.n, A.cells, A.order
    not_below = P.full & ~P.down[A.unit]
    if not_below:
        raise OrderAxiomFailure(f"unit is not above {A.labels[iter_bits(not_below)[0]]}")
    for x in range(n):
        for y in iter_bits(P.down[x]):
            cell = cells[x][y]
            if cell & (cell - 1):
                raise NonSingletonSection(
                    f"cell ({A.labels[x]},{A.labels[y]}) must be a singleton"
                )
    # every claimed singleton matching its section leaves nothing missing
    table = settled_sections(P)
    for x in range(n):
        for y in iter_bits(P.down[x]):
            z, recomputed = cells[x][y].bit_length() - 1, table.get(x, y)
            if recomputed != z:
                raise SectionMismatch(
                    f"cell ({A.labels[x]},{A.labels[y]}) = {A.labels[z]} but the "
                    f"induced order gives "
                    f"{'nothing' if recomputed is None else A.labels[recomputed]}"
                )
    return P, table


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
    back, back_table = poset_of(table.algebra)
    report = CheckReport("poset-roundtrip")

    # whole structures first; the scans, the one source of witnesses, only
    # when they differ
    def order():
        for x in range(P.n):
            for y in iter_bits(P.up[x] ^ back.up[x]):
                yield (x, y)

    def sections():
        keys = set(table.entries) | set(back_table.entries)
        for x, y in sorted(keys):
            if table.get(x, y) != back_table.get(x, y):
                yield (x, y)

    report.run_law("order", () if P.up == back.up else order(), P.labels_of, all_witnesses)
    report.run_law("sections", () if table.entries == back_table.entries else sections(),
                   P.labels_of, all_witnesses)
    return report


def _roundtrip_algebra(A: IAlgebra, all_witnesses: bool) -> CheckReport:
    # a complete table: every cell below the diagonal was checked; the
    # rebuild keeps A's labels and has raised unless the unit is the top
    _, table = poset_of(A)
    report = CheckReport("algebra-roundtrip")

    def arrow():
        for x in range(A.n):
            for y in range(A.n):
                if table.arrow[x][y] != A.cells[x][y]:
                    yield (x, y)

    report.run_law("arrow", () if table.arrow == A.cells else arrow(), A.labels_of,
                   all_witnesses)
    return report
