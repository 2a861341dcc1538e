"""Residuation and divisibility certificates for the set-valued operators.

The monotonicity condition is checked in two readings.  The normative
one asks each member of x(.)z to sit below some member of y(.)z, which
is what holds on every poset with pseudocomplemented sections.  The
stronger reading asks for a single member of y(.)z dominating all of
x(.)z; it fails as soon as some conjunction cell is a non-singleton
antichain (take x = y), so it is recorded as a separate verdict and
divergences between the readings are surfaced, not treated as
failures.

Associativity is checked with the down-set lift of the conjunction
(the maximal elements of the intersection of the operands'
down-closures, which ``associative()`` compares as down-sets); the
cone lift is not associative.  All checks read the mask tables of
``section_table``.
"""

from __future__ import annotations

from .errors import NotALattice
from .order import Poset, is_lattice, iter_bits
from .reports import CheckReport
from .sections import SectionTable, section_table


class ResiduationReport(CheckReport):
    """The unsharp residuation verdicts; ``monotone-dominant`` is recorded, not required."""

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts if v.law != "monotone-dominant")

    @property
    def readings_diverge(self) -> bool:
        return self.verdict("monotone").passed and not self.verdict("monotone-dominant").passed

    def as_dict(self) -> dict:
        out = super().as_dict()
        return {"name": out["name"], "pass": out["pass"],
                "readings-diverge": self.readings_diverge, "verdicts": out["verdicts"]}


def unsharp_residuation_report(P: Poset, all_witnesses: bool = False) -> ResiduationReport:
    """Evaluate the residuation conditions on a poset with pseudocomplemented sections."""
    table = section_table(P)  # raises NotPseudocomplementedSections, also without a top
    imp, conj = table.arrow, table.conj
    top = P.top
    n = P.n
    # the down-closure and the common upper cone of every conjunction cell
    below = [[P.down_closure(cell) for cell in row] for row in conj]
    above = [[P.upper_mask(cell) for cell in row] for row in conj]
    report = ResiduationReport("unsharp-residuation")

    def commutative():
        for x in range(n):
            for y in range(x + 1, n):
                if conj[x][y] != conj[y][x]:
                    yield (x, y)

    def associative():
        # (x (.) y) (.) z against x (.) (y (.) z) under the down-set lift: each
        # side is the maximal elements of a down-set, so the sides agree
        # exactly when the down-sets do
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if below[x][y] & P.down[z] != P.down[x] & below[y][z]:
                        yield (x, y, z)

    def unit():
        for x in range(n):
            if conj[x][top] != 1 << x:
                yield (x,)

    def monotone():
        # each member of x(.)z below some member of y(.)z, for x <= y
        for x in range(n):
            for y in iter_bits(P.up[x]):
                for z in range(n):
                    if conj[x][z] & ~below[y][z]:
                        yield (x, y, z)

    def monotone_dominant():
        # a single member of y(.)z above the whole of x(.)z, for x <= y
        for x in range(n):
            for y in iter_bits(P.up[x]):
                for z in range(n):
                    if conj[x][z] and not conj[y][z] & above[x][z]:
                        yield (x, y, z)

    def adjoint():
        # z is in x(.)y exactly when z <= x, z <= y and y -> z lies above x
        for x in range(n):
            for y in range(n):
                good = 0
                for z in iter_bits(P.down[x] & P.down[y]):
                    if not imp[y][z] & ~P.up[x]:
                        good |= 1 << z
                for z in iter_bits(conj[x][y] ^ good):
                    yield (x, y, z)

    report.run_law("commutative", commutative(), P.labels_of, all_witnesses)
    report.run_law("associative", associative(), P.labels_of, all_witnesses)
    report.run_law("unit", unit(), P.labels_of, all_witnesses)
    report.run_law("monotone", monotone(), P.labels_of, all_witnesses)
    report.run_law("monotone-dominant", monotone_dominant(), P.labels_of, all_witnesses)
    report.run_law("adjoint", adjoint(), P.labels_of, all_witnesses)
    report.run_law("divisible", _divisibility_failures(table), P.labels_of, all_witnesses)
    return report


def _divisibility_failures(table: SectionTable):
    up, imp, conj = table.up, table.arrow, table.conj
    for y in range(len(up)):
        for x in iter_bits(up[y]):
            cell = imp[x][y]
            if cell & (cell - 1):
                yield (x, y)
            elif conj[x][cell.bit_length() - 1] & up[y] != 1 << y:
                yield (x, y)


def divisibility_report(P: Poset, all_witnesses: bool = False) -> CheckReport:
    """For y <= x: the arrow cell is a singleton {x^y} and x (.) x^y meets [y,1] in {y}."""
    table = section_table(P)
    report = CheckReport("divisibility")

    def singleton():
        for y in range(P.n):
            for x in iter_bits(P.up[y]):
                if table.arrow[x][y] != 1 << table.entries[(x, y)]:
                    yield (x, y)

    report.run_law("arrow-singleton", singleton(), P.labels_of, all_witnesses)
    report.run_law("section-recovery", _divisibility_failures(table), P.labels_of, all_witnesses)
    return report


def lattice_relative_residuation_report(P: Poset, all_witnesses: bool = False) -> CheckReport:
    """Lattice-mode reduction where conjunction is meet and all cells collapse.

    Checks monotonicity and relative adjointness, the three identities
    that axiomatise them, the equivalence of the two bundles (evaluated
    independently), and the meet collapse of the conjunction itself.
    """
    if not is_lattice(P):
        raise NotALattice("the relative residuation check needs a lattice")
    table = section_table(P)
    # on a lattice Min U(x,y) is the join alone, so every arrow cell is a singleton
    imp = [[cell.bit_length() - 1 for cell in row] for row in table.arrow]
    up, join, meet = P.up, table.join, table.meet
    n = P.n
    report = CheckReport("relative-residuation")

    def multiplication_monotone():
        for x in range(n):
            for y in iter_bits(up[x]):
                mx, my = meet[x], meet[y]
                for z in range(n):
                    if not up[mx[z]] >> my[z] & 1:
                        yield (x, y, z)

    def relative_adjointness():
        for x in range(n):
            for y in range(n):
                jx, jy, iy = join[x], join[y], imp[y]
                for z in range(n):
                    xz, yz = jx[z], jy[z]
                    if up[meet[xz][yz]] >> z & 1 != up[xz] >> iy[z] & 1:
                        yield (x, y, z)

    def join_dominance():
        for x in range(n):
            for y in range(n):
                mx, mj = meet[x], meet[join[x][y]]
                for z in range(n):
                    if not up[mx[z]] >> mj[z] & 1:
                        yield (x, y, z)

    def residual_bound():
        for x in range(n):
            for y in range(n):
                ix, mj = imp[x], meet[join[x][y]]
                for z in range(n):
                    zy = join[z][y]
                    if not up[zy] >> ix[join[mj[zy]][y]] & 1:
                        yield (x, y, z)

    def modus_ponens_bound():
        for x in range(n):
            for y in range(n):
                if not up[meet[imp[x][y]][join[x][y]]] >> y & 1:
                    yield (x, y)

    def meet_collapse():
        for x in range(n):
            for y in range(n):
                if table.conj[x][y] != 1 << meet[x][y]:
                    yield (x, y)

    v_ii = report.run_law("multiplication-monotone", multiplication_monotone(), P.labels_of, all_witnesses)
    v_iii = report.run_law("relative-adjointness", relative_adjointness(), P.labels_of, all_witnesses)
    v_iv = report.run_law("join-dominance", join_dominance(), P.labels_of, all_witnesses)
    v_v = report.run_law("residual-bound", residual_bound(), P.labels_of, all_witnesses)
    v_vi = report.run_law("modus-ponens-bound", modus_ponens_bound(), P.labels_of, all_witnesses)
    same = (v_ii.passed and v_iii.passed) == (v_iv.passed and v_v.passed and v_vi.passed)
    report.run_law("bundle-equivalence", iter(()) if same else iter([()]),
                   lambda w: (), all_witnesses)
    report.run_law("meet-collapse", meet_collapse(), P.labels_of, all_witnesses)
    return report
