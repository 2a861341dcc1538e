"""Finite partial orders stored as fully closed bitmask incidence rows.

Elements are dense indices 0..n-1; labels matter only at I/O
boundaries.  Row ``up[i]`` holds the whole upper cone of ``i`` as a
bitmask (bit j set iff i <= j) and ``down[i]`` the lower cone, so
cones, extremal elements and pairwise bounds each cost a handful of
integer operations.  Posets are immutable and safe to share.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import CycleDetected, DuplicateLabel, NotAntisymmetric, NotTransitive, UnknownLabel


# the set bit positions of every byte value, ascending, as a low and as a high byte
_BYTE_BITS = tuple(tuple(b for b in range(8) if m >> b & 1) for m in range(256))
_HIGH_BYTE_BITS = tuple(tuple(b + 8 for b in bits) for bits in _BYTE_BITS)


def iter_bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of the non-negative ``mask``, ascending."""
    if mask < 256:
        return _BYTE_BITS[mask]
    if mask < 65536:
        return _BYTE_BITS[mask & 255] + _HIGH_BYTE_BITS[mask >> 8]
    out: list[int] = []
    base = 0
    while mask:
        out += [base + b for b in _BYTE_BITS[mask & 255]]
        mask >>= 8
        base += 8
    return tuple(out)


def bounding_member(mask: int, cones: Sequence[int]) -> int | None:
    """The member of ``mask`` whose cone holds all of ``mask`` (greatest or least), or None."""
    for a in iter_bits(mask):
        if not mask & ~cones[a]:
            return a
    return None


def greatest_outside(base: int, seeds: int, up: Sequence[int], down: Sequence[int]) -> int | None:
    """The greatest member of ``base`` above no member of ``seeds``, or None:
    the one search behind x^y, x * y and x o y."""
    closure = 0
    for s in iter_bits(seeds):
        closure |= up[s]
    return bounding_member(base & ~closure, down)


def extremal(mask: int, cones: Sequence[int]) -> int:
    """The members of ``mask`` whose cone meets ``mask`` in themselves (minimal or maximal)."""
    out = 0
    for a in iter_bits(mask):
        if cones[a] & mask == 1 << a:
            out |= 1 << a
    return out


def checked_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """``labels`` as a tuple, once every label is a non-empty string seen
    once; otherwise the first offender in order is named.  The one label
    check."""
    labels = tuple(labels)
    if not all(isinstance(lab, str) and lab for lab in labels) or len(set(labels)) != len(labels):
        for i, lab in enumerate(labels):
            if not isinstance(lab, str) or not lab:
                raise ValueError("labels must be non-empty strings")
            if lab in labels[:i]:
                raise DuplicateLabel(f"duplicate label {lab!r}")
    return labels


def labels_at(labels: tuple[str, ...], elems: Iterable[int]) -> tuple[str, ...]:
    """The labels of the element indices ``elems``, in order; an index
    outside the carrier is rejected, never read from the end."""
    out = []
    for e in elems:
        if not 0 <= e < len(labels):
            raise ValueError(f"element index {e} out of range")
        out.append(labels[e])
    return tuple(out)


class Poset:
    """Immutable finite poset over labelled elements.

    Two constructors, one per source of rows.  ``Poset(labels, up)`` is
    for rows from outside: it checks the labels and that ``up`` is
    reflexive, antisymmetric and transitive, and raises at the first
    failure (reflexivity at each element, then for each i and each j
    above it antisymmetry of (i, j) and transitivity through j).
    ``Poset.closed(labels, up, down)`` is for rows the library closed
    itself and checks nothing.

    The slot ``_section_table`` is filled lazily, by
    ``sections.settled_sections`` on first use, with the section table,
    complete or not, so every report and reader on one poset shares
    it.  It is derived from ``labels`` and ``up``, plays no part in
    equality or hashing, and holds no reference back to the poset.
    """

    __slots__ = ("n", "labels", "up", "down", "full", "top", "bottom", "_section_table")

    def __init__(self, labels: Iterable[str], up: Iterable[int]):
        labels, up = tuple(labels), tuple(up)
        n = len(labels)
        if len(up) != n:
            raise ValueError("relation has a different size than the label list")
        checked_labels(labels)
        full = (1 << n) - 1
        down = [0] * n
        for i, row in enumerate(up):
            if row & ~full:
                raise ValueError(f"row {i} mentions out-of-range elements")
            for j in iter_bits(row):
                down[j] |= 1 << i
        for i in range(n):
            if not up[i] >> i & 1:
                raise ValueError(f"relation is not reflexive at {labels[i]}")
        for i in range(n):
            for j in iter_bits(up[i]):
                if i != j and up[j] >> i & 1:
                    raise NotAntisymmetric(f"{labels[i]} <= {labels[j]} and conversely")
                missing = up[j] & ~up[i]
                if missing:
                    k = iter_bits(missing)[0]
                    raise NotTransitive(f"{labels[i]} <= {labels[j]} <= {labels[k]} "
                                        f"but not {labels[i]} <= {labels[k]}")
        self._set_rows(labels, up, tuple(down))

    @classmethod
    def closed(cls, labels: tuple[str, ...], up: tuple[int, ...], down: tuple[int, ...]) -> "Poset":
        """The poset of rows already closed and transposed: ``labels`` are
        distinct and non-empty, ``up`` is reflexive and transitive and
        ``down`` is its transpose.  Nothing is checked."""
        P = cls.__new__(cls)
        P._set_rows(labels, up, down)
        return P

    def _set_rows(self, labels: tuple[str, ...], up: tuple[int, ...], down: tuple[int, ...]) -> None:
        self.labels, self.up, self.down = labels, up, down
        self.n = n = len(labels)
        self.full = full = (1 << n) - 1
        self.top = down.index(full) if full in down else None
        self.bottom = up.index(full) if full in up else None

    # -- identity ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poset({list(self.labels)!r}, covers={cover_relation(self)!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poset)
            and self.labels == other.labels
            and self.up == other.up
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.up))

    # -- element bookkeeping ------------------------------------------------

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"unknown label {label!r}") from None

    def mask_of(self, elems: Iterable[int]) -> int:
        m = 0
        for e in elems:
            if not 0 <= e < self.n:
                raise ValueError(f"element index {e} out of range")
            m |= 1 << e
        return m

    def set_of(self, mask: int) -> tuple[int, ...]:
        if mask & ~self.full:
            raise ValueError(f"mask {mask} out of range")
        return iter_bits(mask)

    def labels_of(self, elems: Iterable[int]) -> tuple[str, ...]:
        return labels_at(self.labels, elems)

    # -- order queries -------------------------------------------------------

    def le(self, i: int, j: int) -> bool:
        self.mask_of((i, j))  # rejects an index outside the carrier
        return bool(self.up[i] >> j & 1)

    def lower_mask(self, mask: int) -> int:
        """Common lower cone of the elements in ``mask`` (whole carrier for the empty set)."""
        out = self.full
        for a in iter_bits(mask):
            out &= self.down[a]
        return out

    def upper_mask(self, mask: int) -> int:
        out = self.full
        for a in iter_bits(mask):
            out &= self.up[a]
        return out

    def down_closure(self, mask: int) -> int:
        """Everything below some element of ``mask``."""
        out = 0
        for a in iter_bits(mask):
            out |= self.down[a]
        return out

    def min_mask(self, mask: int) -> int:
        return extremal(mask, self.down)

    def max_mask(self, mask: int) -> int:
        return extremal(mask, self.up)

    def greatest_of(self, mask: int) -> int | None:
        """The greatest element of the subset, if it has one."""
        return bounding_member(mask, self.down)

    def least_of(self, mask: int) -> int | None:
        return bounding_member(mask, self.up)

    def join(self, a: int, b: int) -> int | None:
        self.mask_of((a, b))  # rejects an index outside the carrier
        return self.least_of(self.up[a] & self.up[b])

    def meet(self, a: int, b: int) -> int | None:
        self.mask_of((a, b))  # rejects an index outside the carrier
        return self.greatest_of(self.down[a] & self.down[b])

    def covers(self) -> list[tuple[int, int]]:
        """Transitive reduction as (lower, upper) index pairs, lexicographic."""
        out = []
        for i in range(self.n):
            strict = self.up[i] & ~(1 << i)
            for j in iter_bits(strict):
                between = self.up[i] & self.down[j] & ~(1 << i) & ~(1 << j)
                if not between:
                    out.append((i, j))
        return out

    def restrict(self, elems: Iterable[int]) -> "Poset":
        """Induced subposet on the given elements (ascending index order)."""
        keep = iter_bits(self.mask_of(elems))

        def rows(cones: tuple[int, ...]) -> tuple[int, ...]:
            return tuple(sum(1 << k for k, f in enumerate(keep) if cones[e] >> f & 1) for e in keep)

        return Poset.closed(tuple(self.labels[e] for e in keep), rows(self.up), rows(self.down))


# -- construction -------------------------------------------------------------


def _reflexive_rows(labels: Iterable[str], pairs, what: str) -> tuple[tuple[str, ...], list[int]]:
    """The checked labels and their reflexive rows with the label ``pairs`` added."""
    labels = checked_labels(labels)
    if not labels:
        raise ValueError("a poset needs at least one element")
    index = {lab: i for i, lab in enumerate(labels)}
    up = [1 << i for i in range(len(labels))]
    for low, high in pairs:
        for lab in (low, high):
            if lab not in index:
                raise UnknownLabel(f"unknown label {lab!r} in {what}")
        up[index[low]] |= 1 << index[high]
    return labels, up


def build_from_covers(labels: Sequence[str], covers) -> Poset:
    """Poset whose order is the reflexive-transitive closure of the cover pairs."""
    labels, up = _reflexive_rows(labels, covers, "covers")
    # Warshall: after step k, row i holds every j reachable through points 0..k
    for k in range(len(up)):
        bit, row = 1 << k, up[k]
        for i, r in enumerate(up):
            if r & bit:
                up[i] = r | row
    # the closed rows are reflexive and transitive, so a failure is a cycle
    try:
        return Poset(labels, up)
    except NotAntisymmetric as exc:
        raise CycleDetected(f"covers force {exc}") from None


def build_from_relation(labels: Sequence[str], pairs) -> Poset:
    """Poset from explicit <= pairs; only the reflexive closure is added.

    The relation is validated against antisymmetry and transitivity and
    rejected (rather than repaired) when either fails.
    """
    return Poset(*_reflexive_rows(labels, pairs, "relation"))


# -- elementary operations -----------------------------------------------------


def is_lattice(P: Poset) -> bool:
    """Every pair has a join (least common upper bound) and a meet."""
    up, down = P.up, P.down
    return all(
        bounding_member(up[a] & up[b], up) is not None
        and bounding_member(down[a] & down[b], down) is not None
        for a in range(P.n)
        for b in range(a + 1, P.n)
    )


def cover_relation(P: Poset) -> list[tuple[str, str]]:
    """Transitive reduction as (lower, upper) label pairs."""
    return [(P.labels[i], P.labels[j]) for i, j in P.covers()]
