"""Finite partial orders stored as fully closed bitmask incidence rows.

Elements are dense indices 0..n-1; labels matter only at I/O
boundaries.  Row ``up[i]`` holds the whole upper cone of ``i`` as a
bitmask (bit j set iff i <= j) and ``down[i]`` the lower cone, so
cones, extremal elements and pairwise bounds each cost a handful of
integer operations.  Posets are immutable and safe to share.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (
    CycleDetected,
    DuplicateLabel,
    NotAntisymmetric,
    NotTransitive,
    UnknownLabel,
)


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


class Poset:
    """Immutable finite poset over labelled elements.

    ``up`` must already be reflexive and transitively closed;
    construction re-checks the order axioms unless ``validate=False``
    (reserved for internal callers that build closed relations by
    construction, e.g. ``restrict``).  ``Poset.closed`` takes rows that
    are already closed and transposed and checks nothing.

    The slot ``_section_table`` is filled lazily, by
    ``sections.settled_sections`` on first use, with the section table,
    complete or not, so every report and reader on one poset shares
    it.  It is derived from ``labels`` and ``up``, plays no part in
    equality or hashing, and holds no reference back to the poset.
    """

    __slots__ = ("n", "labels", "up", "down", "full", "top", "bottom", "_section_table")

    def __init__(self, labels: Iterable[str], up: Iterable[int], *, validate: bool = True):
        labels = tuple(labels)
        up = tuple(up)
        n = len(labels)
        if len(up) != n:
            raise ValueError("relation has a different size than the label list")
        full = (1 << n) - 1
        if len(set(labels)) != n or not all(labels):
            for i, lab in enumerate(labels):
                if not lab:
                    raise ValueError("labels must be non-empty strings")
                if lab in labels[:i]:
                    raise DuplicateLabel(f"duplicate label {lab!r}")
        down = [0] * n
        for i, row in enumerate(up):
            if row & ~full:
                raise ValueError(f"row {i} mentions out-of-range elements")
            for j in iter_bits(row):
                down[j] |= 1 << i
        self._set_rows(labels, up, tuple(down))
        if validate:
            self._validate()

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

    def _validate(self) -> None:
        for i in range(self.n):
            if not self.up[i] >> i & 1:
                raise ValueError(f"relation is not reflexive at {self.labels[i]}")
        for i in range(self.n):
            for j in iter_bits(self.up[i]):
                if i != j and self.up[j] >> i & 1:
                    raise NotAntisymmetric(
                        f"{self.labels[i]} <= {self.labels[j]} and conversely"
                    )
                missing = self.up[j] & ~self.up[i]
                if missing:
                    k = iter_bits(missing)[0]
                    raise NotTransitive(
                        f"{self.labels[i]} <= {self.labels[j]} <= {self.labels[k]} "
                        f"but not {self.labels[i]} <= {self.labels[k]}"
                    )

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
        return tuple(self.labels[e] for e in elems)

    # -- order queries -------------------------------------------------------

    def le(self, i: int, j: int) -> bool:
        self.mask_of((i, j))  # rejects an index outside the carrier
        return bool(self.up[i] >> j & 1)

    def lt(self, i: int, j: int) -> bool:
        return self.le(i, j) and i != j

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
        pos = {e: k for k, e in enumerate(keep)}
        up = []
        for e in keep:
            row = 0
            for f in iter_bits(self.up[e]):
                if f in pos:
                    row |= 1 << pos[f]
            up.append(row)
        return Poset((self.labels[e] for e in keep), up, validate=False)


# -- construction -------------------------------------------------------------


def _label_indices(labels: Sequence[str], pairs, what: str) -> list[tuple[int, int]]:
    index = {}
    for i, lab in enumerate(labels):
        if lab in index:
            raise DuplicateLabel(f"duplicate label {lab!r}")
        index[lab] = i
    out = []
    for low, high in pairs:
        if low not in index:
            raise UnknownLabel(f"unknown label {low!r} in {what}")
        if high not in index:
            raise UnknownLabel(f"unknown label {high!r} in {what}")
        out.append((index[low], index[high]))
    return out


def build_from_covers(labels: Sequence[str], covers) -> Poset:
    """Poset whose order is the reflexive-transitive closure of the cover pairs."""
    if not labels:
        raise ValueError("a poset needs at least one element")
    edges = _label_indices(labels, covers, "covers")
    n = len(labels)
    up = [1 << i for i in range(n)]
    for low, high in edges:
        up[low] |= 1 << high
    # Warshall: after step k, row i holds every j reachable through points 0..k
    for k in range(n):
        bit, row = 1 << k, up[k]
        for i, r in enumerate(up):
            if r & bit:
                up[i] = r | row
    for i in range(n):
        for j in iter_bits(up[i]):
            if i != j and up[j] >> i & 1:
                raise CycleDetected(
                    f"covers force {labels[i]} <= {labels[j]} and conversely"
                )
    return Poset(labels, up, validate=False)


def build_from_relation(labels: Sequence[str], pairs) -> Poset:
    """Poset from explicit <= pairs; only the reflexive closure is added.

    The relation is validated against antisymmetry and transitivity and
    rejected (rather than repaired) when either fails.
    """
    if not labels:
        raise ValueError("a poset needs at least one element")
    rel = _label_indices(labels, pairs, "relation")
    n = len(labels)
    up = [1 << i for i in range(n)]
    for low, high in rel:
        up[low] |= 1 << high
    return Poset(labels, up)


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
