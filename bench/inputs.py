"""Seeded inputs for the workloads, with their known answers from the oracle.

Orders come from the benchmark's own generator: a random DAG over a
shuffled linear extension, closed transitively, optionally with a
forced bottom and top.  ``random.Random(seed)`` drives every choice, so
one seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import oracle

SWEEP_SIZES = (5, 6, 7, 8)
# lattice / bounded: top and bottom, pseudocomplemented sections, lattice or not;
# topped: pseudocomplemented sections, no bottom; not-pc: a top but some
# section is not pseudocomplemented; no-top: no top at all.
PC_KINDS = ("lattice", "bounded", "topped")
COVERAGE_KINDS = ("not-pc", "no-top")
# Posets with pseudocomplemented sections per size in one round.  Within a
# size the kinds follow their shares of the labeled universe
# (oracle.CORPUS_STATS), as in the exhaustive sweep the workload stands
# in for: at n = 5, 360 lattices and 715 without a bottom among 1075; at
# n = 6, 5040 lattices, 180 bounded non-lattices and 17916 without a
# bottom among 23136.  Sizes 7 and 8, too large to enumerate, take the
# n = 6 shares.  Bounded non-lattices (0.8%) get one item in forty, so
# that every round has one.  No measured job mixes sizes, so each size
# counts the same.
SWEEP_MIX = {
    5: {"lattice": 13, "topped": 27},
    6: {"lattice": 9, "bounded": 1, "topped": 30},
    7: {"lattice": 9, "bounded": 1, "topped": 30},
    8: {"lattice": 9, "bounded": 1, "topped": 30},
}
# Plus one poset of each coverage kind per size and round.  These run
# and are checked, but are not timed: the criteria apply only to posets
# with pseudocomplemented sections.
SWEEP_ROUND = tuple(
    (n, kind)
    for n in SWEEP_SIZES
    for kind, count in [*SWEEP_MIX[n].items(), *((k, 1) for k in COVERAGE_KINDS)]
    for _ in range(count)
)

# Generated cli-batch files: one tuple of document sizes per file.
CLI_FILE_SIZES = (
    (9,), (10,), (11,), (12,), (9,), (10,), (11,), (12,),
    (9, 12), (10, 11), (11, 12), (9, 10, 12),
)


# Shapes planted at random points of the linear extension: (forced, forbidden)
# edges between the shape's points, in extension order.  Bounded non-lattices
# and posets with a top but without pseudocomplemented sections are rare
# among random orders otherwise.
SHAPES = {
    "crown": ({(0, 2), (0, 3), (1, 2), (1, 3)}, {(0, 1), (2, 3)}),
    "m3": ({(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)}, {(1, 2), (1, 3), (2, 3)}),
}


def random_order(rng: random.Random, n: int, *, top: bool, bottom: bool,
                 shape: str | None = None, density: tuple[float, float] = (0.2, 0.7)):
    """A random order on n points as a <= matrix."""
    p = rng.uniform(*density)
    place = list(range(n))
    rng.shuffle(place)
    forced, forbidden = set(), set()
    if shape:
        shape_forced, shape_forbidden = SHAPES[shape]
        k = 1 + max(j for _, j in shape_forced)
        inner = range(int(bottom), n - int(top))
        at = sorted(rng.sample(inner if len(inner) >= k else range(n), k))
        forced = {(at[i], at[j]) for i, j in shape_forced}
        forbidden = {(at[i], at[j]) for i, j in shape_forbidden}
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            if (bottom and a == 0) or (top and b == n - 1) or (a, b) in forced or (
                (a, b) not in forbidden and rng.random() < p
            ):
                pairs.append((place[a], place[b]))
    return oracle.closure(n, pairs)


def classify(le) -> str:
    if oracle.top(le) is None:
        return "no-top"
    if oracle.section_table(le) is None:
        return "not-pc"
    if oracle.bottom(le) is None:
        return "topped"
    return "lattice" if oracle.is_lattice(le) else "bounded"


SHAPE_OF = {"bounded": "crown", "not-pc": "m3"}


def draw(rng: random.Random, n: int, kind: str):
    """Rejection-sample an order of the given stratum."""
    top = kind != "no-top"
    for _ in range(100_000):
        bottom = kind in ("lattice", "bounded") or (kind != "topped" and rng.random() < 0.5)
        le = random_order(rng, n, top=top, bottom=bottom, shape=SHAPE_OF.get(kind))
        if classify(le) == kind:
            return le
    raise RuntimeError(f"no {kind} order on {n} points found")


def up_rows(le) -> tuple[int, ...]:
    """The library's input format: row i has bit j set iff i <= j."""
    return tuple(sum(1 << j for j, v in enumerate(row) if v) for row in le)


@dataclass
class SweepItem:
    """One poset of theorem-sweep, with everything the oracle says about it."""

    kind: str
    labels: tuple[str, ...]
    le: tuple

    @cached_property
    def up(self) -> tuple[int, ...]:
        return up_rows(self.le)

    @cached_property
    def table(self):
        return oracle.section_table(self.le)

    @cached_property
    def arrow(self):
        return oracle.arrow_table(self.le, self.table)

    @cached_property
    def top(self):
        return oracle.top(self.le)

    @cached_property
    def bottom(self):
        return oracle.bottom(self.le)

    @cached_property
    def lattice(self) -> bool:
        return oracle.is_lattice(self.le)

    @cached_property
    def diverge(self) -> bool:
        return oracle.readings_diverge(self.le)

    @cached_property
    def skeleton(self) -> tuple[str, ...]:
        prime = sorted(set(oracle.negation(self.le)))
        return tuple(self.labels[x] for x in prime)

    # the seeded single-cell mutant of the arrow table, see ``mutate``
    mutant: tuple[int, int, int] | None = None

    @cached_property
    def mutant_valid(self) -> bool:
        x, y, z = self.mutant
        rows = [list(row) for row in self.arrow]
        rows[x][y] = mutate(rows[x][y], z, len(rows))
        return oracle.table_is_valid(rows, self.top)


def mutate(cell: frozenset, z: int, n: int) -> frozenset:
    """The mutant (x, y, z) of an arrow table toggles point z in cell (x, y).
    Cells must stay non-empty, so the cell {z} becomes {z + 1 mod n}."""
    return frozenset(((z + 1) % n,)) if cell == {z} else cell ^ {z}


def sweep_items(seed: int):
    """Endless theorem-sweep stream, in rounds of the units of ``SWEEP_ROUND``
    in a seeded order."""
    rng = random.Random(seed)
    strata = list(SWEEP_ROUND)
    while True:
        rng.shuffle(strata)
        for n, kind in strata:
            le = draw(rng, n, kind)
            item = SweepItem(kind, tuple(f"p{i}" for i in range(n)), le)
            if kind in PC_KINDS:
                item.mutant = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            yield item


# -- cli-batch documents ------------------------------------------------------------


@dataclass
class Document:
    """One poset document with the oracle's view of it."""

    name: str
    labels: tuple[str, ...]
    le: tuple

    def text(self) -> str:
        covers = sorted(oracle.covers(self.le))
        return (
            f"poset {self.name}\n"
            f"elements: {' '.join(self.labels)}\n"
            f"covers: {' '.join(f'{self.labels[a]}<{self.labels[b]}' for a, b in covers)}\n"
        )

    @cached_property
    def table(self):
        return oracle.section_table(self.le)

    @cached_property
    def pc(self) -> bool:
        return self.table is not None

    @cached_property
    def diverge(self) -> bool:
        return oracle.readings_diverge(self.le)

    @cached_property
    def skeleton(self) -> tuple[str, ...]:
        return tuple(self.labels[x] for x in sorted(set(oracle.negation(self.le))))

    @cached_property
    def cover_labels(self) -> set[tuple[str, str]]:
        return {(self.labels[a], self.labels[b]) for a, b in oracle.covers(self.le)}

    def cells(self, kind: str):
        """Expected table cells as label lists (None where undefined), row by row."""
        le, n = self.le, len(self.le)

        def single(z):
            return None if z is None else frozenset((z,))

        if kind == "xy":
            cell = lambda x, y: single(oracle.section_pc(le, x, y)) if le[y][x] else None
        elif kind == "imp":
            cell = lambda x, y: oracle.implication(le, x, y, self.table)
        elif kind == "conj":
            cell = lambda x, y: oracle.conjunction(le, x, y)
        elif kind == "rel":
            cell = lambda x, y: single(oracle.relative_pc(le, x, y))
        else:
            cell = lambda x, y: single(oracle.sectional_pc(le, x, y))
        return [
            [None if (c := cell(x, y)) is None else [self.labels[i] for i in sorted(c)]
             for y in range(n)]
            for x in range(n)
        ]


def read_documents(text: str) -> list[Document]:
    """The benchmark's own reader for the poset file grammar; raises ValueError."""
    docs = []
    name, labels, pairs = None, [], []

    def flush():
        if name is not None:
            index = {lab: i for i, lab in enumerate(labels)}
            le = oracle.closure(len(labels), [(index[a], index[b]) for a, b in pairs])
            docs.append(Document(name, tuple(labels), le))

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ") if line.startswith("poset ") else line.partition(":")
        if key == "poset":
            flush()
            name, labels, pairs = rest.strip(), [], []
        elif key == "elements" and name is not None:
            labels.extend(rest.split())
        elif key == "covers" and name is not None:
            for item in rest.split():
                lo, sep, hi = item.partition("<")
                if not (lo and sep and hi) or lo not in labels or hi not in labels:
                    raise ValueError(f"malformed cover {item!r}")
                pairs.append((lo, hi))
        else:
            raise ValueError(f"unrecognised line {line!r}")
    flush()
    if not docs:
        raise ValueError("no documents")
    return docs


def cli_files(seed: int) -> list[tuple[str, list[Document]]]:
    """Generated cli-batch files: bounded posets on 9-12 points with
    pseudocomplemented sections, some files holding several documents."""
    rng = random.Random(seed)
    files = []
    for f, sizes in enumerate(CLI_FILE_SIZES):
        docs = []
        for d, n in enumerate(sizes):
            while True:
                le = random_order(rng, n, top=True, bottom=True, density=(0.5, 0.8))
                if oracle.section_table(le) is not None:
                    break
            docs.append(Document(f"gen{f}_{d}", tuple(f"x{i}" for i in range(n)), le))
        files.append((f"gen{f:02d}.poset", docs))
    return files
