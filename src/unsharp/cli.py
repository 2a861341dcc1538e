"""Batch front door: poset files in, tables / reports / DOT / JSON out.

File grammar (line oriented, UTF-8)::

    poset <name>
    elements: <label> <label> ...
    covers: <lo><hi> <lo><hi> ...     # each item is written lo<hi

``#`` starts a comment, blank lines are ignored, several documents may
share a file (each starts at its ``poset`` header), and ``elements:`` /
``covers:`` lines may repeat and accumulate.  A label is any run of
non-blank characters without ``<``, ``{``, ``}`` or ``,``, other than
``-`` alone, so that every table cell reads back unambiguously.  A name
or label must be printable (``str.isprintable``): a control, format or
other non-printable character in one is a ``ParseError`` at its line, so
no such character reaches a table, a report or a DOT file.

Table cells are printed as a bare label (singleton), ``{a,b}`` with
members in declaration order, or ``-`` (undefined).  Exit status: 0
when everything passed, 1 when some check failed, 2 on input errors.
Every input error names a line: a syntax error its own, and a duplicate
label, unknown cover label or cycle the ``poset`` header of its document.
Every command judges every document of a file before it prints, so an
input error (exit 2) prints nothing on stdout.
A document may declare at most ``MAX_ELEMENTS`` (64) elements; a larger
one is a ``SizeLimitExceeded`` input error at its ``poset`` header line,
raised before any document of the file is checked.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .corpus import corpus_stats, enumerate_canonical
from .errors import ParseError, PosetError, SizeLimitExceeded
from .ialgebra import algebra_of, axioms_report, roundtrip_check
from .operators import (
    KINDS,
    OperatorTable,
    implication_properties_report,
    operator_table,
)
from .order import Poset, build_from_covers, cover_relation, is_lattice
from .reports import CheckReport
from .residuation import (
    divisibility_report,
    lattice_relative_residuation_report,
    unsharp_residuation_report,
)
from .sections import glivenko_skeleton, negation_laws_report, verify_pseudocomplemented_sections

TABLE_SYMBOL = {"xy": "x^y", "imp": "→", "conj": "⊙", "rel": "*", "circ": "∘"}
_RESERVED = frozenset("<{},")  # the cover and table-cell syntax
MAX_ELEMENTS = 64  # per document; the criteria cost about 50 ms per poset at 32 points


@dataclass(frozen=True)
class PosetDocument:
    name: str
    labels: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]
    line: int  # of the ``poset`` header

    def build(self) -> Poset:
        try:
            return build_from_covers(self.labels, self.covers)
        except PosetError as exc:
            raise type(exc)(f"line {self.line}: {exc}") from None


def parse_poset_file(text: str) -> list[PosetDocument]:
    """Parse one file into its documents; raises ParseError with a line number.

    Lines end at a line feed only; a trailing carriage return is stripped
    as whitespace."""
    docs: list[PosetDocument] = []
    name = None
    labels: list[str] = []
    covers: list[tuple[str, str]] = []
    header_line = 0

    def flush() -> None:
        nonlocal name, labels, covers
        if name is None:
            return
        if not labels:
            raise ParseError(f"poset {name!r} declares no elements", header_line)
        if len(labels) > MAX_ELEMENTS:
            raise SizeLimitExceeded(f"line {header_line}: poset {name!r} declares "
                                    f"{len(labels)} elements, more than {MAX_ELEMENTS}")
        docs.append(PosetDocument(name, tuple(labels), tuple(covers), header_line))
        name, labels, covers = None, [], []

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("poset"):
            rest = line[len("poset"):]
            if rest and not rest[0].isspace():
                raise ParseError(f"unrecognised line {line!r}", lineno)
            flush()
            name = rest.strip()
            header_line = lineno
            if not name:
                raise ParseError("poset header needs a name", lineno)
            if not name.isprintable():
                raise ParseError(f"bad name {name!r} (a non-printable character)", lineno)
        elif line.startswith("elements:"):
            if name is None:
                raise ParseError("elements: before any poset header", lineno)
            for label in line[len("elements:"):].split():
                if label == "-" or not _RESERVED.isdisjoint(label):
                    raise ParseError(f"bad label {label!r} (no '-', '<', '{{', '}}' or ',')", lineno)
                if not label.isprintable():
                    raise ParseError(f"bad label {label!r} (a non-printable character)", lineno)
                labels.append(label)
        elif line.startswith("covers:"):
            if name is None:
                raise ParseError("covers: before any poset header", lineno)
            for item in line[len("covers:"):].split():
                parts = item.split("<")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise ParseError(f"malformed cover {item!r} (want lo<hi)", lineno)
                covers.append((parts[0], parts[1]))
        else:
            raise ParseError(f"unrecognised line {line!r}", lineno)
    flush()
    if not docs:
        raise ParseError("no poset documents found", 1)
    return docs


# -- rendering -----------------------------------------------------------------


def _cell_str(P: Poset, cell: frozenset[int] | None) -> str:
    if cell is None:
        return "-"
    if len(cell) == 1:
        return P.labels[next(iter(cell))]
    return "{" + ",".join(P.labels[i] for i in sorted(cell)) + "}"


def _per_cell(table: OperatorTable, convert) -> list[list]:
    """``convert`` of every cell of ``table``, called once per distinct cell."""
    done = {cell: convert(cell) for cell in set().union(*table.cells)}
    return [[done[cell] for cell in row] for row in table.cells]


def render_table(table: OperatorTable) -> str:
    """Fixed-width grid with the operator symbol in the corner."""
    P = table.poset
    corner = TABLE_SYMBOL[table.kind]
    cells = _per_cell(table, lambda cell: _cell_str(P, cell))
    wc = max(len(corner), max(len(lab) for lab in P.labels))
    widths = [
        max(len(P.labels[j]), max(len(cells[i][j]) for i in range(P.n)))
        for j in range(P.n)
    ]
    lines = [
        (corner.ljust(wc) + " | "
         + " ".join(P.labels[j].ljust(widths[j]) for j in range(P.n))).rstrip()
    ]
    total = wc + 3 + sum(widths) + (P.n - 1)
    lines.append("-" * (wc + 1) + "+" + "-" * (total - wc - 2))
    for i in range(P.n):
        lines.append(
            (P.labels[i].ljust(wc) + " | "
             + " ".join(cells[i][j].ljust(widths[j]) for j in range(P.n))).rstrip()
        )
    return "\n".join(lines)


def _dot_quote(text: str) -> str:
    """``text`` as a DOT double-quoted string, with backslash and quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(P: Poset, name: str = "poset") -> str:
    """Cover relation as a DOT digraph, edges pointing lower -> upper."""
    lines = [f"digraph {_dot_quote(name)} {{", "  rankdir=BT;"]
    for lab in P.labels:
        lines.append(f"  {_dot_quote(lab)};")
    for lo, hi in cover_relation(P):
        lines.append(f"  {_dot_quote(lo)} -> {_dot_quote(hi)};")
    lines.append("}")
    return "\n".join(lines)


# -- commands ------------------------------------------------------------------


def _load_docs(path: str) -> list[PosetDocument]:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line holding the first bad byte, counted as the parser counts lines
        raise ParseError("not valid UTF-8", data.count(b"\n", 0, exc.start) + 1) from None
    return parse_poset_file(text)


def _print_blocks(args) -> int:
    """``tables`` and ``dot``: one block per document, printed once all are built."""
    docs = _load_docs(args.file)
    print("\n\n".join(args.block(args, doc.build(), doc.name) for doc in docs))
    return 0


def _run_reports(args) -> int:
    """The report commands.  ``args.report`` maps a poset and ``all_witnesses``
    to its pass/fail, its JSON fields after ``"pass"`` and its text lines.
    Every document is judged before anything is printed."""
    texts, ok = [], True
    for doc in _load_docs(args.file):
        passed, fields, lines = args.report(doc.build(), args.all_witnesses)
        texts.append(json.dumps({"name": doc.name, "pass": passed, **fields}) if args.json
                     else "\n".join(lines))
        ok &= passed
    print("\n".join(texts))
    return 0 if ok else 1


def _table_block(args, P: Poset, name: str) -> str:
    table = operator_table(P, args.kind)
    if not args.json:
        return render_table(table)
    return json.dumps({
        "name": name,
        "kind": args.kind,
        "labels": list(P.labels),
        "cells": _per_cell(table, lambda cell: None if cell is None
                           else [P.labels[i] for i in sorted(cell)]),
    })


def _joined(reports: list[CheckReport]) -> tuple[bool, dict, list[str]]:
    """Several reports as one, each law and line tagged with its report's name."""
    verdicts = [{**v.as_dict(), "law": f"{r.name}:{v.law}"} for r in reports for v in r.verdicts]
    lines = [f"[{r.name}] {line}" for r in reports for line in r.lines()]
    return all(r.passed for r in reports), {"verdicts": verdicts}, lines


def _check(P: Poset, all_witnesses: bool):
    verify, _ = verify_pseudocomplemented_sections(P, all_witnesses)
    reports = [verify]
    if verify.passed:
        reports.append(implication_properties_report(P, all_witnesses))
        reports.append(axioms_report(algebra_of(P), all_witnesses=all_witnesses))
        if P.bottom is not None:
            reports.append(negation_laws_report(P, all_witnesses))
    return _joined(reports)


def _roundtrip(P: Poset, all_witnesses: bool):
    verify, _ = verify_pseudocomplemented_sections(P, all_witnesses)
    reports = [verify]
    if verify.passed:
        reports.append(roundtrip_check(P, all_witnesses))
        reports.append(roundtrip_check(algebra_of(P), all_witnesses))
    return _joined(reports)


def _residuation(P: Poset, all_witnesses: bool):
    res = unsharp_residuation_report(P, all_witnesses)
    rest = [divisibility_report(P, all_witnesses)]
    if is_lattice(P):
        rest.append(lattice_relative_residuation_report(P, all_witnesses))
    passed, fields, lines = _joined(rest)
    note = ["[unsharp-residuation] NOTE monotone readings diverge "
            "(per-member holds, single-dominator fails)"] if res.readings_diverge else []
    return (
        res.passed and passed,
        {"readings-diverge": res.readings_diverge,
         "verdicts": [v.as_dict() for v in res.verdicts] + fields["verdicts"]},
        [f"[{res.name}] {line}" for line in res.lines()] + note + lines,
    )


def _skeleton(P: Poset, all_witnesses: bool):
    sub, report = glivenko_skeleton(P, all_witnesses)
    covers = cover_relation(sub)
    fields = {"skeleton": list(sub.labels), "covers": [list(c) for c in covers],
              "verdicts": [v.as_dict() for v in report.verdicts]}
    lines = [f"skeleton: {' '.join(sub.labels)}",
             "covers: " + " ".join(f"{lo}<{hi}" for lo, hi in covers),
             *(f"[{report.name}] {line}" for line in report.lines())]
    return report.passed, fields, lines


def _corpus(args) -> int:
    if args.dedup:
        orbits = [orbit for _, orbit in enumerate_canonical(args.n, force=args.force)]
        record = {"n": args.n, "classes": len(orbits), "orbit_sum": sum(orbits)}
        line = " ".join(f"{key}={value}" for key, value in record.items())
    else:
        stats = corpus_stats(args.n, force=args.force)
        record = stats.as_dict()
        line = (f"n={stats.n} posets={stats.total_posets} with_top={stats.with_top} "
                f"pc_sections={stats.pc_sections} lattices={stats.lattices} rel_pc={stats.rel_pc}")
    print(json.dumps(record) if args.json else line)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unsharp",
        description="set-valued implication and conjunction on finite posets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, func, needs_file=True, **defaults):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, **defaults)
        if needs_file:
            p.add_argument("file", help="poset document file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--all-witnesses", action="store_true",
                       help="list every counterexample, not just the first")
        return p

    p_tables = add("tables", "print an operator table", _print_blocks, block=_table_block)
    p_tables.add_argument("--kind", choices=KINDS, default="imp")
    for name, help, report in (
        ("check", "verify sections, operator laws and algebra axioms", _check),
        ("roundtrip", "certify the poset/algebra translations invert", _roundtrip),
        ("residuation", "residuation and divisibility certificates", _residuation),
        ("skeleton", "double-negation skeleton and complementation", _skeleton),
    ):
        add(name, help, _run_reports, report=report)
    p_corpus = add("corpus", "enumerate small posets and aggregate statistics", _corpus,
                   needs_file=False)
    p_corpus.add_argument("--n", type=int, required=True)
    p_corpus.add_argument("--dedup", action="store_true",
                          help="canonical representatives with orbit sums")
    p_corpus.add_argument("--force", action="store_true",
                          help="allow the expensive n=7 run")
    add("dot", "export the cover relation as a DOT digraph", _print_blocks,
        block=lambda args, P, name: to_dot(P, name))
    return parser


# built once: it holds no input state, and each parse makes a fresh namespace
PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown commands/flags, which matches the contract
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (OSError, PosetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
