"""Batch front door: poset files in, tables / reports / DOT / JSON out.

File grammar (line oriented)::

    poset <name>
    elements: <label> <label> ...
    covers: <lo><hi> <lo><hi> ...     # each item is written lo<hi

``#`` starts a comment, blank lines are ignored, several documents may
share a file (each starts at its ``poset`` header), and ``elements:`` /
``covers:`` lines may repeat and accumulate.

Table cells are printed as a bare label (singleton), ``{a,b}`` with
members in declaration order, or ``-`` (undefined).  Exit status: 0
when everything passed, 1 when some check failed, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .corpus import corpus_stats, enumerate_canonical
from .errors import ParseError, PosetError
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


@dataclass(frozen=True)
class PosetDocument:
    name: str
    labels: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]

    def build(self) -> Poset:
        return build_from_covers(self.labels, self.covers)


def parse_poset_file(text: str) -> list[PosetDocument]:
    """Parse one file into its documents; raises ParseError with a line number."""
    docs: list[PosetDocument] = []
    name = None
    labels: list[str] = []
    covers: list[tuple[str, str]] = []
    header_line = 0

    def flush(at_line: int) -> None:
        nonlocal name, labels, covers
        if name is None:
            return
        if not labels:
            raise ParseError(f"poset {name!r} declares no elements", header_line)
        docs.append(PosetDocument(name, tuple(labels), tuple(covers)))
        name, labels, covers = None, [], []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("poset"):
            rest = line[len("poset"):]
            if rest and not rest[0].isspace():
                raise ParseError(f"unrecognised line {line!r}", lineno)
            flush(lineno)
            name = rest.strip()
            header_line = lineno
            if not name:
                raise ParseError("poset header needs a name", lineno)
        elif line.startswith("elements:"):
            if name is None:
                raise ParseError("elements: before any poset header", lineno)
            labels.extend(line[len("elements:"):].split())
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
    flush(0)
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


def render_table(table: OperatorTable) -> str:
    """Fixed-width grid with the operator symbol in the corner."""
    P = table.poset
    corner = TABLE_SYMBOL[table.kind]
    cells = [[_cell_str(P, table.cells[i][j]) for j in range(P.n)] for i in range(P.n)]
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


def to_dot(P: Poset, name: str = "poset") -> str:
    """Cover relation as a DOT digraph, edges pointing lower -> upper."""
    quoted = name.replace('"', '\\"')
    lines = [f'digraph "{quoted}" {{', "  rankdir=BT;"]
    for lab in P.labels:
        lines.append(f'  "{lab}";')
    for lo, hi in cover_relation(P):
        lines.append(f'  "{lo}" -> "{hi}";')
    lines.append("}")
    return "\n".join(lines)


# -- commands ------------------------------------------------------------------


def _prefixed_verdicts(reports: list[CheckReport]) -> list[dict]:
    out = []
    for r in reports:
        for v in r.verdicts:
            d = v.as_dict()
            d["law"] = f"{r.name}:{v.law}"
            out.append(d)
    return out


def _print_reports(doc_name: str, reports: list[CheckReport], as_json: bool) -> bool:
    ok = all(r.passed for r in reports)
    if as_json:
        print(json.dumps({"name": doc_name, "pass": ok,
                          "verdicts": _prefixed_verdicts(reports)}))
    else:
        for r in reports:
            for line in r.lines():
                print(f"[{r.name}] {line}")
    return ok


def _load_docs(path: str) -> list[PosetDocument]:
    with open(path, encoding="utf-8") as handle:
        return parse_poset_file(handle.read())


def _cmd_tables(args) -> int:
    docs = _load_docs(args.file)
    out = []
    for doc in docs:
        table = operator_table(doc.build(), args.kind)
        if args.json:
            P = table.poset
            out.append(json.dumps({
                "name": doc.name,
                "kind": args.kind,
                "labels": list(P.labels),
                "cells": [
                    [None if c is None else [P.labels[i] for i in sorted(c)]
                     for c in row]
                    for row in table.cells
                ],
            }))
        else:
            out.append(render_table(table))
    print("\n\n".join(out))
    return 0


def _cmd_check(args) -> int:
    ok = True
    for doc in _load_docs(args.file):
        P = doc.build()
        verify, _ = verify_pseudocomplemented_sections(P, args.all_witnesses)
        reports = [verify]
        if verify.passed:
            reports.append(implication_properties_report(P, args.all_witnesses))
            reports.append(axioms_report(algebra_of(P), all_witnesses=args.all_witnesses))
            if P.bottom is not None:
                reports.append(negation_laws_report(P, args.all_witnesses))
        ok &= _print_reports(doc.name, reports, args.json)
    return 0 if ok else 1


def _cmd_roundtrip(args) -> int:
    ok = True
    for doc in _load_docs(args.file):
        P = doc.build()
        verify, _ = verify_pseudocomplemented_sections(P, args.all_witnesses)
        reports = [verify]
        if verify.passed:
            reports.append(roundtrip_check(P, args.all_witnesses))
            reports.append(roundtrip_check(algebra_of(P), args.all_witnesses))
        ok &= _print_reports(doc.name, reports, args.json)
    return 0 if ok else 1


def _cmd_residuation(args) -> int:
    ok = True
    for doc in _load_docs(args.file):
        P = doc.build()
        res = unsharp_residuation_report(P, args.all_witnesses)
        div = divisibility_report(P, args.all_witnesses)
        lat = [lattice_relative_residuation_report(P, args.all_witnesses)] if is_lattice(P) else []
        passed = res.passed and div.passed and all(r.passed for r in lat)
        if args.json:
            payload = res.as_dict()
            payload["name"] = doc.name
            payload["pass"] = passed
            payload["verdicts"] += _prefixed_verdicts([div, *lat])
            print(json.dumps(payload))
        else:
            _print_reports(doc.name, [res], False)
            if res.readings_diverge:
                print("[unsharp-residuation] NOTE monotone readings diverge "
                      "(per-member holds, single-dominator fails)")
            _print_reports(doc.name, [div, *lat], False)
        ok &= passed
    return 0 if ok else 1


def _cmd_skeleton(args) -> int:
    ok = True
    for doc in _load_docs(args.file):
        P = doc.build()
        sub, report = glivenko_skeleton(P, args.all_witnesses)
        if args.json:
            print(json.dumps({
                "name": doc.name,
                "pass": report.passed,
                "skeleton": list(sub.labels),
                "covers": [list(c) for c in cover_relation(sub)],
                "verdicts": [v.as_dict() for v in report.verdicts],
            }))
        else:
            print(f"skeleton: {' '.join(sub.labels)}")
            print("covers: " + " ".join(f"{lo}<{hi}" for lo, hi in cover_relation(sub)))
            _print_reports(doc.name, [report], False)
        ok &= report.passed
    return 0 if ok else 1


def _cmd_corpus(args) -> int:
    if args.dedup:
        classes = 0
        orbit_sum = 0
        for _, orbit in enumerate_canonical(args.n, force=args.force):
            classes += 1
            orbit_sum += orbit
        if args.json:
            print(json.dumps({"n": args.n, "classes": classes, "orbit_sum": orbit_sum}))
        else:
            print(f"n={args.n} classes={classes} orbit_sum={orbit_sum}")
        return 0
    stats = corpus_stats(args.n, force=args.force)
    if args.json:
        print(json.dumps(stats.as_dict()))
    else:
        print(
            f"n={stats.n} posets={stats.total_posets} with_top={stats.with_top} "
            f"pc_sections={stats.pc_sections} lattices={stats.lattices} "
            f"rel_pc={stats.rel_pc}"
        )
    return 0


def _cmd_dot(args) -> int:
    out = []
    for doc in _load_docs(args.file):
        out.append(to_dot(doc.build(), doc.name))
    print("\n\n".join(out))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="unsharp",
        description="set-valued implication and conjunction on finite posets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_file=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        if needs_file:
            p.add_argument("file", help="poset document file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--all-witnesses", action="store_true",
                       help="list every counterexample, not just the first")
        return p

    p_tables = add("tables", _cmd_tables, help="print an operator table")
    p_tables.add_argument("--kind", choices=KINDS, default="imp")
    add("check", _cmd_check, help="verify sections, operator laws and algebra axioms")
    add("roundtrip", _cmd_roundtrip, help="certify the poset/algebra translations invert")
    add("residuation", _cmd_residuation, help="residuation and divisibility certificates")
    add("skeleton", _cmd_skeleton, help="double-negation skeleton and complementation")
    p_corpus = add("corpus", _cmd_corpus, needs_file=False,
                   help="enumerate small posets and aggregate statistics")
    p_corpus.add_argument("--n", type=int, required=True)
    p_corpus.add_argument("--dedup", action="store_true",
                          help="canonical representatives with orbit sums")
    p_corpus.add_argument("--force", action="store_true",
                          help="allow the expensive n=7 run")
    add("dot", _cmd_dot, help="export the cover relation as a DOT digraph")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown commands/flags, which matches the contract
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
