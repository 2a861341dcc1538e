"""The three workloads.  Each is a closed loop with a single caller.

A workload provides:

- ``setup()``: seeded inputs, input files and warm-up.  It is repeatable,
  so the run can time it several times.
- ``batches()``: an endless iterator of batches of units.  The timed loop
  stops only between batches, so every run covers whole rounds of the mix.
- ``execute(tr, unit)``: the library calls for one unit, made through the
  tracer ``tr``.  It returns the observed outcome.
- ``timed(unit)``: whether the unit counts in the timed metrics.  An
  untimed unit still runs and is checked.
- ``items(out)`` and ``latencies(out, seconds)``: the items one unit
  completed, and their per-item times.
- ``after_traced(tr, unit)``: extra traced calls after a unit, outside
  its timing.
- ``check(unit, out)``: compares the outcome with the known answer and
  returns ``(attempted, failed)``.  ``out`` is the exception when
  ``execute`` raised.
- ``counts``: per-layer counters, updated by ``check``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from array import array
from collections import Counter
from itertools import islice
from pathlib import Path

from unsharp import (
    Poset,
    PosetError,
    algebra_of,
    axioms_report,
    corpus_stats,
    divisibility_report,
    enumerate_canonical,
    enumerate_posets,
    filter_pc_sections,
    glivenko_skeleton,
    implication_properties_report,
    is_lattice,
    lattice_relative_residuation_report,
    negation_laws_report,
    operator_table,
    roundtrip_check,
    unsharp_residuation_report,
    verify_pseudocomplemented_sections,
)
from unsharp.cli import main as cli_main, parse_poset_file, render_table, to_dot

import contract
import inputs
import oracle
from tracing import Untraced

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
_NO_TRACE = Untraced()


class Workload:
    """Defaults for a workload whose unit of work is one item."""

    def __init__(self, seed: int, work_dir: Path, clock):
        self.seed = seed
        self.work_dir = work_dir
        self.clock = clock
        self.counts: Counter = Counter()

    def timed(self, unit) -> bool:
        return True

    def items(self, out) -> int:
        return 1

    def latencies(self, out, seconds: float):
        return (seconds,)

    def after_traced(self, tr, unit) -> None:
        pass


class TheoremSweep(Workload):
    """Seeded posets on 5-8 points through the whole criteria battery.

    An item is one poset with pseudocomplemented sections certified; the
    mix covers lattices and non-lattices, with and without a bottom (see
    ``inputs.SWEEP_MIX``).  Posets without pseudocomplemented sections or
    without a top also run and are checked, but are not timed.  Its cost
    sits in residuation, operators and ialgebra; it never calls the
    corpus module.
    """

    WARMUP_ITEMS = 40

    def setup(self) -> None:
        # the warm-up's outcomes are not checked: working out the known
        # answers is the benchmark's cost, not the library's
        for item in islice(inputs.sweep_items(self.seed), self.WARMUP_ITEMS):
            self.execute(_NO_TRACE, item)

    def batches(self):
        stream = inputs.sweep_items(self.seed)
        while True:
            yield [next(stream) for _ in inputs.SWEEP_ROUND]

    def timed(self, item) -> bool:
        return item.kind in inputs.PC_KINDS

    @staticmethod
    def _axioms(tr, A) -> bool:
        passed = tr.call("ialgebra.axioms", axioms_report, A).passed
        tr.rename_last("ialgebra.axioms_accept" if passed else "ialgebra.axioms_reject")
        return passed

    def execute(self, tr, item) -> dict:
        out = {}
        P = tr.call("order.build", Poset, item.labels, item.up)
        report, table = tr.call("sections.verify_pc", verify_pseudocomplemented_sections, P)
        out["pc"] = report.passed
        out["lattice"] = tr.call("order.is_lattice", is_lattice, P)
        if not report.passed:
            return out
        out["table"] = table.entries
        out["implication"] = tr.call(
            "operators.implication_properties", implication_properties_report, P).passed
        A = tr.call("ialgebra.algebra_of", algebra_of, P)
        out["arrow"], out["unit"] = A.arrow, A.unit
        out["axioms"] = self._axioms(tr, A)
        out["roundtrip_poset"] = tr.call("ialgebra.roundtrip_poset", roundtrip_check, P).passed
        out["roundtrip_algebra"] = tr.call("ialgebra.roundtrip_algebra", roundtrip_check, A).passed
        res = tr.call("residuation.unsharp", unsharp_residuation_report, P)
        out["residuation"], out["diverge"] = res.passed, res.readings_diverge
        out["divisibility"] = tr.call("residuation.divisibility", divisibility_report, P).passed
        if P.bottom is not None:
            out["negation"] = tr.call("sections.negation_laws", negation_laws_report, P).passed
            sub, sk = tr.call("sections.skeleton", glivenko_skeleton, P)
            out["skeleton"] = (sk.passed, sub.labels)
        if out["lattice"]:
            out["lattice_relative"] = tr.call(
                "residuation.lattice_relative", lattice_relative_residuation_report, P).passed
        x, y, z = item.mutant
        mutant = A.with_cell(x, y, inputs.mutate(A.arrow[x][y], z, A.n))
        out["mutant_axioms"] = self._axioms(tr, mutant)
        try:
            out["mutant_roundtrip"] = tr.call(
                "ialgebra.roundtrip_mutant", roundtrip_check, mutant).passed
        except PosetError:
            out["mutant_roundtrip"] = False
        return out

    def check(self, item, out) -> tuple[int, int]:
        if isinstance(out, Exception):
            return 1, 1
        pc = item.table is not None
        ok = out["pc"] == pc and out["lattice"] == item.lattice
        self.counts["sections.verify_pc.rejected"] += not out["pc"]
        if ok and pc:
            ok = (
                out["table"] == item.table
                and out["implication"]
                and out["arrow"] == item.arrow
                and out["unit"] == item.top
                and out["axioms"]
                and out["roundtrip_poset"]
                and out["roundtrip_algebra"]
                and out["residuation"]
                and out["diverge"] == item.diverge
                and out["divisibility"]
                and (item.bottom is None
                     or (out.get("negation") is True
                         and out.get("skeleton") == (True, item.skeleton)))
                and (not item.lattice or out.get("lattice_relative") is True)
                # a mutant that is some poset's table must pass both checks;
                # any other must fail the rebuild (the axioms alone may pass it)
                and out["mutant_roundtrip"] == item.mutant_valid
                and (out["mutant_axioms"] or not item.mutant_valid)
            )
            self.counts["mutants"] += 1
            self.counts["mutants_rejected"] += not out["mutant_axioms"]
            self.counts["residuation.readings_diverge"] += out["diverge"]
        return 1, int(not ok)

    def layer_metrics(self) -> dict:
        mutants = self.counts["mutants"]
        return {
            "sections.verify_pc.rejected": self.counts["sections.verify_pc.rejected"],
            "ialgebra.mutants_rejected_ratio":
                self.counts["mutants_rejected"] / mutants if mutants else 0.0,
            "residuation.readings_diverge": self.counts["residuation.readings_diverge"],
        }


class CorpusEnumerate(Workload):
    """The exhaustive n = 6 universe through the corpus module.

    One pass runs ``corpus_stats(6)``, drains ``enumerate_canonical(6)``
    and drains ``filter_pc_sections(enumerate_posets(6))``.  It does no
    operator or law work.  The seed is recorded but unused: the input is
    the whole universe.  An item is one labeled poset visited by one of
    the three calls; per-item times come from the pc filter, the one
    stream that hands each labeled poset back to the caller.
    """

    N = 6
    WARMUP_N = 5

    def setup(self) -> None:
        self.execute(_NO_TRACE, self.WARMUP_N)

    def batches(self):
        while True:
            yield [self.N]

    def _drain_canonical(self, n: int) -> tuple[int, int]:
        classes = orbit_sum = 0
        for _, orbit in enumerate_canonical(n):
            self.clock.probe_if_due()
            classes += 1
            orbit_sum += orbit
        return classes, orbit_sum

    def _timed(self, stream, samples):
        # Each sample runs from one pull of the stream to the next, which
        # is the time to produce a poset and have the consumer judge it.
        clock = self.clock
        start = clock.now()
        for item in stream:
            yield item
            clock.probe_if_due()
            now = clock.now()
            samples.append(now - start)
            start = now

    def _drain_pc_filter(self, n: int, samples) -> int:
        return sum(1 for _ in filter_pc_sections(self._timed(enumerate_posets(n), samples)))

    def execute(self, tr, n: int) -> dict:
        stats = tr.call("corpus.stats", corpus_stats, n)
        classes, orbit_sum = tr.call("corpus.canonical", self._drain_canonical, n)
        samples = array("f")
        kept = tr.call("corpus.pc_filter", self._drain_pc_filter, n, samples)
        return {"stats": stats.as_dict(), "classes": classes, "orbit_sum": orbit_sum,
                "kept": kept, "samples": samples}

    def items(self, out) -> int:
        return out["stats"]["total_posets"] + out["orbit_sum"] + len(out["samples"])

    def latencies(self, out, seconds: float):
        return out["samples"]

    def check(self, n: int, out) -> tuple[int, int]:
        known = oracle.CORPUS_STATS[n]
        visited = known["total_posets"]
        if isinstance(out, Exception):
            return 3 * visited, 3 * visited
        stats_ok = all(out["stats"][k] == known[k]
                       for k in ("total_posets", "with_top", "pc_sections", "lattices", "rel_pc"))
        canonical_ok = out["classes"] == known["classes"] and out["orbit_sum"] == known["orbit_sum"]
        filter_ok = out["kept"] == known["pc_sections"] and len(out["samples"]) == visited
        self.counts["visited"] += visited
        self.counts["classes"] += out["classes"]
        self.counts["kept"] += out["kept"]
        failed = visited * ((not stats_ok) + (not canonical_ok) + (not filter_ok))
        return 3 * visited, failed

    def layer_metrics(self) -> dict:
        visited = self.counts["visited"]
        return {
            "corpus.canonical.keep_ratio": self.counts["classes"] / visited if visited else 0.0,
            "corpus.pc_share": self.counts["kept"] / visited if visited else 0.0,
        }


class Invocation:
    """One CLI call: the input it reads (``source``), command and flags."""

    def __init__(self, source: str, path: Path | None, docs, command, flags):
        self.source, self.path, self.docs = source, path, docs
        self.command, self.flags = command, flags
        self.argv = [*command, *([str(path)] if path else []), *flags]


class CliBatch(Workload):
    """In-process calls to ``unsharp.cli.main`` covering every command.

    The inputs are the library's eight test documents, copied verbatim
    into ``data/``, and seeded generated files on 9-12 points.  This is
    the only workload that pays for parsing, rendering, per-command
    re-derivation and the error paths that exit 1 or 2.
    """

    def __init__(self, seed: int, work_dir: Path, clock):
        super().__init__(seed, work_dir, clock)
        self.seen: dict = {}

    def setup(self) -> None:
        sources = []
        for path in sorted(DATA_DIR.glob("*.poset")):
            try:
                docs = inputs.read_documents(path.read_text(encoding="utf-8"))
            except ValueError:
                docs = None
            sources.append((path.name, path, docs))
        self.work_dir.mkdir(parents=True, exist_ok=True)
        for name, docs in inputs.cli_files(self.seed):
            path = self.work_dir / name
            path.write_text("".join(doc.text() for doc in docs), encoding="utf-8")
            sources.append(("generated", path, docs))
        invocations = [
            Invocation(source, path, docs, command, flags)
            for source, path, docs in sources
            for command in contract.FILE_COMMANDS
            for flags in contract.FLAG_SETS
        ] + [
            Invocation("corpus", None, None, command, flags)
            for command in contract.CORPUS_COMMANDS
            for flags in contract.FLAG_SETS
        ]
        random.Random(self.seed).shuffle(invocations)
        self.invocations = invocations
        for inv in invocations:
            if inv.source in ("chain3.poset", "corpus") and not inv.flags:
                self.execute(_NO_TRACE, inv)

    def batches(self):
        while True:
            yield self.invocations

    def execute(self, tr, inv: Invocation):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call(f"cli.main.{inv.command[0]}", cli_main, list(inv.argv))
        return code, out.getvalue(), err.getvalue()

    def after_traced(self, tr, inv: Invocation) -> None:
        """Repeat the work of ``tables`` and ``dot`` through the library's
        own parse, build, table and render functions, to split the CLI's
        time into layers."""
        if inv.command[0] not in ("tables", "dot"):
            return
        text = inv.path.read_text(encoding="utf-8")
        try:
            for doc in tr.call("cli.parse", parse_poset_file, text):
                P = tr.call("order.build", doc.build)
                if inv.command[0] == "dot":
                    tr.call("cli.render", to_dot, P, doc.name)
                else:
                    table = tr.call("operators.operator_table", operator_table, P, inv.command[2])
                    tr.call("cli.render", render_table, table)
        except PosetError:
            pass

    def check(self, inv: Invocation, out) -> tuple[int, int]:
        if isinstance(out, Exception):
            return 1, 1
        code = out[0]
        verdict = contract.judge(inv.source, inv.command, code)
        self.counts["cli.exit_mismatch"] += code != contract.expected_exit(inv.source, inv.command)
        key = tuple(inv.argv)
        if key not in self.seen:
            # a wrong first output is stored as None, so its repeats fail too
            self.seen[key] = out if self._output_ok(inv, *out) else None
        ok = verdict != "wrong" and self.seen[key] == out
        return 1, int(not ok)

    # -- output checks, made on the first call of each invocation -----------------

    def _output_ok(self, inv: Invocation, code: int, stdout: str, stderr: str) -> bool:
        if code == 2:
            return stderr.startswith("error:")
        command, as_json = inv.command[0], "--json" in inv.flags
        if command == "corpus":
            return stdout == self._corpus_expected(inv, as_json)
        docs = inv.docs
        if command in ("tables", "dot"):
            blocks = stdout.rstrip("\n").split("\n\n")
            if len(blocks) != len(docs):
                return False
            if command == "dot":
                return all(_dot_edges(b) == d.cover_labels for b, d in zip(blocks, docs))
            kind = inv.command[2]
            if as_json:
                return all(
                    json.loads(b) == {"name": d.name, "kind": kind, "labels": list(d.labels),
                                      "cells": d.cells(kind)}
                    for b, d in zip(blocks, docs)
                )
            return all(_table_cells(b) == _cell_strings(d.cells(kind)) for b, d in zip(blocks, docs))
        if as_json:
            records = [json.loads(line) for line in stdout.splitlines()]
            if [r["name"] for r in records] != [d.name for d in docs]:
                return False
            for r, d in zip(records, docs):
                if r["pass"] != d.pc:
                    return False
                if command == "residuation" and r["readings-diverge"] != d.diverge:
                    return False
                if command == "skeleton" and tuple(r["skeleton"]) != d.skeleton:
                    return False
            return True
        if command == "skeleton":
            shown = [tuple(line.split()[1:]) for line in stdout.splitlines()
                     if line.startswith("skeleton:")]
            return shown == [d.skeleton for d in docs]
        if command in ("check", "roundtrip"):
            return ("FAIL" in stdout) == (code == 1)
        return bool(stdout)

    @staticmethod
    def _corpus_expected(inv: Invocation, as_json: bool) -> str:
        k = oracle.CORPUS_STATS[4]
        if "--dedup" in inv.command:
            record = {"n": 4, "classes": k["classes"], "orbit_sum": k["orbit_sum"]}
            line = f"n=4 classes={k['classes']} orbit_sum={k['orbit_sum']}"
        else:
            record = {"n": 4, **{key: k[key] for key in
                                 ("total_posets", "with_top", "pc_sections", "lattices", "rel_pc")}}
            line = (f"n=4 posets={k['total_posets']} with_top={k['with_top']} "
                    f"pc_sections={k['pc_sections']} lattices={k['lattices']} rel_pc={k['rel_pc']}")
        return (json.dumps(record) if as_json else line) + "\n"

    def layer_metrics(self) -> dict:
        return {"cli.exit_mismatch": self.counts["cli.exit_mismatch"]}


def _dot_edges(block: str) -> set[tuple[str, str]]:
    edges = set()
    for line in block.splitlines():
        if " -> " in line:
            lo, hi = line.strip().rstrip(";").split(" -> ")
            edges.add((lo.strip('"'), hi.strip('"')))
    return edges


def _table_cells(block: str) -> list[list[str]]:
    # rows after the header and the rule: "<label> | <cell> <cell> ..."
    return [line.split()[2:] for line in block.splitlines()[2:]]


def _cell_strings(cells) -> list[list[str]]:
    return [
        ["-" if c is None else c[0] if len(c) == 1 else "{" + ",".join(c) + "}" for c in row]
        for row in cells
    ]


WORKLOADS = {
    "theorem-sweep": TheoremSweep,
    "corpus-enumerate": CorpusEnumerate,
    "cli-batch": CliBatch,
}
