"""Tests of the benchmark itself: seeded inputs, the oracle, and the run contract.

    python3 -m pytest bench/tests

The smoke tests start ``bench/run.py`` once per workload and mode; the
corpus-enumerate ones take about a minute together.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import contract  # noqa: E402
import inputs  # noqa: E402
from clock import RefClock  # noqa: E402
import oracle  # noqa: E402
from unsharp import (  # noqa: E402
    conjunction,
    corpus_stats,
    enumerate_canonical,
    enumerate_posets,
    implication,
    is_lattice,
    relative_pseudocomplement,
    sectional_pseudocomplement,
    verify_pseudocomplemented_sections,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def sweep_prefix(seed, count=len(inputs.SWEEP_ROUND) + 10):
    return [(item.kind, item.le, item.mutant) for item in islice(inputs.sweep_items(seed), count)]


def cli_texts(seed):
    return [(name, "".join(d.text() for d in docs)) for name, docs in inputs.cli_files(seed)]


def test_same_seed_gives_identical_inputs():
    assert sweep_prefix(11) == sweep_prefix(11)
    assert cli_texts(11) == cli_texts(11)


def test_other_seed_gives_other_inputs():
    assert sweep_prefix(11) != sweep_prefix(12)
    assert cli_texts(11) != cli_texts(12)


def test_sweep_rounds_cover_every_stratum():
    rounds = sweep_prefix(5)
    kinds = [(len(le), kind) for kind, le, _ in rounds[: len(inputs.SWEEP_ROUND)]]
    assert sorted(kinds) == sorted(inputs.SWEEP_ROUND)
    for kind, le, _ in rounds:
        assert inputs.classify(le) == kind


@pytest.mark.parametrize("n", inputs.SWEEP_SIZES)
def test_sweep_mix_follows_census_shares(n):
    k = oracle.CORPUS_STATS[min(n, 6)]
    census = {"lattice": k["pc_lattices"], "bounded": k["pc_bottom"] - k["pc_lattices"],
              "topped": k["pc_sections"] - k["pc_bottom"]}
    mix = inputs.SWEEP_MIX[n]
    assert set(mix) == {kind for kind, count in census.items() if count}
    total = sum(mix.values())
    for kind, count in mix.items():
        assert abs(count - total * census[kind] / k["pc_sections"]) < 1


def matrix(P):
    return tuple(tuple(P.le(x, y) for y in range(P.n)) for x in range(P.n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_oracle_agrees_with_library_on_every_poset(n):
    library_codes = set()
    for P in enumerate_posets(n):
        le = matrix(P)
        library_codes.add(sum(1 << (i * n + j) for i in range(n) for j in range(n)
                              if i != j and le[i][j]))
        report, table = verify_pseudocomplemented_sections(P)
        expected = oracle.section_table(le)
        assert report.passed == (expected is not None)
        assert is_lattice(P) == oracle.is_lattice(le)
        for x in range(n):
            for y in range(n):
                assert frozenset(conjunction(P, x, y)) == oracle.conjunction(le, x, y)
                assert relative_pseudocomplement(P, x, y) == oracle.relative_pc(le, x, y)
                assert sectional_pseudocomplement(P, x, y) == oracle.sectional_pc(le, x, y)
        if expected is not None:
            assert table.entries == expected
            for x in range(n):
                for y in range(n):
                    assert frozenset(implication(P, x, y)) == oracle.implication(le, x, y)
    classes = oracle.orbits(n)
    assert set().union(*(orbit for _, orbit in classes.values())) == library_codes
    assert len(classes) == sum(1 for _ in enumerate_canonical(n))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_oracle_census_matches_corpus_stats(n):
    got = oracle.census(n)
    stats = corpus_stats(n).as_dict()
    assert {k: got[k] for k in stats if k != "n"} == {k: v for k, v in stats.items() if k != "n"}
    assert got["orbit_sum"] == got["total_posets"]
    if n in oracle.CORPUS_STATS:
        assert got == oracle.CORPUS_STATS[n]


def test_reference_clock_runs_forward_and_skips_probe_time():
    clock = RefClock()
    before = clock.now()
    clock.probe()
    after = clock.now()
    assert 0 < after - before < 1e-3 * clock.factor
    assert all(f > 0 for f in clock.factors)


def test_contract_keeps_known_defects_visible():
    for (source, command), code in contract.KNOWN_DEFECTS.items():
        assert contract.expected_exit(source, command) == 1
        assert contract.judge(source, command, code) == "known-defect"
        assert contract.judge(source, command, 1) == "ok"
    assert contract.judge("generated", ("check",), 2) == "wrong"


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke_runs():
    runs = {}
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            done = run_bench(w["name"], trace)
            assert done.returncode == 0, done.stderr
            runs[w["name"], trace] = done.stdout
    return runs


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric(smoke_runs, trace, key):
    names = [m["name"] for m in SPEC[key]]
    for w in SPEC["workloads"]:
        stdout = smoke_runs[w["name"], trace]
        result = json.loads(stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == names
        for name in names:
            assert name in stdout.split("\n{")[0]
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_layer_metric_is_measured_by_some_workload(smoke_runs):
    measured = set()
    for w in SPEC["workloads"]:
        result = json.loads(smoke_runs[w["name"], 1].strip().splitlines()[-1])
        measured |= {name for name, m in result["metrics"].items() if m["value"]}
    # exit mismatches count known defects, which a fixed CLI brings to zero
    assert measured | {"cli.exit_mismatch"} == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("theorem-sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
