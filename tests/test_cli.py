import json
from pathlib import Path

import pytest

from unsharp import ParseError
from unsharp.cli import main, parse_poset_file, to_dot

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_round_trips_pentagon(pentagon):
    docs = parse_poset_file((DATA / "pentagon.poset").read_text())
    assert len(docs) == 1
    doc = docs[0]
    assert doc.name == "pentagon"
    assert doc.build() == pentagon


def test_parse_multiple_documents():
    docs = parse_poset_file((DATA / "pair.poset").read_text())
    assert [d.name for d in docs] == ["first", "second"]
    assert docs[1].build().n == 3


def test_parse_singleton():
    docs = parse_poset_file((DATA / "single.poset").read_text())
    assert docs[0].build().n == 1


@pytest.mark.parametrize(
    "text,line",
    [
        ("covers: a<b", 1),
        ("poset p\ncovers: a<", 2),
        ("poset p\nelements: a b\nnonsense", 3),
        ("poset p\n", 1),
        ("poset \nelements: a", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_poset_file(text)
    assert err.value.line == line


def test_tables_golden_bytes(capsys):
    for stem, kind in [
        ("pentagon", "xy"), ("pentagon", "imp"),
        ("crown", "xy"), ("crown", "imp"), ("crown", "rel"),
        ("crown_tail", "xy"), ("crown_tail", "imp"), ("crown_tail", "conj"),
    ]:
        code, out, _ = run(capsys, "tables", "--kind", kind, str(DATA / f"{stem}.poset"))
        assert code == 0
        expected = (GOLDEN / f"{stem}_{kind}.txt").read_text(encoding="utf-8")
        assert out == expected


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "--kind", "imp", "--json", str(DATA / "crown.poset"))
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "crown" and payload["kind"] == "imp"
    a = payload["labels"].index("a")
    b = payload["labels"].index("b")
    assert payload["cells"][a][b] == ["c", "d"]


def test_tables_rel_marks_missing_cells(capsys):
    code, out, _ = run(capsys, "tables", "--kind", "rel", str(DATA / "crown_tail.poset"))
    assert code == 0
    row_b = next(line for line in out.splitlines() if line.startswith("b "))
    # the relative pseudocomplement of b with respect to a is missing
    assert row_b.split("|")[1].split()[1] == "-"


def test_check_passes_on_reference_posets(capsys):
    for stem in ("pentagon", "crown", "crown_tail", "chain3", "single"):
        code, out, _ = run(capsys, "check", str(DATA / f"{stem}.poset"))
        assert code == 0, out
        assert "FAIL" not in out


def test_check_fails_on_m3(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "m3.poset"))
    assert code == 1
    assert "FAIL" in out


def test_check_json_schema(capsys):
    code, out, _ = run(capsys, "check", "--json", str(DATA / "crown.poset"))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"name", "pass", "verdicts"}
    assert payload["pass"] is True
    for v in payload["verdicts"]:
        assert {"law", "pass"} <= set(v)


def test_check_json_witnesses_are_label_tuples(capsys):
    code, out, _ = run(capsys, "check", "--json", str(DATA / "m3.poset"))
    assert code == 1
    payload = json.loads(out)
    failed = [v for v in payload["verdicts"] if not v["pass"] and "witness" in v]
    assert failed
    assert all(isinstance(w, str) for v in failed for w in v["witness"])


def test_all_witnesses_flag(capsys):
    _, one, _ = run(capsys, "check", "--json", str(DATA / "m3.poset"))
    _, many, _ = run(capsys, "check", "--json", "--all-witnesses", str(DATA / "m3.poset"))
    short = json.loads(one)["verdicts"]
    full = json.loads(many)["verdicts"]
    count = lambda vs: sum(len(v.get("witnesses", [v.get("witness")] if "witness" in v else [])) for v in vs)
    assert count(full) > count(short)


def test_roundtrip_command(capsys):
    code, out, _ = run(capsys, "roundtrip", str(DATA / "crown_tail.poset"))
    assert code == 0 and "FAIL" not in out


def test_residuation_command(capsys):
    code, out, _ = run(capsys, "residuation", str(DATA / "crown_tail.poset"))
    assert code == 0
    assert "monotone-dominant" in out and "NOTE" in out
    code, out, _ = run(capsys, "residuation", "--json", str(DATA / "pentagon.poset"))
    payload = json.loads(out)
    assert payload["pass"] is True and payload["readings-diverge"] is False
    laws = {v["law"] for v in payload["verdicts"]}
    assert "monotone" in laws and "monotone-dominant" in laws
    assert any(law.startswith("relative-residuation:") for law in laws)


def test_residuation_json_pass_covers_divisibility(capsys, monkeypatch):
    import unsharp.cli
    from unsharp import CheckReport

    def failing(P, all_witnesses=False):
        report = CheckReport("divisibility")
        report.run_law("divisibility", iter([()]), lambda w: (), all_witnesses)
        return report

    monkeypatch.setattr(unsharp.cli, "divisibility_report", failing)
    code, out, _ = run(capsys, "residuation", "--json", str(DATA / "pentagon.poset"))
    assert json.loads(out)["pass"] is False
    assert code == 1


def test_residuation_rejects_bad_input(capsys):
    code, _, err = run(capsys, "residuation", str(DATA / "m3.poset"))
    assert code == 2 and "error" in err


def test_skeleton_command(capsys):
    code, out, _ = run(capsys, "skeleton", str(DATA / "crown_tail.poset"))
    assert code == 0
    assert out.splitlines()[0] == "skeleton: 0 b c 1"
    code, out, _ = run(capsys, "skeleton", "--json", str(DATA / "crown_tail.poset"))
    payload = json.loads(out)
    assert payload["skeleton"] == ["0", "b", "c", "1"]
    assert payload["pass"] is True


def test_corpus_command(capsys):
    code, out, _ = run(capsys, "corpus", "--n", "3")
    assert code == 0
    assert "posets=19" in out
    code, out, _ = run(capsys, "corpus", "--n", "3", "--json")
    payload = json.loads(out)
    assert payload["total_posets"] == 19
    code, out, _ = run(capsys, "corpus", "--n", "4", "--dedup", "--json")
    payload = json.loads(out)
    assert payload == {"n": 4, "classes": 16, "orbit_sum": 219}


def test_corpus_guard_maps_to_input_error(capsys):
    code, _, err = run(capsys, "corpus", "--n", "9")
    assert code == 2 and "error" in err


def test_dot_output(capsys, pentagon):
    from unsharp import cover_relation

    code, out, _ = run(capsys, "dot", str(DATA / "pentagon.poset"))
    assert code == 0
    assert out.splitlines()[0] == 'digraph "pentagon" {'
    edges = set()
    for line in out.splitlines():
        if "->" in line:
            lo, hi = line.split("->")
            edges.add((lo.strip(' "'), hi.strip(' ";').strip('"')))
    assert edges == set(cover_relation(pentagon))
    assert to_dot(pentagon, "pentagon") + "\n" == out


def test_exit_codes_on_bad_files(capsys, tmp_path):
    code, _, err = run(capsys, "tables", str(DATA / "broken.poset"))
    assert code == 2 and "line 3" in err
    code, _, err = run(capsys, "check", str(tmp_path / "missing.poset"))
    assert code == 2
    cyclic = tmp_path / "cyclic.poset"
    cyclic.write_text("poset c\nelements: p q\ncovers: p<q q<p\n")
    code, _, err = run(capsys, "check", str(cyclic))
    assert code == 2


def test_unknown_command_and_flag(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["tables", "--bogus", str(DATA / "pentagon.poset")]) == 2
    capsys.readouterr()
