import json
from pathlib import Path

import pytest

import unsharp.cli
from unsharp import ParseError, SizeLimitExceeded
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
        ("posetX\nelements: a", 1),
        ("elements: a", 1),
        ("# only a comment\n\n", 1),
        ("poset p\nelements: a{ b,c", 2),
        ("poset p\nelements: a\nelements: b -", 3),
        ("poset p\nelements: a<b", 2),
        ("poset p\nelements: a}", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_poset_file(text)
    assert err.value.line == line


@pytest.mark.parametrize("text, outcome", [
    ("poset a\x0c\nelements: x\ncovers: x<<y\n", "line 3: malformed cover 'x<<y' (want lo<hi)"),
    ("poset a\nelements: x\u2028y z\ncovers: x<y\n", ("x", "y", "z")),
    ("poset a\nelements: x y\ncovers: x<y\x85\nbogus\n", "line 4: unrecognised line 'bogus'"),
    ("poset a\r\nelements: x\r\ncovers: x<<y\r\n", "line 3: malformed cover 'x<<y' (want lo<hi)"),
])
def test_lines_end_at_newline_only(text, outcome):
    # str.splitlines() also breaks at \x0c, U+2028 and \x85; the parser
    # counts "\n" only and strips the rest as whitespace
    try:
        docs = parse_poset_file(text)
    except ParseError as exc:
        assert str(exc) == outcome
    else:
        assert docs[0].labels == outcome


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
    code, out, _ = run(capsys, "corpus", "--n", "4", "--dedup")
    assert (code, out) == (0, "n=4 classes=16 orbit_sum=219\n")


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


def test_dot_escapes_backslash_and_quote(capsys, tmp_path):
    hostile = tmp_path / "hostile.poset"
    hostile.write_text('poset q"x\\\nelements: a"b c\\\ncovers: a"b<c\\\n')
    code, out, _ = run(capsys, "dot", str(hostile))
    assert code == 0
    assert out.splitlines() == [
        'digraph "q\\"x\\\\" {',
        "  rankdir=BT;",
        '  "a\\"b";',
        '  "c\\\\";',
        '  "a\\"b" -> "c\\\\";',
        "}",
    ]


def test_control_characters_in_a_name_or_label_are_input_errors(capsys, tmp_path):
    hostile = tmp_path / "hostile.poset"
    hostile.write_text("poset a\x00\nelements: x\x00y z\ncovers: x\x00y<z\n", encoding="utf-8")
    for command in ("dot", "tables", "check"):
        assert run(capsys, command, str(hostile)) == (
            2, "", "error: line 1: bad name 'a\\x00' (a non-printable character)\n")


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x7f", "\x85", "\u200b"])
def test_non_printable_names_and_labels_are_rejected(char):
    with pytest.raises(ParseError, match=r"^line 1: bad name .* \(a non-printable character\)$"):
        parse_poset_file(f"poset a{char}b\nelements: x\n")
    text = f"poset a\nelements: x{char}y z\n"
    if char.isspace():  # U+0085 separates labels like any other whitespace
        assert parse_poset_file(text)[0].labels == ("x", "y", "z")
        return
    with pytest.raises(ParseError) as err:
        parse_poset_file(text)
    assert str(err.value) == f"line 2: bad label {'x' + char + 'y'!r} (a non-printable character)"


def test_exit_codes_on_bad_files(capsys, tmp_path):
    code, _, err = run(capsys, "tables", str(DATA / "broken.poset"))
    assert code == 2 and "line 3" in err
    code, _, err = run(capsys, "check", str(tmp_path / "missing.poset"))
    assert code == 2
    cyclic = tmp_path / "cyclic.poset"
    cyclic.write_text("poset c\nelements: p q\ncovers: p<q q<p\n")
    code, _, err = run(capsys, "check", str(cyclic))
    assert code == 2


@pytest.mark.parametrize("data, line", [
    (b"\xff", 1),
    (b"poset p\r\nelements: a \xc3\r\ncovers: a<a\n", 2),
    (b"poset p\x0c\nelements: a \xc3\n", 2),
])
def test_non_utf8_input_is_an_input_error(capsys, tmp_path, data, line):
    path = tmp_path / "latin.poset"
    path.write_bytes(data)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", f"error: line {line}: not valid UTF-8\n")


@pytest.mark.parametrize("body, message", [
    ("elements: a b a", "duplicate label 'a'"),
    ("elements: a b\ncovers: a<c", "unknown label 'c' in covers"),
    ("elements: a b\ncovers: a<b b<a", "covers force a <= b and conversely"),
])
def test_build_errors_name_their_document(capsys, tmp_path, body, message):
    path = tmp_path / "bad.poset"
    path.write_text(f"poset fine\nelements: x\n\n# the second document\nposet bad\n{body}\n")
    for command in ("tables", "check", "dot"):
        assert run(capsys, command, str(path)) == (2, "", f"error: line 5: {message}\n")


@pytest.mark.parametrize("command, partial", [
    ("check", False), ("roundtrip", False), ("residuation", False), ("skeleton", False),
    ("tables", False), ("dot", False),
])
def test_partial_output_before_a_later_build_error(capsys, tmp_path, command, partial):
    # every command judges every document before it prints anything, so an
    # input error in a later document leaves stdout empty
    first = "poset fine\nelements: 0 1\ncovers: 0<1\n"
    good, bad = tmp_path / "good.poset", tmp_path / "bad.poset"
    good.write_text(first)
    bad.write_text(first + "poset bad\nelements: a a\n")
    code, out, err = run(capsys, command, str(good))
    assert (code, err) == (0, "") and out
    assert run(capsys, command, str(bad)) == (
        2, out if partial else "", "error: line 4: duplicate label 'a'\n"
    )


def test_unknown_command_and_flag(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["tables", "--bogus", str(DATA / "pentagon.poset")]) == 2
    capsys.readouterr()


PENTAGON = str(DATA / "pentagon.poset")


@pytest.mark.parametrize("first, first_code, second", [
    (["tables", "--bogus", PENTAGON], 2, ["tables", PENTAGON]),
    (["tables", "--kind", "conj", PENTAGON], 0, ["tables", PENTAGON]),
    (["check", "--json", "--all-witnesses", PENTAGON], 0, ["check", PENTAGON]),
    (["frobnicate"], 2, ["corpus", "--n", "3"]),
])
def test_parser_reuse_leaks_no_state(capsys, monkeypatch, first, first_code, second):
    # the module's one parser serves both calls; the expected output comes
    # from a parser built for that call alone
    assert run(capsys, *first)[0] == first_code
    reused = run(capsys, *second)
    monkeypatch.setattr(unsharp.cli, "PARSER", unsharp.cli._build_parser())
    assert reused == run(capsys, *second)
    if second[0] == "tables":
        assert reused[1].startswith("→ |")  # the default kind is still imp


def chain_document(name, n):
    labels = [f"e{i}" for i in range(n)]
    covers = " ".join(f"{lo}<{hi}" for lo, hi in zip(labels, labels[1:]))
    half = n // 2  # the elements accumulate over two lines
    return (f"poset {name}\nelements: {' '.join(labels[:half])}\n"
            f"elements: {' '.join(labels[half:])}\ncovers: {covers}\n")


def test_size_guard_admits_the_cap(capsys, tmp_path):
    path = tmp_path / "cap.poset"
    path.write_text(chain_document("cap", unsharp.cli.MAX_ELEMENTS))
    assert len(parse_poset_file(path.read_text())[0].labels) == 64
    for command in ("check", "dot"):
        code, out, err = run(capsys, command, str(path))
        assert (code, err) == (0, "") and out


def test_size_guard_names_the_header_above_the_cap(capsys, tmp_path):
    text = "poset fine\nelements: x\n\n" + chain_document("big", unsharp.cli.MAX_ELEMENTS + 1)
    with pytest.raises(SizeLimitExceeded):
        parse_poset_file(text)
    path = tmp_path / "big.poset"
    path.write_text(text)
    message = "error: line 4: poset 'big' declares 65 elements, more than 64\n"
    for command in ("tables", "check", "dot"):
        assert run(capsys, command, str(path)) == (2, "", message)
