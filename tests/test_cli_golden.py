"""Byte-level pins of the report commands on every test document.

Each golden file under ``tests/golden/cli`` is the transcript of one
command on one document: the report commands run plain, with
``--json`` and with ``--all-witnesses``, every ``tables --kind`` and
``dot`` plain and with ``--json``.  A transcript holds the exit code,
stdout, and stderr when the command reports an input error.  Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from unsharp.cli import main
from unsharp.operators import KINDS

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden" / "cli"
REPORT_FLAGS = ((), ("--json",), ("--all-witnesses",))
OUTPUT_FLAGS = ((), ("--json",))
# golden name -> (leading arguments, flag sets)
COMMANDS = {
    **{name: ((name,), REPORT_FLAGS)
       for name in ("check", "roundtrip", "residuation", "skeleton")},
    **{f"tables-{kind}": (("tables", "--kind", kind), OUTPUT_FLAGS) for kind in KINDS},
    "dot": (("dot",), OUTPUT_FLAGS),
}
DOCUMENTS = sorted(p.stem for p in DATA.glob("*.poset"))


def transcript(command: str, stem: str) -> str:
    lead, flag_sets = COMMANDS[command]
    parts = []
    for flags in flag_sets:
        argv = [*lead, *flags, f"tests/data/{stem}.poset"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*lead, *flags, str(DATA / f"{stem}.poset")])
        parts.append(f"$ unsharp {' '.join(argv)}\nexit {code}\n{out.getvalue()}")
        if code == 2:
            parts.append(f"stderr:\n{err.getvalue()}")
    return "".join(parts)


@pytest.mark.parametrize("stem", DOCUMENTS)
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(command, stem):
    golden = GOLDEN / f"{command}_{stem}.txt"
    assert transcript(command, stem) == golden.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for command in COMMANDS:
        for stem in DOCUMENTS:
            (GOLDEN / f"{command}_{stem}.txt").write_text(
                transcript(command, stem), encoding="utf-8")
