"""Replay the golden CLI corpus under tests/golden/.

Every case must print exactly the recorded stdout bytes and exit with
the recorded code, and every script in demos/ must print exactly its
recorded stdout.  The expectations were written by
tests/golden/generate.py; CHANGES.md names the commit that produced them.
"""

import json
import runpy
from pathlib import Path

import pytest

from tnomial.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = GOLDEN.parent.parent / "demos"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _expected(name: str) -> str:
    with open(GOLDEN / f"{name}.out", encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case(case, capsys):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert out == _expected(case["name"])
    assert code == case["exit"]


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_output(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out == _expected(f"demo_{script.stem}")
