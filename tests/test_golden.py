"""Replay the golden CLI corpus under tests/golden/.

Every case must print exactly the recorded stdout bytes and exit with
the recorded code.  The expectations were written by
tests/golden/generate.py; CHANGES.md names the commit that produced them.
"""

import json
from pathlib import Path

import pytest

from tnomial.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case(case, capsys):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    with open(GOLDEN / f"{case['name']}.out", encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert out == expected
    assert code == case["exit"]
