"""The benchmark's own checkers pass their closed-form tests.

The benchmark under perfbench/ checks every output it times with its own
field arithmetic; perfbench/selftest.py tests those checkers.  Running it
here keeps a checker that has gone wrong from passing unnoticed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
