"""Every name the benchmark's tracer hooks still exists in the package.

perfbench/tracing.py wraps functions by (module, attribute) in the
namespace of the tnomial module that uses them; a refactor that drops
one of those names makes `perfbench/run.py --trace 1` fail with an
AttributeError.  The tracer is read here with runpy, which writes no
bytecode next to it.
"""

import runpy
from pathlib import Path

import tnomial
import tnomial.cli  # noqa: F401  (the package does not import its CLI)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_hooked_name_resolves():
    hooks = runpy.run_path(str(TRACING))["HOOKS"]
    assert hooks
    missing = [
        f"{module}.{attr}"
        for module, attr, _layer in hooks
        if not callable(getattr(getattr(tnomial, module, None), attr, None))
    ]
    assert missing == []
