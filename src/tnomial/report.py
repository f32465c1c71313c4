"""Analysis report assembly and deterministic serialization.

JSON is emitted by a small recursive writer rather than the json module
so that float formatting is pinned (12 significant digits, shortest
form) and output bytes are reproducible across platforms.  Key order is
insertion order.
"""

from __future__ import annotations

import numpy as np

from .cosets import _C_from_mask, _decomposition_from_mask, _vanishing_cosets
from .field import FieldSpec
from .params import compute_params
from .poly import (
    BRUTE_FORCE_LIMIT,
    GCD_LIMIT,
    TNomial,
    count_roots_gcd,
    format_tnomial,
    normalize_lowest,
    roots_on_units,
)
from .reduction import _bound_from_C, _degree_reduce, bound_from_D

# unused here, but perfbench's tracer hooks these names in this module's namespace
from .cosets import compute_C, find_vanishing_cosets, root_coset_decomposition  # noqa: F401
from .poly import count_roots_bruteforce  # noqa: F401
from .reduction import bound_from_C, degree_reduce  # noqa: F401

SCHEMA_VERSION = 1

# the extension-field Euclid of the gcd count is quadratic in q, with a
# k x k digit matrix and a field inverse per step; cap it lower than the
# prime-field path
GCD_GENERIC_LIMIT = 2**12


def format_float(v: float) -> str:
    """Shortest '.12g' form (12 significant digits); nan and inf raise ValueError."""
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float in report: {v}")
    return format(float(v), ".12g")


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _json_string(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [render_json(x, indent + 1) for x in obj]
        if all(len(s) < 16 and "\n" not in s for s in items) and len(items) <= 16:
            return "[" + ", ".join(items) + "]"
        inner = ",\n".join("  " * (indent + 1) + s for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for k, v in obj.items():
            rows.append(
                "  " * (indent + 1) + _json_string(str(k)) + ": " + render_json(v, indent + 1)
            )
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_string(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def element_json(field: FieldSpec, x):
    return x if field.k == 1 else list(x)


def field_json(field: FieldSpec) -> dict:
    return {
        "p": field.p,
        "k": field.k,
        "q": field.q,
        "modulus": list(field.modulus) if field.modulus is not None else None,
        "generator": element_json(field, field.g),
    }


def analyze(f: TNomial) -> dict:
    """Full structural report for one polynomial: parameters, both root
    counts where feasible, coset structure, reduction certificate, and
    bound verdicts.

    The report builds the root mask of f once (when q-1 <= 2**22) and
    reads R, C, the vanishing-coset witnesses, the decomposition, the
    reduction's direct count and bound_C off it; each reduced polynomial
    of the reduction is scanned on its own."""
    F = f.field
    q = F.q
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "field": field_json(F),
        "polynomial": format_tnomial(f),
        "t": f.t,
        "degree": f.degree,
    }

    if f.t >= 2:
        pr = compute_params(f)
        report["params"] = {
            "delta": pr.delta,
            "D": pr.D,
            "Q": pr.Q,
            "K": pr.K,
            "S": list(pr.S),
        }
    else:
        report["params"] = None
        report["params_note"] = "exponent parameters need at least two terms"

    fn = normalize_lowest(f)
    mask = roots_on_units(fn) if q - 1 <= BRUTE_FORCE_LIMIT else None

    roots: dict = {}
    r_value = None
    if mask is not None:
        r_value = int(np.count_nonzero(mask))
        roots["bruteforce"] = r_value
    else:
        roots["bruteforce"] = None
        roots["bruteforce_note"] = "unit group too large for the direct scan"
    if q <= GCD_LIMIT and (F.k == 1 or q <= GCD_GENERIC_LIMIT):
        roots["gcd_degree"] = count_roots_gcd(f)
        if r_value is None:
            r_value = roots["gcd_degree"]
    else:
        roots["gcd_degree"] = None
        roots["gcd_note"] = "field too large for the gcd-based count"
    report["roots"] = roots

    if mask is not None:
        c_value = _C_from_mask(fn, mask)
        report["C"] = c_value
        if c_value == 0:
            report["C_note"] = "no nonzero roots at all"
        elif c_value == 1:
            report["C_note"] = "roots exist but no full coset of size > 1 vanishes"
        else:
            report["C_note"] = None
        witnesses = []
        if f.t >= 2:
            for k in report["params"]["S"]:
                if k <= 1:
                    continue
                for w in _vanishing_cosets(fn, mask, k):
                    witnesses.append(
                        {
                            "k": w.k,
                            "beta": element_json(F, w.beta),
                            "representative": element_json(F, w.representative),
                        }
                    )
        report["vanishing_cosets"] = witnesses
    else:
        c_value = None
        report["C"] = None
        report["C_note"] = "unit group too large to certify coset structure"
        report["vanishing_cosets"] = None

    if f.t >= 2 and mask is not None:
        dec = _decomposition_from_mask(fn, mask)
        report["decomposition"] = {
            "delta": dec.delta,
            "coset_count": dec.coset_count,
            "bound": dec.bound,
        }
        cert = _degree_reduce(fn, c_value, r_value)
        report["reduction"] = {
            "n": cert.n,
            "e": cert.e,
            "v": list(cert.v),
            "M": cert.M,
            "k": cert.k,
            "coset_split": cert.coset_split,
            "reduced": [format_tnomial(h) for h in cert.reduced_polys],
            "root_accounting": list(cert.root_accounting),
            "root_count": cert.root_count,
        }
    else:
        report["decomposition"] = None
        report["reduction"] = None

    if f.t >= 2 and c_value is not None:
        cb = _bound_from_C(f, c_value)
        bd = bound_from_D(f)
        report["bounds"] = {
            "bound_C": cb.bound_C,
            "bound_delta": cb.bound_delta,
            "bound_D": bd,
        }
        verdicts: dict = {}
        if r_value is not None:
            verdicts["R_le_bound_C"] = r_value <= cb.bound_C + 1e-9
            verdicts["R_le_bound_D"] = r_value <= bd + 1e-9
            verdicts["R_le_bound_delta"] = (
                None if cb.bound_delta is None else r_value <= cb.bound_delta + 1e-9
            )
        report["verdicts"] = verdicts
    else:
        report["bounds"] = None
        report["verdicts"] = {}

    return report


def report_verdict_failures(report: dict) -> list:
    out = []
    for name, value in (report.get("verdicts") or {}).items():
        if value is False:
            out.append(name)
    return out


def conjecture_csv(records) -> str:
    lines = ["p,t,r,count_all,count_c1,ratio,rhs,gamma,max_R"]
    for rec in records:
        lines.append(
            ",".join(
                [
                    str(rec.p),
                    str(rec.t),
                    str(rec.r),
                    str(rec.count_all),
                    str(rec.count_c1),
                    format_float(rec.ratio),
                    format_float(rec.rhs),
                    format_float(rec.gamma),
                    str(rec.max_R),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def max_r_csv(p: int, t: int, result) -> str:
    return (
        "p,t,max_R,witness\n"
        + ",".join([str(p), str(t), str(result.value), format_tnomial(result.witness)])
        + "\n"
    )
