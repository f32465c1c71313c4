"""Analysis report assembly and deterministic serialization.

JSON is emitted by a small recursive writer rather than the json module
so that float formatting is pinned (12 significant digits, shortest
form) and output bytes are reproducible across platforms; only strings
go through json.dumps.  Key order is insertion order.
"""

from __future__ import annotations

import json

import numpy as np

from .cosets import _decomposition_from_mask, _vanishing_cosets
from .errors import InternalInvariantError
from .field import FieldSpec
from .params import compute_params, within_root_bound
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

# extension fields print the gcd count up to this size only.  Its Euclid
# is the prime fields' own, on packed digit labels with one gather per
# step, but a higher cap would change which reports print gcd_degree
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
        return json.dumps(obj, ensure_ascii=False)
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
        rows = [
            "  " * (indent + 1) + render_json(str(k)) + ": " + render_json(v, indent + 1)
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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
    of the reduction is scanned on its own.  The gcd oracle runs on f or
    on the k reduced polynomials h_i, whichever has the smaller sum of
    squared spans (_gcd_root_count); on the reduced side gcd_degree is
    sum_i deg gcd(h_i, x**(q-1) - 1) / k.  Where both root counts run, a
    disagreement, for f or for one h_i, raises InternalInvariantError."""
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
    r_value = c_value = cert = None
    if mask is not None:
        r_value = int(np.count_nonzero(mask))
        # S(f) holds every size of a vanishing coset, so C is the largest
        # witnessed k, else 1 or 0 as f has roots or not
        witnesses = [
            w
            for k in (report["params"]["S"] if f.t >= 2 else ())
            if k > 1
            for w in _vanishing_cosets(fn, mask, k)
        ]
        c_value = max((w.k for w in witnesses), default=int(mask.any()))
        if f.t >= 2:
            cert = _degree_reduce(fn, c_value, r_value)

    roots: dict = {}
    if mask is not None:
        roots["bruteforce"] = r_value
    else:
        roots["bruteforce"] = None
        roots["bruteforce_note"] = "unit group too large for the direct scan"
    if q <= GCD_LIMIT and (F.k == 1 or q <= GCD_GENERIC_LIMIT):
        # q <= GCD_LIMIT < BRUTE_FORCE_LIMIT, so the scan has run
        roots["gcd_degree"] = _gcd_root_count(fn, cert)
        if roots["gcd_degree"] != r_value:
            raise InternalInvariantError(
                f"the scan counts {r_value} roots and the gcd oracle {roots['gcd_degree']}"
            )
    else:
        roots["gcd_degree"] = None
        roots["gcd_note"] = "field too large for the gcd-based count"
    report["roots"] = roots

    if mask is not None:
        report["C"] = c_value
        if c_value == 0:
            report["C_note"] = "no nonzero roots at all"
        elif c_value == 1:
            report["C_note"] = "roots exist but no full coset of size > 1 vanishes"
        else:
            report["C_note"] = None
        report["vanishing_cosets"] = [
            {
                "k": w.k,
                "beta": element_json(F, w.beta),
                "representative": element_json(F, w.representative),
            }
            for w in witnesses
        ]
    else:
        report["C"] = None
        report["C_note"] = "unit group too large to certify coset structure"
        report["vanishing_cosets"] = None

    if cert is not None:
        dec = _decomposition_from_mask(fn, mask)
        report["decomposition"] = {
            "delta": dec.delta,
            "coset_count": dec.coset_count,
            "bound": dec.bound,
        }
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
        # c_value and r_value both come from the mask
        N, t = q - 1, f.t
        report["verdicts"] = {
            "R_le_bound_C": within_root_bound(r_value, N, t, max(c_value, 1)),
            "R_le_bound_D": within_root_bound(r_value, N, t, pr.D),
            "R_le_bound_delta": (
                None if cb.bound_delta is None else within_root_bound(r_value, N, t, dec.delta)
            ),
        }
    else:
        report["bounds"] = None
        report["verdicts"] = {}

    return report


def _gcd_root_count(fn: TNomial, cert) -> int:
    """R(fn) by the gcd oracle, on fn or on the reduced polynomials of cert.

    The oracle's Euclid is quadratic in the span (degree after
    normalize_lowest) of its input, so it runs on the h_i when the sum of
    their squared spans is below fn's squared span, and on fn otherwise
    or when there is no reduction.  On the reduced side each count must
    equal the scan's count for its h_i, and the counts sum to k * R(fn)."""
    if cert is None or (
        sum(normalize_lowest(h).degree ** 2 for h in cert.reduced_polys) >= fn.degree**2
    ):
        return count_roots_gcd(fn)
    counts = [count_roots_gcd(h) for h in cert.reduced_polys]
    for i, (got, scanned) in enumerate(zip(counts, cert.root_accounting)):
        if got != scanned:
            raise InternalInvariantError(
                f"the scan counts {scanned} roots of reduced polynomial {i}"
                f" and the gcd oracle {got}"
            )
    return sum(counts) // cert.k


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
