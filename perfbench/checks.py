"""Independent checks of the program's outputs.

Each check takes one operation and the text the program produced for it,
and returns a list of problems (empty when the output is right).  Root
counts, cosets and generators are recomputed with the benchmark's own
arithmetic (refarith); closed forms stand in for anything that would
need the program's own algorithms.  No check compares against a stored
copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

from corpus import AnalyzeOp, CliOp
from refarith import Field, pairing_set, prime_factors, reduction, root_mask, vanishing_cosets

_TERM = re.compile(r"^(?:(\[[0-9,]+\]|[0-9]+)\*)?(x(?:\^([0-9]+))?)?$|^(\[[0-9,]+\]|[0-9]+)$")


def parse_terms(text: str, k: int) -> list:
    """(exponent, coefficient) pairs of the program's canonical text form."""
    terms = []
    for chunk in text.split(" + "):
        m = _TERM.match(chunk.strip())
        if not m:
            raise ValueError(f"unreadable term {chunk!r}")
        coef_txt = m.group(1) or m.group(4)
        a = 0 if m.group(2) is None else int(m.group(3) or 1)
        if coef_txt is None:
            coef = 1 if k == 1 else (1,) + (0,) * (k - 1)
        elif coef_txt.startswith("["):
            coef = tuple(int(v) for v in coef_txt[1:-1].split(","))
        else:
            coef = int(coef_txt) if k == 1 else (int(coef_txt),) + (0,) * (k - 1)
        terms.append((a, coef))
    return terms


def check_analyze(op: AnalyzeOp, output: str) -> list:
    rep = json.loads(output)
    F = op.field
    n = F.q - 1
    bad = []
    field = rep["field"]
    if (field["p"], field["k"], field["q"]) != (F.p, F.k, F.q):
        bad.append(f"field {field} is not F_{F.q}")
    modulus = field["modulus"]
    if F.k > 1 and tuple(modulus) != F.modulus:
        bad.append(f"modulus {modulus} differs from the requested {F.modulus}")
    ref = Field(F.p, F.k, F.modulus)
    if not ref.has_order(field["generator"], n):
        bad.append(f"generator {field['generator']} does not have order {n}")
    units = ref.units()
    zero = root_mask(ref, op.terms, units)
    R = int(zero.sum())

    roots = rep["roots"]
    counts = {"bruteforce": roots["bruteforce"], "gcd_degree": roots["gcd_degree"]}
    if rep.get("reduction"):
        counts["reduction.root_count"] = rep["reduction"]["root_count"]
    for name, value in counts.items():
        if value is not None and value != R:
            bad.append(f"{name} = {value}, direct evaluation gives R = {R}")

    # Only sizes in S can carry a vanishing coset: a residue class mod k
    # holding a single term leaves a lone nonzero summand on the coset.
    S = pairing_set([a for a, _ in op.terms], n)
    if rep["params"]["S"] != list(S):
        bad.append(f"S = {rep['params']['S']}, expected {list(S)}")
    reported: dict = {}
    for w in rep["vanishing_cosets"]:
        reported.setdefault(w["k"], {})[int(ref.encode(ref.const(w["beta"]))[0])] = w
    expected_C = 1 if R else 0
    for size in S[1:]:
        vanishing = set(vanishing_cosets(ref, zero, units, size).tolist())
        if vanishing:
            expected_C = size
        got = reported.pop(size, {})
        if set(got) != vanishing:
            bad.append(f"witness cosets of size {size}: {sorted(got)}, direct evaluation gives {sorted(vanishing)}")
        for beta, w in got.items():
            if int(ref.encode(ref.pow(ref.const(w["representative"]), size))[0]) != beta:
                bad.append(f"representative {w['representative']} is not in coset beta={w['beta']}")
    if reported:
        bad.append(f"witnesses of sizes {sorted(reported)} outside S")
    if rep["C"] != expected_C:
        bad.append(f"C = {rep['C']}, direct evaluation gives {expected_C}")
    if op.planted and rep["C"] < op.planted:
        bad.append(f"C = {rep['C']} is below the planted coset size {op.planted}")

    bounds = rep["bounds"]
    if bounds["bound_C"] < R:
        bad.append(f"R = {R} exceeds bound_C = {bounds['bound_C']}")
    if any(v is False for v in rep["verdicts"].values()):
        bad.append(f"a bound verdict is false: {rep['verdicts']}")
    dec = rep["decomposition"]
    if dec["delta"] * dec["coset_count"] != R:
        bad.append(f"delta * coset_count = {dec['delta']} * {dec['coset_count']} != R = {R}")

    red = rep["reduction"]
    n_range, e, M = reduction([a for a, _ in op.terms], n, expected_C)
    if (red["n"], red["e"], red["M"], red["k"]) != (n_range, e, M, math.gcd(e, n)):
        bad.append(f"reduction (n, e, M, k) = {(red['n'], red['e'], red['M'], red['k'])}, "
                   f"expected {(n_range, e, M, math.gcd(e, n))}")
    if sum(red["root_accounting"]) != red["k"] * R:
        bad.append(f"root accounting {red['root_accounting']} does not sum to k * R = {red['k']} * {R}")
    if len(red["reduced"]) != red["k"] or len(red["root_accounting"]) != red["k"]:
        bad.append(f"reduction lists {len(red['reduced'])} polynomials for k = {red['k']}")
    for h in red["reduced"]:
        deg = max(a for a, _ in parse_terms(h, F.k))
        if deg > 2 * red["M"]:
            bad.append(f"reduced polynomial degree {deg} exceeds 2M = {2 * red['M']}")
    m = rep["t"] - 1
    if not red["M"] ** m * red["n"] <= n**m:
        bad.append(f"M^(t-1) * n = {red['M']}^{m} * {red['n']} exceeds (q-1)^(t-1)")
    return bad


def check_cli(op: CliOp, output: str) -> list:
    args = dict(zip(op.argv[2::2], op.argv[3::2]))
    p = int(args["--p"])
    if op.command == "conjecture":
        return _check_conjecture(p, int(args["--t"]), output)
    if op.command == "max-r":
        return _check_max_r(p, int(args["--t"]), output)
    if op.command == "sample-c2":
        return _check_sample_c2(p, int(args.get("--k", 1)), int(args["--samples"]), output)
    return _check_root_dist(p, int(args["--samples"]), int(args["--seed"]), output)


def _check_conjecture(p: int, t: int, output: str) -> list:
    rows = list(csv.DictReader(io.StringIO(output)))
    n = p - 1
    total = sum(int(r["count_all"]) for r in rows)
    incidences = sum(int(r["r"]) * int(r["count_all"]) for r in rows)
    want_total = math.comb(n, t) * n**t
    want_inc = math.comb(n, t) * n * (n**t + (-1) ** t * n) // p
    bad = []
    if total != want_total:
        bad.append(f"sum count_all = {total}, expected C(p-1,t)(p-1)^t = {want_total}")
    if incidences != want_inc:
        bad.append(f"sum r*count_all = {incidences}, expected {want_inc}")
    if any(int(r["count_c1"]) > int(r["count_all"]) for r in rows):
        bad.append("count_c1 exceeds count_all")
    return bad


def _check_max_r(p: int, t: int, output: str) -> list:
    row = next(csv.DictReader(io.StringIO(output)))
    terms = parse_terms(row["witness"], 1)
    ref = Field(p)
    units = ref.units()
    zero = root_mask(ref, terms, units)
    bad = []
    if (int(row["p"]), int(row["t"]), len(terms)) != (p, t, t):
        bad.append(f"witness {row['witness']} is not a {t}-nomial over F_{p}")
    if int(zero.sum()) != int(row["max_R"]):
        bad.append(f"witness has R = {int(zero.sum())}, reported max_R = {row['max_R']}")
    for ell in prime_factors(p - 1):
        if len(vanishing_cosets(ref, zero, units, ell)):
            bad.append(f"witness vanishes on a coset of prime size {ell}")
    return bad


def _check_sample_c2(p: int, k: int, samples: int, output: str) -> list:
    doc = json.loads(output)
    bound = doc["bound"]
    sigma = math.sqrt(bound * (1 - bound) / samples)
    bad = []
    if (doc["p"], doc["k"], doc["q"], doc["samples"]) != (p, k, p**k, samples):
        bad.append(f"header {doc} does not match the command")
    if not 0 <= doc["estimate"] <= bound + 5 * sigma:
        bad.append(f"estimate {doc['estimate']} exceeds bound {bound} + 5 sigma")
    return bad


def _check_root_dist(p: int, samples: int, seed: int, output: str) -> list:
    doc = json.loads(output)
    hist = {int(r): c for r, c in doc["histogram"].items()}
    n = sum(hist.values())
    bad = []
    if (doc["p"], doc["samples"], doc["seed"]) != (p, samples, seed) or n != samples:
        bad.append(f"histogram holds {n} samples, expected {samples}")
        return bad
    mean = sum(r * c for r, c in hist.items()) / n
    var = sum((r - mean) ** 2 * c for r, c in hist.items()) / max(n - 1, 1)
    expected = float(Fraction((p - 1) * (p ** (p - 2) - 1), p ** (p - 1) - 1))
    if abs(mean - expected) > 5 * math.sqrt(var / n) + 1e-12:
        bad.append(f"mean R {mean} is more than 5 sigma from {expected}")
    return bad
