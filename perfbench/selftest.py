"""Tests of the benchmark's own arithmetic and checkers against closed forms.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

These guard the checks in checks.py: each closed form below is known
without the program, and each tampered output must be caught.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
from refarith import (Field, is_irreducible, pairing_set, root_mask,  # noqa: E402
                      small_multiple, vanishing_cosets)


def _roots(F: Field, terms) -> int:
    return int(root_mask(F, terms, F.units()).sum())


def test_half_power_binomial_has_half_the_units_as_roots():
    # x^((q-1)/2) - 1 vanishes exactly on the squares
    for F in (Field(13), Field(101), Field(3, 2, (1, 0, 1)), Field(7, 2, (1, 0, 1)),
              Field(5, 3, (2, 0, 1, 1))):
        h = (F.q - 1) // 2
        assert _roots(F, [(h, 1), (0, F.p - 1)]) == h, F.q


def test_one_plus_x4_plus_x8_over_f13():
    F = Field(13)
    terms = [(0, 1), (4, 1), (8, 1)]
    zero = root_mask(F, terms, F.units())
    assert int(zero.sum()) == 8
    S = pairing_set([0, 4, 8], 12)
    assert S == (1, 2, 4)
    sizes = [k for k in S[1:] if len(vanishing_cosets(F, zero, F.units(), k))]
    assert max(sizes) == 4  # C = 4


def test_extension_arithmetic_is_a_field():
    assert is_irreducible((1, 0, 1), 3) and not is_irreducible((1, 0, 1), 5)
    assert is_irreducible((1, 1, 0, 0, 1), 2) and not is_irreducible((1, 0, 1, 0, 1), 2)
    F = Field(3, 2, (1, 0, 1))
    units = F.units()
    assert (F.encode(F.mul(units, F.inv(units))) == 1).all()
    assert sorted(F.encode(F.mul(units, F.const((1, 1))))) == list(range(1, 9))
    orders = [k for k in range(1, 9) if F.has_order(F.scalar(units[[k - 1]]), 8)]
    assert len(orders) == 4  # phi(8) generators


def test_small_multiple_matches_a_direct_scan():
    for exps, N, n in [((3, 7), 40, 40), ((5, 11, 17), 100, 50), ((6, 9), 36, 12)]:
        best = None
        for e in range(1, n):
            M = max(min(e * a % N, N - e * a % N) for a in exps)
            if M and (best is None or M < best[1]):
                best = (e, M)
        assert small_multiple(exps, N, n) == best


def test_conjecture_check_against_a_full_enumeration():
    p, t = 7, 2
    F = Field(p)
    units = F.units()
    counts: dict = {}
    for exps in itertools.combinations(range(p - 1), t):
        for cs in itertools.product(range(1, p), repeat=t):
            r = int(root_mask(F, list(zip(exps, cs)), units).sum())
            counts[r] = counts.get(r, 0) + 1
    rows = ["p,t,r,count_all,count_c1,ratio,rhs,gamma,max_R"]
    rows += [f"{p},{t},{r},{c},0,0,0,0.5,0" for r, c in sorted(counts.items())]
    table = "\n".join(rows) + "\n"
    assert checks._check_conjecture(p, t, table) == []
    assert checks._check_conjecture(p, t, table.replace(f",{counts[0]},", f",{counts[0] + 1},"))


def test_root_dist_mean_matches_enumeration():
    p = 5
    F = Field(p)
    units = F.units()
    total = hits = 0
    for cs in itertools.product(range(p), repeat=p - 1):
        if any(cs):
            total += 1
            hits += _roots(F, [(i, c) for i, c in enumerate(cs) if c])
    assert Fraction(hits, total) == Fraction((p - 1) * (p ** (p - 2) - 1), p ** (p - 1) - 1)


def test_parse_terms_reads_the_generator_text():
    for workload in ("analyze_prime", "analyze_ext"):
        for op in corpus.generate(workload, 3).ops:
            parsed = checks.parse_terms(op.text, op.field.k)
            assert parsed == [(a, c) for a, c in op.terms]


def test_planted_polynomials_vanish_on_their_coset():
    for workload in ("analyze_gcd", "analyze_ext"):
        for op in corpus.generate(workload, 5).ops:
            if not op.planted:
                continue
            F = Field(op.field.p, op.field.k, op.field.modulus)
            zero = root_mask(F, op.terms, F.units())
            assert len(vanishing_cosets(F, zero, F.units(), op.planted))


def test_check_analyze_accepts_the_program_and_catches_tampering():
    import tnomial

    F = corpus.FieldDesc(13)
    op = corpus.AnalyzeOp(field=F, terms=((0, 1), (4, 1), (8, 1)), text="1 + x^4 + x^8", planted=4)
    report = tnomial.analyze(tnomial.parse_tnomial(tnomial.make_prime_field(13), op.text))
    good = tnomial.render_json(report)
    assert checks.check_analyze(op, good) == []
    for path, value in [(("roots", "bruteforce"), 7), (("C",), 2), (("decomposition", "coset_count"), 3),
                        (("reduction", "e"), 5)]:
        bad = json.loads(good)
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert checks.check_analyze(op, json.dumps(bad)), path
    bad = json.loads(good)
    bad["vanishing_cosets"] = bad["vanishing_cosets"][1:]
    assert checks.check_analyze(op, json.dumps(bad))


def test_max_r_check_rejects_a_coset_vanishing_witness():
    # x^6 - 1 over F_13 vanishes on the order-6 subgroup, a union of prime-size cosets
    assert checks._check_max_r(13, 2, "p,t,max_R,witness\n13,2,6,12 + x^6\n")
    assert checks._check_max_r(13, 2, "p,t,max_R,witness\n13,2,1,12 + x^5\n") == []


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok  {fn.__name__}")
    print(f"{len(tests)} passed")
