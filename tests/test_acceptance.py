"""End-to-end checks of the library's central claims, one per test.

Each test prints a single pass/fail line (visible with `pytest -s`, or
in the captured output of a failure).  The exhaustive sweep behind
criteria 4-6 runs once and is shared.
"""

import math
import random
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from tnomial.cosets import compute_C, find_vanishing_cosets, vanishes_on_coset
from tnomial.experiments import (
    compute_max_R,
    conjecture_table,
    sample_vanishing_proportion,
)
from tnomial.field import make_extension_field, make_prime_field
from tnomial.numtheory import divisors, gcd_all, is_prime
from tnomial.params import compute_delta, compute_params
from tnomial.poly import (
    build,
    count_roots_bruteforce,
    count_roots_gcd,
    evaluate,
    normalize_lowest,
)
from tnomial.reduction import bound_from_C, degree_reduce, find_small_multiple, modular_norm

from _orbits import _orbit_reps


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _primes(lo: int, hi: int) -> list:
    return [p for p in range(lo, hi + 1) if is_prime(p)]


# -- criteria 1-3: frozen worked families --------------------------------------


def test_criterion_01_half_power_and_quotient_families():
    ok = True
    for q, field in [
        (7, make_prime_field(7)),
        (11, make_prime_field(11)),
        (13, make_prime_field(13)),
        (27, make_extension_field(3, 3)),
    ]:
        h = (q - 1) // 2
        f = build(field, [(0, 1), (h, 1)])
        ok = ok and count_roots_bruteforce(f) == h and compute_C(f) == h
    for q, t in [(7, 3), (13, 3), (13, 4)]:
        field = make_prime_field(q)
        step = (q - 1) // t
        f = build(field, [(i * step, 1) for i in range(t)])
        ok = ok and count_roots_bruteforce(f) == (q - 1) - step
        ok = ok and len(find_vanishing_cosets(f, step)) == t - 1
    _line(1, ok, "half-power binomials and unit-group quotients hit R = C targets")


def test_criterion_02_sqrt_q_trinomials():
    ok = True
    for p in (3, 5, 7):
        field = make_extension_field(p, 2)
        f = build(field, [(p, 1), (1, 1), (0, -2)])
        ok = ok and count_roots_bruteforce(f) == p and compute_C(f) == 1
    _line(2, ok, "x^sqrt(q) + x - 2 has sqrt(q) roots and no vanishing coset")


def test_criterion_03_power_sum_family():
    cases = [
        (make_extension_field(2, 3), (0, 1, 3), 3),  # q=8, t=3: R >= 8^(1/3)
        (make_extension_field(2, 4), (0, 1, 3, 7), 4),  # q=16, t=4: R >= 16^(1/2)
    ]
    ok = True
    for field, exps, t in cases:
        f = build(field, [(a, 1) for a in exps])
        floor_bound = field.q ** (1 - 2 / t)
        ok = ok and count_roots_bruteforce(f) >= floor_bound
    _line(3, ok, "geometric-exponent power sums meet the q^(1-2/t) root floor")


# -- criteria 4-6: one shared exhaustive sweep ----------------------------------


class SweepStats(NamedTuple):
    polynomials: int
    bound_violations: int
    delta_fired: int
    delta_violations: int
    membership_violations: int
    residue_mismatches: int
    c_mismatches: int
    param_violations: int


@lru_cache(maxsize=1)
def _exhaustive_sweep() -> SweepStats:
    """Every t-nomial over F_q, q in {7, 11, 13}, t in {2, 3, 4}, one
    exponent set per translation orbit (R, C and the parameters are
    orbit-invariant), lowest coefficient fixed to 1 (scaling-invariant).
    """
    polys = 0
    bound_bad = 0
    fired = 0
    delta_bad = 0
    member_bad = 0
    residue_bad = 0
    c_bad = 0
    param_bad = 0
    for q in (7, 11, 13):
        field = make_prime_field(q)
        n = q - 1
        units = list(field.unit_powers())
        divs = divisors(n)
        for t in (2, 3, 4):
            for exps, _orbit in _orbit_reps(n, t):
                for coeffs in product(range(1, q), repeat=t - 1):
                    f = build(field, zip(exps, (1,) + coeffs))
                    polys += 1
                    evals = [evaluate(f, x) == 0 for x in units]
                    R = sum(evals)
                    C = compute_C(f)
                    pr = compute_params(f)
                    S = set(pr.S)

                    # direct k-point evaluation vs the residue-class test,
                    # for every coset of every divisor size
                    direct_C = 0
                    for k in divs:
                        m = n // k
                        for j0 in range(m):
                            direct = all(evals[j0 + i * m] for i in range(k))
                            res = vanishes_on_coset(f, k, units[(j0 * k) % n])
                            if direct != res:
                                residue_bad += 1
                            if direct:
                                direct_C = max(direct_C, k)
                                if k not in S:
                                    member_bad += 1
                    if direct_C != C:
                        c_bad += 1

                    # root bound from C, exact integer form
                    if R ** (t - 1) > 2 ** (t - 1) * n ** (t - 2) * C:
                        bound_bad += 1
                    d_norm = compute_delta(normalize_lowest(f))
                    if max(C, 1) ** (t - 1) < d_norm ** (t - 2) * n:
                        fired += 1
                        if R ** (t - 1) > 2 ** (t - 1) * n ** (t - 2) * d_norm:
                            delta_bad += 1
                    if polys % 97 == 0:
                        cb = bound_from_C(f)
                        if R > cb.bound_C + 1e-9:
                            bound_bad += 1
                        if cb.bound_delta is not None and R > cb.bound_delta + 1e-9:
                            delta_bad += 1

                    if not _param_relations_hold(pr):
                        param_bad += 1
    return SweepStats(
        polynomials=polys,
        bound_violations=bound_bad,
        delta_fired=fired,
        delta_violations=delta_bad,
        membership_violations=member_bad,
        residue_mismatches=residue_bad,
        c_mismatches=c_bad,
        param_violations=param_bad,
    )


def _param_relations_hold(pr) -> bool:
    S = set(pr.S)
    if pr.delta not in S:
        return False
    if any(pr.Q % k for k in S):
        return False
    if not max(S) <= pr.K <= min(pr.D, pr.Q):
        return False
    # divisor-closed: every divisor of a member is a member
    return all(d in S for k in S for d in divisors(k))


def test_criterion_04_coset_bound_exhaustive():
    s = _exhaustive_sweep()
    ok = s.bound_violations == 0 and s.delta_violations == 0 and s.delta_fired > 0
    _line(
        4,
        ok,
        f"R within the C-driven bound on {s.polynomials} polynomials "
        f"({s.bound_violations} violations; delta variant fired "
        f"{s.delta_fired} times, {s.delta_violations} violations)",
    )


def test_criterion_05_vanishing_size_membership():
    s = _exhaustive_sweep()
    ok = (
        s.membership_violations == 0
        and s.residue_mismatches == 0
        and s.c_mismatches == 0
    )
    _line(
        5,
        ok,
        f"residue-class test = direct coset evaluation everywhere, and every "
        f"vanishing size lies in S ({s.residue_mismatches} mismatches, "
        f"{s.membership_violations} membership misses, "
        f"{s.c_mismatches} C disagreements)",
    )


def test_criterion_06_parameter_relations():
    s = _exhaustive_sweep()
    rng = random.Random(6)
    fields = [
        make_prime_field(65521),
        make_prime_field(32749),
        make_prime_field(4093),
        make_prime_field(257),
        make_extension_field(2, 16),
        make_extension_field(3, 8),
        make_extension_field(5, 4),
        make_extension_field(7, 3),
    ]
    random_bad = 0
    trials = 10**4
    for _ in range(trials):
        field = rng.choice(fields)
        t = rng.randint(2, 8)
        exps = rng.sample(range(field.q - 1), t)
        f = build(field, [(a, field.element_from_int(rng.randint(1, field.q - 1))) for a in exps])
        if not _param_relations_hold(compute_params(f)):
            random_bad += 1
    ok = s.param_violations == 0 and random_bad == 0
    _line(
        6,
        ok,
        f"delta in S, S | Q, max(S) <= K <= min(D, Q), S divisor-closed on "
        f"{s.polynomials} exhaustive + {trials} random polynomials "
        f"({s.param_violations + random_bad} violations)",
    )


# -- criterion 7: small-multiple quality ----------------------------------------


def test_criterion_07_small_multiple_quality():
    rng = random.Random(7)
    trials = 10**4
    bad = 0
    for _ in range(trials):
        while True:
            N = rng.randint(2, 10**6)
            m = rng.randint(1, 6)
            a = [rng.randrange(N) for _ in range(m)]
            cap = N // gcd_all(a, N)
            if cap >= 2:
                break
        n = rng.randint(2, min(cap, 1500))
        e, v, M = find_small_multiple(a, N, n)
        good = (
            0 < M
            and M**m * n <= N**m
            and 1 <= e < n
            and M == modular_norm([e * ai for ai in a], N)
            and all(abs(e * ai + vi) <= M for ai, vi in zip(a, v))
        )
        bad += not good
    _line(7, bad == 0, f"0 < M and M^m * n <= N^m exactly on {trials} random instances")


# -- criterion 8: reduction accounting ------------------------------------------


def test_criterion_08_reduction_accounting():
    rng = random.Random(8)
    fields = [make_prime_field(p) for p in (4099, 4093, 2053, 1009, 521, 257, 101, 53)]
    small_ext = [
        make_extension_field(2, 6),
        make_extension_field(3, 4),
        make_extension_field(2, 8),
        make_extension_field(5, 3),
        make_extension_field(7, 2),
    ]
    trials = 10**3
    bad = 0
    for done in range(trials):
        field = rng.choice(small_ext) if done % 10 == 0 else rng.choice(fields)
        t = rng.randint(2, min(6, field.q - 1))
        exps = rng.sample(range(field.q - 1), t)
        f = build(
            field,
            [(a, field.element_from_int(rng.randint(1, field.q - 1))) for a in exps],
        )
        cert = degree_reduce(f)  # t >= 2: C and delta' <= N/2 leave n >= 2
        direct = count_roots_bruteforce(f)
        total = sum(count_roots_bruteforce(h) for h in cert.reduced_polys)
        good = (
            total == cert.k * direct
            and cert.root_count == direct
            and all(h.degree <= 2 * cert.M for h in cert.reduced_polys)
        )
        bad += not good
    _line(
        8,
        bad == 0,
        f"k * R(f) = sum of reduced root counts and deg <= 2M on {trials} reductions",
    )


# -- criterion 9: the two root-count oracles agree -------------------------------


def test_criterion_09_root_count_oracle_equivalence():
    rng = random.Random(9)
    bad = 0
    per_field = 10**3
    for q in (251, 1009, 4093):
        field = make_prime_field(q)
        for _ in range(per_field):
            t = rng.randint(2, 10)
            exps = rng.sample(range(q - 1), t)
            f = build(field, [(a, rng.randint(1, q - 1)) for a in exps])
            if count_roots_gcd(f) != count_roots_bruteforce(f):
                bad += 1
    _line(
        9,
        bad == 0,
        f"gcd-degree count = direct scan on {3 * per_field} random polynomials",
    )


# -- criterion 10: enumeration slices --------------------------------------------


def test_criterion_10_enumeration_slices():
    growth_ok = True
    slice_primes = _primes(5, 200)
    for p in slice_primes:
        if compute_max_R(p, 3).value >= 1.8 * math.log(p):
            growth_ok = False
    table_pairs = (
        [(p, 3) for p in _primes(5, 61)]
        + [(p, 4) for p in _primes(5, 31)]
        + [(p, 5) for p in _primes(7, 17)]
    )
    tables_ok = True
    for p, t in table_pairs:
        if not all(rec.passes_bound() for rec in conjecture_table(p, t)):
            tables_ok = False
    _line(
        10,
        growth_ok and tables_ok,
        f"max R over C <= 1 trinomials stays under 1.8 ln p for "
        f"{len(slice_primes)} primes; factorial-decay tables pass at "
        f"{len(table_pairs)} (p, t) pairs",
    )


# -- criterion 11: vanishing-proportion bound ------------------------------------


def test_criterion_11_vanishing_proportion():
    samples = 20000
    stat_ok = True
    for q in (7, 11, 13):
        est = sample_vanishing_proportion(make_prime_field(q), samples, seed=11)
        sigma = math.sqrt(max(est.estimate * (1 - est.estimate), 1e-12) / samples)
        if est.estimate > est.bound + 5 * sigma:
            stat_ok = False
    # exhaustive ground truth at q = 5: all 624 nonzero coefficient vectors
    field = make_prime_field(5)
    hits = 0
    total = 0
    for coeffs in product(range(5), repeat=4):
        if not any(coeffs):
            continue
        total += 1
        f = build(field, [(a, c) for a, c in enumerate(coeffs) if c])
        hits += compute_C(f) > 1
    exact_ok = (hits, total) == (48, 624) and hits / total <= 0.2
    _line(
        11,
        stat_ok and exact_ok,
        f"sampled proportion within bound + 5 sigma at q in (7, 11, 13); "
        f"exhaustive q = 5 proportion {hits}/{total} within 1/q",
    )
