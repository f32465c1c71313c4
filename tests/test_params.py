import math
import random

import pytest

from tnomial.errors import TooFewTerms
from tnomial.field import make_extension_field, make_prime_field
from tnomial.numtheory import divisors
from tnomial.params import (
    compute_D,
    compute_K,
    compute_Q,
    compute_S,
    compute_delta,
    compute_params,
    root_bound,
    within_root_bound,
)
from tnomial.poly import build

F7 = make_prime_field(7)
F13 = make_prime_field(13)


def _poly(field, exps):
    return build(field, [(a, 1) for a in exps])


def test_binomial_params():
    f = _poly(F7, [0, 3])  # x^3 + 1
    pr = compute_params(f)
    assert (pr.delta, pr.D, pr.Q, pr.K) == (3, 3, 3, 3)
    assert pr.S == (1, 3)
    assert (pr.q, pr.t) == (7, 2)


def test_even_trinomial_params():
    f = _poly(F7, [0, 2, 4])  # x^4 + x^2 + 1
    assert compute_delta(f) == 2
    assert compute_D(f) == 2
    assert compute_Q(f) == 2
    assert compute_K(f) == 2
    assert compute_S(f) == (1, 2)


def test_Q_can_be_smaller_than_D():
    # exponents 0, 1, 3 over F_13: gcds with 12 of pairwise differences
    # from 0: gcd(1,12)=1 -> lcm includes 1, gcd(3,12)=3; from 1: 1 and
    # gcd(2,12)=2; from 3: 3 and 2.  D = min of maxes = 2, Q = gcd of
    # lcms = gcd(3, 2, 6) = 1.
    f = _poly(F13, [0, 1, 3])
    assert compute_D(f) == 2
    assert compute_Q(f) == 1
    assert compute_K(f) == 1
    assert compute_S(f) == (1,)


def test_delta_uses_raw_exponents():
    # delta includes the lowest exponent; normalization changes it
    f = build(F13, [(2, 1), (6, 1)])
    assert compute_delta(f) == 2
    f2 = build(F13, [(3, 1), (6, 1)])
    assert compute_delta(f2) == 3


def test_t1_contracts():
    f = build(F7, [(3, 2)])
    assert compute_S(f) == ()
    assert compute_delta(f) == 3
    for op in (compute_D, compute_Q, compute_K, compute_params):
        with pytest.raises(TooFewTerms):
            op(f)


def test_S_contains_delta_when_t_ge_2():
    f = _poly(F7, [0, 3])
    assert compute_delta(f) in compute_S(f)


def test_S_examples_extension():
    E = make_extension_field(3, 3)  # q = 27, n = 26
    f = _poly(E, [0, 13])
    assert compute_S(f) == (1, 13)
    assert compute_delta(f) == 13


def test_param_relations_random():
    # delta in S; every k in S divides Q; max(S) <= K <= min(D, Q);
    # S is closed under divisors
    rng = random.Random(99)
    for q in [7, 11, 13, 31, 64]:
        F = make_prime_field(q) if q != 64 else make_extension_field(2, 6)
        n = q - 1
        for _ in range(80):
            t = rng.randint(2, 5)
            exps = rng.sample(range(n), min(t, n))
            f = _poly(F, exps)
            if f.t < 2:
                continue
            delta, D = compute_delta(f), compute_D(f)
            Q, K, S = compute_Q(f), compute_K(f), compute_S(f)
            assert delta in S
            assert all(Q % k == 0 for k in S)
            assert max(S) <= K <= min(D, Q)
            for k in S:
                assert all(d in S for d in divisors(k))
            assert all(n % k == 0 for k in S)


def test_S_by_direct_definition():
    rng = random.Random(7)
    F = make_prime_field(31)
    n = 30
    for _ in range(50):
        t = rng.randint(2, 4)
        exps = rng.sample(range(n), t)
        f = _poly(F, exps)
        direct = []
        for k in divisors(n):
            ok = True
            for a in exps:
                if sum(1 for b in exps if (a - b) % k == 0) < 2:
                    ok = False
                    break
            if ok:
                direct.append(k)
        assert list(compute_S(f)) == direct


def test_D_brute_force_definition():
    F = make_prime_field(13)
    n = 12
    for exps in [(0, 1, 2), (0, 2, 4), (0, 3, 6, 9), (1, 5, 7), (0, 4, 8)]:
        f = _poly(F, exps)
        direct = min(
            max(math.gcd(a - b, n) for b in exps if b != a) for a in exps
        )
        assert compute_D(f) == direct


def test_params_invariant_under_scaling():
    f = _poly(F13, [0, 2, 5])
    g = build(F13, [(0, 4), (2, 4), (5, 4)])
    assert compute_params(f) == compute_params(g)


@pytest.mark.parametrize(
    "N, t, X, R",
    [(5, 2, 3, 6), (9, 3, 1, 6), (2, 4, 2, 4), (1000, 2, 7, 14), (20, 3, 5, 20), (16, 4, 2, 16)],
)
def test_root_bound_verdict_is_exact_at_equality(N, t, X, R):
    # R**(t-1) == 2**(t-1) * N**(t-2) * X: R is the bound itself
    assert R ** (t - 1) == 2 ** (t - 1) * N ** (t - 2) * X
    assert within_root_bound(R - 1, N, t, X)
    assert within_root_bound(R, N, t, X)
    assert not within_root_bound(R + 1, N, t, X)
    assert root_bound(N, t, X) == pytest.approx(R)


def test_root_bound_verdict_where_the_float_slack_is_wrong():
    # found by search: R**2 = 4*N*X + 1, so R is just above the t = 3 bound,
    # by about 1/(2R) < 1e-9, while the float bound rounds to R plus one ulp
    R, N, X = 2147475653, 2147475654, 536868913
    assert N < 2**31 and R**2 == 4 * N * X + 1
    assert R <= root_bound(N, 3, X) + 1e-9
    assert not within_root_bound(R, N, 3, X)
