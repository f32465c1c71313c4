import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from tnomial import cosets, poly, reduction
from tnomial.errors import (
    EmptyInput,
    EmptyRange,
    PreconditionViolated,
    TooFewTerms,
)
from tnomial.field import make_extension_field, make_prime_field
from tnomial.poly import build, count_roots_bruteforce, count_roots_gcd
from tnomial.reduction import (
    bound_from_C,
    bound_from_D,
    degree_reduce,
    find_small_multiple,
    modular_norm,
)

F7 = make_prime_field(7)
F13 = make_prime_field(13)


def test_modular_norm_frozen():
    assert modular_norm([5], 6) == 1
    assert modular_norm([3, 4], 6) == 3
    assert modular_norm([0, 6, 12], 6) == 0
    assert modular_norm([1], 2) == 1
    assert modular_norm([-1], 6) == 1
    assert modular_norm([7, 11], 12) == 5


def test_modular_norm_errors():
    with pytest.raises(EmptyInput):
        modular_norm([], 6)
    with pytest.raises(ValueError):
        modular_norm([1], 0)


def test_find_small_multiple_frozen():
    # a = (3), N = 7: e = 2 gives 6 = -1 mod 7, distance 1
    res = find_small_multiple([3], 7, 7)
    assert (res.e, res.M) == (2, 1)
    assert (2 * 3 + res.v[0]) == -1
    # a = (2, 3), N = 12: e = 1 already achieves the minimum norm 3
    res2 = find_small_multiple([2, 3], 12, 6)
    assert (res2.e, res2.M) == (1, 3)
    assert res2.v == (0, 0)


def test_find_small_multiple_guarantee():
    rng = random.Random(41)
    for _ in range(300):
        N = rng.randint(4, 10**6)
        m = rng.randint(1, 4)
        a = [rng.randint(1, N - 1) for _ in range(m)]
        g = math.gcd(math.gcd(*a, N) if m > 1 else math.gcd(a[0], N), N)
        n_cap = N // g
        if n_cap < 2:
            continue
        n = rng.randint(2, n_cap)
        e, v, M = find_small_multiple(a, N, n)
        assert 1 <= e < n
        assert M == max(abs(e * ai + vi) for ai, vi in zip(a, v))
        assert M == modular_norm([e * ai for ai in a], N)
        assert 0 < M
        assert M**m * n <= N**m  # exact integer form of M <= N / n**(1/m)


def test_find_small_multiple_centered_reps():
    e, v, M = find_small_multiple([5, 9], 12, 2)
    for ai, vi in zip([5, 9], v):
        b = e * ai + vi
        assert -6 <= b <= 6
        assert (b - e * ai) % 12 == (vi) % 12


def test_find_small_multiple_errors():
    with pytest.raises(EmptyInput):
        find_small_multiple([], 7, 3)
    with pytest.raises(EmptyRange):
        find_small_multiple([3], 7, 1)
    with pytest.raises(PreconditionViolated):
        find_small_multiple([4], 12, 4)  # N/gcd = 3 < 4
    with pytest.raises(ValueError):
        find_small_multiple([3], 0, 2)
    with pytest.raises(PreconditionViolated):
        find_small_multiple([2**61 + 1], 2**62 + 1, 5)  # 4 * (2**61 + 1) wraps in int64


@pytest.mark.parametrize(
    "a, N, n",
    [
        ([2.7], 7, 7),  # was read as a = 2
        (["3"], 7, 7),  # was read as a = 3
        ([3], 7.5, 7),  # escaped as a bare TypeError
        ([3], 7, 7.0),
        ([True], 7, 7),
        ([3], True, 2),
        ([3], 7, np.float64(7)),
    ],
)
def test_find_small_multiple_rejects_non_integers(a, N, n):
    with pytest.raises(PreconditionViolated):
        find_small_multiple(a, N, n)


def test_find_small_multiple_accepts_numpy_integers():
    res = find_small_multiple(np.array([3], dtype=np.int32), np.int64(7), np.uint16(7))
    assert tuple(res) == (2, (-7,), 1)
    assert all(type(x) is int for x in (res.e, res.M, *res.v))


def _scan_small_multiple(a, N, n):
    """Reference: the least (M, e) over every e in [1, n), in blocks."""
    a = tuple(int(x) for x in a)
    a_mod = np.array([x % N for x in a], dtype=np.int64)
    best = None
    for start in range(1, n, 1 << 20):
        es = np.arange(start, min(start + (1 << 20), n), dtype=np.int64)
        norms = np.zeros(len(es), dtype=np.int64)
        for ai in a_mod:
            r = (es * int(ai)) % N
            np.maximum(norms, np.minimum(r, N - r), out=norms)
        norms[norms == 0] = np.iinfo(np.int64).max
        i = int(np.argmin(norms))
        if best is None or int(norms[i]) < best[0]:
            best = (int(norms[i]), int(es[i]))
    M, e = best
    v = []
    for ai in a:
        r = (e * ai) % N
        v.append((r if r <= N - r else r - N) - e * ai)
    return e, tuple(v), M


def _random_multiple_case(rng, N_lo, N_hi, n_hi=None):
    """(a, N, n) with m <= 10 exponents, some zero, repeated or >= N, and
    n either the whole range N / gcd(a, N) or a random part of it."""
    while True:
        N = round(math.exp(rng.uniform(math.log(N_lo), math.log(N_hi))))
        a = []
        for _ in range(rng.randint(1, 10)):
            kind = rng.random()
            if kind < 0.1:
                a.append(0)
            elif kind < 0.2 and a:
                a.append(rng.choice(a))
            elif kind < 0.3:
                a.append(rng.randrange(N) + N * rng.randint(1, 3))
            else:
                a.append(rng.randrange(N))
        cap = N // math.gcd(*a, N)
        if n_hi is not None:
            cap = min(cap, n_hi)
        if cap >= 2:
            return a, N, cap if rng.random() < 0.5 else rng.randint(2, cap)


def test_find_small_multiple_matches_reference_scan():
    rng = random.Random(20)
    cases = [_random_multiple_case(rng, 2, 70000) for _ in range(10**4)]
    cases += [_random_multiple_case(rng, 70000, 4194300) for _ in range(30)]
    cases += [_random_multiple_case(rng, 2**31 - 2**12, 2**31 - 1, n_hi=2**20) for _ in range(30)]
    for a in ([1, 5, 25], [4194299], [2, 2, 0, 4194300 + 7]):
        cases.append((a, 4194300, 4194300 // math.gcd(*a, 4194300)))
    for a, N, n in cases:
        assert tuple(find_small_multiple(a, N, n)) == _scan_small_multiple(a, N, n), (a, N, n)


def test_find_small_multiple_matches_reference_scan_across_blocks(monkeypatch):
    # blocks of one to three candidates: ties and the stop rule then meet
    # block edges
    monkeypatch.setattr(reduction, "_SCAN_CHUNK", 3)
    rng = random.Random(21)
    for _ in range(2000):
        a, N, n = _random_multiple_case(rng, 2, 300)
        assert tuple(find_small_multiple(a, N, n)) == _scan_small_multiple(a, N, n), (a, N, n)


def _multiplier_case(m):
    """Exponents at N = 2**31 - 2 for t = m + 1 terms, with the whole range."""
    N = 2**31 - 2
    rng = random.Random(31 + m)
    a = [rng.randrange(1, N) for _ in range(m)]
    return a, N, N // math.gcd(*a, N)


def test_find_small_multiple_at_2_31_trinomial_is_fast():
    a, N, n = _multiplier_case(2)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        e, v, M = find_small_multiple(a, N, n)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1
    assert M * M * n <= N * N and M == modular_norm([e * x for x in a], N)


def test_find_small_multiple_memory_is_bounded_by_the_block(monkeypatch):
    # at m = 3 the walk visits about 2 * N**(2/3) = 3.3e6 candidates, 26 MB
    # as one int64 array; blocks of 2**15 keep the peak near 2**15 entries
    a, N, n = _multiplier_case(3)
    monkeypatch.setattr(reduction, "_SCAN_CHUNK", 1 << 15)
    tracemalloc.start()
    try:
        e, v, M = find_small_multiple(a, N, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * (1 << 15)
    assert M**3 * n <= N**3 and M == modular_norm([e * x for x in a], N)


def test_degree_reduce_binomial():
    f = build(F7, [(3, 1), (0, 1)])
    cert = degree_reduce(f)
    assert cert.N == 6
    assert cert.n == 2  # (q-1)/C = 6/3
    assert (cert.e, cert.M, cert.k) == (1, 3, 1)
    assert not cert.coset_split
    assert cert.root_count == 3
    assert cert.root_accounting == (3,)
    assert len(cert.reduced_polys) == 1
    assert cert.reduced_polys[0].degree <= 2 * cert.M


def test_degree_reduce_even_trinomial():
    f = build(F7, [(4, 1), (2, 1), (0, 1)])
    cert = degree_reduce(f)
    assert cert.n == 3  # min(6 // 2, 6 // 2)
    assert (cert.e, cert.M, cert.k) == (1, 2, 1)
    assert cert.root_count == 4
    assert sum(cert.root_accounting) == cert.k * cert.root_count


def test_degree_reduce_rootless_with_structure():
    # 1 + x^2 over F_7 has no roots and delta' = 2; the range clamp
    # keeps the multiplier search hypothesis valid
    f = build(F7, [(2, 1), (0, 1)])
    cert = degree_reduce(f)
    assert cert.root_count == 0
    assert cert.n == 3
    assert sum(cert.root_accounting) == 0


def test_degree_reduce_needs_two_terms():
    with pytest.raises(TooFewTerms):
        degree_reduce(build(F7, [(2, 3)]))


def test_degree_reduce_random_soundness():
    rng = random.Random(47)
    for q in [7, 11, 13, 31]:
        F = make_prime_field(q)
        n = q - 1
        for _ in range(40):
            t = rng.randint(2, 4)
            exps = rng.sample(range(n), t)
            f = build(F, [(a, rng.randint(1, q - 1)) for a in exps])
            cert = degree_reduce(f)
            assert sum(cert.root_accounting) == cert.k * cert.root_count
            assert cert.root_count == count_roots_bruteforce(f)
            assert cert.k == math.gcd(cert.e, n)
            assert cert.coset_split == (cert.k > 1)
            assert len(cert.reduced_polys) == cert.k
            for h in cert.reduced_polys:
                assert h.degree <= 2 * cert.M


@pytest.mark.parametrize(
    "F",
    [
        *(make_prime_field(p) for p in (257, 1009, 4093, 6007)),
        make_extension_field(2, 8),
        make_extension_field(3, 5),
        make_extension_field(7, 3),
    ],
    ids=lambda F: f"q{F.q}",
)
def test_gcd_oracle_agrees_on_f_and_on_its_reduced_polynomials(F):
    """deg gcd(f, x^(q-1) - 1) = sum_i deg gcd(h_i, x^(q-1) - 1) / k = R(f),
    over five draws with k = 1 and five with k > 1 per field."""
    rng = random.Random(F.q)
    N = F.q - 1
    wanted = {False: 5, True: 5}  # keyed by k > 1
    while any(wanted.values()):
        # a common exponent factor with N makes k > 1 likelier
        step = rng.choice([d for d in (1, 2, 3, 4) if N % d == 0])
        exps = rng.sample(range(0, N, step), rng.randint(2, 6))
        f = build(F, [(a, F.element_from_int(rng.randint(1, N))) for a in exps])
        cert = degree_reduce(f)
        if not wanted[cert.k > 1]:
            continue
        wanted[cert.k > 1] -= 1
        counts = tuple(count_roots_gcd(h) for h in cert.reduced_polys)
        assert counts == cert.root_accounting, f
        assert sum(counts) % cert.k == 0, f
        assert count_roots_gcd(f) == sum(counts) // cert.k == count_roots_bruteforce(f), f


def test_degree_reduce_extension():
    E = make_extension_field(3, 2)
    f = build(E, [(4, 1), (0, 1)])  # x^4 + 1 over F_9: C = 4
    cert = degree_reduce(f)
    assert cert.root_count == count_roots_bruteforce(f) == 4
    assert sum(cert.root_accounting) == cert.k * 4


def test_degree_reduce_scans_f_once(monkeypatch):
    """C and R are read off one root mask of f, and each reduced
    polynomial is scanned by its own: 1 + k masks per reduction."""
    calls = []
    real = poly.roots_on_units

    def counted(f):
        calls.append(f)
        return real(f)

    for module in (poly, cosets, reduction):
        monkeypatch.setattr(module, "roots_on_units", counted)
    rng = random.Random(11)
    cases = [build(F13, [(0, 1), (4, 1), (8, 1)])]
    for q in (13, 31, 61):
        F = make_prime_field(q)
        for _ in range(10):
            exps = rng.sample(range(q - 1), rng.randint(2, 4))
            cases.append(build(F, [(a, rng.randint(1, q - 1)) for a in exps]))
    ks = []
    for f in cases:
        calls.clear()
        cert = degree_reduce(f)
        assert len(calls) == 1 + cert.k, f
        ks.append(cert.k)
    assert max(ks) > 1


def test_bound_from_C_frozen():
    f = build(F7, [(3, 1), (0, 1)])
    cb = bound_from_C(f)
    assert cb.bound_C == 6.0  # 2 * 6**0 * 3**1, eps = 1 at t = 2
    assert cb.bound_delta == 6.0
    g = build(F7, [(4, 1), (2, 1), (0, 1)])
    cb2 = bound_from_C(g)
    assert abs(cb2.bound_C - 2.0 * math.sqrt(12)) < 1e-12
    assert abs(cb2.bound_delta - 2.0 * math.sqrt(12)) < 1e-12


def test_bound_delta_condition():
    # rootless binomial: C_eff = 1, delta = 2, condition 1 < 2**0 * 6 holds
    f = build(F7, [(2, 1), (0, 1)])
    cb = bound_from_C(f)
    assert cb.bound_C == 2.0  # 2 * 6**0 * 1**1
    assert cb.bound_delta == 4.0  # 2 * 6**0 * 2**1
    # half-exponent binomial: C = delta = (q-1)/2; at t = 2 the condition
    # C**1 < delta**0 * (q-1) still holds (3 < 6)
    g = build(F7, [(3, 1), (0, 1)])
    assert bound_from_C(g).bound_delta == 6.0


def test_bound_from_D_frozen():
    f = build(F7, [(3, 1), (0, 1)])
    assert bound_from_D(f) == 6.0
    g = build(F13, [(1, 1), (0, 1), (3, 1)])
    # D = 2, t = 3: 2 * 12**(1/2) * 2**(1/2)
    assert abs(bound_from_D(g) - 2.0 * math.sqrt(24)) < 1e-12


def test_bounds_dominate_R_random():
    rng = random.Random(53)
    for q in [7, 13, 31, 64]:
        F = make_prime_field(q) if q != 64 else make_extension_field(2, 6)
        n = q - 1
        for _ in range(60):
            t = rng.randint(2, 5)
            exps = rng.sample(range(n), t)
            f = build(F, [(a, F.element_from_int(rng.randint(1, q - 1))) for a in exps])
            if f.t < 2:
                continue
            R = count_roots_bruteforce(f)
            cb = bound_from_C(f)
            assert R <= cb.bound_C + 1e-9
            assert R <= bound_from_D(f) + 1e-9
            if cb.bound_delta is not None:
                assert R <= cb.bound_delta + 1e-9


def test_bounds_need_two_terms():
    with pytest.raises(TooFewTerms):
        bound_from_C(build(F7, [(2, 3)]))
    with pytest.raises(TooFewTerms):
        bound_from_D(build(F7, [(2, 3)]))
