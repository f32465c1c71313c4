import random
import tracemalloc

import numpy as np
import pytest

import tnomial.poly as poly
from tnomial.errors import (
    EmptyInput,
    FieldTooLarge,
    InternalInvariantError,
    ParseError,
    ReducibleModulus,
    ZeroCoefficient,
    ZeroFunction,
)
from tnomial.field import make_extension_field, make_prime_field
from tnomial.poly import (
    BRUTE_FORCE_LIMIT,
    FFT_MIN_LENGTH,
    TNomial,
    _convolve_mod_p,
    _limb_plan,
    _x_power_mod,
    build,
    count_roots_bruteforce,
    count_roots_gcd,
    evaluate,
    format_tnomial,
    has_nonzero_root,
    log_tables,
    normalize_lowest,
    parse_tnomial,
    root_mask,
    roots_on_units,
)

F7 = make_prime_field(7)
F13 = make_prime_field(13)


def test_build_canonicalizes():
    f = build(F7, [(3, 1), (0, 1)])
    assert f.terms == ((0, 1), (3, 1))
    assert f.t == 2
    assert f.exponents == (0, 3)
    assert f.coefficients == (1, 1)
    assert f.degree == 3


def test_build_reduces_exponents_mod_unit_order():
    # x^6 = 1 on the units of F_7, so x^6 merges with the constant
    f = build(F7, [(0, 1), (6, 1)])
    assert f.terms == ((0, 2),)
    g = build(F7, [(8, 3)])
    assert g.terms == ((2, 3),)
    h = build(F7, [(-1, 1)])
    assert h.terms == ((5, 1),)


def test_build_merges_and_cancels():
    f = build(F7, [(2, 3), (2, 5)])
    assert f.terms == ((2, 1),)
    with pytest.raises(ZeroFunction):
        build(F7, [(0, 1), (6, 6)])  # 1 + 6 = 0 after merging
    with pytest.raises(ZeroFunction):
        build(F7, [(2, 3), (2, 4)])


def test_build_rejects():
    with pytest.raises(EmptyInput):
        build(F7, [])
    with pytest.raises(ZeroCoefficient):
        build(F7, [(1, 0)])
    with pytest.raises(ZeroCoefficient):
        build(F7, [(1, 7)])  # 7 = 0 mod 7


def test_build_coefficient_coercion():
    f = build(F7, [(1, -1)])
    assert f.coefficients == (6,)
    E = make_extension_field(3, 2)
    g = build(E, [(1, (1, 2)), (0, -1)])
    assert g.coefficients == ((2, 0), (1, 2))  # -1 folds; short vectors pad
    with pytest.raises(ValueError):
        build(F7, [(1, (1, 2))])  # vector coefficient in a prime field


def test_normalize_lowest():
    f = build(F7, [(2, 1), (5, 3)])
    g = normalize_lowest(f)
    assert g.exponents == (0, 3)
    assert g.coefficients == (1, 3)
    assert normalize_lowest(g) is g
    assert count_roots_bruteforce(f) == count_roots_bruteforce(g)


def test_evaluate():
    f = build(F7, [(3, 1), (0, 1)])  # x^3 + 1
    assert evaluate(f, 3) == 0
    assert evaluate(f, 5) == 0
    assert evaluate(f, 6) == 0
    assert evaluate(f, 2) == 2
    assert evaluate(f, 0) == 1  # constant term contributes at 0
    g = build(F7, [(2, 1)])
    assert evaluate(g, 0) == 0


def test_count_roots_bruteforce_frozen():
    assert count_roots_bruteforce(build(F7, [(3, 1), (0, 1)])) == 3
    assert count_roots_bruteforce(build(F7, [(1, 1), (0, -1)])) == 1  # x - 1
    assert count_roots_bruteforce(build(F7, [(2, 1), (0, 1)])) == 0  # x^2 + 1
    assert count_roots_bruteforce(build(F7, [(4, 1), (2, 1), (0, 1)])) == 4
    assert count_roots_bruteforce(build(F7, [(1, 5)])) == 0  # monomial
    f13 = build(F13, [(4, 1), (0, -1)])  # x^4 = 1 has gcd(4,12)=4 solutions
    assert count_roots_bruteforce(f13) == 4


def test_count_roots_binomial_closed_form():
    # x^a = c has gcd(a, q-1) roots when c is in the image subgroup, else 0
    import math

    for p in [7, 11, 13]:
        F = make_prime_field(p)
        for a in range(1, p - 1):
            g = math.gcd(a, p - 1)
            f = build(F, [(a, 1), (0, -1)])  # x^a - 1
            assert count_roots_bruteforce(f) == g


def test_count_roots_gcd_matches_bruteforce_random():
    rng = random.Random(5)
    # products up to p = 257 stay below FFT_MIN_LENGTH; at p = 2003 the
    # long ones go through the one-limb FFT
    for p, polys in [(7, 40), (13, 40), (101, 40), (257, 40), (2003, 12)]:
        F = make_prime_field(p)
        for _ in range(polys):
            t = rng.randint(1, 4)
            exps = rng.sample(range(p - 1), t)
            terms = [(a, rng.randint(1, p - 1)) for a in exps]
            try:
                f = build(F, terms)
            except ZeroFunction:
                continue
            assert count_roots_gcd(f) == count_roots_bruteforce(f), terms
    # every coefficient p - 1 mod 65521: at full degree q - 2 the reduction
    # of x**(q-1) leaves no bit to square; at degree (q - 1)/2 one bit is
    # left, and its square of 32760 rows is the longest two-limb product
    # the oracle makes
    F = make_prime_field(65521)
    for top in (65519, 32760):
        for mid in (1, rng.randrange(2, top)):
            f = build(F, [(top, -1), (mid, -1), (0, -1)])
            assert count_roots_gcd(f) == count_roots_bruteforce(f), (top, mid)


def test_convolve_mod_p_is_exact_at_the_largest_oracle_length():
    # a square of degree-(q - 3) vectors mod 65521, the largest prime below
    # GCD_LIMIT, is longer than any product the oracle makes: it squares
    # remainders of degree below (q - 1)/2 only
    p = 65521
    a = np.full(p - 2, p - 1, dtype=np.int64)
    expected = np.convolve(a, a) % p
    assert len(expected) >= FFT_MIN_LENGTH
    assert np.array_equal(_convolve_mod_p(a, a, p), expected)
    assert np.array_equal(_convolve_mod_p(a, a.copy(), p), expected)
    short = a[: FFT_MIN_LENGTH // 4]
    assert np.array_equal(_convolve_mod_p(short, short, p), np.convolve(short, short) % p)


def _constant_convolution(la, lb, c):
    """np.convolve of two constant-c vectors of lengths la and lb: entry s
    counts the pairs i + j = s."""
    s = np.arange(la + lb - 1)
    return c * (np.minimum(s, la - 1) - np.maximum(0, s - lb + 1) + 1)


@pytest.mark.parametrize("p, longest", [(6007, 134250), (65521, 3048)])
def test_convolve_mod_p_one_limb_at_the_longest_length_the_bound_admits(p, longest):
    assert _limb_plan(longest, longest, p).limbs == 1
    assert _limb_plan(longest + 1, longest + 1, p).limbs == 2
    a = np.full(longest, p - 1, dtype=np.int64)
    if longest < 10000:
        expected = np.convolve(a, a) % p
        assert np.array_equal(expected, _constant_convolution(longest, longest, (p - 1) ** 2) % p)
    else:  # np.convolve would take seconds; the closed form is exact
        expected = _constant_convolution(longest, longest, (p - 1) ** 2) % p
    assert np.array_equal(_convolve_mod_p(a, a, p), expected)
    assert np.array_equal(_convolve_mod_p(a, a.copy(), p), expected)


def test_convolve_mod_p_takes_three_limbs_below_2_to_the_31():
    p = 2**31 - 1
    rng = np.random.default_rng(31)
    a = rng.integers(p - 2**20, p, 2**15)
    a[::7] = p - 1
    b = rng.integers(0, p, 64)
    b[0] = p - 1
    assert _limb_plan(len(a), len(b), p).limbs == 3
    expected = np.convolve(a.astype(object), b.astype(object)) % p
    assert np.array_equal(_convolve_mod_p(a, b, p), expected.astype(np.int64))
    # short products too, where np.convolve's sums would pass 2**63
    short = a[:9]
    assert _limb_plan(len(short), len(b), p) is not None
    expected = np.convolve(short.astype(object), b.astype(object)) % p
    assert np.array_equal(_convolve_mod_p(short, b, p), expected.astype(np.int64))


def _with_second_modulus(p, k):
    """F_{p^k} with its default modulus, and with the next irreducible one
    in canonical order when there is one."""
    default = make_extension_field(p, k)
    fields = [default]
    for n in range(p**k):
        m = tuple(n // p**i % p for i in range(k)) + (1,)
        if m == default.modulus:
            continue
        try:
            fields.append(make_extension_field(p, k, m))
            break
        except ReducibleModulus:
            pass
    return fields


def test_count_roots_gcd_extension():
    E = make_extension_field(3, 2)
    f = build(E, [(3, 1), (1, 1), (0, 1)])
    assert count_roots_gcd(f) == count_roots_bruteforce(f) == 3
    E8 = make_extension_field(2, 3)
    g = build(E8, [(3, 1), (1, 1), (0, 1)])
    assert count_roots_gcd(g) == count_roots_bruteforce(g) == 3
    rng = random.Random(11)
    # F_4 has one irreducible quadratic only; exponents span all of
    # [0, q - 2], so F_{2^12} and F_{3^7} reach degrees in the thousands
    for p, k in [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (2, 6), (3, 4), (2, 12), (3, 7)]:
        for F in _with_second_modulus(p, k):
            for t in range(1, 9):
                exps = rng.sample(range(F.q - 1), min(t, F.q - 1))
                terms = [(a, F.element_from_int(rng.randrange(1, F.q))) for a in exps]
                try:
                    f = build(F, terms)
                except ZeroFunction:
                    continue
                assert count_roots_gcd(f) == count_roots_bruteforce(f), (F.modulus, terms)


def _every_degree_fields():
    fields = [make_prime_field(11), make_prime_field(13)]
    for p, k in [(2, 3), (3, 2), (2, 4)]:
        fields += _with_second_modulus(p, k)
    ids = [f"F{F.q}" + ("-m" + "".join(map(str, F.modulus)) if F.k > 1 else "") for F in fields]
    return [pytest.param(F, id=i) for F, i in zip(fields, ids)]


@pytest.mark.parametrize("F", _every_degree_fields())
def test_count_roots_gcd_at_every_degree(F):
    # every split of the bits of q - 1 between the monomial prefix, the one
    # reduction of x**e and the squares; e = 2d - 1 leaves no bit over F_8
    # at d = 4 (7 = 111b) and one at F_8, d = 2 (3 then 7) and F_11, d = 3
    # (5 = 101b, then 10)
    rng = random.Random(F.q * 31 + len(F.modulus or ()))
    for d in range(2, F.q - 1):
        for _ in range(4):
            coeffs = [F.element_from_int(rng.randrange(F.q)) for _ in range(d + 1)]
            for a in (0, d):
                coeffs[a] = F.element_from_int(rng.randrange(1, F.q))
            f = build(F, [(a, c) for a, c in enumerate(coeffs) if c != F.zero])
            assert count_roots_gcd(f) == count_roots_bruteforce(f), (d, coeffs)


def _x_power_mod_reference(f, m):
    """x**m mod f by schoolbook square and multiply over f's field."""
    F = f.field
    d = f.degree
    lead_inv = F.inv(f.terms[-1][1])

    def reduce(r):
        while len(r) > d:
            c = F.mul(r.pop(), lead_inv)
            for a, ca in f.terms[:-1]:
                i = len(r) - d + a
                r[i] = F.sub(r[i], F.mul(c, ca))
        return r + [F.zero] * (d - len(r))

    def mul(u, v):
        out = [F.zero] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return reduce(out)

    result, base = reduce([F.one]), reduce([F.zero, F.one])
    while m:
        if m & 1:
            result = mul(result, base)
        base = mul(base, base)
        m >>= 1
    return result


def test_x_power_mod_at_divisors_of_the_group_order():
    # the exponent is a parameter: x**m mod f for m | q - 1, below deg f too
    rng = random.Random(17)
    fields = [make_prime_field(13), make_prime_field(31), make_prime_field(97)]
    fields += [make_extension_field(3, 2), make_extension_field(2, 4), make_extension_field(3, 3)]
    for F in fields:
        divisors = [m for m in range(1, F.q) if (F.q - 1) % m == 0]
        for d in sorted({2, 3, F.q // 2, F.q - 2, rng.randrange(2, F.q - 1)}):
            terms = [(0, F.one), (d, F.element_from_int(rng.randrange(1, F.q)))]
            terms += [(rng.randrange(1, d), F.element_from_int(rng.randrange(1, F.q))) for _ in range(3)]
            f = build(F, terms)
            for m in divisors:
                rows = _x_power_mod(f, m)
                expected = [c if F.k > 1 else (c,) for c in _x_power_mod_reference(f, m)]
                assert rows.tolist() == [list(c) for c in expected], (F.q, f.terms, m)


def test_count_roots_gcd_squares_only_the_bits_above_the_degree(monkeypatch):
    # above (q - 1)/2 one division of x**(q-1) by the Newton inverse, built
    # to q - d terms, is the whole powering: no product outside the
    # inverse's; at or below (q - 1)/4 at least one bit is left to square,
    # and every quotient then reads d terms of the inverse
    calls = {}
    real_inverse, real_mul_rows = poly._series_inverse, poly._mul_rows

    def series_inverse(rev, m, *args):
        calls.update(terms=m, inverse=True)
        try:
            return real_inverse(rev, m, *args)
        finally:
            calls["inverse"] = False

    def mul_rows(a, b, *args):
        if not calls["inverse"]:
            calls["products"] += 1
            calls["squares"] += a is b
        return real_mul_rows(a, b, *args)

    monkeypatch.setattr(poly, "_series_inverse", series_inverse)
    monkeypatch.setattr(poly, "_mul_rows", mul_rows)
    for F in (make_prime_field(2003), make_extension_field(3, 5)):
        n = F.q - 1
        for d, squares in [(n // 2 + 1, False), (n - 1, False), (n // 4, True), (n // 8, True)]:
            calls.update(products=0, squares=0, inverse=False, terms=None)
            f = build(F, [(0, F.one), (1, F.one), (d, F.neg(F.one))])  # delta' = 1
            assert count_roots_gcd(f) == count_roots_bruteforce(f)
            assert (calls["squares"] > 0) == squares, (F.q, d, calls)
            if squares:
                assert calls["terms"] == d, (F.q, d, calls)
            else:
                assert (calls["products"], calls["terms"]) == (0, n - d + 1), (F.q, d, calls)


@pytest.mark.parametrize(
    "F, text, degree, exponent",
    [
        (make_prime_field(13), "1 + 2*x^4 + x^8", 2, 3),
        (make_prime_field(13), "3 + x + 5*x^7", 7, 12),
        (make_prime_field(2003), "1 + 3*x^14 + 9*x^84 + x^98", 7, 143),
        (make_prime_field(2003), "5*x^30 + x^52 + 7*x^1130", 50, 91),
        (make_extension_field(3, 4), "[0,1] + x^10 + [1,2]*x^30", 3, 8),
    ],
)
def test_count_roots_gcd_powers_in_x_to_the_exponent_gcd(monkeypatch, F, text, degree, exponent):
    # f = H(x**d) with d = gcd(exponents after normalize_lowest, q - 1): the
    # powering runs on H, of degree deg f / d, to the exponent (q - 1)/d
    seen = []
    real = poly._x_power_mod

    def spy(h, m):
        seen.append((h.degree, m))
        return real(h, m)

    monkeypatch.setattr(poly, "_x_power_mod", spy)
    f = parse_tnomial(F, text)
    assert count_roots_gcd(f) == count_roots_bruteforce(f)
    assert seen == [(degree, exponent)]


def test_count_roots_gcd_of_a_linear_polynomial_in_x_to_the_d():
    # 1 + c*x**4 = H(x**d) with H linear over F_13 (d = 4) and F_9 (d = 4),
    # its root -1/c inside the subgroup of order (q - 1)/d or outside; over
    # F_16 gcd(4, 15) = 1 and the powering runs on f itself
    for F in (F13, make_extension_field(3, 2), make_extension_field(2, 4)):
        counts = []
        for c in range(1, F.q):
            f = build(F, [(0, F.one), (4, F.element_from_int(c))])
            counts.append(count_roots_gcd(f))
            assert counts[-1] == count_roots_bruteforce(f), (F.q, c)
        assert set(counts) == ({1} if F.q == 16 else {0, 4}), F.q


def test_gcd_degree_refuses_int64_overflow():
    # over F_p, _gcd_degree subtracts up to len(a) unreduced products below
    # p**2 into one row; at p = 2**31 - 1 two of them already pass 2**63
    F = make_prime_field(2**31 - 1)
    with pytest.raises(InternalInvariantError):
        poly._gcd_degree(F, _rows(F, [1, 0, 1]), _rows(F, [1, 1]))


def _gcd_degree_reference(F, a, b):
    """deg gcd(a, b) by the schoolbook Euclid on field elements; a and b
    are coefficient lists, constant term first."""

    def trim(v):
        while v and v[-1] == F.zero:
            v.pop()
        return v

    a, b = trim(list(a)), trim(list(b))
    while b:
        db = len(b) - 1
        inv_lead = F.inv(b[-1])
        r = list(a)
        for i in range(len(r) - 1, db - 1, -1):
            c = F.mul(r[i], inv_lead)
            for j, bj in enumerate(b):
                r[i - db + j] = F.sub(r[i - db + j], F.mul(c, bj))
        a, b = b, trim(r[:db])
    return len(a) - 1


def _poly_product(F, u, v):
    out = [F.zero] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def _rows(F, coeffs):
    return np.array([c if F.k > 1 else (c,) for c in coeffs], dtype=np.int64).reshape(-1, F.k)


def _field(p, k):
    return make_prime_field(p) if k == 1 else make_extension_field(p, k)


# every slot width of the packed Euclid: 1 bit for p = 2, bits(p - 1) + 1
# for odd p (3, 4, 4, 5, 5, 6 and 7 bits), with k = 1 ... 7
GCD_EUCLID_FIELDS = (
    [(2, k) for k in range(1, 8)]
    + [(3, k) for k in range(1, 8)]
    + [(5, k) for k in range(1, 6)]
    + [(7, k) for k in range(1, 5)]
    + [(11, 1), (11, 2), (11, 3), (13, 1), (13, 2), (13, 3), (31, 1), (31, 2), (61, 1), (61, 2)]
)


@pytest.mark.parametrize("p, k", GCD_EUCLID_FIELDS, ids=[f"p{p}k{k}" for p, k in GCD_EUCLID_FIELDS])
def test_gcd_degree_matches_the_schoolbook_euclid(p, k):
    # a = g u and b = g v share a factor g of degree 0 ... 3; coefficients
    # are drawn from every element, zero included
    F = _field(p, k)
    rng = random.Random(p * 8 + k)

    def poly_of_degree(d):
        coeffs = [F.element_from_int(rng.randrange(F.q)) for _ in range(d)]
        return coeffs + [F.element_from_int(rng.randrange(1, F.q))]

    for _ in range(3):
        g = poly_of_degree(rng.randrange(4))
        u, v = poly_of_degree(rng.randrange(8, 16)), poly_of_degree(rng.randrange(8))
        a, b = _poly_product(F, g, u), _poly_product(F, g, v)
        expected = _gcd_degree_reference(F, a, b)
        assert expected >= len(g) - 1
        assert poly._gcd_degree(F, _rows(F, a), _rows(F, b)) == expected, (g, u, v)


@pytest.mark.parametrize("p, k", [(5, 1), (2, 4), (2, 6), (3, 3), (5, 2), (7, 3), (13, 2), (61, 2)])
def test_gcd_degree_edge_inputs(p, k):
    F = _field(p, k)
    rng = random.Random(p * 8 + k + 1)

    def unit():
        return F.element_from_int(rng.randrange(1, F.q))

    # b = x^5 + c divides a: its zero coefficients take the sentinel log,
    # and the one division has a quotient of degree 7
    b = [unit()] + [F.zero] * 4 + [F.one]
    a = _poly_product(F, b, [unit() for _ in range(8)])
    assert poly._gcd_degree(F, _rows(F, a), _rows(F, b)) == _gcd_degree_reference(F, a, b) == 5
    # b = 0: the gcd is a itself
    assert poly._gcd_degree(F, _rows(F, a), _rows(F, [F.zero] * 3)) == 12
    # gcd = f: x^m - 1 divides x^(q-1) - 1 for every m | q - 1
    m = max(d for d in range(2, min(F.q - 2, 40) + 1) if (F.q - 1) % d == 0)
    f = build(F, [(m, F.one), (0, F.neg(F.one))])
    assert count_roots_gcd(f) == count_roots_bruteforce(f) == m
    # gcd = 1: a polynomial without a nonzero root
    while True:
        f = build(F, [(0, unit()), (rng.randrange(1, F.q - 1), unit()), (F.q - 2, unit())])
        if count_roots_bruteforce(f) == 0:
            break
    assert count_roots_gcd(f) == 0


def test_gcd_oracle_never_trusts_a_corrupted_exp_table(monkeypatch):
    # the scan's exp table with g and g**2 swapped: the oracle raises, or
    # counts right, but never counts wrong
    rng = random.Random(29)
    cases = []
    for F in (make_extension_field(3, 3), make_extension_field(2, 4), make_extension_field(7, 2)):
        for _ in range(30):
            d = rng.randrange(3, F.q - 1)
            terms = [(0, F.one), (d, F.one)]
            terms += [(rng.randrange(1, d), F.element_from_int(rng.randrange(1, F.q))) for _ in range(3)]
            f = build(F, terms)
            cases.append((f, count_roots_bruteforce(f)))
    real = poly.log_tables

    def corrupted(F):
        tables = real(F)
        exp = tables.exp.copy()
        exp[[1, 2]] = exp[[2, 1]]
        return tables._replace(exp=exp)

    monkeypatch.setattr(poly, "log_tables", corrupted)
    poly._packed_tables.cache_clear()
    try:
        for f, roots in cases:
            try:
                assert count_roots_gcd(f) == roots, f.terms
            except InternalInvariantError:
                pass
    finally:
        poly._packed_tables.cache_clear()


@pytest.mark.parametrize("p, k", [(3, 10), (2, 16)])
def test_gcd_oracle_tables_are_linear_in_q(p, k):
    # no table is indexed by a packed value: at F_{3^10} that takes 2**30
    F = make_extension_field(p, k)
    sizes = [t.size for t in poly._packed_tables(F) if isinstance(t, np.ndarray)]
    assert len(sizes) == 4
    assert max(sizes) <= 3 * F.q


def test_gcd_oracle_table_check_stays_below_one_digit_array():
    # the exp table is checked in row blocks; one (q-1) x k int64 digit
    # array at F_{2^16} takes 8 MiB
    F = make_extension_field(2, 16)
    log_tables(F)
    poly._packed_tables.cache_clear()
    tracemalloc.start()
    try:
        poly._packed_tables(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (F.q - 1) * F.k * 8


def test_gcd_oracle_table_check_reads_every_block(monkeypatch):
    # one wrong exp entry past the first block still fails the check
    F = make_extension_field(2, 16)
    real = log_tables(F)
    exp = real.exp.copy()
    j = 3 * poly._TABLE_CHUNK + 5
    exp[[j, j + 1]] = exp[[j + 1, j]]
    monkeypatch.setattr(poly, "log_tables", lambda field: real._replace(exp=exp))
    poly._packed_tables.cache_clear()
    try:
        with pytest.raises(InternalInvariantError):
            poly._packed_tables(F)
    finally:
        poly._packed_tables.cache_clear()


def test_count_roots_gcd_edge_cases():
    # monomial: no nonzero roots
    assert count_roots_gcd(build(F7, [(4, 3)])) == 0
    # constant
    assert count_roots_gcd(build(F7, [(0, 5)])) == 0
    # x^3 (pure power) normalizes to a constant
    assert count_roots_gcd(build(F7, [(3, 2)])) == 0
    # degree-1 after normalization
    assert count_roots_gcd(build(F7, [(5, 1), (4, 3)])) == 1
    # f divides x^(q-1) - 1 entirely
    g = build(F13, [(6, 1), (0, -1)])  # x^6 - 1 | x^12 - 1
    assert count_roots_gcd(g) == 6


def test_count_roots_limits():
    big = make_prime_field(65537)  # just over the gcd-count ceiling
    f = build(big, [(1, 1), (0, 1)])
    with pytest.raises(FieldTooLarge):
        count_roots_gcd(f)
    assert count_roots_bruteforce(f) == 1  # the single root x = -1



def test_has_nonzero_root():
    assert has_nonzero_root(build(F7, [(3, 1), (0, 1)]))
    assert not has_nonzero_root(build(F7, [(2, 1), (0, 1)]))
    assert not has_nonzero_root(build(F7, [(3, 4)]))


# every prime up to 31, and each small extension field with its default
# modulus and one other (x^2 + x + 1 is the only irreducible quadratic
# over F_2, so F_4 has just the one)
KERNEL_FIELDS = (
    [make_prime_field(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
    + [make_extension_field(p, k) for p, k in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)]]
    + [
        make_extension_field(p, len(m) - 1, m)
        for p, m in [
            (2, (1, 0, 1, 1)),
            (3, (2, 1, 1)),
            (2, (1, 0, 0, 1, 1)),
            (5, (3, 0, 1)),
            (3, (2, 2, 0, 1)),
            (7, (3, 1, 1)),
        ]
    ]
)


@pytest.mark.parametrize(
    "field",
    KERNEL_FIELDS,
    ids=lambda F: f"q{F.q}" if F.k == 1 else f"q{F.q}-mod{''.join(map(str, F.modulus))}",
)
def test_root_mask_matches_evaluation(field):
    """The log-domain root mask equals evaluate(f, x) == 0 at every unit,
    for single polynomials with t = 1..6 and for a batch of dense rows."""
    rng = random.Random(field.q)
    n = field.q - 1
    units = list(field.unit_powers())
    tables = log_tables(field)
    assert tables.exp.tolist() == [field.element_to_int(x) for x in units]
    for t in range(1, min(6, n) + 1):
        for _ in range(4):
            exps = rng.sample(range(n), t)
            f = build(field, [(a, field.element_from_int(rng.randint(1, n))) for a in exps])
            expected = [evaluate(f, x) == field.zero for x in units]
            assert roots_on_units(f).tolist() == expected
            assert count_roots_bruteforce(f) == sum(expected)
            assert has_nonzero_root(f) == any(expected)
    # nonzero coefficients on every exponent 0..n-1
    labels = np.array([[rng.randrange(1, field.q) for _ in range(n)] for _ in range(4)])
    batch = root_mask(field, range(n), tables.log[labels])
    assert batch.shape == (4, n)
    for row, got in zip(labels, batch):
        f = build(field, [(a, field.element_from_int(int(c))) for a, c in enumerate(row)])
        assert got.tolist() == [evaluate(f, x) == field.zero for x in units]


def test_root_mask_rejects_a_zero_coefficient():
    log = log_tables(F7).log
    with pytest.raises(InternalInvariantError):
        root_mask(F7, (0, 1, 3), log[[1, 0, 2]])
    with pytest.raises(InternalInvariantError):
        root_mask(F7, (0, 1), log[[[1, 2], [0, 3]]])


def _planted_cancellations(field, c_log, a, tail=()):
    """Exponents and coefficient logs, in summation order, of
    1 + x^{n/2} + c x^a + c x^{a+n/2} + tail, n = q-1 even: the partial
    sums vanish where x^{n/2} = -1 after the second and the fourth term."""
    n = field.q - 1
    exps = [0, n // 2, a, a + n // 2] + [b for b, _ in tail]
    return exps, [0, 0, c_log, c_log] + [lc for _, lc in tail]


def _evaluate_mask(field, exps, logs, positions):
    """evaluate(f, g**j) == 0 at the given unit positions j."""
    exp = log_tables(field).exp
    f = build(field, [(a, field.element_from_int(int(exp[lc]))) for a, lc in zip(exps, logs)])
    return [evaluate(f, field.element_from_int(int(exp[j]))) == field.zero for j in positions]


@pytest.mark.parametrize("field", [F13, make_prime_field(101), make_extension_field(3, 4)], ids=lambda F: f"q{F.q}")
def test_root_mask_partial_sums_that_cancel_on_half_the_units(field):
    """Half the partial sums cancel after the second term; the third term
    must replace them, and the fourth cancels the same half again, with
    and without a fifth term after it."""
    n = field.q - 1
    rng = random.Random(n)
    for _ in range(6):
        a = rng.choice([b for b in range(1, n) if b != n // 2])
        c_log = rng.randrange(n)
        tails = [(), ((rng.randrange(n), rng.randrange(n)),)]
        for tail in tails:
            exps, logs = _planted_cancellations(field, c_log, a, tail)
            got = root_mask(field, exps, logs)
            assert got.tolist() == _evaluate_mask(field, exps, logs, range(n))
            if not tail:
                assert np.count_nonzero(got) >= n // 2


def test_root_mask_batch_rows_cancel_at_different_positions():
    """A (B, t) batch over F_13 of (1 + u x^3)(1 + c x^5) + d x^2, written
    as five terms.  1 + u x^3 vanishes at g**j for j = (6 - log u)/3 mod 4,
    so the rows cancel after the second term at four different sets of
    units, and after the fourth at the same sets again."""
    n = F13.q - 1
    exps = [0, 3, 5, 8, 2]
    logs = np.array([[0, u, c, (c + u) % n, d] for u, c, d in [(0, 1, 5), (3, 4, 0), (6, 7, 11), (9, 0, 3), (3, 9, 7)]])
    batch = root_mask(F13, exps, logs)
    assert batch.shape == (len(logs), n)
    for row, got in zip(logs, batch):
        assert got.tolist() == _evaluate_mask(F13, exps, row, range(n))
        assert got.tolist() == root_mask(F13, exps, row).tolist()
    first = root_mask(F13, exps[:2], logs[:, :2])
    assert len({tuple(np.flatnonzero(m)) for m in first}) == 4
    assert all(np.count_nonzero(m) == 3 for m in first)


@pytest.mark.parametrize("field", [make_prime_field(65537), make_extension_field(2, 12)], ids=lambda F: f"q{F.q}")
def test_root_mask_matches_evaluation_at_sampled_and_flagged_units(field):
    """Random polynomials, some made to vanish at a chosen unit, checked at
    a seeded sample of units and at every unit the mask flags."""
    n = field.q - 1
    rng = random.Random(field.q)
    tables = log_tables(field)
    for t in (2, 3, 5, 8, 13):
        exps = rng.sample(range(n), t)
        logs = [rng.randrange(n) for _ in range(t)]
        if t % 2:
            # move the last coefficient so that f(g**j0) = 0
            j0 = rng.randrange(n)
            f = build(field, [(a, field.element_from_int(int(tables.exp[lc]))) for a, lc in zip(exps[:-1], logs[:-1])])
            x0 = field.element_from_int(int(tables.exp[j0]))
            rest = evaluate(f, x0)
            if rest != field.zero:
                c = field.mul(field.neg(rest), field.inv(field.pow(x0, exps[-1])))
                logs[-1] = int(tables.log[field.element_to_int(c)])
        mask = root_mask(field, exps, logs)
        flagged = np.flatnonzero(mask).tolist()
        sample = rng.sample(range(n), 200)
        assert mask[sample].tolist() == _evaluate_mask(field, exps, logs, sample)
        assert all(_evaluate_mask(field, exps, logs, flagged))
    if field.p > 2:
        exps, logs = _planted_cancellations(field, rng.randrange(n), rng.randrange(1, n // 2))
        mask = root_mask(field, exps, logs)
        flagged = np.flatnonzero(mask)
        assert len(flagged) >= n // 2
        sample = rng.sample(range(n), 200)
        assert mask[sample].tolist() == _evaluate_mask(field, exps, logs, sample)
        assert all(_evaluate_mask(field, exps, logs, flagged[:: max(1, len(flagged) // 500)].tolist()))


def test_root_mask_generates_terms_lazily():
    """64 terms over F_65537 peak below eight int32 arrays over the units:
    the kernel holds a few unit-length buffers, never all the terms."""
    field = make_prime_field(65537)
    n = field.q - 1
    rng = random.Random(64)
    exps, logs = rng.sample(range(n), 64), [rng.randrange(n) for _ in range(64)]
    log_tables(field)  # built and cached outside the measurement
    tracemalloc.start()
    try:
        root_mask(field, exps, logs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * 4


def test_scan_limit_leaves_int32_headroom():
    # root_mask adds two logs below q-1 <= BRUTE_FORCE_LIMIT in int32
    assert 2 * BRUTE_FORCE_LIMIT < 2**31


def test_log_tables_size_and_limit():
    tables = log_tables(make_extension_field(2, 20))
    assert all(t.dtype == np.int32 for t in tables)
    assert sum(t.nbytes for t in tables) <= 12 * 2**20
    assert not tables.exp.flags.writeable
    big = build(make_prime_field(4194319), [(1, 1), (0, 1)])  # q-1 > 2**22
    with pytest.raises(FieldTooLarge):
        count_roots_bruteforce(big)
    with pytest.raises(FieldTooLarge):
        has_nonzero_root(big)


def test_parse_basic():
    f = parse_tnomial(F7, "x^3 + 1")
    assert f.terms == ((0, 1), (3, 1))
    g = parse_tnomial(F7, "2*x^5 + 3*x + 4")
    assert g.terms == ((0, 4), (1, 3), (5, 2))
    h = parse_tnomial(F7, "3x^2")
    assert h.terms == ((2, 3),)
    k = parse_tnomial(F7, "x")
    assert k.terms == ((1, 1),)
    c = parse_tnomial(F7, "5")
    assert c.terms == ((0, 5),)
    for text in ["3 x", "[3]*x"]:  # juxtaposed blank; a one-entry bracket over F_p
        assert parse_tnomial(F7, text).terms == ((1, 3),), text


def test_parse_signs():
    f = parse_tnomial(F7, "x^2 - 3")
    assert f.terms == ((0, 4), (2, 1))
    g = parse_tnomial(F7, "-x + 2")
    assert g.terms == ((0, 2), (1, 6))
    h = parse_tnomial(F7, "x^5 - x^2")
    assert h.terms == ((2, 6), (5, 1))
    assert parse_tnomial(F7, "+x").terms == ((1, 1),)
    assert parse_tnomial(F7, "[-1]*x").terms == ((1, 6),)
    assert parse_tnomial(F7, "x^-1").terms == ((5, 1),)
    assert parse_tnomial(F7, "x^+2").terms == ((2, 1),)
    # blanks before the leading sign are ignored like any other blanks
    for text in [" -x + 1", "\t-x+1"]:
        assert parse_tnomial(F7, text) == parse_tnomial(F7, "-x + 1"), text


def test_parse_extension_vectors():
    E = make_extension_field(3, 2)
    f = parse_tnomial(E, "[1,2]*x^3 + [0,1]*x + 2")
    assert f.terms == ((0, (2, 0)), (1, (0, 1)), (3, (1, 2)))
    g = parse_tnomial(E, "[2]*x - [1,1]")
    assert g.terms == ((0, (2, 2)), (1, (2, 0)))


def test_parse_whitespace_and_exponent_reduction():
    f = parse_tnomial(F7, "  x ^ 8   +   2 ")
    assert f.terms == ((0, 2), (2, 1))


def test_parse_rejects():
    for bad in ["", "  ", "x +", "+ x + +1", "x^", "x^a", "3*", "*x", "[1,2*x",
                "x2", "3y", "x^2 2", "[]*x", "1 + [1,", "x + -1", "2*-x", "x x",
                "x*2", "- -x",
                # one leading sign at most
                "--x", "-+x", "+-x"]:
        with pytest.raises(ParseError):
            parse_tnomial(F7, bad)
    for text in ["0*x + 1", "0*x + x^"]:  # each term is read, then checked for zero
        with pytest.raises(ZeroCoefficient):
            parse_tnomial(F7, text)
    with pytest.raises(ZeroFunction):
        parse_tnomial(F7, "x - x")
    with pytest.raises(ParseError):
        parse_tnomial(F7, "[1,2]*x")  # vector in a prime field


def test_format_roundtrip():
    rng = random.Random(11)
    for _ in range(60):
        t = rng.randint(1, 4)
        exps = rng.sample(range(6), t)
        terms = [(a, rng.randint(1, 6)) for a in exps]
        try:
            f = build(F7, terms)
        except ZeroFunction:
            continue
        assert parse_tnomial(F7, format_tnomial(f)) == f


def test_format_roundtrip_extension():
    E = make_extension_field(3, 2)
    rng = random.Random(12)
    for _ in range(40):
        t = rng.randint(1, 3)
        exps = rng.sample(range(8), t)
        terms = [(a, rng.randint(1, 8)) for a in exps]
        terms = [(a, E.element_from_int(c)) for a, c in terms]
        try:
            f = build(E, terms)
        except ZeroFunction:
            continue
        assert parse_tnomial(E, format_tnomial(f)) == f


def test_format_frozen():
    assert format_tnomial(build(F7, [(3, 1), (0, 1)])) == "1 + x^3"
    assert format_tnomial(build(F7, [(1, 1)])) == "x"
    assert format_tnomial(build(F7, [(1, 3), (0, 2)])) == "2 + 3*x"
    E = make_extension_field(3, 2)
    assert format_tnomial(build(E, [(2, (0, 1)), (0, 1)])) == "[1,0] + [0,1]*x^2"


def test_str_is_format():
    f = build(F7, [(3, 1), (0, 1)])
    assert str(f) == format_tnomial(f)


def test_tnomial_is_hashable_and_frozen():
    f = build(F7, [(3, 1), (0, 1)])
    g = build(F7, [(3, 1), (0, 1)])
    assert f == g
    assert hash(f) == hash(g)
    assert len({f, g}) == 1
    with pytest.raises(AttributeError):
        f.terms = ()
