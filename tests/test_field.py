import random

import pytest

from tnomial.errors import (
    DivisionByZero,
    FieldTooLarge,
    NotADivisor,
    NotPrime,
    PreconditionViolated,
    ReducibleModulus,
)
from tnomial.field import (
    EXTENSION_FIELD_LIMIT,
    _is_irreducible,
    _poly_xgcd,
    make_extension_field,
    make_prime_field,
    subgroup_elements,
    subgroup_of_order,
)


def test_prime_field_basics():
    F = make_prime_field(7)
    assert (F.p, F.k, F.q) == (7, 1, 7)
    assert F.modulus is None
    assert F.zero == 0 and F.one == 1
    assert F.add(5, 4) == 2
    assert F.sub(2, 5) == 4
    assert F.neg(3) == 4
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.pow(3, 6) == 1
    assert F.pow(3, -1) == 5


def test_prime_field_generator():
    # 3 is the smallest generator mod 7: 2 has order 3
    assert make_prime_field(7).g == 3
    assert make_prime_field(5).g == 2
    assert make_prime_field(11).g == 2
    assert make_prime_field(13).g == 2
    assert make_prime_field(3).g == 2
    assert make_prime_field(2).g == 1


def test_generator_has_full_order():
    for p in [5, 7, 11, 13, 101]:
        F = make_prime_field(p)
        seen = set()
        x = F.one
        for _ in range(p - 1):
            seen.add(x)
            x = F.mul(x, F.g)
        assert len(seen) == p - 1


def test_group_order_factors():
    F = make_prime_field(13)
    assert F.group_order_factors == ((2, 2), (3, 1))
    prod = 1
    for ell, e in F.group_order_factors:
        prod *= ell**e
    assert prod == 12


def test_prime_field_rejects():
    with pytest.raises(NotPrime):
        make_prime_field(6)
    with pytest.raises(NotPrime):
        make_prime_field(1)
    with pytest.raises(FieldTooLarge):
        make_prime_field(2**31 + 11)


def test_inv_of_zero():
    F = make_prime_field(7)
    with pytest.raises(DivisionByZero):
        F.inv(0)
    E = make_extension_field(3, 2)
    with pytest.raises(DivisionByZero):
        E.inv((0, 0))
    with pytest.raises(DivisionByZero):
        make_extension_field(7, 3).inv((0, 0, 0))


def test_inv_rejects_a_value_that_is_not_an_element():
    # 3 is a digit outside [0, 3), (1, 0, 0) has the wrong length for F_9
    F9 = make_extension_field(3, 2)
    for bad in [(3, 0), (1, 0, 0)]:
        with pytest.raises(PreconditionViolated):
            F9.inv(bad)
    with pytest.raises(PreconditionViolated):
        make_prime_field(7).inv(7)


def test_extension_inverse_of_every_unit():
    for p, k in [(2, 2), (2, 3), (3, 2), (2, 8), (3, 5), (7, 3)]:
        F = make_extension_field(p, k)
        for n in range(1, F.q):
            a = F.element_from_int(n)
            assert F.mul(F.inv(a), a) == F.one, (p, k, a)


def test_extension_field_f9():
    F = make_extension_field(3, 2, [1, 0, 1])  # x^2 + 1
    assert (F.p, F.k, F.q) == (3, 2, 9)
    assert F.modulus == (1, 0, 1)
    assert F.zero == (0, 0) and F.one == (1, 0)
    # x * x = -1 = 2
    assert F.mul((0, 1), (0, 1)) == (2, 0)
    assert F.g == (1, 1)
    assert F.pow(F.g, 8) == F.one
    assert F.pow(F.g, 4) != F.one
    assert F.mul(F.g, F.inv(F.g)) == F.one


def test_extension_field_auto_modulus():
    assert make_extension_field(3, 2).modulus == (1, 0, 1)
    assert make_extension_field(2, 3).modulus == (1, 1, 0, 1)
    assert make_extension_field(2, 4).modulus == (1, 1, 0, 0, 1)
    assert make_extension_field(5, 2).modulus == (2, 0, 1)


def test_extension_field_rejects_reducible():
    # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(ReducibleModulus):
        make_extension_field(3, 2, [2, 0, 1])
    # not monic
    with pytest.raises(ReducibleModulus):
        make_extension_field(3, 2, [1, 0, 2])
    # wrong degree
    with pytest.raises(ReducibleModulus):
        make_extension_field(3, 2, [1, 0, 0, 1])
    with pytest.raises(NotPrime):
        make_extension_field(4, 2)
    for k in (1, 0, -2):
        with pytest.raises(PreconditionViolated):
            make_extension_field(3, k)
    with pytest.raises(FieldTooLarge):
        make_extension_field(2, 21)
    assert 2**21 > EXTENSION_FIELD_LIMIT


def test_element_int_roundtrip():
    F = make_extension_field(3, 2)
    labels = list(range(9))
    elems = [F.element_from_int(n) for n in labels]
    assert elems[0] == (0, 0)
    assert elems[1] == (1, 0)
    assert elems[3] == (0, 1)
    assert [F.element_to_int(e) for e in elems] == labels
    with pytest.raises(ValueError):
        F.element_from_int(9)
    with pytest.raises(ValueError):
        F.element_from_int(-1)


def test_elements_iteration():
    F = make_extension_field(2, 3)
    elems = list(F.elements())
    assert len(elems) == 8
    assert len(set(elems)) == 8
    units = list(F.unit_powers())
    assert len(units) == 7
    assert len(set(units)) == 7
    assert F.zero not in units


def test_frobenius_fixed_points():
    # x -> x^p fixes exactly the prime subfield
    F = make_extension_field(3, 2)
    fixed = [x for x in F.elements() if F.pow(x, 3) == x]
    assert len(fixed) == 3


def test_subgroup_of_order():
    F = make_prime_field(7)
    h = subgroup_of_order(F, 3)
    assert h == 2  # 3^2 = 2 generates the order-3 subgroup {1, 2, 4}
    assert F.pow(h, 3) == 1
    with pytest.raises(NotADivisor):
        subgroup_of_order(F, 4)
    with pytest.raises(NotADivisor):
        subgroup_of_order(F, 0)


def test_subgroup_elements():
    F = make_prime_field(7)
    assert set(subgroup_elements(F, 3)) == {1, 2, 4}
    assert set(subgroup_elements(F, 2)) == {1, 6}
    assert set(subgroup_elements(F, 1)) == {1}
    assert set(subgroup_elements(F, 6)) == {1, 2, 3, 4, 5, 6}


def test_subgroup_elements_extension():
    F = make_extension_field(3, 2)
    sub = subgroup_elements(F, 4)
    assert len(sub) == 4
    for x in sub:
        assert F.pow(x, 4) == F.one
    # elements of exact order 8 are not in the order-4 subgroup
    assert F.g not in sub


def test_pow_additivity():
    F = make_extension_field(2, 4)
    a = F.g
    for i in range(0, 20, 3):
        for j in range(0, 20, 7):
            assert F.mul(F.pow(a, i), F.pow(a, j)) == F.pow(a, i + j)


def test_field_axioms_sampled():
    F = make_extension_field(5, 2)
    xs = [F.element_from_int(n) for n in [1, 2, 7, 11, 13, 24]]
    for a in xs:
        for b in xs:
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(a, b) == F.add(b, a)
            assert F.sub(F.add(a, b), b) == a
            for c in xs:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def _smallest_generator_label(F):
    """Smallest label whose powers walk the whole unit group."""
    for n in range(1, F.q):
        x = F.element_from_int(n)
        y = x
        for _ in range(F.q - 2):
            if y == F.one:
                break
            y = F.mul(y, x)
        else:
            return n


@pytest.mark.parametrize("p,k", [
    (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 5), (2, 6), (3, 4),
    (11, 2), (5, 3), (13, 2), (2, 8), (3, 5), (17, 2), (7, 3), (19, 2), (23, 2),
    (5, 4), (29, 2), (31, 2),
])
def test_generator_is_the_smallest_over_all_labels(p, k):
    F = make_extension_field(p, k)
    assert F.element_to_int(F.g) == _smallest_generator_label(F)


MOBIUS = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0}


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5, 7) for k in (1, 2, 3, 4)]
                         + [(2, k) for k in (5, 6, 7, 8)])
def test_irreducible_count_matches_gauss(p, k):
    """Monic irreducibles of degree k over F_p number
    (1/k) * sum over d | k of mu(d) * p**(k/d)."""
    expected = sum(MOBIUS[d] * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
    count = 0
    for n in range(p**k):
        lower = [n // p**i % p for i in range(k)]
        count += _is_irreducible(tuple(lower) + (1,), p)
    assert count == expected


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _rem(a, b, p):
    a, inv = _trim([c % p for c in a]), pow(b[-1], -1, p)
    while len(a) >= len(b):
        f, shift = a[-1] * inv % p, len(a) - len(b)
        for j, y in enumerate(b):
            a[shift + j] = (a[shift + j] - f * y) % p
        _trim(a)
    return a


def _random_poly(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]


def _sub(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


@pytest.mark.parametrize("p", [2, 3, 7, 101])
def test_xgcd_cofactor(p):
    """s*b = r mod a, and r divides a and b, so r is a gcd of a and b:
    a nonzero constant for a coprime pair, of degree >= 1 otherwise."""
    rng = random.Random(p)
    coprime = 0
    for trial in range(60):
        common = _random_poly(rng, p, 1 + trial % 3) if trial % 2 else [1]
        a = _mul(common, _random_poly(rng, p, rng.randrange(1, 6)), p)
        b = _mul(common, _random_poly(rng, p, rng.randrange(0, 8)), p)
        r, s = _poly_xgcd(a, b, p)
        assert r and _rem(_sub(_mul(s, b, p), r, p), a, p) == []
        assert _rem(a, r, p) == [] and _rem(b, r, p) == []
        assert len(r) >= len(common)
        coprime += len(r) == 1
    assert 0 < coprime < 60
