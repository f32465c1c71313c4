import random
from math import gcd

import pytest

from tnomial.cosets import (
    CosetWitness,
    compute_C,
    find_vanishing_cosets,
    root_coset_decomposition,
    vanishes_on_coset,
)
from tnomial.errors import (
    BetaNotInSubgroup,
    InternalInvariantError,
    NotADivisor,
    TooFewTerms,
)
from tnomial.field import make_extension_field, make_prime_field, subgroup_elements
from tnomial.params import compute_S
from tnomial.poly import build, evaluate
from tnomial.report import analyze

F7 = make_prime_field(7)
F13 = make_prime_field(13)


def test_vanishes_on_coset_direct():
    f = build(F7, [(3, 1), (0, 1)])  # x^3 + 1 vanishes on {x : x^3 = 6}
    assert vanishes_on_coset(f, 3, 6)
    assert not vanishes_on_coset(f, 3, 1)
    assert not vanishes_on_coset(f, 6, 1)


def test_vanishes_on_coset_k1_is_point_evaluation():
    f = build(F7, [(3, 1), (0, 1)])
    for x in range(1, 7):
        assert vanishes_on_coset(f, 1, x) == (evaluate(f, x) == 0)


def test_vanishes_on_coset_agrees_with_evaluation():
    rng = random.Random(3)
    for q in [7, 13]:
        F = make_prime_field(q)
        n = q - 1
        from tnomial.numtheory import divisors

        for _ in range(60):
            t = rng.randint(1, 4)
            exps = rng.sample(range(n), t)
            f = build(F, [(a, rng.randint(1, q - 1)) for a in exps])
            for k in divisors(n):
                for beta in subgroup_elements(F, n // k):
                    claimed = vanishes_on_coset(f, k, beta)
                    # the coset {x : x^k = beta} has exactly k points
                    points = [x for x in range(1, q) if pow(x, k, q) == beta]
                    assert len(points) == k
                    direct = all(evaluate(f, x) == 0 for x in points)
                    assert claimed == direct


def test_validate_beta():
    f = build(F7, [(3, 1), (0, 1)])
    with pytest.raises(NotADivisor):
        vanishes_on_coset(f, 4, 1)
    with pytest.raises(NotADivisor):
        vanishes_on_coset(f, 0, 1)
    with pytest.raises(BetaNotInSubgroup):
        vanishes_on_coset(f, 3, 3)  # 3 is not in the order-2 subgroup {1, 6}
    with pytest.raises(BetaNotInSubgroup):
        vanishes_on_coset(f, 3, 0)


def test_find_vanishing_cosets_frozen():
    f = build(F7, [(3, 1), (0, 1)])
    wits = find_vanishing_cosets(f, 3)
    assert wits == [CosetWitness(k=3, beta=6, representative=3)]
    # representative^k = beta and f(representative) = 0
    assert F7.pow(3, 3) == 6
    assert evaluate(f, 3) == 0

    g = build(F7, [(4, 1), (2, 1), (0, 1)])  # x^4 + x^2 + 1
    wits2 = find_vanishing_cosets(g, 2)
    assert wits2 == [
        CosetWitness(k=2, beta=2, representative=3),
        CosetWitness(k=2, beta=4, representative=2),
    ]
    assert find_vanishing_cosets(g, 3) == []


def test_find_vanishing_cosets_witness_invariants():
    """Mask-derived witnesses are exactly the betas of the residue-class
    sweep over the subgroup, and each representative is the smallest
    power of g in its coset."""
    rng = random.Random(17)
    from tnomial.numtheory import divisors

    fields = [
        make_prime_field(7),
        make_prime_field(13),
        make_prime_field(31),
        make_extension_field(3, 2),
        make_extension_field(2, 4),
        make_extension_field(5, 2, [3, 0, 1]),
    ]
    for F in fields:
        n = F.q - 1
        units = list(F.unit_powers())
        for i in range(40):
            t = rng.randint(2, 4)
            if i % 4 == 0:
                # f(x) = h(x^m) vanishes on whole cosets whenever h has roots
                m = rng.choice([d for d in divisors(n) if d < n])
                exps = [m * u for u in rng.sample(range(n // m), min(t, n // m))]
            else:
                exps = rng.sample(range(n), t)
            f = build(F, [(a, F.element_from_int(rng.randint(1, n))) for a in exps])
            for k in divisors(n):
                wits = find_vanishing_cosets(f, k)
                swept = [b for b in subgroup_elements(F, n // k) if vanishes_on_coset(f, k, b)]
                assert [w.beta for w in wits] == sorted(swept, key=F.element_to_int)
                for w in wits:
                    assert w.k == k
                    assert F.pow(w.beta, n // k) == F.one
                    assert F.pow(w.representative, k) == w.beta
                    assert evaluate(f, w.representative) == F.zero
                    first = next(x for x in units if F.pow(x, k) == w.beta)
                    assert w.representative == first


def test_mask_witnesses_are_cross_checked(monkeypatch):
    """A witness or a C > 1 coset the residue-class test rejects is an
    internal error, not an answer."""
    import tnomial.cosets as cosets

    f = build(F13, [(0, 1), (4, 1), (8, 1)])  # vanishes on cosets of size 4
    assert compute_C(f) == 4
    monkeypatch.setattr(cosets, "vanishes_on_coset", lambda f, k, beta: False)
    with pytest.raises(InternalInvariantError):
        find_vanishing_cosets(f, 4)
    with pytest.raises(InternalInvariantError):
        compute_C(f)


def test_compute_C_conventions():
    assert compute_C(build(F7, [(2, 1), (0, 1)])) == 0  # x^2 + 1: no roots
    assert compute_C(build(F7, [(1, 5)])) == 0  # monomial: no nonzero roots
    assert compute_C(build(F7, [(1, 1), (0, -1)])) == 1  # x - 1: root, no coset
    assert compute_C(build(F7, [(3, 1), (0, 1)])) == 3
    assert compute_C(build(F7, [(4, 1), (2, 1), (0, 1)])) == 2


def test_compute_C_half_exponent_binomial():
    for q in [7, 11, 13]:
        F = make_prime_field(q)
        f = build(F, [((q - 1) // 2, 1), (0, 1)])
        assert compute_C(f) == (q - 1) // 2
    E = make_extension_field(3, 3)
    f = build(E, [(13, 1), (0, 1)])
    assert compute_C(f) == 13


def test_compute_C_only_sizes_in_S():
    rng = random.Random(23)
    for q in [7, 13]:
        F = make_prime_field(q)
        n = q - 1
        for _ in range(80):
            t = rng.randint(1, 4)
            exps = rng.sample(range(n), t)
            f = build(F, [(a, rng.randint(1, q - 1)) for a in exps])
            c = compute_C(f)
            if c > 1:
                assert c in compute_S(f)


def _report_invariants(f):
    rep = analyze(f)
    return (rep["roots"], rep["C"], rep["params"]["S"], rep["decomposition"]["coset_count"])


def test_compute_C_invariant_under_scaling_and_translation():
    """R, C, S and the coset count of the analyze report, and compute_C,
    are unchanged by translation a -> a + s, a unit multiplier a -> u*a
    mod q-1, scaling x -> lam*x (with a constant factor mu), and on
    F_{p^k} the Frobenius c -> c**p: each maps roots, and vanishing
    cosets of each size, one-to-one onto those of the image."""
    rng = random.Random(29)
    fields = [make_prime_field(p) for p in (13, 31, 61)] + [
        make_extension_field(2, 4),
        make_extension_field(3, 3),
        make_extension_field(5, 2),
    ]
    seen_C = set()
    for F in fields:
        n = F.q - 1
        units = [u for u in range(1, n) if gcd(u, n) == 1]
        for _ in range(12):
            exps = rng.sample(range(n), rng.randint(2, 4))
            coeffs = [F.element_from_int(rng.randint(1, n)) for _ in exps]
            s, u = rng.randrange(n), rng.choice(units)
            lam, mu = (F.element_from_int(rng.randint(1, n)) for _ in range(2))
            images = [
                [((a + s) % n, c) for a, c in zip(exps, coeffs)],
                [(u * a % n, c) for a, c in zip(exps, coeffs)],
                [(a, F.mul(mu, F.mul(c, F.pow(lam, a)))) for a, c in zip(exps, coeffs)],
            ]
            if F.k > 1:
                images.append([(a, F.pow(c, F.p)) for a, c in zip(exps, coeffs)])
            want = _report_invariants(build(F, zip(exps, coeffs)))
            seen_C.add(want[1])
            for terms in images:
                g = build(F, terms)
                assert _report_invariants(g) == want, (F.q, exps, terms)
                assert compute_C(g) == want[1]
    assert {0, 1} < seen_C and max(seen_C) > 2


def test_decomposition_frozen():
    f = build(F7, [(3, 1), (0, 1)])
    dec = root_coset_decomposition(f)
    assert (dec.delta, dec.coset_count) == (3, 1)
    assert dec.bound == 2.0
    g = build(F7, [(4, 1), (2, 1), (0, 1)])
    dec2 = root_coset_decomposition(g)
    assert (dec2.delta, dec2.coset_count) == (2, 2)
    assert abs(dec2.bound - 2.0 * 3.0**0.5) < 1e-12


def test_decomposition_counts_roots():
    # coset_count * delta = R(f) after normalization
    rng = random.Random(31)
    from tnomial.poly import count_roots_bruteforce, normalize_lowest

    for q in [7, 13, 27]:
        F = make_prime_field(q) if q != 27 else make_extension_field(3, 3)
        n = q - 1
        for _ in range(40):
            t = rng.randint(2, 4)
            exps = rng.sample(range(n), t)
            f = build(F, [(a, F.element_from_int(rng.randint(1, q - 1))) for a in exps])
            dec = root_coset_decomposition(f)
            assert dec.coset_count * dec.delta == count_roots_bruteforce(
                normalize_lowest(f)
            )


def test_decomposition_needs_two_terms():
    with pytest.raises(TooFewTerms):
        root_coset_decomposition(build(F7, [(2, 3)]))


def test_compute_C_extension_trinomials():
    # the square-root trinomial has roots but never a vanishing coset
    for p, k in [(3, 2), (5, 2), (7, 2)]:
        F = make_extension_field(p, k)
        f = build(F, [(p, 1), (1, 1), (0, -2)])
        assert compute_C(f) == 1
