import itertools
import math
import random
import tracemalloc
from collections import Counter
from itertools import product
from math import comb, factorial, gcd

import numpy as np
import pytest

import tnomial.experiments as experiments
from tnomial.cosets import compute_C
from tnomial.errors import (
    BudgetExceeded,
    FieldTooLarge,
    InternalInvariantError,
    InvalidSampleCount,
    InvalidT,
    PreconditionViolated,
)
from tnomial.experiments import (
    ExperimentRecord,
    compute_max_R,
    conjecture_table,
    count_orbit_reps,
    enumerate_tnomials,
    estimate_enumeration_work,
    root_distribution_sample,
    sample_vanishing_proportion,
    _c_above_1_columns,
    _coset_counts,
    _affine_reps,
    _least_image,
    _nonzero_rows,
    _poly_from_column,
    _root_incidences,
    _sampled_counts,
    _unit_transform,
    _unit_zero_mask,
)
from tnomial.field import make_extension_field, make_prime_field
from tnomial.numtheory import is_prime, prime_divisors
from tnomial.poly import (
    build,
    count_roots_bruteforce,
    format_tnomial,
    log_tables,
    root_mask,
    roots_on_units,
)

from _orbits import _orbit_reps


# -- full enumeration ---------------------------------------------------------


def test_full_enumeration_sizes():
    # comb(p-1, t) exponent sets, (p-1)**t nonzero coefficient vectors each
    for p, t in [(5, 1), (5, 2), (7, 3)]:
        polys = list(enumerate_tnomials(p, t))
        assert len(polys) == comb(p - 1, t) * (p - 1) ** t
        assert len(set(polys)) == len(polys)
        assert all(f.t == t for f in polys)


def test_enumerate_rejects_bad_t():
    with pytest.raises(InvalidT):
        next(enumerate_tnomials(5, 0))
    with pytest.raises(InvalidT):
        next(enumerate_tnomials(5, 5))  # only 4 distinct exponents exist


# -- translation orbits -------------------------------------------------------


def test_orbit_reps_frozen_small():
    reps = dict(_orbit_reps(6, 2))
    assert reps == {(0, 1): 6, (0, 2): 6, (0, 3): 3}


def test_orbit_reps_partition_subsets():
    for n, t in [(6, 2), (6, 3), (10, 3), (12, 4)]:
        reps = list(_orbit_reps(n, t))
        assert len(reps) == count_orbit_reps(n, t)
        assert sum(orbit for _, orbit in reps) == comb(n, t)
        assert all(A[0] == 0 for A, _ in reps)


def test_count_orbit_reps_frozen():
    assert count_orbit_reps(6, 2) == 3
    assert count_orbit_reps(6, 3) == 4
    assert count_orbit_reps(10, 3) == 12
    assert count_orbit_reps(12, 4) == 43


# -- affine orbits ----------------------------------------------------------


def _affine_orbit_count(n, t):
    """Burnside: orbits of a -> u*a + s (gcd(u, n) = 1) on t-subsets of
    Z_n.  A map fixes the subsets that are unions of its cycles, counted
    as the z**t coefficient of the product of (1 + z**len) over cycles."""
    units = [u for u in range(n) if gcd(u, n) == 1]
    total = 0
    for u in units:
        for s in range(n):
            seen = [False] * n
            fixed = [1] + [0] * t
            for x in range(n):
                length = 0
                while not seen[x]:
                    seen[x] = True
                    x = (u * x + s) % n
                    length += 1
                if length:
                    for d in range(t, length - 1, -1):
                        fixed[d] += fixed[d - length]
            total += fixed[t]
    assert total % (n * len(units)) == 0
    return total // (n * len(units))


def test_affine_orbit_count_frozen():
    for n, t, orbits in [(198, 3, 151), (60, 3, 65), (30, 4, 149), (16, 5, 47)]:
        assert _affine_orbit_count(n, t) == orbits
        assert len(_affine_reps(n, t)) == orbits


def test_affine_reps_match_burnside():
    for n in range(1, 41):
        for t in range(1, min(n, 5) + 1):
            reps = _affine_reps(n, t)
            assert len(reps) == _affine_orbit_count(n, t), (n, t)
            assert sum(w for _, w in reps) == comb(n, t), (n, t)


def test_affine_reps_lead_their_orbits():
    """Each representative is the first member of its orbit in
    translation order, and every member appears in exactly one orbit."""
    n, t = 30, 4
    order = [A for A, _ in _orbit_reps(n, t)]
    reps = _affine_reps(n, t)
    units = [u for u in range(n) if gcd(u, n) == 1]
    owner = {}
    for A, w in reps:
        for u in units:
            for s in range(n):
                image = tuple(sorted((u * a + s) % n for a in A))
                owner.setdefault(image, A)
                assert owner[image] == A
        members = [B for B in order if owner.get(B) == A]
        assert members[0] == A
    assert len(owner) == comb(n, t)
    assert [A for A, _ in reps] == sorted(A for A, _ in reps)


def test_affine_weights_raise_on_a_broken_partition(monkeypatch):
    # with the unit n-1 left out, the multipliers no longer form a group
    # (5 * 7 = 11 mod 12); with every u taken for a unit, as this test did
    # for the tuple walk, the rows are no longer sets and have no rank
    monkeypatch.setattr(experiments, "gcd", lambda u, n: 2 if u == n - 1 else gcd(u, n))
    with pytest.raises(InternalInvariantError):
        _affine_reps(12, 3)


def _tuple_affine_reps(n, t):
    """The affine orbit walk over a Python set of sorted member tuples,
    which the bitmap walk replaced: a reference for its order and weights."""
    seen = set()
    reps = []
    for rest in itertools.combinations(range(1, n), t - 1):
        A = (0,) + rest
        if A in seen:
            continue
        members = {
            tuple(sorted(u * (x - a) % n for x in A))
            for u in range(n)
            if gcd(u, n) == 1
            for a in A
        }
        seen |= members
        reps.append((A, len(members) * n // t))
    return reps


def test_affine_reps_match_the_tuple_walk():
    for n in range(1, 41):
        for t in range(1, min(n, 5) + 1):
            assert _affine_reps(n, t) == _tuple_affine_reps(n, t), (n, t)
    # t = 1 builds no units: the orbit of {0} is all n monomials
    assert _affine_reps(15485862, 1) == [((0,), 15485862)]


def test_affine_reps_memory_is_one_bitmap():
    # (1008, 3): the tuple walk held every member tuple in a set (70 MiB
    # traced); the bitmap holds one byte per set containing 0, C(1007, 2) =
    # 506521.  At (11, 10) there are 10 such sets, where a bitmap indexed
    # by the digits y_i base n would take 10**9 bytes
    for n, t, orbits, limit in [(1008, 3, 1235, 2**20), (11, 10, 1, 2**16)]:
        tracemalloc.start()
        try:
            reps = _affine_reps(n, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reps) == orbits
        assert peak < limit, (n, t)


# -- translation-only references of the drivers --------------------------------


def _full_incidences(field, exps):
    """The full-grid kernel the dilation slice replaced: (col, valid) over
    every scalar-normalized column (1, c_2, ..., c_t), in `_poly_from_column`
    order, with one row per prefix (c_2, ..., c_{t-1}) and one column per
    unit g**j, grid point F = r*(p-1) + j."""
    p = field.p
    n = p - 1
    t = len(exps)
    if t == 1:
        return np.zeros(0, dtype=np.int64), np.zeros(1, dtype=bool)
    pw = log_tables(field).exp
    j = np.arange(n, dtype=np.int64)
    minus = [p - pw[(a - exps[-1]) * j % n].astype(np.int64) for a in exps[:-1]]
    r = np.arange(n ** (t - 2), dtype=np.int64)
    ct = np.repeat(minus[0][None], len(r), axis=0)
    rest = r
    for m in reversed(minus[1:]):  # c_{t-1} is the lowest digit of r
        rest, d = np.divmod(rest, n)
        ct = (ct + (d + 1)[:, None] * m) % p
    valid = ct != 0
    return (ct + (r * n - 1)[:, None])[valid], valid.ravel()


def _root_counts(field, exps):
    col, valid = _full_incidences(field, exps)
    return np.bincount(col, minlength=len(valid))


def _labels(p, t):
    """The scalar-normalized coefficient columns (1, c_2, ..., c_t) of F_p
    in `itertools.product` order, as a (t, (p-1)**(t-1)) label array."""
    return np.array([(1,) + c for c in product(range(1, p), repeat=t - 1)]).T


def _c_above_1(field, exps, labels):
    """C > 1 per coefficient column, read off the log-domain root mask of
    every column given, in batches, and the samplers' coset counts over
    every prime l | q-1: a reference that shares neither the drivers'
    incidences, nor their delta rule, nor their choice of primes."""
    n = field.q - 1
    logs = log_tables(field).log[labels.T]
    mask = np.zeros(len(logs), dtype=bool)
    batch = max(1, 2**14 // n)
    for s in range(0, len(logs), batch):
        zero = root_mask(field, exps, logs[s : s + batch])
        mask[s : s + batch] = _coset_counts(zero, prime_divisors(n)) > 0
    return mask


def _translation_max_R(p, t):
    """compute_max_R over every translation representative and every
    column of the full grid, as the drivers ran before the affine and
    dilation reductions."""
    field = make_prime_field(p)
    n = p - 1
    labels = _labels(p, t)
    best, best_at = -1, None
    for exps, _ in _orbit_reps(n, t):
        R = _root_counts(field, exps)
        if int(R.max()) <= best:
            continue
        cand = np.flatnonzero(R > best)
        cand = cand[~_c_above_1(field, exps, labels[:, cand])]
        if len(cand):
            col = int(cand[np.argmax(R[cand])])
            best, best_at = int(R[col]), (exps, col)
    return best, _poly_from_column(field, *best_at)


def _translation_histograms(p, t):
    """{r: (count_all, count_c1)} over every translation representative
    and every column of the full grid, with the drivers' own C > 1
    columns: a check of the affine and dilation weights, while
    `_assert_c_above_1_matches_reference` checks the columns."""
    field = make_prime_field(p)
    n = p - 1
    all_, c1 = Counter(), Counter()
    for exps, orbit in _orbit_reps(n, t):
        col, valid = _full_incidences(field, exps)
        R = np.bincount(col, minlength=len(valid))
        mask = np.zeros(len(R), dtype=bool)
        mask[_c_above_1_columns(field, exps, R, col, valid)] = True
        for hist, vals in ((all_, R), (c1, R[~mask])):
            for r, c in zip(*np.unique(vals, return_counts=True)):
                hist[int(r)] += int(c) * n * orbit
    return {r: (all_[r], c1[r]) for r in all_}


def _assert_c_above_1_matches_reference(p, t):
    """On every exponent set the drivers walk, `_c_above_1_columns` flags
    exactly the columns that the reference coset mask flags among those
    with two roots or more: a coset of prime size holds at least two."""
    field = make_prime_field(p)
    labels = _labels(p, t)
    for exps, _ in _affine_reps(p - 1, t):
        col, valid = _full_incidences(field, exps)
        R = np.bincount(col, minlength=len(valid))
        cand = np.flatnonzero(R >= 2)
        expected = cand[_c_above_1(field, exps, labels[:, cand])]
        assert _c_above_1_columns(field, exps, R, col, valid).tolist() == expected.tolist(), exps


def _primes(lo, hi):
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def test_conjecture_table_matches_translation_reference():
    # every (p, t) of acceptance criterion 10
    pairs = (
        [(p, 3) for p in _primes(5, 61)]
        + [(p, 4) for p in _primes(5, 31)]
        + [(p, 5) for p in _primes(7, 17)]
    )
    for p, t in pairs:
        _assert_c_above_1_matches_reference(p, t)
        got = {rec.r: (rec.count_all, rec.count_c1) for rec in conjecture_table(p, t)}
        assert got == _translation_histograms(p, t), (p, t)


def test_max_R_matches_translation_reference():
    cases = [(p, 3) for p in _primes(5, 61)] + [(p, 4) for p in _primes(5, 17)]
    for p, t in cases:
        res = compute_max_R(p, t)
        assert (res.value, res.witness) == _translation_max_R(p, t), (p, t)


def test_drivers_run_no_kernel_for_t_up_to_3(monkeypatch):
    # a pairing prime of at most three exponents divides delta, where C > 1
    # exactly when R > 0; at t = 4 the classes of (0, 1, 2, 3) mod 2 split
    calls = []
    real = experiments._coset_columns

    def counted(col, valid, kept, w, ell):
        calls.append((w, ell))
        return real(col, valid, kept, w, ell)

    monkeypatch.setattr(experiments, "_coset_columns", counted)
    for p, t in [(p, 2) for p in _primes(3, 61)] + [(p, 3) for p in _primes(5, 31)]:
        if t == 2:  # the t = 3 sets are checked with criterion 10's
            _assert_c_above_1_matches_reference(p, t)
        got = {rec.r: (rec.count_all, rec.count_c1) for rec in conjecture_table(p, t)}
        res = compute_max_R(p, t)
        assert calls == [], (p, t)
        assert got == _translation_histograms(p, t), (p, t)
        assert (res.value, res.witness) == _translation_max_R(p, t), (p, t)
    conjecture_table(7, 4)
    assert (3, 2) in calls


def test_drivers_agree_across_chunk_boundaries(monkeypatch):
    # chunks of 60 grid points are 5 rows of 12 units at (13, 4) and 10 rows
    # of 6 at (7, 5), and neither divides the d*12 and d*36 rows of the
    # slices for d = 1: the incidences of every chunk, the short last one
    # included, are joined before any count
    cases = [(13, 4), (7, 5)]
    expected = [(conjecture_table(p, t), compute_max_R(p, t)) for p, t in cases]
    monkeypatch.setattr(experiments, "_CHUNK", 60)
    assert [(conjecture_table(p, t), compute_max_R(p, t)) for p, t in cases] == expected


def test_slice_histograms_times_the_weight_match_the_full_grid():
    # every affine representative for p <= 43 at t = 2, 3 and p <= 31 at
    # t = 4: the slice keeps d = min gcd(a_i, p-1) of the pivot's p-1
    # values, and its histograms, all and C <= 1, are (p-1)/d times smaller
    cases = [(p, t) for p in _primes(3, 43) for t in (2, 3, 4) if t < p and (t < 4 or p <= 31)]
    for p, t in cases:
        field = make_prime_field(p)
        n = p - 1
        for exps, _ in _affine_reps(n, t):
            inc = _root_incidences(field, exps)
            d = min(gcd(a, n) for a in exps[1:]) if t > 2 else n
            assert inc.weight == n // d, (p, exps)
            assert sorted(inc.exps) == list(exps) and len(inc.valid) * inc.weight == n ** (t - 1)
            hists = []
            full = _full_incidences(field, exps)
            for col, valid, weight in [(inc.col, inc.valid, inc.weight), (*full, 1)]:
                R = np.bincount(col, minlength=len(valid))
                c1 = np.delete(R, _c_above_1_columns(field, exps, R, col, valid))
                hists.append([_weighted_hist(R, weight), _weighted_hist(c1, weight)])
            assert hists[0] == hists[1], (p, exps)


def _weighted_hist(values, weight):
    return {int(r): int(c) * weight for r, c in zip(*np.unique(values, return_counts=True))}


# -- counting kernels against the object-level oracle -------------------------


def test_poly_from_column_follows_product_order():
    for p, exps in [(5, (0,)), (5, (0, 1, 3)), (7, (0, 2)), (5, (0, 1, 2, 3))]:
        field = make_prime_field(p)
        expected = [
            build(field, zip(exps, (1,) + c)) for c in product(range(1, p), repeat=len(exps) - 1)
        ]
        assert [_poly_from_column(field, exps, c) for c in range(len(expected))] == expected


def test_root_incidences_memory_is_bounded_by_the_chunk():
    # (0, 336, 672) has d = 336, so its slice keeps 336 * 1008 = 338688 of
    # the 1008**2 grid points; (0, 1, 2, 3) keeps 1008**2 of 1008**3
    # (d = 1), whose outputs take 8.7 MB, where a materialized (4, 1008**2)
    # coefficient matrix alone would take 32 MB
    field = make_prime_field(1009)
    log_tables(field)
    for exps, points in [((0, 336, 672), 336 * 1008), ((0, 1, 2, 3), 1008**2)]:
        tracemalloc.start()
        try:
            inc = _root_incidences(field, exps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(inc.valid) == points
        assert peak < inc.col.nbytes + inc.valid.nbytes + 3 * 8 * experiments._CHUNK


def _slice_poly(field, inc, c):
    """The polynomial of grid column c of `_root_incidences`: c_t - 1 is the
    lowest digit base p-1, the prefix digits c_i - 1 follow, and the pivot
    c_2 = g**k, k < d, is the top digit."""
    n = field.p - 1
    t = len(inc.exps)
    coeffs = []
    for i in range(t - 1, 0, -1):
        if i == 1 and t > 2:
            coeffs.append(int(log_tables(field).exp[c]))
        else:
            c, digit = divmod(c, n)
            coeffs.append(digit + 1)
    return build(field, zip(inc.exps, [1] + coeffs[::-1]))


def test_kernel_root_counts_match_bruteforce():
    # (0, 2, 3) at p = 7 pivots on 2 (gcd 2 < 3): c_2 is 1 or 3, and each
    # of the 12 grid columns stands for 3; (0, 1, 3, 5) at p = 13 pivots on
    # 1 (d = 1), and (0, 4, 6, 9) on 9 (gcd 3), which moves second
    for p, exps, order in [(7, (0, 2, 3), (0, 2, 3)), (13, (0, 1, 3, 5), (0, 1, 3, 5)),
                           (13, (0, 4, 6, 9), (0, 9, 4, 6))]:
        field = make_prime_field(p)
        inc = _root_incidences(field, exps)
        assert inc.exps == order
        R = np.bincount(inc.col, minlength=len(inc.valid))
        j = np.flatnonzero(inc.valid) % (p - 1)
        for c in range(len(R)):
            f = _slice_poly(field, inc, c)
            assert int(R[c]) == count_roots_bruteforce(f)
            # the incidences name the roots themselves, each once
            assert j[inc.col == c].tolist() == np.flatnonzero(roots_on_units(f)).tolist()
    assert len(R) == 3 * 12**2


def _coset_mask_columns(field, rng):
    """Coefficient-label columns over the exponents 0..q-2: dense random
    polynomials, and (x**l - beta) * g with beta an l-th power, which
    vanishes on the coset of l points where x**l = beta."""
    F, n = field, field.q - 1
    columns = [[rng.randrange(F.q) for _ in range(n)] for _ in range(12)]
    for ell, _ in F.group_order_factors:
        for _ in range(4 if ell < n else 0):
            g = [F.element_from_int(rng.randrange(1, F.q))]
            g += [F.element_from_int(rng.randrange(F.q)) for _ in range(rng.randrange(n - ell))]
            beta = F.pow(F.element_from_int(rng.randrange(1, F.q)), ell)
            f = [F.zero] * n
            for i, c in enumerate(g):
                f[i + ell] = F.add(f[i + ell], c)
                f[i] = F.sub(f[i], F.mul(beta, c))
            columns.append([F.element_to_int(c) for c in f])
    return np.array([col for col in columns if any(col)], dtype=np.int64).T.copy()


def test_coset_mask_matches_compute_C():
    # the prime-size cosets decide C > 1: the reference on (0, 2, 4),
    # which pairs up mod 2 with delta = 2, and on (0, 1, 2, 3), where
    # delta = 1 and the drivers' coset step decides each column
    field = make_prime_field(7)
    for exps in [(0, 2, 4), (0, 1, 2, 3)]:
        labels = _labels(7, len(exps))
        mask = _c_above_1(field, exps, labels)
        col, valid = _full_incidences(field, exps)
        R = np.bincount(col, minlength=labels.shape[1])
        above = _c_above_1_columns(field, exps, R, col, valid)
        expected = [
            c for c in range(labels.shape[1]) if compute_C(_poly_from_column(field, exps, c)) > 1
        ]
        assert np.flatnonzero(mask).tolist() == above.tolist() == expected, exps
        # column-restricted evaluation agrees with the full mask
        cols = np.array([1, 5, 17, 30])
        assert np.array_equal(_c_above_1(field, exps, labels[:, cols]), mask[cols])
    # 1 + c*x**32768 vanishes on the squares (c = -1) or the non-squares (c = 1)
    big = make_prime_field(65537)
    col, valid, _, _ = _root_incidences(big, (0, 32768))  # t = 2: the slice is every column
    R = np.bincount(col, minlength=65536)
    assert _c_above_1_columns(big, (0, 32768), R, col, valid).tolist() == [0, 65535]
    # dense columns: the samplers' transform, with planted cosets over
    # F_{p^k} and F_p
    rng = random.Random(7)
    for p, k in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 6), (13, 1), (31, 1)]:
        F = make_extension_field(p, k) if k > 1 else make_prime_field(p)
        labels = _coset_mask_columns(F, rng)
        zero = _unit_zero_mask(F, _unit_transform(F), labels.T)
        mask = _coset_counts(zero, [ell for ell, _ in F.group_order_factors if ell < F.q - 1]) > 0
        R = zero.sum(axis=1)
        for j, col in enumerate(labels.T):
            f = build(F, [(a, F.element_from_int(int(c))) for a, c in enumerate(col) if c])
            assert bool(mask[j]) == (compute_C(f) > 1), (F.q, col)
            assert int(R[j]) == count_roots_bruteforce(f), (F.q, col)
        assert mask.any() == (F.q not in (4, 8))  # n = 3 and 7 have no proper coset


@pytest.mark.parametrize(
    "p, k, n1",
    [
        (2, 1, 1),  # n = 1
        (2, 2, 1),  # n = 3, prime
        (2, 3, 1),  # n = 7, prime
        (5, 2, 4),
        (2, 6, 7),
        (3, 4, 8),
        (1019, 1, 2),  # n = 2 * 509
        (509, 1, 4),  # n = 4 * 127: W2 has 127**2 > 2**13 entries, one matmul per block
        (257, 1, 16),  # W2 has 2**8 entries, the fewest with one matmul per sample
        (1021, 1, 30),
        (1553, 1, 16),  # the last prime whose stage 1 is not reduced mod p
        (1559, 1, 38),  # the first prime whose stage 1 is
        (4093, 1, 62),
    ],
)
def test_unit_zero_mask_matches_root_mask(p, k, n1):
    # every entry of the mask, in natural unit order, against the
    # log-domain root mask of each seeded row and of the rows with the
    # largest digits: every label q-1 (all digits p-1), q-1 alternating
    # with 1, and the labels 1, ..., q-1 cyclically
    F = make_extension_field(p, k) if k > 1 else make_prime_field(p)
    transform = _unit_transform(F)
    assert len(transform[0]) == k * n1
    assert transform[3] == (p >= 1559)  # (p-1)**5 < 2**53 up to p = 1553
    n = F.q - 1
    i = np.arange(n)
    worst = np.stack([np.full(n, n), np.where(i % 2, n, 1), i + 1])
    rows = np.concatenate([_nonzero_rows(np.random.default_rng(F.q), 30, F.q, n), worst])
    log = log_tables(F).log
    expected = [root_mask(F, np.flatnonzero(row), log[row[row > 0]]) for row in rows]
    zero = _unit_zero_mask(F, transform, rows)
    assert np.array_equal(zero, np.array(expected))
    assert zero.any() == (F.q > 2)


def test_sampler_memory_at_f4096_holds_no_dense_table():
    # at F_{2^12} an (n*k)**2 float64 table would take 19 GB, and one of
    # (k*n/l)**2 entries for l = 13 takes 114 MB; the transform's largest
    # table has (k*n2)**2 entries, n2 = 65
    F = make_extension_field(2, 12)
    tracemalloc.start()
    try:
        est = sample_vanishing_proportion(F, 4, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert est.estimate == 0.0


def test_unit_transform_peak_stays_near_its_tables():
    # each digit goes straight into its float64 block: the build holds no
    # integer copy of W2 (k*n2 = 11*89 rows and columns here) beside it
    F = make_extension_field(2, 11)
    tracemalloc.start()
    try:
        tables = _unit_transform(F)[:3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * sum(t.nbytes for t in tables)


# -- distribution tables ------------------------------------------------------


def test_conjecture_table_frozen_5_2():
    rows = conjecture_table(5, 2)
    assert [(r.r, r.count_all, r.count_c1) for r in rows] == [
        (0, 16, 16),
        (1, 64, 64),
        (2, 16, 0),
    ]
    assert rows[0].total_all == 96
    assert rows[0].total_c1 == 80
    assert all(r.max_R == 1 for r in rows)


def test_conjecture_table_frozen_7_2():
    rows = conjecture_table(7, 2)
    assert [(r.r, r.count_all, r.count_c1) for r in rows] == [
        (0, 180, 180),
        (1, 216, 216),
        (2, 108, 0),
        (3, 36, 0),
    ]
    assert rows[0].total_all == 540
    assert rows[0].total_c1 == 396


def test_conjecture_table_frozen_7_3():
    rows = conjecture_table(7, 3)
    assert [(r.r, r.count_all, r.count_c1) for r in rows] == [
        (0, 1800, 1800),
        (1, 1512, 1512),
        (2, 972, 864),
        (4, 36, 0),
    ]
    assert rows[0].total_all == 4320
    assert rows[0].total_c1 == 4176
    assert rows[0].max_R == 2


def test_conjecture_table_frozen_11_2():
    rows = conjecture_table(11, 2)
    assert [(r.r, r.count_all, r.count_c1) for r in rows] == [
        (0, 1400, 1400),
        (1, 2000, 2000),
        (2, 1000, 0),
        (5, 100, 0),
    ]
    assert rows[0].total_all == 4500
    assert rows[0].total_c1 == 3400


def test_conjecture_table_matches_direct_enumeration():
    """The vectorized kernels agree with per-polynomial R and C."""
    for p, t in [(5, 2), (7, 3)]:
        all_counts = Counter()
        c1_counts = Counter()
        for f in enumerate_tnomials(p, t):
            r = count_roots_bruteforce(f)
            all_counts[r] += 1
            if compute_C(f) <= 1:
                c1_counts[r] += 1
        rows = conjecture_table(p, t)
        assert {r.r: r.count_all for r in rows} == dict(all_counts)
        assert {r.r: r.count_c1 for r in rows if r.count_c1} == dict(c1_counts)


def test_conjecture_table_row_arithmetic():
    rows = conjecture_table(7, 3, gamma=0.5)
    n, t = 6, 3
    assert rows[0].total_all == comb(n, t) * n**t
    assert sum(r.count_all for r in rows) == rows[0].total_all
    assert sum(r.count_c1 for r in rows) == rows[0].total_c1
    for r in rows:
        assert r.ratio == r.count_c1 / r.total_c1
        assert r.rhs == (1.0 / factorial(r.r)) ** 0.5
        assert r.passes_bound()


def test_conjecture_table_rhs_beyond_the_float_factorials():
    # n = 346 = 2 * 173: binomials 1 + c*x**(2a) have r = 173 roots, and
    # 173! is past the float range
    rows = {rec.r: rec for rec in conjecture_table(347, 2)}
    assert sorted(rows) == [0, 1, 2, 173]
    assert rows[2].rhs == (1.0 / factorial(2)) ** 0.5
    log_fact = sum(math.log(i) for i in range(2, 174))
    assert math.isclose(math.log(rows[173].rhs), -0.5 * log_fact, rel_tol=1e-12)
    assert all(rec.passes_bound() for rec in rows.values())
    assert math.isclose(
        math.log(conjecture_table(347, 2, gamma=-0.5)[-1].rhs), 0.5 * log_fact, rel_tol=1e-12
    )
    with pytest.raises(PreconditionViolated):
        conjecture_table(347, 2, gamma=-2.0)


def test_conjecture_table_counts_past_int64(monkeypatch):
    real = experiments._affine_reps
    scale = 2**62
    monkeypatch.setattr(
        experiments, "_affine_reps", lambda n, t: [(A, w * scale) for A, w in real(n, t)]
    )
    n, t = 12, 3
    rows = conjecture_table(13, t)
    assert rows[0].total_all == sum(r.count_all for r in rows) == comb(n, t) * n**t * scale
    assert rows[0].total_c1 == sum(r.count_c1 for r in rows)


def test_conjecture_table_memory_does_not_grow_with_p():
    # t = 1: one exponent set and one column, whatever p is
    tracemalloc.start()
    try:
        rows = conjecture_table(100003, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.r, r.count_all, r.count_c1) for r in rows] == [(0, 100002**2, 100002**2)]
    assert peak < 256 * 2**10


def test_passes_bound_is_exact_at_gamma_half():
    def rec(r, c1, tot):
        return ExperimentRecord(
            p=7, t=3, r=r, count_all=0, count_c1=c1, ratio=c1 / tot,
            rhs=(1.0 / factorial(r)) ** 0.5, gamma=0.5, max_R=r,
            total_all=tot, total_c1=tot,
        )

    # 7^2 * 2! = 98 <= 100 but 8^2 * 2! = 128 > 100
    assert rec(2, 7, 10).passes_bound()
    assert not rec(2, 8, 10).passes_bound()
    # r = 0 rows always pass: ratio <= 1 = rhs
    assert rec(0, 10, 10).passes_bound()


def test_passes_bound_other_gamma():
    from dataclasses import replace

    r = ExperimentRecord(
        p=7, t=3, r=2, count_all=0, count_c1=1, ratio=0.5,
        rhs=0.5, gamma=1.0, max_R=2, total_all=2, total_c1=2,
    )
    assert r.passes_bound()
    assert not replace(r, ratio=0.6).passes_bound()


def test_work_estimate_and_budget():
    assert estimate_enumeration_work(7, 3) == 4 * 36 * 3
    with pytest.raises(BudgetExceeded):
        conjecture_table(7, 3, budget=100)
    with pytest.raises(BudgetExceeded):
        compute_max_R(7, 3, budget=100)
    # exactly at the estimate is allowed
    assert len(conjecture_table(7, 3, budget=432)) == 4


def test_drivers_refuse_fields_above_the_scan_ceiling_before_any_orbit(monkeypatch):
    # p - 1 > 2**22: the kernels' log tables cannot be built, and walking
    # the orbits first took seconds (t = 1) to minutes (t = 2)
    p = 15485863

    def no_walk(n, t):
        raise AssertionError("walked the orbits")

    monkeypatch.setattr(experiments, "_affine_reps", no_walk)
    for t in (1, 2, 3):
        with pytest.raises(FieldTooLarge):
            compute_max_R(p, t, budget=10**30)
    for t in (2, 3):
        with pytest.raises(FieldTooLarge):
            conjecture_table(p, t, budget=10**30)
        # the budget is still checked first
        with pytest.raises(BudgetExceeded):
            conjecture_table(p, t, budget=1)
    with pytest.raises(BudgetExceeded):
        compute_max_R(p, 1, budget=0)
    # at t = 1 the table needs no log table, so its walk starts
    with pytest.raises(AssertionError, match="walked the orbits"):
        conjecture_table(p, 1)


def test_drivers_refuse_an_orbit_walk_over_2_to_the_31_sets(monkeypatch):
    # the walk's bitmap has comb(p-2, t-1) entries: 4.3e10 at (1009, 5),
    # and at (101, 60) its int64 binomial table overflows (comb(99, 59) is
    # 8.2e27).  Both fit their budgets, so the check runs after the budget
    def no_walk(n, t):
        raise AssertionError("walked the orbits")

    monkeypatch.setattr(experiments, "_affine_reps", no_walk)
    for p, t, budget in [(1009, 5, 10**40), (101, 60, 10**150)]:
        assert estimate_enumeration_work(p, t) <= budget
        with pytest.raises(FieldTooLarge):
            compute_max_R(p, t, budget=budget)
        with pytest.raises(FieldTooLarge):
            conjecture_table(p, t, budget=budget)
        with pytest.raises(BudgetExceeded):
            compute_max_R(p, t, budget=1)
    # the ceiling is on comb(p-2, t-1), the sets that contain 0: at
    # (41, 12) that is 1.68e9 sets and the walk starts, though comb(p-1,
    # t-1) is 2.3e9; at (41, 13) it is 3.9e9
    for driver in (compute_max_R, conjecture_table):
        with pytest.raises(AssertionError, match="walked the orbits"):
            driver(41, 12, budget=estimate_enumeration_work(41, 12))
        with pytest.raises(FieldTooLarge):
            driver(41, 13, budget=estimate_enumeration_work(41, 13))


def test_invalid_t_rejected():
    with pytest.raises(InvalidT):
        compute_max_R(5, 5)
    with pytest.raises(InvalidT):
        conjecture_table(5, 0)
    with pytest.raises(InvalidT):
        estimate_enumeration_work(5, 9)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(PreconditionViolated):
            conjecture_table(5, 2, gamma=bad)


# -- record search ------------------------------------------------------------


def test_max_R_frozen_values():
    expected = {
        (5, 2): (1, "1 + x"),
        (7, 2): (1, "1 + x"),
        (7, 3): (2, "1 + x + x^2"),
        (11, 3): (3, "1 + x + 4*x^3"),
        (13, 3): (3, "1 + x + 11*x^3"),
        (31, 3): (4, "1 + x + 25*x^4"),
        (11, 4): (4, "1 + x + 3*x^2 + 8*x^4"),
        (13, 4): (4, "1 + x + 10*x^2 + x^4"),
    }
    for (p, t), (value, witness) in expected.items():
        res = compute_max_R(p, t)
        assert res.value == value
        assert format_tnomial(res.witness) == witness


def test_drivers_at_sizes_the_full_grid_could_not_afford():
    # the full-grid drivers took 20.7 s and 6.3 s for these on a 2-core
    # x86_64 machine, and the slice 0.35 s and 0.25 s
    res = compute_max_R(1009, 3, budget=10**15)
    assert (res.value, format_tnomial(res.witness)) == (8, "1 + x + 531*x^434")
    rows = conjecture_table(61, 4, budget=10**15)
    assert (rows[0].max_R, rows[0].total_c1) == (8, 5978352247200)
    assert rows[0].total_all == comb(60, 4) * 60**4


def test_least_image_is_the_least_column_of_the_dilation_orbit():
    # for each grid column c, its images under the d dilations that keep
    # the pivot coefficient are grid columns K; the least image of K must
    # be the least column, in full-grid order, of c's orbit under all
    # p-1 dilations.  (0, 4, 5) at p = 13 pivots on 5, (0, 4, 8) on 4 with
    # d = 4, and (0, 4, 6, 9) on 9 with d = 3
    for p, exps in [(7, (0, 2, 3)), (13, (0, 4, 5)), (13, (0, 4, 8)), (13, (0, 4, 6, 9))]:
        field = make_prime_field(p)
        n = p - 1
        log = log_tables(field).log
        inc = _root_incidences(field, exps)
        for c in range(len(inc.valid)):
            coeffs = dict(_slice_poly(field, inc, c).terms)
            orbit = [
                {a: coeffs[a] * pow(field.g, s * a, p) % p for a in exps} for s in range(n)
            ]
            least = min(_column_of(f, exps[1:], n, 0) for f in orbit)
            # lambda = g**(k*weight) has lambda**a = 1 for the pivot a
            kept = orbit[:: inc.weight]
            grid = [_column_of(f, inc.exps[2:], n, int(log[f[inc.exps[1]]])) for f in kept]
            assert _least_image(field, exps, inc.exps, inc.weight, np.array(grid)) == least, (p, c)


def _column_of(coeffs, exps, n, top):
    """The column index with digits c_a - 1 base n for a in exps, the
    first highest, below a top digit."""
    for a in exps:
        top = top * n + coeffs[a] - 1
    return top


def test_max_R_witness_is_admissible():
    for p, t in [(7, 3), (11, 3), (11, 4)]:
        res = compute_max_R(p, t)
        assert res.witness.t == t
        assert compute_C(res.witness) <= 1
        assert count_roots_bruteforce(res.witness) == res.value


def test_max_R_matches_direct_search():
    for p, t in [(5, 2), (7, 3)]:
        best = max(
            count_roots_bruteforce(f)
            for f in enumerate_tnomials(p, t)
            if compute_C(f) <= 1
        )
        assert compute_max_R(p, t).value == best


def test_max_R_degenerate_term_counts():
    # monomials have no nonzero roots; admissible binomials never have
    # more than one (a binomial root set is a full coset)
    for p in (5, 7):
        assert compute_max_R(p, 1).value == 0
    for p in (3, 5, 7, 13):
        assert compute_max_R(p, 2).value == 1


# -- random sampling ----------------------------------------------------------


def _exhaustive_vanishing_count_q5():
    """All 624 nonzero coefficient vectors over F_5, checked directly.

    A vanishing coset of any size > 1 contains vanishing sub-cosets of
    prime size, so C(f) > 1 is exactly the sampler's hit condition.
    """
    field = make_prime_field(5)
    hits = 0
    total = 0
    for coeffs in product(range(5), repeat=4):
        if not any(coeffs):
            continue
        total += 1
        f = build(field, [(a, c) for a, c in enumerate(coeffs) if c])
        if compute_C(f) > 1:
            hits += 1
    return hits, total


def test_vanishing_sampler_against_exhaustive_q5():
    hits, total = _exhaustive_vanishing_count_q5()
    assert (hits, total) == (48, 624)
    exact = hits / total
    est = sample_vanishing_proportion(make_prime_field(5), 3000, seed=1)
    sigma = math.sqrt(exact * (1 - exact) / 3000)
    assert abs(est.estimate - exact) <= 5 * sigma
    assert est.bound == 0.2  # 1/5, no odd primes divide 4
    assert exact <= est.bound


def test_vanishing_sampler_bound_and_determinism():
    field = make_prime_field(7)
    a = sample_vanishing_proportion(field, 500, seed=9)
    b = sample_vanishing_proportion(field, 500, seed=9)
    assert a == b
    assert a.bound == 1 / 7 + 7.0**-2  # odd prime 3 divides 6
    assert 0.0 <= a.estimate <= 1.0


def test_vanishing_sampler_extension_field():
    F9 = make_extension_field(3, 2)
    est = sample_vanishing_proportion(F9, 60, seed=4)
    assert est.bound == 1 / 9  # 8 has no odd prime divisors
    assert 0.0 <= est.estimate <= 1.0
    assert est == sample_vanishing_proportion(F9, 60, seed=4)


def test_sampled_counts_frozen_over_f4():
    # 38 of the first 3000 rows over F_4 are all zero, so this pins the redraw
    hist = _sampled_counts(make_extension_field(2, 2), 3000, 0, (1,))
    assert hist == {0: 1304, 1: 1293, 2: 403}


def test_vanishing_sampler_validation():
    field = make_prime_field(7)
    for bad in (0, -3, True, 2.5):
        with pytest.raises(InvalidSampleCount):
            sample_vanishing_proportion(field, bad)
    for bad in (-1, True, 1.5):
        with pytest.raises(PreconditionViolated):
            sample_vanishing_proportion(field, 10, seed=bad)
    with pytest.raises(FieldTooLarge):
        sample_vanishing_proportion(make_prime_field(4099), 10)


def test_root_distribution_sample_frozen_shape():
    hist = root_distribution_sample(7, 400, seed=3)
    assert sum(hist.values()) == 400
    assert all(0 <= r <= 6 for r in hist)
    assert hist == root_distribution_sample(7, 400, seed=3)
    # evaluations of a uniform coefficient vector are uniform, so R is
    # essentially Binomial(6, 1/7): the sample mean stays near 6/7
    mean = sum(r * c for r, c in hist.items()) / 400
    assert abs(mean - 6 / 7) < 0.25


def _root_mask_rows(field, rows):
    """Zero mask of dense label rows at every unit by the log-domain root
    mask, one batch per pattern of nonzero coefficients."""
    log = log_tables(field).log
    zero = np.empty(rows.shape, dtype=bool)
    support = rows > 0
    for pattern in np.unique(support, axis=0):
        same = (support == pattern).all(axis=1)
        exps = np.flatnonzero(pattern)
        zero[same] = root_mask(field, exps, log[rows[same][:, exps]])
    return zero


def test_root_distribution_sample_matches_root_mask():
    # an independent count: the same rows, drawn by one `_nonzero_rows`
    # call where the sampler makes one per block of rows, evaluated by the
    # log-domain root mask instead of a matmul.  F_4 and F_3 span blocks of
    # 10922 and 16384 rows, with all-zero rows (1.6% and 11%) redrawn in each
    cases = [
        (make_prime_field(7), 400, 3),
        (make_prime_field(101), 500, 0),
        (make_prime_field(257), 300, 2),  # three blocks of 128 rows or fewer
        (make_extension_field(2, 2), 30000, 0),
        (make_prime_field(3), 50000, 5),
    ]
    for field, samples, seed in cases:
        rows = _nonzero_rows(np.random.default_rng(seed), samples, field.q, field.q - 1)
        R = _root_mask_rows(field, rows).sum(axis=1)
        expected = {int(r): int(c) for r, c in zip(*np.unique(R, return_counts=True))}
        assert _sampled_counts(field, samples, seed, (1,)) == expected, field.q
        if field.k == 1:
            assert root_distribution_sample(field.p, samples, seed=seed) == expected, field.q


def test_sampled_counts_do_not_depend_on_the_block_size(monkeypatch):
    # at _SUB_BLOCK = 100 the blocks hold 16 rows at F_7 and 6 at F_9,
    # and neither divides 1001 samples
    cases = [(make_prime_field(7), (1, 2, 3)), (make_extension_field(3, 2), (1, 2))]
    expected = [_sampled_counts(F, 1001, 3, ells) for F, ells in cases]
    takes = []

    def spy(rng, take, q, n):
        takes.append(take)
        return _nonzero_rows(rng, take, q, n)

    monkeypatch.setattr(experiments, "_SUB_BLOCK", 100)
    monkeypatch.setattr(experiments, "_nonzero_rows", spy)
    assert [_sampled_counts(F, 1001, 3, ells) for F, ells in cases] == expected
    # blocks of 100 // (k*n) rows, the last one short
    assert takes == [16] * 62 + [9] + [6] * 166 + [5]


def test_sampler_memory_does_not_grow_with_the_samples():
    # 2050 rows over F_4093 take 67 MB as one int64 draw; the blocks of
    # 8 rows and the four working buffers take about 1 MiB
    tracemalloc.start()
    try:
        sample_vanishing_proportion(make_prime_field(4093), 2050)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_root_distribution_sample_validation():
    with pytest.raises(InvalidSampleCount):
        root_distribution_sample(7, 0)
    with pytest.raises(PreconditionViolated):
        root_distribution_sample(7, 10, seed=-1)
    with pytest.raises(FieldTooLarge):
        root_distribution_sample(4099, 10)


def test_float64_kernels_refuse_inexact_fields(monkeypatch):
    # (p-1)**2 alone is close to 2**62 here, so the samplers' float64
    # transform must raise before it builds anything
    big = make_prime_field(2**31 - 1)
    monkeypatch.setattr(experiments, "SAMPLING_FIELD_LIMIT", 2**31)

    def no_draw(*args):  # one (1, 2**31 - 2) int64 row is 17 GB
        raise AssertionError("drew coefficients before the exactness check")

    monkeypatch.setattr(experiments, "_nonzero_rows", no_draw)
    with pytest.raises(InternalInvariantError):
        sample_vanishing_proportion(big, 1)
    with pytest.raises(InternalInvariantError):
        root_distribution_sample(2**31 - 1, 1)
