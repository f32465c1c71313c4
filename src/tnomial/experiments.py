"""Enumeration and sampling experiments over prime fields.

The driving quantities: R(f) = number of distinct nonzero roots, and
C(f) = largest vanishing-coset size.  The experiments count, over the
family F(p,t) of t-term polynomials with distinct exponents below p-1
and nonzero coefficients, how R distributes, how it restricts to the
subfamily with C <= 1, and what the record value of R on that subfamily
is.

Three enumeration granularities produce identical weighted counts:

  full           every polynomial, weight 1
  scalar_reduced lowest-exponent coefficient fixed to 1; weight p-1,
                 since R and C are invariant under scaling
  orbit_reduced  additionally one exponent set per translation orbit
                 mod p-1 (multiplying f by a power of x permutes no
                 roots); weight (p-1) * orbit size

The counting kernels exploit the scalar normalization: with c_1 = 1 and
exponents fixed, walking all (x, c_2, ..., c_{t-1}) and solving for the
unique c_t that makes x a root visits every (polynomial, root) incidence
exactly once, at cost (p-1)**(t-1) instead of (p-1)**t.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, isfinite
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    BudgetExceeded,
    FieldTooLarge,
    InternalInvariantError,
    InvalidSampleCount,
    InvalidT,
    PreconditionViolated,
)
from .cosets import compute_C
from .field import FieldSpec, make_prime_field
from .numtheory import divisors, euler_phi, prime_divisors
from .poly import TNomial, build, log_tables, root_mask

MODES = ("full", "scalar_reduced", "orbit_reduced")
DEFAULT_WORK_BUDGET = 10**10
SAMPLING_FIELD_LIMIT = 4096

_CHUNK = 1 << 20


def _require_exact_float64(terms: int, p: int) -> None:
    """A float64 sum of `terms` products of residues mod p is exact only
    while it stays below 2**53; the matmul kernels check this first."""
    if terms * (p - 1) ** 2 >= 2**53:
        raise InternalInvariantError(
            f"float64 sums of {terms} products mod {p} exceed 2**53 and would round"
        )


def _validate_t(p: int, t: int) -> None:
    if not 1 <= t <= p - 1:
        raise InvalidT(f"term count t={t} must lie in [1, {p - 1}] for p={p}")


# -- exponent-set orbits under translation mod n ----------------------------


def _orbit_reps(n: int, t: int) -> Iterator[tuple]:
    """Canonical exponent sets (containing 0, minimal among translates)
    with their orbit sizes under a -> a + s mod n."""
    for rest in combinations(range(1, n), t - 1):
        A = (0,) + rest
        stab = 0
        minimal = True
        for a in A:
            tr = tuple(sorted((x - a) % n for x in A))
            if tr < A:
                minimal = False
                break
            if tr == A:
                stab += 1
        if minimal:
            yield A, n // stab


def count_orbit_reps(n: int, t: int) -> int:
    """Number of translation orbits of t-subsets of Z_n (Burnside)."""
    total = 0
    for g in divisors(n):
        L = n // g
        if t % L == 0:
            total += euler_phi(L) * comb(g, t // L)
    return total // n


# -- vectorized per-exponent-set kernels -------------------------------------


@lru_cache(maxsize=4)
def _coeff_matrix(p: int, t: int) -> np.ndarray:
    """Columns = scalar-normalized coefficient tuples (1, c_2, ..., c_t),
    c_i in [1, p), with c_t varying fastest.  Shape (t, (p-1)**(t-1)).
    Treat as read-only."""
    n = p - 1
    m = n ** (t - 1)
    C = np.empty((t, m), dtype=np.int64)
    C[0] = 1
    cols = np.arange(m, dtype=np.int64)
    for i in range(t - 1, 0, -1):
        C[i] = cols % n + 1
        cols //= n
    return C


def _decode_column(p: int, t: int, col: int) -> tuple:
    n = p - 1
    digits = []
    for _ in range(t - 1):
        digits.append(col % n)
        col //= n
    return (1,) + tuple(d + 1 for d in reversed(digits))


def _poly_from_column(field: FieldSpec, exps: tuple, col: int) -> TNomial:
    coeffs = _decode_column(field.p, len(exps), col)
    return build(field, zip(exps, coeffs))


def _root_count_vector(field: FieldSpec, exps: tuple) -> np.ndarray:
    """R(f) for every scalar-normalized coefficient column over the given
    exponent set, by incidence counting.

    For each unit x = g**j and each prefix (c_2, ..., c_{t-1}) there is
    exactly one c_t with f(x) = 0, namely -(1 + sum c_i x**a_i) / x**a_t,
    admissible when nonzero.  One bincount accumulates all incidences.
    """
    p = field.p
    n = p - 1
    t = len(exps)
    m = n ** (t - 1)
    if t == 1:
        return np.zeros(1, dtype=np.int64)
    pw = log_tables(field).exp
    j_idx = np.arange(n, dtype=np.int64)
    xa = {a: pw[(a * j_idx) % n] for a in exps[1:]}
    inv_xat = pw[(-exps[-1] * j_idx) % n]
    counts = np.zeros(m, dtype=np.int64)
    total = m  # (x, prefix) grid has the same size as the column space
    for start in range(0, total, _CHUNK):
        F = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        j = F % n
        s = np.ones(len(F), dtype=np.int64)
        rem = F // n
        for i in range(t - 2, 0, -1):  # digits c_{t-1} down to c_2
            c = rem % n + 1
            rem //= n
            s = (s + c * xa[exps[i]][j]) % p
        ct = (p - s) % p * inv_xat[j] % p
        valid = ct != 0
        col = (F // n) * n + ct - 1
        counts += np.bincount(col[valid], minlength=m)
    return counts


def _pairing_primes(exps: tuple, n: int) -> list:
    """Primes l | n for which every exponent has a partner mod l; only
    these can carry a vanishing coset."""
    out = []
    for ell in prime_divisors(n):
        classes = Counter(a % ell for a in exps)
        if all(v >= 2 for v in classes.values()):
            out.append(ell)
    return out


def _coset_mask(field: FieldSpec, exps: tuple, cols=None) -> np.ndarray:
    """Boolean vector over coefficient columns: True where C(f) > 1.

    C(f) > 1 iff f vanishes on a coset of prime size l | p-1, which
    happens iff for some beta in the order-(n/l) subgroup all residue
    class sums sum_{a_i = r mod l} c_i beta**(a_i div l) are zero.
    One exact float64 matmul per (l, class), over all columns at once
    or over the subset given by cols.
    """
    p = field.p
    n = p - 1
    t = len(exps)
    _require_exact_float64(t, p)
    C = _coeff_matrix(p, t)
    if cols is not None:
        C = C[:, cols]
    m = C.shape[1]
    ells = _pairing_primes(exps, n)
    mask = np.zeros(m, dtype=bool)
    if not ells:
        return mask
    pw = log_tables(field).exp
    for ell in ells:
        s = n // ell
        v = np.arange(s, dtype=np.int64)
        van = np.ones((s, m), dtype=bool)
        classes: dict[int, list] = {}
        for i, a in enumerate(exps):
            classes.setdefault(a % ell, []).append(i)
        for idxs in classes.values():
            us = np.array([exps[i] // ell for i in idxs], dtype=np.int64)
            W = pw[(ell * v[:, None] * us[None, :]) % n].astype(np.float64)
            rows = C[idxs].astype(np.float64)
            sums = np.rint(W @ rows).astype(np.int64) % p
            van &= sums == 0
        mask |= van.any(axis=0)
    return mask


# -- enumeration drivers ------------------------------------------------------


def estimate_enumeration_work(p: int, t: int) -> int:
    """Rough multiplication count for one weighted enumeration of (p, t):
    orbit representatives times kernel grid times terms."""
    _validate_t(p, t)
    n = p - 1
    return count_orbit_reps(n, t) * n ** (t - 1) * t


def _check_budget(p: int, t: int, budget: int) -> None:
    """BudgetExceeded when one enumeration of (p, t) would exceed budget
    (so a budget of 0 refuses every enumeration); a negative budget is
    bad input."""
    work = estimate_enumeration_work(p, t)
    if budget < 0:
        raise PreconditionViolated(f"budget must be non-negative, got {budget}")
    if work > budget:
        raise BudgetExceeded(f"estimated work {work} exceeds budget {budget}")


def enumerate_tnomials(p: int, t: int, mode: str = "full") -> Iterator[tuple]:
    """Yield (polynomial, weight) pairs covering the family F(p, t) of
    t-term polynomials with exponents below p-1 and nonzero coefficients.

    Weighted counts of any scalar- and translation-invariant statistic
    (R, C, the parameters) agree across modes; see the module docstring.
    The iterator is lazy and unbudgeted.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    field = make_prime_field(p)
    _validate_t(p, t)
    n = p - 1
    if mode == "full":
        for exps in combinations(range(n), t):
            for coeffs in product(range(1, p), repeat=t):
                yield build(field, zip(exps, coeffs)), 1
    elif mode == "scalar_reduced":
        for exps in combinations(range(n), t):
            for coeffs in product(range(1, p), repeat=t - 1):
                yield build(field, zip(exps, (1,) + coeffs)), n
    else:
        for exps, orbit in _orbit_reps(n, t):
            for coeffs in product(range(1, p), repeat=t - 1):
                yield build(field, zip(exps, (1,) + coeffs)), n * orbit


class MaxRResult(NamedTuple):
    value: int
    witness: TNomial


def compute_max_R(p: int, t: int, budget: int = DEFAULT_WORK_BUDGET) -> MaxRResult:
    """Maximum R(f) over the C(f) <= 1 subfamily of F(p, t), with a
    deterministic witness polynomial attaining it.

    Exponent sets whose kernel maximum cannot beat the running best are
    skipped; for the rest the vectorized coset mask filters out C > 1
    columns.  The returned witness is re-checked with the object-level
    C computation.
    """
    field = make_prime_field(p)
    _check_budget(p, t, budget)
    n = p - 1
    best = -1
    best_at = None
    for exps, _orbit in _orbit_reps(n, t):
        R = _root_count_vector(field, exps)
        top = int(R.max())
        if top <= best:
            continue
        if _pairing_primes(exps, n):
            cand = np.flatnonzero(R > best)
            cand = cand[~_coset_mask(field, exps, cand)]
            if len(cand) == 0:
                continue
            # first argmax = smallest admissible column: deterministic
            col = int(cand[np.argmax(R[cand])])
            best, best_at = int(R[col]), (exps, col)
        else:
            best, best_at = top, (exps, int(np.argmax(R)))
    if best_at is None:
        raise InternalInvariantError(f"no admissible polynomial for p={p}, t={t}")
    witness = _poly_from_column(field, *best_at)
    if compute_C(witness) > 1:
        raise InternalInvariantError(
            f"coset mask disagrees with compute_C on {witness}"
        )
    return MaxRResult(value=best, witness=witness)


@dataclass(frozen=True)
class ExperimentRecord:
    """One row of a root-count distribution table.

    count_all / count_c1: weighted sizes of F(p,t,r) and its C <= 1 part
    ratio: count_c1 / total_c1
    rhs: (1/r!)**gamma
    max_R: largest r with count_c1 > 0 (same in every row of a table)
    total_all / total_c1: weighted family sizes, for exact verdicts
    """

    p: int
    t: int
    r: int
    count_all: int
    count_c1: int
    ratio: float
    rhs: float
    gamma: float
    max_R: int
    total_all: int
    total_c1: int

    def passes_bound(self) -> bool:
        """ratio <= rhs; exact integer arithmetic at gamma = 1/2."""
        if self.gamma == 0.5:
            return self.count_c1**2 * factorial(self.r) <= self.total_c1**2
        return self.ratio <= self.rhs + 1e-9


def conjecture_table(
    p: int, t: int, gamma: float = 0.5, budget: int = DEFAULT_WORK_BUDGET
) -> list[ExperimentRecord]:
    """Full weighted distribution of R over F(p, t) and its C <= 1 part,
    one record per root count r that occurs.  gamma must be finite, and
    so must (1/r!)**gamma for every r that occurs."""
    if not isfinite(gamma):
        raise PreconditionViolated(f"gamma must be finite, got {gamma!r}")
    field = make_prime_field(p)
    _check_budget(p, t, budget)
    n = p - 1
    counts_all = np.zeros(n + 1, dtype=np.int64)
    counts_c1 = np.zeros(n + 1, dtype=np.int64)
    for exps, orbit in _orbit_reps(n, t):
        R = _root_count_vector(field, exps)
        w = n * orbit
        counts_all += np.bincount(R, minlength=n + 1) * w
        mask = _coset_mask(field, exps)
        counts_c1 += np.bincount(R[~mask], minlength=n + 1) * w
    total_all = int(counts_all.sum())
    total_c1 = int(counts_c1.sum())
    if total_c1 <= 0:
        raise InternalInvariantError(f"empty C<=1 family for p={p}, t={t}")
    occupied = np.flatnonzero(counts_c1)
    max_r = int(occupied[-1]) if len(occupied) else 0
    records = []
    for r in range(n + 1):
        ca, c1 = int(counts_all[r]), int(counts_c1[r])
        if ca == 0 and c1 == 0:
            continue
        base = 1.0 / factorial(r)  # only the power below depends on gamma
        try:
            rhs = base**gamma
        except OverflowError:
            raise PreconditionViolated(
                f"(1/{r}!)**gamma is not a finite float for gamma = {gamma!r}"
            ) from None
        records.append(
            ExperimentRecord(
                p=p,
                t=t,
                r=r,
                count_all=ca,
                count_c1=c1,
                ratio=c1 / total_c1,
                rhs=rhs,
                gamma=gamma,
                max_R=max_r,
                total_all=total_all,
                total_c1=total_c1,
            )
        )
    return records


# -- random sampling ----------------------------------------------------------


def _validate_sampling(samples, seed) -> None:
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        raise InvalidSampleCount(f"samples must be a positive int, got {samples!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise PreconditionViolated(f"seed must be a non-negative int, got {seed!r}")


def _blocks(samples: int, n: int) -> Iterator[int]:
    """Sizes of sample blocks holding at most 2**23 coefficients each."""
    block = max(1, min(samples, (1 << 23) // n))
    for start in range(0, samples, block):
        yield min(block, samples - start)


def _nonzero_rows(rng, take: int, p: int, n: int) -> np.ndarray:
    """take uniform coefficient rows over F_p; all-zero rows are redrawn."""
    coefs = rng.integers(0, p, size=(take, n), dtype=np.int64)
    while True:
        dead = np.flatnonzero(~coefs.any(axis=1))
        if len(dead) == 0:
            return coefs
        coefs[dead] = rng.integers(0, p, size=(len(dead), n), dtype=np.int64)


class VanishingEstimate(NamedTuple):
    estimate: float
    bound: float


def sample_vanishing_proportion(
    field: FieldSpec, samples: int, seed: int = 0
) -> VanishingEstimate:
    """Monte Carlo estimate of the proportion of nonzero polynomials of
    degree < q-1 that vanish on some coset of prime size.

    The bound is the analytic ceiling for that proportion,
    1/q + sum of q**(1-l) over odd primes l | q-1.  All-zero coefficient
    draws are rejected and redrawn.
    """
    _validate_sampling(samples, seed)
    q = field.q
    if q > SAMPLING_FIELD_LIMIT:
        raise FieldTooLarge(f"sampling ceiling is q <= {SAMPLING_FIELD_LIMIT}")
    ells = [ell for ell, _ in field.group_order_factors]
    bound = 1.0 / q + sum(float(q) ** (1 - ell) for ell in ells if ell > 2)
    rng = np.random.default_rng(seed)
    sample = _sample_vanishing_prime if field.k == 1 else _sample_vanishing_generic
    hits = sample(field, samples, rng, ells)
    return VanishingEstimate(estimate=hits / samples, bound=bound)


def _sample_vanishing_prime(field, samples, rng, ells) -> int:
    p = field.p
    n = p - 1
    _require_exact_float64(n, p)
    pw = log_tables(field).exp
    hits = 0
    for take in _blocks(samples, n):
        coefs = _nonzero_rows(rng, take, p, n)
        vanish = np.zeros(take, dtype=bool)
        for ell in ells:
            s = n // ell
            u = np.arange(s, dtype=np.int64)
            W = pw[np.multiply.outer(u, ell * u) % n].astype(np.float64)
            cr = coefs.reshape(take, s, ell).astype(np.float64)
            # sums[i, r, v] = sum_u c[i, u*ell + r] * beta_v**u
            sums = np.tensordot(cr, W, axes=([1], [1]))
            sums = np.rint(sums).astype(np.int64) % p
            vanish |= (sums == 0).all(axis=1).any(axis=1)
        hits += int(np.count_nonzero(vanish))
    return hits


def _sample_vanishing_generic(field, samples, rng, ells) -> int:
    n = field.q - 1
    log = log_tables(field).log
    hits = 0
    for take in _blocks(samples, n):
        labels = np.empty((take, n), dtype=np.int64)
        for row in labels:
            while True:
                row[:] = rng.integers(0, field.q, size=n)
                if row.any():
                    break
        # coefficient of x**j is the element with that label
        mask = root_mask(field, range(n), log[labels])
        vanish = np.zeros(take, dtype=bool)
        for ell in ells:
            vanish |= mask.reshape(take, ell, n // ell).all(axis=1).any(axis=1)
        hits += int(np.count_nonzero(vanish))
    return hits


def root_distribution_sample(p: int, samples: int, seed: int = 0) -> dict:
    """Histogram {r: occurrences} of R over uniformly random nonzero
    polynomials of degree < p-1 (prime field), by exact matmul batches."""
    _validate_sampling(samples, seed)
    field = make_prime_field(p)
    if p > SAMPLING_FIELD_LIMIT:
        raise FieldTooLarge(f"sampling ceiling is p <= {SAMPLING_FIELD_LIMIT}")
    n = p - 1
    _require_exact_float64(n, p)
    pw = log_tables(field).exp
    # Vf[j, i] = (g**j)**i; row j evaluates a coefficient vector at x = g**j
    j = np.arange(n, dtype=np.int64)
    Vf = pw[np.multiply.outer(j, j) % n].astype(np.float64)
    rng = np.random.default_rng(seed)
    hist: Counter = Counter()
    for take in _blocks(samples, n):
        coefs = _nonzero_rows(rng, take, p, n)
        vals = np.rint(coefs.astype(np.float64) @ Vf.T).astype(np.int64) % p
        R = np.count_nonzero(vals == 0, axis=1)
        for r, c in zip(*np.unique(R, return_counts=True)):
            hist[int(r)] += int(c)
    return dict(sorted(hist.items()))
