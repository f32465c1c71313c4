"""Enumeration experiments over prime fields, and sampling over any field.

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

The drivers `compute_max_R` and `conjecture_table` go one step further
and run their kernels once per orbit of the affine group a -> u*a + s
mod p-1, gcd(u, p-1) = 1.  The monomial change of variables x -> x**u
permutes the units and maps every coset to a coset of the same size, so
R and C are invariant; on each exponent set it permutes the coefficient
columns (with the lowest coefficient renormalized to 1), so histograms
and maxima carry over with the orbit size as weight.  The representative
of each affine orbit is its first set containing 0 in lexicographic order,
which keeps the `max-r` witness the one a translation-only walk finds.

One kernel, `_vanishing_counts`, counts the cosets {x : x**l = beta} on
which each coefficient column vanishes, on F_p and F_{p^k}.  Over the
primes l | q-1 a nonzero count means C > 1 (`max-r`, `conjecture`,
`sample-c2`); at l = 1 the cosets are points and the count is R (`root-dist`).

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
from math import comb, exp, factorial, gcd, isfinite, lgamma
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
from .params import pairs_up
from .poly import TNomial, build, log_tables

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
    # combinations() copies its pool, which a monomial does not need
    for rest in combinations(range(1, n) if t > 1 else (), t - 1):
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


def _affine_reps(n: int, t: int) -> list:
    """One exponent set per orbit of a -> u*a + s mod n, gcd(u, n) = 1,
    with the orbit size as weight.

    The sets containing 0 are walked once in lexicographic order; an
    orbit's members among them are sorted(u*(x - a) mod n for x in A) for
    units u and a in A.  Its first member, the representative, is minimal
    among its translates, so it leads the orbit in `_orbit_reps` order.
    Each point lies in as many orbit sets as 0, so the orbit has
    |members| * n / t sets.
    """
    seen: set = set()
    reps = []
    for rest in combinations(range(1, n) if t > 1 else (), t - 1):  # no pool at t = 1
        A = (0,) + rest
        if A in seen:
            continue
        members = {
            tuple(sorted(u * (x - a) % n for x in A))
            for u in range(n)
            if gcd(u, n) == 1  # u = 0 when n == 1
            for a in A
        }
        seen |= members
        reps.append((A, len(members) * n // t))
    if sum(w for _, w in reps) != comb(n, t):
        raise InternalInvariantError(
            f"affine orbit weights for n={n}, t={t} do not sum to comb(n, t)"
        )
    return reps


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
    c_i in [1, p), with c_t varying fastest.  Shape (t, (p-1)**(t-1)),
    read-only: the cache hands the same array to every caller."""
    n = p - 1
    m = n ** (t - 1)
    C = np.empty((t, m), dtype=np.int64)
    C[0] = 1
    cols = np.arange(m, dtype=np.int64)
    for i in range(t - 1, 0, -1):
        C[i] = cols % n + 1
        cols //= n
    C.setflags(write=False)
    return C


def _poly_from_column(field: FieldSpec, exps: tuple, col: int) -> TNomial:
    return build(field, zip(exps, _coeff_matrix(field.p, len(exps))[:, col].tolist()))


def _root_count_vector(field: FieldSpec, exps: tuple) -> np.ndarray:
    """R(f) for every scalar-normalized coefficient column over the given
    exponent set, by incidence counting.

    For each unit x = g**j and each prefix (c_2, ..., c_{t-1}) there is
    exactly one c_t with f(x) = 0, namely -(1 + sum c_i x**a_i) / x**a_t,
    admissible when nonzero.  Grid point F is column F of `_coeff_matrix`:
    its rows 1 .. t-2 hold the prefix and its last row j + 1, so the
    incidence lands in column F - j + c_t - 1.  One bincount per chunk
    accumulates the incidences.
    """
    p = field.p
    n = p - 1
    t = len(exps)
    if t == 1:
        return np.zeros(1, dtype=np.int64)
    grid = _coeff_matrix(p, t)
    m = grid.shape[1]  # the (x, prefix) grid has the size of the column space
    pw = log_tables(field).exp
    j_idx = np.arange(n, dtype=np.int64)
    xa = [pw[(a * j_idx) % n] for a in exps[1:-1]]
    inv_xat = pw[(-exps[-1] * j_idx) % n]
    counts = np.zeros(m, dtype=np.int64)
    for start in range(0, m, _CHUNK):
        block = grid[:, start : start + _CHUNK]
        j = block[-1] - 1
        s = np.ones(block.shape[1], dtype=np.int64)
        for c, x in zip(block[1:-1], xa):
            s = (s + c * x[j]) % p
        ct = (p - s) % p * inv_xat[j] % p
        valid = ct != 0
        col = np.arange(start, start + len(j), dtype=np.int64) - j + ct - 1
        counts += np.bincount(col[valid], minlength=m)
    return counts


def _pairing_primes(exps, n: int) -> list:
    """Primes l | n for which every exponent has a partner mod l; only
    these can carry a vanishing coset."""
    return [ell for ell in prime_divisors(n) if pairs_up(exps, ell)]


def _blocks(total: int, width: int) -> Iterator[int]:
    """Sizes of consecutive blocks of total items of width entries each,
    at most 2**23 entries per block (one item when an item is wider)."""
    block = max(1, min(total, (1 << 23) // width))
    for start in range(0, total, block):
        yield min(block, total - start)


def _digits(labels: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Base-p digits of element labels, least significant first, on a new
    last axis of length k; on F_p a label is its own digit, as a view."""
    if field.k == 1:
        return labels[..., None]
    return labels[..., None] // field.p ** np.arange(field.k, dtype=np.int64) % field.p


def _vanishing_counts(field: FieldSpec, exps, labels: np.ndarray, ells) -> np.ndarray:
    """For each coefficient column, the number of cosets {x : x**l = beta},
    l in ells (each l | q-1), on which that polynomial vanishes.

    labels is a C-contiguous (t, m) array; column j holds the coefficient
    labels of one polynomial f = sum_i c_i x**a_i (on F_p the values c_i).
    f vanishes on x**l = beta = g**(l*v) iff all residue class sums
    sum_{a_i = r mod l} c_i beta**u_i, u_i = a_i div l, are zero: over
    `_pairing_primes` a count is nonzero iff C(f) > 1, and at l = 1 the
    count is R(f).  A coefficient of F_{p^k} is its k base-p digits, so a
    class sum is one exact float64 matmul with W[(v,e),(i,d)] = digit e of
    beta**u_i * y**d.  beta is walked in blocks, so that W, the sums and
    the vanishing flags hold at most 2**23 entries each.
    """
    p, k, n = field.p, field.k, field.q - 1
    t, m = labels.shape
    _require_exact_float64(t * k, p)
    counts = np.zeros(m, dtype=np.int64)
    tables = log_tables(field)
    # y**d is the element with label p**d
    log_y = tables.log[p ** np.arange(k)].astype(np.int64)
    digits = _digits(labels, field).transpose(0, 2, 1)  # (t, k, m)
    for ell in ells:
        classes: dict[int, list] = {}
        for i, a in enumerate(exps):
            classes.setdefault(a % ell, []).append(i)
        widest = max(map(len, classes.values())) * k
        start = 0
        for size in _blocks(n // ell, k * max(widest, m)):
            v = np.arange(start, start + size, dtype=np.int64)
            start += size
            van = np.ones((size, m), dtype=bool)
            last = None
            for idxs in classes.values():
                us = [exps[i] // ell for i in idxs]
                if us != last:  # when sampling, every class has the same u_i
                    e = (np.multiply.outer(ell * v, us)[..., None] + log_y) % n
                    W = _digits(tables.exp[e], field).transpose(0, 3, 1, 2)
                    W, last = W.reshape(size * k, -1).astype(np.float64), us
                sums = W @ digits[idxs].reshape(len(idxs) * k, m).astype(np.float64)
                # integers below 2**53, so sums / p is whole iff p | sums
                sums /= p
                van &= (sums == np.floor(sums)).reshape(size, k, m).all(axis=1)
            # `_blocks` gives at most 2**23 rows of beta, so int32 column sums cannot overflow
            counts += van.sum(axis=0, dtype=np.int32)
    return counts


# -- enumeration drivers ------------------------------------------------------


def estimate_enumeration_work(p: int, t: int) -> int:
    """Rough multiplication count for one weighted enumeration of (p, t):
    translation-orbit representatives times kernel grid times terms.

    The drivers run one kernel per affine orbit, of which there are at
    most as many as translation orbits, so budgets are checked against
    this upper bound."""
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
        raise PreconditionViolated(f"mode must be one of {MODES}, got {mode!r}")
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

    One exponent set per affine orbit is scanned.  Sets whose kernel
    maximum cannot beat the running best are skipped; for the rest the
    vanishing-coset counts filter out C > 1 columns.  Whether a set has
    a C <= 1 column with R = V is an orbit property, and each orbit's
    representative is its first member in translation order, so the
    first representative to reach the record is the first translation
    representative to reach it: the witness is the one a walk over all
    translation orbits returns.  It is re-checked with the object-level
    C computation.
    """
    field = make_prime_field(p)
    _check_budget(p, t, budget)
    n = p - 1
    best = -1
    best_at = None
    for exps, _weight in _affine_reps(n, t):
        R = _root_count_vector(field, exps)
        if int(R.max()) <= best:
            continue
        cand = np.flatnonzero(R > best)
        ells = _pairing_primes(exps, n)
        cand = cand[_vanishing_counts(field, exps, _coeff_matrix(p, t)[:, cand], ells) == 0]
        if len(cand):
            # first argmax = smallest admissible column: deterministic
            col = int(cand[np.argmax(R[cand])])
            best, best_at = int(R[col]), (exps, col)
    if best_at is None:
        raise InternalInvariantError(f"no admissible polynomial for p={p}, t={t}")
    witness = _poly_from_column(field, *best_at)
    if compute_C(witness) > 1:
        raise InternalInvariantError(
            f"vanishing-coset counts disagree with compute_C on {witness}"
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
    # Python ints: the weighted totals pass 2**63 from about p = 70000
    counts_all: Counter = Counter()
    counts_c1: Counter = Counter()
    for exps, weight in _affine_reps(n, t):
        R = _root_count_vector(field, exps)
        R_c1 = R
        ells = _pairing_primes(exps, n)
        if ells:
            # only columns with at least min(ells) roots can vanish on a coset
            cols = np.flatnonzero(R >= min(ells))
            vanishing = _vanishing_counts(field, exps, _coeff_matrix(p, t)[:, cols], ells) > 0
            R_c1 = np.delete(R, cols[vanishing])
        for counts, values in ((counts_all, R), (counts_c1, R_c1)):
            hist = np.bincount(values)
            for r in np.flatnonzero(hist):
                counts[int(r)] += int(hist[r]) * n * weight
    total_all = sum(counts_all.values())
    total_c1 = sum(counts_c1.values())
    if total_c1 <= 0:
        raise InternalInvariantError(f"empty C<=1 family for p={p}, t={t}")
    max_r = max(counts_c1)
    records = []
    for r in sorted(counts_all):  # every r of the C <= 1 part occurs here too
        c1 = counts_c1[r]
        records.append(
            ExperimentRecord(
                p=p,
                t=t,
                r=r,
                count_all=counts_all[r],
                count_c1=c1,
                ratio=c1 / total_c1,
                rhs=_rhs(r, gamma),
                gamma=gamma,
                max_R=max_r,
                total_all=total_all,
                total_c1=total_c1,
            )
        )
    return records


def _rhs(r: int, gamma: float) -> float:
    """(1/r!)**gamma, through logarithms once r! is past the float range
    (171! > 2**1024); PreconditionViolated when it overflows a float."""
    try:
        return (1.0 / factorial(r)) ** gamma if r <= 170 else exp(-gamma * lgamma(r + 1))
    except OverflowError:
        raise PreconditionViolated(
            f"(1/{r}!)**gamma is not a finite float for gamma = {gamma!r}"
        ) from None


# -- random sampling ----------------------------------------------------------


def _nonzero_rows(rng, take: int, p: int, n: int) -> np.ndarray:
    """take uniform coefficient rows over F_p; all-zero rows are redrawn."""
    coefs = rng.integers(0, p, size=(take, n), dtype=np.int64)
    while True:
        dead = np.flatnonzero(~coefs.any(axis=1))
        if len(dead) == 0:
            return coefs
        coefs[dead] = rng.integers(0, p, size=(len(dead), n), dtype=np.int64)


def _nonzero_label_rows(rng, take: int, q: int, n: int) -> np.ndarray:
    """take uniform element-label rows over F_q, drawn one row at a time;
    an all-zero row is redrawn at once."""
    labels = np.empty((take, n), dtype=np.int64)
    for row in labels:
        while True:
            row[:] = rng.integers(0, q, size=n)
            if row.any():
                break
    return labels


def _sampled_counts(field: FieldSpec, samples: int, seed: int, ells) -> Counter:
    """Histogram {count: occurrences} of `_vanishing_counts` over ells for
    samples uniform nonzero polynomials of degree < q-1 drawn from
    default_rng(seed); every check runs before the first draw."""
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        raise InvalidSampleCount(f"samples must be a positive int, got {samples!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise PreconditionViolated(f"seed must be a non-negative int, got {seed!r}")
    q, n = field.q, field.q - 1
    if q > SAMPLING_FIELD_LIMIT:
        raise FieldTooLarge(f"sampling ceiling is q <= {SAMPLING_FIELD_LIMIT}")
    _require_exact_float64(n * field.k, field.p)
    rng = np.random.default_rng(seed)
    draw = _nonzero_rows if field.k == 1 else _nonzero_label_rows
    hist: Counter = Counter()
    for take in _blocks(samples, n * field.k):
        labels = np.ascontiguousarray(draw(rng, take, q, n).T)
        counts = _vanishing_counts(field, range(n), labels, ells)
        for c, occurrences in zip(*np.unique(counts, return_counts=True)):
            hist[int(c)] += int(occurrences)
    return hist


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
    draws are rejected and redrawn.  A draw is a hit when it vanishes on
    at least one coset of prime size.
    """
    q, n = field.q, field.q - 1
    ells = [ell for ell, _ in field.group_order_factors]
    # `_pairing_primes(range(n), n)` without a pass: each class has n/l exponents
    hist = _sampled_counts(field, samples, seed, [ell for ell in ells if ell < n])
    bound = 1.0 / q + sum(float(q) ** (1 - ell) for ell in ells if ell > 2)
    return VanishingEstimate(estimate=(samples - hist[0]) / samples, bound=bound)


def root_distribution_sample(p: int, samples: int, seed: int = 0) -> dict:
    """Histogram {r: occurrences} of R over uniformly random nonzero
    polynomials of degree < p-1 (prime field): R counts the cosets of
    size 1, the points, on which a polynomial vanishes."""
    hist = _sampled_counts(make_prime_field(p), samples, seed, (1,))
    return dict(sorted(hist.items()))
