"""Enumeration experiments over prime fields, and sampling over any field.

The driving quantities: R(f) = number of distinct nonzero roots, and
C(f) = largest vanishing-coset size.  The experiments count, over the
family F(p,t) of t-term polynomials with distinct exponents below p-1
and nonzero coefficients, how R distributes, how it restricts to the
subfamily with C <= 1, and what the record value of R on that subfamily
is.

`enumerate_tnomials` yields every polynomial of the family, one at a
time: the brute-force reference the drivers are tested against.

The drivers `compute_max_R` and `conjecture_table` run their kernels
once per orbit of the affine group a -> u*a + s mod p-1,
gcd(u, p-1) = 1.  The monomial change of variables x -> x**u
permutes the units and maps every coset to a coset of the same size, so
R and C are invariant; on each exponent set it permutes the coefficient
columns (with the lowest coefficient renormalized to 1), so histograms
and maxima carry over with the orbit size as weight.  The representative
of each affine orbit is its first set containing 0 in lexicographic order,
which keeps the `max-r` witness the one a translation-only walk finds.

Both kinds of command count the cosets {x : x**l = beta} on which a
polynomial vanishes: over the primes l | q-1 a nonzero count means C > 1
(`max-r`, `conjecture`, `sample-c2`); at l = 1 the cosets are points and
the count is R (`root-dist`).  The enumeration drivers read both R and
C > 1 off one list of (column, root) incidences, `_root_incidences`: a
column vanishes on a coset of l units exactly when l of its roots share a
residue class.  The samplers evaluate each dense polynomial at every unit
of F_q by a two-stage Fourier transform over F_q (`_unit_zero_mask`) and
read the counts off its zero mask.  While the second stage's table is
of middling size, both stages are one small matmul per sample, which
OpenBLAS runs on the calling thread, not its thread pool.

The incidence kernel exploits two symmetries of the coefficients.  With
c_1 = 1 and exponents fixed, it walks a grid with one row per prefix
(c_2, ..., c_{t-1}) and one column per unit x, and solves at each point
for the unique c_t that makes x a root, so it visits every (polynomial,
root) incidence exactly once.  The dilation x -> lambda*x maps column
(1, c_2, ..., c_t) to (1, c_i * lambda**a_i) and keeps R and C, and every
dilation orbit meets the slice where one coefficient c_i is one of the
d = gcd(a_i, p-1) labels g**0, ..., g**(d-1) in the same share.  So for
t >= 3 the grid keeps only the rows of that slice, with a_i the nonzero
exponent of least d, and each of its columns stands for (p-1)/d columns:
cost d * (p-1)**(t-2) instead of (p-1)**t.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, exp, factorial, gcd, isfinite, lgamma, prod
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

DEFAULT_WORK_BUDGET = 10**10
SAMPLING_FIELD_LIMIT = 4096

_CHUNK = 1 << 20
_SUB_BLOCK = 1 << 15
# stage 2 of `_unit_zero_mask` is one matmul per sample while W2 has this
# many entries; BENCH_25.json holds the timings the range was set from
_PER_SAMPLE_W2 = (1 << 8, 1 << 13)


def _validate_t(p: int, t: int) -> None:
    if not 1 <= t <= p - 1:
        raise InvalidT(f"term count t={t} must lie in [1, {p - 1}] for p={p}")


# -- exponent-set orbits mod n -----------------------------------------------


def _affine_reps(n: int, t: int) -> list:
    """One exponent set per orbit of a -> u*a + s mod n, gcd(u, n) = 1,
    with the orbit size as weight.

    The sets (0, y_1 < ... < y_k), k = t-1, are the entries of a bitmap in
    lexicographic order, walked by argmax for the first unseen one.  Set
    y has rank C(n-1, k) - 1 - sum_i C(n-1-y_i, k+1-i), the colexicographic
    rank of the complements n-1-y_i, so a rank is a sum of k lookups and
    is inverted by k binary searches.  An orbit's members among the sets,
    the rows sorted(u*(x - a) mod n for x in A) of one (units x t) product
    per base point a in A, are marked seen.  The first member, the
    representative, is minimal among its translates, so it leads the orbit
    in lexicographic order.  The maps taking A to a member form a coset of
    A's stabilizer, so each member fills as many of the |units| * t rows
    as A does, and each point lies in as many orbit sets as 0: the orbit
    has |units| * n / (rows equal to A) sets.  At t = 1 the one set {0} is
    the orbit of n monomials.
    """
    if t == 1:
        return [((0,), n)]
    k = t - 1
    units = np.array([u for u in range(n) if gcd(u, n) == 1])
    binom = np.array([[comb(e, j) for e in range(n - 1)] for j in range(k + 1)], dtype=np.int64)
    last = comb(n - 1, k) - 1
    unseen = np.ones(last + 1, dtype=bool)
    reps = []
    code = 0
    while unseen[code]:
        rest, A = last - code, [0]
        for j in range(k, 0, -1):
            e = int(np.searchsorted(binom[j], rest, side="right")) - 1
            rest -= int(binom[j, e])
            A.append(n - 1 - e)
        A = np.array(A)
        rows = np.sort(units[:, None, None] * ((A - A[:, None]) % n) % n, axis=2)
        members = last - sum(binom[k - i][n - 1 - rows[..., i + 1]] for i in range(k))
        unseen[members] = False
        reps.append((tuple(A.tolist()), len(units) * n // int(np.count_nonzero(members == code))))
        code += int(np.argmax(unseen[code:]))
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


def _poly_from_column(field: FieldSpec, exps: tuple, col: int) -> TNomial:
    """The polynomial of column col of exps: the coefficients (1, c_2, ...,
    c_t), c_i in [1, p), in `itertools.product` order (c_t fastest)."""
    n = field.p - 1
    coeffs = []
    for _ in exps[1:]:
        col, d = divmod(col, n)
        coeffs.append(d + 1)
    return build(field, zip(exps, [1] + coeffs[::-1]))


class Incidences(NamedTuple):
    """The (polynomial, root) incidences of one exponent set on the grid
    of `_root_incidences`."""

    col: np.ndarray
    valid: np.ndarray
    exps: tuple  # the exponent set in the grid's coefficient order
    weight: int  # columns of F(p, t) that each grid column stands for: (p-1)/d


def _root_incidences(field: FieldSpec, exps: tuple) -> Incidences:
    """Every (polynomial, root) incidence over the dilation slice of the
    exponent set exps (0 first), as arrays (col, valid): col holds the
    grid column of each incidence, in the order of the grid points F that
    valid flags, and the root is g**j with j = F mod p-1.  R is
    np.bincount(col), and each (column, j) pair occurs at most once.

    For t >= 3 the grid reorders exps so that a_2 is the nonzero exponent
    of least d = gcd(a_2, p-1), and has a row r per prefix (c_2, ..., c_{t-1})
    with c_2 one of the labels g**0, ..., g**(d-1), in digit order (c_2
    slowest), and a column j per unit x = g**j; F = r*(p-1) + j.  Every
    dilation orbit of the columns (1, c_2, ..., c_t) meets that slice in
    the same share, so each grid column stands for weight = (p-1)/d of
    them; at t = 2 the grid is every column.  At each point exactly one
    c_t gives f(x) = 0, namely sum_{i<t} c_i * -x**(a_i - a_t) with
    c_1 = 1, admissible when nonzero, and the incidence lands in column
    r*(p-1) + c_t - 1.  The powers of x are built once and broadcast over
    the rows, whose digits are decoded once per row, and whole rows of
    about _CHUNK points go through at a time.
    """
    p = field.p
    n = p - 1
    t = len(exps)
    if t == 1:
        return Incidences(np.zeros(0, dtype=np.int64), np.zeros(1, dtype=bool), exps, 1)
    pw = log_tables(field).exp
    digits = []  # the values of the prefix digits c_2, ..., c_{t-1}
    if t > 2:
        pivot = min(exps[1:], key=lambda a: gcd(a, n))
        exps = exps[:1] + (pivot,) + tuple(a for a in exps[1:] if a != pivot)
        digits = [pw[: gcd(pivot, n)].astype(np.int64)] + [np.arange(1, p)] * (t - 3)
    j = np.arange(n, dtype=np.int64)
    # -x**(a_i - a_t) for i = 1 .. t-1, as int64 in [1, p)
    minus = [p - pw[(a - exps[-1]) * j % n].astype(np.int64) for a in exps[:-1]]
    rows = prod(len(v) for v in digits)
    step = max(1, _CHUNK // n)
    cols, valids = [], []
    for start in range(0, rows, step):
        r = np.arange(start, min(start + step, rows), dtype=np.int64)
        ct = np.repeat(minus[0][None], len(r), axis=0)
        rest = r
        for m, v in zip(reversed(minus[1:]), reversed(digits)):  # c_{t-1} is the lowest digit of r
            rest, d = np.divmod(rest, len(v))
            ct += v[d][:, None] * m
            ct %= p
        valid = ct != 0
        ct += (r * n - 1)[:, None]
        cols.append(ct[valid])
        valids.append(valid.ravel())
    return Incidences(np.concatenate(cols), np.concatenate(valids), exps, n ** (t - 2) // rows)


def _pairing_primes(exps, n: int) -> list:
    """Primes l | n for which every exponent has a partner mod l; only
    these can carry a vanishing coset."""
    return [ell for ell in prime_divisors(n) if pairs_up(exps, ell)]


def _c_above_1_columns(
    field: FieldSpec, exps: tuple, R: np.ndarray, col: np.ndarray, valid: np.ndarray, least: int = 0
) -> np.ndarray:
    """Indices of the grid columns of exps (0 in exps) with R >= least and
    C > 1, given the incidences (col, valid) of `_root_incidences` and
    R = np.bincount(col).  With delta = gcd(exps, p-1) > 1, f is a
    polynomial in x**delta, so C > 1 exactly when R > 0.  Otherwise the
    cosets of the `_pairing_primes` sizes l decide, each over the columns
    with R >= max(least, l); for t <= 3 a pairing prime leaves one residue
    class, so it divides delta."""
    n = field.p - 1
    if gcd(n, *exps) > 1:
        return np.flatnonzero(R >= max(least, 1))
    flagged = np.zeros(len(R), dtype=bool)
    for ell in _pairing_primes(exps, n):
        flagged[_coset_columns(col, valid, R >= max(least, ell), n // ell, ell)] = True
    return np.flatnonzero(flagged)


def _coset_columns(col, valid, kept: np.ndarray, w: int, ell: int) -> np.ndarray:
    """The kept columns that vanish on a coset {x : x**ell = beta} of ell
    units, n = ell*w: g**j lies on the coset of g**v, v < w, iff j = v mod w,
    and as each (column, j) pair occurs once, the coset is all roots iff ell
    incidences of the column share its class.  The class of grid point
    F = r*n + j of `_root_incidences` is F mod w, since w | n, whichever
    rows the dilation slice keeps.  Each kept column owns a block of w
    keys, one per class, and every other column the spare block after
    them, so one bincount counts every (column, class) pair."""
    cols = np.flatnonzero(kept)
    size = len(cols) * w
    block = np.full(len(kept), size)
    block[cols] = np.arange(0, size, w)
    full = np.bincount(block[col] + np.flatnonzero(valid) % w) == ell
    return cols[np.flatnonzero(full[:size]) // w]


# -- evaluation at every unit: a two-stage Fourier transform over F_q ---------


def _digit_matrix(field: FieldSpec, logs: np.ndarray) -> np.ndarray:
    """Multiplication by each g**logs[r, c] as an F_p-linear map on base-p
    digits: the float64 (k*r, k*c) matrix whose entry [(e, r), (d, c)] is
    digit e of g**logs[r, c] * y**d.  On F_p it is the values g**logs.

    Each digit e is written straight into its float64 block, so the build
    holds no integer copy of the whole matrix beside the one it returns."""
    p, k, n = field.p, field.k, field.q - 1
    tables = log_tables(field)
    log_y = tables.log[p ** np.arange(k)].astype(np.int64)  # y**d has label p**d
    labels = tables.exp[(logs[:, None, :] + log_y[:, None]) % n]  # [r, d, c]
    digits = np.empty((k, *labels.shape))
    for e in range(k):
        np.remainder(labels // p**e, p, out=digits[e], casting="unsafe")
    return digits.reshape(k * len(logs), -1)


def _unit_transform(field: FieldSpec) -> tuple:
    """Tables (W1, T, W2) of `_unit_zero_mask` for n = q-1 = n1*n2, with n1
    the largest divisor of n up to sqrt(n), and whether stage 1 is reduced
    mod p.

    Write i = n2*i1 + i2 and j = j1 + n1*j2; then n divides n2*i1*n1*j2, so
    f(g**j) = sum_i2 g**(n1*i2*j2) * g**(i2*j1) * sum_i1 g**(n2*i1*j1) c_i:
    W1 is the n1 x n1 table g**(n2*i1*j1), T the twiddles g**(i2*j1) and W2
    the n2 x n2 table g**(n1*i2*j2), each entry its k x k digit matrix.
    Stage 1 sums k*n1 products of digits below p, a twiddled digit sums k
    products of a stage-1 sum and a digit, and stage 2 sums k*n2 products
    of a twiddled digit and a digit: k**3 * n * (p-1)**4 at most.  Only
    when that reaches 2**53 is stage 1 reduced mod p, to digits below p,
    and stage 2 then sums up to k**2 * n2 * (p-1)**3.  Below 2**53 those
    float64 sums are exact, and an integer sum s has s / p whole iff p | s,
    so the bound of the path taken is checked before any table is built.
    """
    p, k, n = field.p, field.k, field.q - 1
    n1 = max(d for d in divisors(n) if d * d <= n)
    n2 = n // n1
    top = k**3 * n * (p - 1) ** 4
    reduce = top >= 2**53
    if reduce:
        top = max(k * n1 * (p - 1) ** 2, k**2 * n2 * (p - 1) ** 3)
    if top >= 2**53:
        raise InternalInvariantError(f"float64 sums up to {top} exceed 2**53 and would round")
    a1, a2 = np.arange(n1, dtype=np.int64), np.arange(n2, dtype=np.int64)
    return (
        _digit_matrix(field, n2 * np.multiply.outer(a1, a1)),
        _digit_matrix(field, np.multiply.outer(a1, a2)).reshape(k, n1, k, n2),
        _digit_matrix(field, n1 * np.multiply.outer(a2, a2)),
        reduce,
    )


def _unit_zero_mask(field: FieldSpec, transform: tuple, rows: np.ndarray) -> np.ndarray:
    """Zero mask of dense polynomials at every unit: entry [s, j] is True iff
    f_s(g**j) = 0, where rows[s, i] is the label of the coefficient of x**i.

    The rows go through in one pass, in four float64 working buffers of
    the rows' size.  The digits are laid out (sample, digit, i1, i2), so
    stage 1 is one table broadcast over the samples, and the twiddle writes
    (sample, j1, digit, i2), so stage 2 multiplies by W2 transposed; at
    k = 1 neither layout moves a sample's entries.  Stage 1 is reduced mod
    p only when `_unit_transform` says the unreduced sums could round.
    Stage 2 is one matmul per block, except while W2 has 2**8 to 2**13
    entries (`_PER_SAMPLE_W2`): there one matmul over the block is large
    enough to wake OpenBLAS's thread pool, whose second thread about
    doubles the CPU time, and one small matmul per sample, as stage 1 is,
    stays on the calling thread.  That costs a median 5% more one-thread
    time, and up to a quarter more wall time near q = 4096, where the
    pool's second thread also saves wall time.  A smaller W2 keeps the
    block's matmul on one thread, and above 2**13 entries the per-sample
    matmuls cost a median 10-36% more one-thread time, rising with W2.
    """
    W1, T, W2, reduce = transform
    p, k, n = field.p, field.k, field.q - 1
    n1 = len(W1) // k
    n2 = n // n1
    m = len(rows)
    digits, Y, Z, tmp = np.empty((4, m, k * n))
    rest = rows
    for d in range(k - 1):
        rest, digits[:, d * n : (d + 1) * n] = np.divmod(rest, p)
    digits[:, (k - 1) * n :] = rest
    Y = np.matmul(W1, digits.reshape(m, k * n1, n2), out=Y.reshape(m, k * n1, n2))
    if reduce:
        # below 2**53 floor(Y / p) is the exact quotient, so Y becomes Y mod p
        quot = tmp.reshape(Y.shape)
        np.floor(np.divide(Y, p, out=quot), out=quot)
        Y -= np.multiply(quot, p, out=quot)
    Y, Z = Y.reshape(m, k, n1, n2), Z.reshape(m, n1, k, n2)
    for e2 in range(k):
        np.multiply(Y[:, 0], T[e2, :, 0], out=Z[:, :, e2])
        for e in range(1, k):
            Z[:, :, e2] += Y[:, e] * T[e2, :, e]
    lo, hi = _PER_SAMPLE_W2
    shape = (m, n1, k * n2) if lo <= W2.size <= hi else (m * n1, k * n2)
    sums = np.matmul(Z.reshape(shape), W2.T, out=digits.reshape(shape))
    sums /= p  # whole iff p | sums, since the sums are integers below 2**53
    whole = sums == np.floor(sums, out=tmp.reshape(sums.shape))
    # j = j1 + n1*j2: write (j1, j2) into a (j2, j1) view of the rows
    zero = np.empty(rows.shape, dtype=bool)
    natural = zero.reshape(m, n2, n1).transpose(0, 2, 1)
    np.logical_and.reduce(whole.reshape(m, n1, k, n2), axis=2, out=natural)
    return zero


# -- enumeration drivers ------------------------------------------------------


def estimate_enumeration_work(p: int, t: int) -> int:
    """Rough multiplication count for one weighted enumeration of (p, t):
    translation-orbit representatives times the full kernel grid times
    terms.

    The drivers run one kernel per affine orbit, of which there are at
    most as many as translation orbits, on a dilation slice of d/(p-1) of
    that grid, so budgets are checked against this upper bound."""
    _validate_t(p, t)
    n = p - 1
    return count_orbit_reps(n, t) * n ** (t - 1) * t


def _check_budget(p: int, t: int, budget: int) -> None:
    """BudgetExceeded when one enumeration of (p, t) would exceed budget
    (so a budget of 0 refuses every enumeration); a negative budget is
    bad input.  Within budget, FieldTooLarge when the orbit walk's bitmap
    of `_affine_reps` would hold more than 2**31 sets."""
    work = estimate_enumeration_work(p, t)
    if budget < 0:
        raise PreconditionViolated(f"budget must be non-negative, got {budget}")
    if work > budget:
        raise BudgetExceeded(f"estimated work {work} exceeds budget {budget}")
    sets = comb(p - 2, t - 1)
    if sets > 2**31:
        raise FieldTooLarge(f"the orbit walk's {sets} exponent sets exceed 2**31")


def enumerate_tnomials(p: int, t: int) -> Iterator[TNomial]:
    """Yield every polynomial of the family F(p, t) of t-term polynomials
    with exponents below p-1 and nonzero coefficients, lazily and
    unbudgeted."""
    field = make_prime_field(p)
    _validate_t(p, t)
    for exps in combinations(range(p - 1), t):
        for coeffs in product(range(1, p), repeat=t):
            yield build(field, zip(exps, coeffs))


class MaxRResult(NamedTuple):
    value: int
    witness: TNomial


def compute_max_R(p: int, t: int, budget: int = DEFAULT_WORK_BUDGET) -> MaxRResult:
    """Maximum R(f) over the C(f) <= 1 subfamily of F(p, t), with a
    deterministic witness polynomial attaining it.

    One exponent set per affine orbit is scanned, on its dilation slice.
    Sets whose slice maximum cannot beat the running best are skipped; for
    the rest the same incidences filter out C > 1 columns.  Whether a set
    has a C <= 1 column with R = V is an orbit property, and each orbit's
    representative is its first member in translation order, so the first
    representative to reach the record is the first translation
    representative to reach it.  The witness is that set's least column
    with the record among the dilation images of its record slice columns
    (`_least_image`): the one a walk over all translation orbits and all
    columns returns.  It is re-checked with the object-level C computation.
    """
    field = make_prime_field(p)
    _check_budget(p, t, budget)
    log_tables(field)  # FieldTooLarge above the scan ceiling, before any orbit is walked
    n = p - 1
    best = -1
    best_at = None
    for exps, _weight in _affine_reps(n, t):
        inc = _root_incidences(field, exps)
        R = np.bincount(inc.col, minlength=len(inc.valid))
        if int(R.max()) <= best:
            continue
        # out of the C <= 1 family
        R[_c_above_1_columns(field, exps, R, inc.col, inc.valid, best + 1)] = -1
        top = int(R.max())
        if top > best:
            best, best_at = top, (exps, inc.exps, inc.weight, np.flatnonzero(R == top))
    if best_at is None:
        raise InternalInvariantError(f"no admissible polynomial for p={p}, t={t}")
    witness = _poly_from_column(field, best_at[0], _least_image(field, *best_at))
    if compute_C(witness) > 1:
        raise InternalInvariantError(
            f"vanishing-coset counts disagree with compute_C on {witness}"
        )
    return MaxRResult(value=best, witness=witness)


def _least_image(field: FieldSpec, exps: tuple, order: tuple, weight: int, cols: np.ndarray) -> int:
    """The least column of exps, in `_poly_from_column` order, among the
    dilation images of the grid columns cols of `_root_incidences`, whose
    coefficients follow order and each stand for weight columns.

    x -> g**s * x maps column (1, c_2, ..., c_t) to (1, c_i * g**(s*a_i)).
    The dilations by g**(s*weight) keep the pivot coefficient, so they map
    grid columns to grid columns and keep R and C.  When cols is closed
    under them, as the columns with a given R and C are, the images under
    s < weight already cover every image: one (cols x weight) array, of
    one entry per full-grid column with that R and C.
    """
    n = field.p - 1
    tables = log_tables(field)
    t = len(exps)
    logs = np.zeros((len(cols), t), dtype=np.int64)  # log c_1 = 0
    rest = cols
    for i in range(t - 1, 0, -1):  # c_t first, up to the pivot c_2 on top
        if i == 1 and t > 2:
            logs[:, 1] = rest  # the pivot's label is g**rest
        else:
            rest, d = np.divmod(rest, n)
            logs[:, i] = tables.log[d + 1]
    logs = logs[:, [order.index(a) for a in exps]]
    s = np.arange(weight)
    image = np.zeros((len(cols), weight), dtype=np.int64)
    for a, lg in zip(exps[1:], logs[:, 1:].T):  # c_2 is the highest digit
        image = image * n + tables.exp[(lg[:, None] + s * a) % n] - 1
    return int(image.min())


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
    if t > 1:  # at t = 1 no kernel reads a table
        log_tables(field)  # FieldTooLarge above the scan ceiling, before any orbit is walked
    n = p - 1
    # Python ints: the weighted totals pass 2**63 from about p = 70000
    counts_all: Counter = Counter()
    counts_c1: Counter = Counter()
    for exps, weight in _affine_reps(n, t):
        inc = _root_incidences(field, exps)
        R = np.bincount(inc.col, minlength=len(inc.valid))
        hist = np.bincount(R)
        above = R[_c_above_1_columns(field, exps, R, inc.col, inc.valid)]
        hist_c1 = hist - np.bincount(above, minlength=len(hist))
        for counts, h in ((counts_all, hist), (counts_c1, hist_c1)):
            for r in np.flatnonzero(h):
                counts[int(r)] += int(h[r]) * n * weight * inc.weight
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


def _nonzero_rows(rng, take: int, q: int, n: int) -> np.ndarray:
    """take uniform element-label rows over F_q; all-zero rows are redrawn,
    so these are the first take nonzero rows of rng's stream, out of order.
    numpy's int64 draws concatenate across calls, so consecutive calls give
    the first nonzero rows of one stream however the takes are split: a
    caller may block freely and its histograms do not change."""
    coefs = rng.integers(0, q, size=(take, n), dtype=np.int64)
    while True:
        dead = np.flatnonzero(~coefs.any(axis=1))
        if len(dead) == 0:
            return coefs
        coefs[dead] = rng.integers(0, q, size=(len(dead), n), dtype=np.int64)


def _coset_counts(zero: np.ndarray, ells) -> np.ndarray:
    """Per row of a natural-order zero mask (m, n), the number of cosets
    {x : x**l = beta}, l in ells, on which the polynomial vanishes: g**j
    lies on the coset of g**v, v < n/l, iff j = v mod n/l."""
    m, n = zero.shape
    counts = np.zeros(m, dtype=np.int64)
    for ell in ells:
        counts += zero.reshape(m, ell, n // ell).all(axis=1).sum(axis=1)
    return counts


def _sampled_counts(field: FieldSpec, samples: int, seed: int, ells) -> Counter:
    """Histogram {count: occurrences} of the vanishing-coset counts over ells
    (`_coset_counts`; at l = 1 the count is R) for samples uniform nonzero
    polynomials of degree < q-1 from default_rng(seed).  One block of rows
    at a time is drawn (`_nonzero_rows`), evaluated at every unit
    (`_unit_zero_mask`) and counted.  Every check runs before the first
    draw, and with no l to count nothing is drawn."""
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        raise InvalidSampleCount(f"samples must be a positive int, got {samples!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise PreconditionViolated(f"seed must be a non-negative int, got {seed!r}")
    q, n = field.q, field.q - 1
    if q > SAMPLING_FIELD_LIMIT:
        raise FieldTooLarge(f"sampling ceiling is q <= {SAMPLING_FIELD_LIMIT}")
    if not ells:
        return Counter({0: samples})
    transform = _unit_transform(field)
    rng = np.random.default_rng(seed)
    counts = np.empty(samples, dtype=np.int64)
    # at most 2**15 float64 entries per row block (one row when a row is
    # longer), so the kernel's four working buffers stay in cache
    block = max(1, _SUB_BLOCK // (field.k * n))
    for start in range(0, samples, block):
        rows = _nonzero_rows(rng, min(block, samples - start), q, n)
        counts[start : start + block] = _coset_counts(_unit_zero_mask(field, transform, rows), ells)
    return Counter({int(c): int(o) for c, o in zip(*np.unique(counts, return_counts=True))})


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
