"""Sparse polynomials with few terms (t-nomials) over a finite field.

A TNomial is a canonical form of c_1 x**a_1 + ... + c_t x**a_t regarded
as a function on the units of F_q: exponents are reduced mod q-1 into
[0, q-2] (valid on nonzero arguments, which is where root counting
happens), equal exponents are merged, zero coefficients are dropped, and
terms are sorted by exponent.  If everything cancels the input is the
zero function and has no canonical form; ZeroFunction is raised.

Two independent root counters are provided: a direct scan over the unit
group, and the degree of gcd(f, x**(q-1) - 1) computed by modular
exponentiation.  They share no code beyond the field primitives.  The
scan evaluates f at every unit x = g**j at once by Zech-logarithm table
lookups (root_mask), the same way for every field.  Its coefficients are
nonzero, as a TNomial's are.  It runs in int32 with no modulo over the
units: each term's logs are one arithmetic progression mod q-1, the
outer sum of two progressions about sqrt(q-1) long, and the units where
a partial sum cancels are kept as a sparse index array.  The root count,
the vanishing cosets and the coset decomposition are read off its mask.

The gcd oracle trusts none of those tables.  It raises x to the power q-1
mod f from the bits of q-1: the prefixes below deg f give monomials, one
division by the Newton inverse of the reversed f reduces the next, and
only the bits after it square, each square (times x for a set bit)
reduced by one step of the same division.  Products are exact mod p:
np.convolve on short vectors, float64 FFTs on long ones, each vector
split into the fewest limbs that an a-priori rounding bound allows (one
limb for every oracle product with p < 2**14, two for the longest ones
mod 65521, three mod p < 2**31).  Over F_{p^k} a coefficient is a row
of k base-p digits, packed into 2k-1 slots for a product (Kronecker
substitution), so prime and extension fields share the same products.
One dense Euclid then gives the gcd for every field.  Over F_{p^k} it
holds each coefficient as one int64 of k digit slots, scales a row by one
gather from the negated powers of g at a sum of logs, and adds slot-wise;
it reads the exp table of the scan only after checking every entry with
its own multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, prod, sqrt
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyInput,
    FieldTooLarge,
    InternalInvariantError,
    ParseError,
    PreconditionViolated,
    ZeroCoefficient,
    ZeroFunction,
)
from .field import Element, FieldSpec

BRUTE_FORCE_LIMIT = 2**22  # max unit-group order for the direct scan
GCD_LIMIT = 2**16  # max field size for the gcd-based count


@dataclass(frozen=True)
class TNomial:
    """Canonical sparse polynomial.  Construct via build()."""

    field: FieldSpec
    terms: tuple  # ((exponent, coefficient), ...) sorted by exponent

    @property
    def t(self) -> int:
        return len(self.terms)

    @property
    def exponents(self) -> tuple:
        return tuple(a for a, _ in self.terms)

    @property
    def coefficients(self) -> tuple:
        return tuple(c for _, c in self.terms)

    @property
    def degree(self) -> int:
        return self.terms[-1][0]

    def __str__(self) -> str:
        return format_tnomial(self)


def build(field: FieldSpec, terms) -> TNomial:
    """Canonicalize a list of (exponent, coefficient) pairs.

    Exponents may be any integers (reduced mod q-1); coefficients are
    field elements, or plain ints which are reduced into the prime
    subfield.  Raises EmptyInput on [], ZeroCoefficient on an explicit
    zero term, ZeroFunction if all terms cancel.
    """
    items = list(terms)
    if not items:
        raise EmptyInput("a t-nomial needs at least one term")
    n = field.q - 1
    merged: dict[int, Element] = {}
    for a, c in items:
        c = _coerce_coefficient(field, c)
        if c == field.zero:
            raise ZeroCoefficient(f"term with exponent {a} has zero coefficient")
        a = int(a) % n if n > 0 else 0
        if a in merged:
            merged[a] = field.add(merged[a], c)
        else:
            merged[a] = c
    canon = tuple((a, merged[a]) for a in sorted(merged) if merged[a] != field.zero)
    if not canon:
        raise ZeroFunction("all terms cancel; the zero function has no t-nomial form")
    return TNomial(field=field, terms=canon)


def _coerce_coefficient(field: FieldSpec, c) -> Element:
    if isinstance(c, int):
        v = c % field.p
        return v if field.k == 1 else (v,) + (0,) * (field.k - 1)
    c = tuple(int(x) % field.p for x in c)
    if field.k == 1:
        raise PreconditionViolated("vector coefficient supplied for a prime field")
    if len(c) > field.k:
        raise PreconditionViolated(f"coefficient vector longer than extension degree {field.k}")
    return c + (0,) * (field.k - len(c))


def normalize_lowest(f: TNomial) -> TNomial:
    """Divide out x**a_1 so the lowest exponent becomes 0.

    On the unit group this changes no root: x**a_1 never vanishes there.
    """
    a1 = f.terms[0][0]
    if a1 == 0:
        return f
    return TNomial(field=f.field, terms=tuple((a - a1, c) for a, c in f.terms))


def evaluate(f: TNomial, x: Element) -> Element:
    """Value of f at any x, including 0 (exponent 0 contributes even at 0)."""
    F = f.field
    acc = F.zero
    for a, c in f.terms:
        acc = F.add(acc, F.mul(c, F.pow(x, a)) if a else c)
    return acc


def count_roots_bruteforce(f: TNomial) -> int:
    """Number of distinct nonzero roots: the size of the root mask, which
    evaluates f at every unit.  Raises FieldTooLarge when q-1 > 2**22."""
    return int(np.count_nonzero(roots_on_units(f)))


# -- log-domain evaluation on the unit group ---------------------------------

ZERO_LOG = -1  # the discrete log of the zero element: log[0], and zech[j] at g**j = -1

_TABLE_CHUNK = 1 << 13


class LogTables(NamedTuple):
    """int32 discrete-log tables of a field, elements given by their labels."""

    exp: np.ndarray  # exp[j] = label of g**j, 0 <= j < q-1
    log: np.ndarray  # log[label of g**j] = j, and log[0] = ZERO_LOG
    zech: np.ndarray  # zech[j] = log(1 + g**j): Zech's logarithm


@lru_cache(maxsize=16)
def log_tables(field: FieldSpec) -> LogTables:
    """The read-only exp, log and Zech tables of a field, built on first
    use.  Raises FieldTooLarge when q-1 > 2**22.

    exp doubles in blocks, g**(h+i) = g**h * g**i: multiplying by g**h is
    F_p-linear on the base-p digits of a label, so one k x k matrix maps
    the first h labels to the next h, exactly in float64 (k*p**2 < 2**53).
    """
    p, k, n = field.p, field.k, field.q - 1
    if n > BRUTE_FORCE_LIMIT:
        raise FieldTooLarge(f"unit group of order {n} exceeds scan limit {BRUTE_FORCE_LIMIT}")
    place = p ** np.arange(k, dtype=np.int64)
    exp = np.empty(n, dtype=np.int32)
    exp[0] = 1
    h = 1
    while h < n:
        gh = field.mul(field.element_from_int(int(exp[h - 1])), field.g)
        # row i: the digits of gh times the basis element with label p**i
        digit_map = np.array(
            [field.mul(gh, field.element_from_int(int(b))) for b in place], dtype=np.float64
        ).reshape(k, k)
        take = min(h, n - h)
        for s in range(0, take, _TABLE_CHUNK):
            e = min(s + _TABLE_CHUNK, take)
            digits = exp[s:e, None] // place % p
            exp[h + s : h + e] = (digits @ digit_map).astype(np.int64) % p @ place
        h *= 2
    log = np.full(field.q, ZERO_LOG, dtype=np.int32)
    log[exp] = np.arange(n, dtype=np.int32)
    if np.count_nonzero(log == ZERO_LOG) != 1:
        raise InternalInvariantError(f"powers of the generator miss units of F_{field.q}")
    # the label of 1 + x: add one to the constant (lowest base-p) digit
    zech = log[exp - exp % p + (exp + 1) % p]
    tables = LogTables(exp=exp, log=log, zech=zech)
    for table in tables:
        table.setflags(write=False)
    return tables


# The kernel adds two logs below q-1 <= BRUTE_FORCE_LIMIT in int32 (and in
# its uint32 view), so it needs 2 * BRUTE_FORCE_LIMIT < 2**31.


def root_mask(field: FieldSpec, exponents, coeff_logs) -> np.ndarray:
    """Root mask of sum_i c_i x**a_i: entry j is True iff it is zero at g**j.

    coeff_logs holds log c_i of the nonzero coefficients, shape (t,) for
    one polynomial or (B, t) for a batch; the mask is (q-1,) or (B, q-1).
    Term i at g**j has log (log c_i + a_i*j) mod q-1, and terms are added
    by Zech's logarithm, log(X + Y) = log X + zech[log Y - log X].  A
    negative log, such as the ZERO_LOG of a zero coefficient, raises
    InternalInvariantError.

    The kernel runs in int32 with no modulo over the units.  Writing
    j = r*w + s with w = ceil(sqrt(q-1)), a term's logs are the outer sum
    of a row progression a_i*w*r mod q-1 and a column progression
    (log c_i + a_i*s) mod q-1, each about sqrt(q-1) long, made one term
    at a time; the h*w >= q-1 slots past the last unit just continue the
    progression.  A sum x of two logs, in [0, 2(q-1)), is wrapped once by
    the unsigned minimum min(x, x - (q-1)), and log Y - log X, in
    (-(q-1), q-1), indexes the Zech table as it is: numpy wraps a
    negative index once.  The units where a partial sum cancels are kept
    as a sparse index array; at the next term the Zech log gathered there
    is zeroed and the term itself is put back.
    """
    n = field.q - 1
    zech = log_tables(field).zech
    logs = np.asarray(coeff_logs, dtype=np.int64)
    if logs.min() < 0:
        raise InternalInvariantError("root_mask takes the logs of nonzero coefficients only")
    w = isqrt(n - 1) + 1
    h = -(-n // w)
    steps = np.array([a % n for a in exponents], dtype=np.int64)[:, None] * np.arange(w)
    rows = (steps * w % n).astype(np.int32)[:, :h, None]
    cols = ((steps + logs[..., None]) % n).astype(np.int32)[..., None, :]
    shape = logs.shape[:-1]
    size = prod(shape) * h * w
    term, acc = np.empty((2, size), dtype=np.int32)
    grid = term.reshape(shape + (h, w))
    diff = np.empty(size, dtype=np.intp)  # the index type: the gather casts nothing
    spare = diff.view(np.uint32)[:size]
    tu, au, un = term.view(np.uint32), acc.view(np.uint32), np.uint32(n)
    last = len(rows) - 1
    cancelled = None
    for i, (r, c) in enumerate(zip(rows, cols.swapaxes(0, -3))):
        np.add(r, c, out=grid)
        np.subtract(tu, un, out=spare)
        if i == 0:
            np.minimum(tu, spare, out=au)
            continue
        np.minimum(tu, spare, out=tu)
        if cancelled is not None:
            acc[cancelled] = term[cancelled]
        z = zech[np.subtract(term, acc, out=diff)]
        if cancelled is not None:
            z[cancelled] = 0
        zero = z == ZERO_LOG
        if i == last:
            return zero.reshape(shape + (-1,))[..., :n]
        cancelled = zero.nonzero()[0]
        if not len(cancelled):
            cancelled = None
        np.add(acc, z, out=acc)
        np.subtract(au, un, out=spare)
        np.minimum(au, spare, out=au)
        del z, zero  # before the next gather allocates
    return np.zeros(shape + (n,), dtype=bool)


def roots_on_units(f: TNomial) -> np.ndarray:
    """root_mask of f; raises FieldTooLarge when q-1 > 2**22."""
    F = f.field
    log = log_tables(F).log
    return root_mask(F, f.exponents, log[[F.element_to_int(c) for c in f.coefficients]])


# -- gcd oracle: x**(q-1) mod f by exact products ----------------------------
#
# The oracle holds a polynomial over F_{p^k} as an (L, k) int64 array of
# base-p digit rows, row i the coefficient of x**i (k = 1 for a prime
# field).  It uses FieldSpec arithmetic and these arrays; its Euclid also
# reads the scan's powers of g, but only after checking each one with the
# oracle's own product, so it stays an independent check of the scan.

# Product length from which the one-limb FFT beats np.convolve.  Best of
# 15x20 products of all-(p-1) vectors mod 6007 on a 2-core Xeon with numpy
# 2.4.6, as convolve, FFT square and FFT of two vectors: length 447, 39, 41
# and 57 us; 511, 49, 45 and 57 us; 575, 58, 44 and 61 us; 767, 88, 46 and
# 92 us.  That suits the squares; a product of two vectors, such as a
# quotient in the powering, breaks even nearer length 575.
FFT_MIN_LENGTH = 512


def count_roots_gcd(f: TNomial) -> int:
    """Number of distinct nonzero roots as deg gcd(f, x**(q-1) - 1).

    Gets x**(q-1) mod f from _x_power_mod, then runs the dense Euclid
    _gcd_degree, the same for every field.  Products are exact
    (_convolve_mod_p), on Kronecker-packed digit rows for F_{p^k}.
    Independent of the scan counter: over F_{p^k} the Euclid takes the
    powers of g from the scan's exp table only after checking each one
    with the oracle's own multiplication, and raises
    InternalInvariantError on a wrong entry.  Raises FieldTooLarge when
    q > 2**16.
    """
    F = f.field
    if F.q > GCD_LIMIT:
        raise FieldTooLarge(f"field size {F.q} exceeds gcd-count limit {GCD_LIMIT}")
    f = normalize_lowest(f)  # gcd(x, x**(q-1) - 1) = 1, so this is free
    d = f.degree
    if d <= 1:
        # a nonzero constant has no root; c1*x + c0 with c0 != 0 has one
        return d
    cur = _x_power_mod(f, F.q - 1)
    cur[0, 0] = (cur[0, 0] - 1) % F.p  # x**(q-1) - 1 reduced mod f
    return _gcd_degree(F, _dense_rows(f), cur)


def _x_power_mod(f: TNomial, exponent: int) -> np.ndarray:
    """x**exponent mod f as deg f digit rows, for deg f >= 2.

    With d = deg f, the longest binary prefix of the exponent below d
    gives a monomial, which is reduced as it stands.  The next prefix e
    has d <= e <= 2d - 1, and the quotient of x**e by f is the first
    e - d + 1 coefficients of 1/rev(f), reversed (division by Newton
    iteration, von zur Gathen & Gerhard, Modern Computer Algebra, ch. 9),
    so x**e mod f needs no product beyond the inverse's.  Each later bit
    squares, and a set bit puts one zero row in front of the square for
    the step by x; either way v, of at most 2d rows, is reduced by one
    step: the quotient, reversed, is rev(top m rows of v) times the first
    m terms of the inverse, m = len(v) - d <= d.  So the inverse takes
    d terms when anything is squared, and e - d + 1 otherwise.
    """
    F = f.field
    p, d = F.p, f.degree
    cur = np.zeros((d, F.k), dtype=np.int64)
    s = (exponent // d).bit_length()  # the least s with exponent >> s < d
    if s == 0:
        cur[exponent, 0] = 1
        return cur
    e = exponent >> (s - 1)
    fold = _fold_matrix(F)
    mul = _mul_tensor(fold)
    lead_inv = _digits(F, F.inv(f.terms[-1][1]))
    inv = _series_inverse(_dense_rows(f)[::-1], e - d + 1 if s == 1 else d, lead_inv, p, fold)
    low = [(a, mul @ _digits(F, c) % p) for a, c in f.terms[:-1]]

    def sub_low(rem: np.ndarray, quo: np.ndarray) -> np.ndarray:
        # the remainder: rem holds the dividend's rows below x**d, from which
        # quo times the lower terms of f comes off; quo * lead x**d stays above
        for a, m in low:
            n = min(len(quo), d - a)
            rem[a : a + n] -= quo[:n] @ m
        return rem % p

    cur = sub_low(cur, inv[e - d :: -1])
    for i in range(s - 2, -1, -1):
        v = _mul_rows(cur, cur, p, fold)  # degree <= 2d - 2
        if exponent >> i & 1:
            v = np.concatenate((np.zeros_like(v[:1]), v))
        m = len(v) - d
        cur = sub_low(v[:d], _mul_rows(v[: d - 1 : -1], inv[:m], p, fold)[m - 1 :: -1])
    return cur


def _dense_rows(f: TNomial) -> np.ndarray:
    """f as deg f + 1 digit rows, row i the coefficient of x**i."""
    rows = np.zeros((f.degree + 1, f.field.k), dtype=np.int64)
    for a, c in f.terms:
        rows[a] = _digits(f.field, c)
    return rows


def _digits(F: FieldSpec, c: Element) -> np.ndarray:
    """The base-p digit row of a field element."""
    return np.array(c if F.k > 1 else (c,), dtype=np.int64)


def _fold_matrix(F: FieldSpec) -> np.ndarray:
    """Digit rows of y**i mod the field modulus m(y) for i < 2k - 1; [[1]]
    for a prime field."""
    p, k = F.p, F.k
    fold = np.zeros((2 * k - 1, k), dtype=np.int64)
    fold[:k] = np.eye(k, dtype=np.int64)
    for i in range(k, 2 * k - 1):
        # y * y**(i-1), with y**k = -(m_0 + m_1 y + ... + m_{k-1} y**(k-1))
        fold[i, 1:] = fold[i - 1, :-1]
        fold[i] = (fold[i] - fold[i - 1, -1] * np.array(F.modulus[:k])) % p
    return fold


def _mul_tensor(fold: np.ndarray) -> np.ndarray:
    """(k, k, k) tensor T such that T @ c % p is the k x k matrix of
    multiplication by the element with digit row c: row s of it holds the
    digits of c * y**s, since T[s, :, u] is fold row s + u, y**(s+u)."""
    return np.lib.stride_tricks.sliding_window_view(fold, fold.shape[1], axis=0)


# Kronecker substitution: each coefficient of F_{p^k} takes 2k - 1 slots,
# so the digit products of one coefficient pair never reach the next;
# after one product over F_p each block of slots folds to k digits.  A
# prime field's digit rows are the coefficients themselves.


def _pack(v: np.ndarray, fold: np.ndarray) -> np.ndarray:
    w, k = fold.shape
    if k == 1:
        return v[:, 0]
    slots = np.zeros((len(v), w), dtype=np.int64)
    slots[:, :k] = v
    return slots.ravel()[: len(v) * w - (k - 1)]


def _unpack(prod: np.ndarray, p: int, fold: np.ndarray) -> np.ndarray:
    w, k = fold.shape
    if k == 1:
        return prod[:, None]
    return prod.reshape(-1, w) @ fold % p


def _mul_rows(a: np.ndarray, b: np.ndarray, p: int, fold: np.ndarray) -> np.ndarray:
    """Exact product of two digit-row polynomials over F_{p^k}."""
    pa = _pack(a, fold)
    return _unpack(_convolve_mod_p(pa, pa if b is a else _pack(b, fold), p), p, fold)


def _convolve_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product mod p of two int64 coefficient vectors with entries
    in [0, p), for p <= 2**31.

    np.convolve below FFT_MIN_LENGTH, where its sums of products stay
    below 2**63.  Otherwise both vectors split into the fewest limbs that
    _limb_plan admits, and the limb products come from float64 FFTs,
    which must round to integers within 1/4.
    """
    plan = _limb_plan(len(a), len(b), p)
    if plan is None:
        return np.convolve(a, b) % p
    fa = _limb_spectra(a, plan)
    return _limb_product(fa, fa if b is a else _limb_spectra(b, plan), plan, p)


class _LimbPlan(NamedTuple):
    """How _convolve_mod_p splits a product of length n: into `limbs`
    limbs of `width` bits each, multiplied by real FFTs of length `size`."""

    n: int
    limbs: int
    width: int
    size: int


def _limb_plan(la: int, lb: int, p: int) -> _LimbPlan | None:
    """The limb split for a product of lengths la and lb mod p, or None
    when np.convolve computes it exactly and faster.

    A vector split into L limbs of w = ceil(bits(p - 1) / L) bits has limb
    vectors x_i, y_j with entries at most 2**w - 1, so their Euclidean
    norms are |x_i| <= (2**w - 1) sqrt(la) and |y_j| <= (2**w - 1) sqrt(lb).
    For an FFT product of size N = 2**m, Percival (Math. Comp. 72, 2003)
    bounds the error of each coefficient by |x| |y| ((1 + e)**3m
    (1 + e sqrt 5)**(3m + 1) (1 + b)**3m - 1), e = 2**-53, with roots of
    unity accurate to b <= e; to first order that is below
    |x| |y| e (13 m + 3).  The proof is for N = 2**m; the bound is applied
    here with m = ceil(log2 N) to the 5-smooth N of _smooth_size as well.
    Summed over the at most L limb products in one output limb, the bound
    L (2**w - 1)**2 sqrt(la lb) e (13 m + 3) must stay below 1/4, so that
    rounding recovers every limb product; the product checks that it did.
    """
    n = la + lb - 1
    if n < FFT_MIN_LENGTH and min(la, lb) * (p - 1) ** 2 < 2**63:
        return None
    if p > 2**31:
        raise InternalInvariantError(f"the limb FFT recombines in int64 and needs p <= 2**31, got {p}")
    size = _smooth_size(n)
    scale = sqrt(la * lb) * 2.0**-53 * (13 * (size - 1).bit_length() + 3)
    bits = (p - 1).bit_length()
    for limbs in range(1, bits + 1):
        width = -(-bits // limbs)
        if limbs * ((1 << width) - 1) ** 2 * scale < 0.25:
            return _LimbPlan(n, limbs, width, size)
    raise InternalInvariantError(f"no limb split keeps a product of length {n} mod {p} exact")


def _smooth_size(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= n: an FFT length numpy
    transforms about as fast as a power of two."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            best = min(best, f35 << (-(-n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def _limb_spectra(v: np.ndarray, plan: _LimbPlan) -> np.ndarray:
    """The real FFTs of the limbs of v, lowest limb first."""
    mask = (1 << plan.width) - 1
    limbs = [(v >> (plan.width * i)) & mask for i in range(plan.limbs)]
    return np.fft.rfft(np.stack(limbs), plan.size)


def _limb_product(fa: np.ndarray, fb: np.ndarray, plan: _LimbPlan, p: int) -> np.ndarray:
    """The product mod p of two vectors from their limb spectra."""
    m = plan.limbs
    if m == 1:
        prods = fa * fb
    else:
        prods = np.zeros((2 * m - 1, fa.shape[1]), dtype=fa.dtype)
        for i in range(m):
            prods[i : i + m] += fa[i] * fb
    limbs = np.fft.irfft(prods, plan.size)[:, : plan.n]
    exact = np.rint(limbs)
    if np.abs(limbs - exact).max() >= 0.25:
        raise InternalInvariantError(f"limb FFT product of length {plan.n} mod {p} is not exact")
    # each limb product is below 2**51 and the running value below 2**31,
    # so recombining from the top limb stays within int64
    exact = exact.astype(np.int64)
    out = exact[-1] % p
    for row in exact[-2::-1]:
        out = ((out << plan.width) + row) % p
    return out


def _series_inverse(rev: np.ndarray, m: int, seed: np.ndarray, p: int, fold: np.ndarray) -> np.ndarray:
    """g with rev * g = 1 mod x**m, by Newton iteration g <- g (2 - rev g)
    from seed, the inverse of rev's constant coefficient."""
    g = seed[None, :]
    n = 1
    while n < m:
        n = min(2 * n, m)
        e = -_mul_rows(rev[:n], g, p, fold)[:n] % p
        e[0, 0] = (e[0, 0] + 2) % p
        g = _mul_rows(g, e, p, fold)[:n]
    return g


class _PackedTables(NamedTuple):
    """The per-field tables of the Euclid over F_{p^k}, each of O(q) entries.

    The Euclid holds a coefficient as one int64, its packed value: digit i
    in slot i of `width` bits, width 1 for p = 2 (so the packed value is
    the label) and bits(p - 1) + 1 for odd p, one guard bit above the
    digit.  No table is indexed by a packed value, which would take 2**30
    entries at F_{3^10}.
    """

    width: int
    place: np.ndarray  # 1 << width*i: a digit row times place is its packed value
    neg: np.ndarray  # packed -g**(j mod q-1) for j < 2(q-1), then q-1 zeros
    log: np.ndarray  # log[label of g**j] = j; log[0] = 2(q-1) indexes the zeros of neg
    # half[v], v < 2**(width*h) with h = ceil(k/2), is the label of the h
    # digits packed in v; a packed value with lower slots v and upper
    # slots u has the label half[v] + half[u] * p**h
    half: np.ndarray


@lru_cache(maxsize=16)
def _packed_tables(F: FieldSpec) -> _PackedTables:
    """The Euclid's tables of F_{p^k}, built on first use from the scan's
    exp table after a check through the oracle's own multiplication
    tensor: exp[0] = 1, exp[j + 1] = exp[j] * g for every j (with
    g**(q-1) = 1), and the powers cover every unit.  A failed check raises
    InternalInvariantError.  The digit rows are checked in blocks of
    _TABLE_CHUNK rows, never as one (q-1) x k array."""
    p, k, n = F.p, F.k, F.q - 1
    width = 1 if p == 2 else (p - 1).bit_length() + 1
    base = p ** np.arange(k, dtype=np.int64)
    place = np.int64(1) << width * np.arange(k, dtype=np.int64)
    exp = log_tables(F).exp
    times_g = _mul_tensor(_fold_matrix(F)) @ _digits(F, F.g) % p
    next_exp = np.roll(exp, -1)
    powers_ok = exp[0] == 1
    neg = np.zeros(3 * n, dtype=np.int64)
    for s in range(0, n, _TABLE_CHUNK):
        e = min(s + _TABLE_CHUNK, n)
        digits = exp[s:e, None] // base % p
        powers_ok &= np.array_equal(digits @ times_g % p @ base, next_exp[s:e])
        neg[s:e] = -digits % p @ place
    log = np.full(F.q, 2 * n, dtype=np.intp)
    log[exp] = np.arange(n)
    if not powers_ok or np.count_nonzero(log == 2 * n) != 1:
        raise InternalInvariantError(f"the powers of the generator of F_{F.q} fail the oracle's check")
    neg[n : 2 * n] = neg[:n]
    low = -(-k // 2)
    slots = np.arange(1 << width * low, dtype=np.int64)[:, None] >> width * np.arange(low) & (1 << width) - 1
    return _PackedTables(width, place, neg, log, slots @ base[:low])


def _trim(v: np.ndarray) -> np.ndarray:
    # a remainder rarely ends in more than one zero: look from the top
    n = len(v)
    while n and not v[n - 1]:
        n -= 1
    return v[:n]


def _gcd_degree(F: FieldSpec, a: np.ndarray, b: np.ndarray) -> int:
    """deg gcd of two digit-row polynomials over F_q, len(a) > len(b).

    One dense Euclid for every field.  Over F_p a division step subtracts
    c/lead(b) times b in int64, unreduced, and the remainder is reduced
    once.  Over F_{p^k} the coefficients are packed values
    (_PackedTables): the logs of b's coefficients are taken once per
    remainder step, so c/lead(b) times b_j is one gather from neg at
    log b_j + log c - log lead(b), with no field inverse and no digit
    matrix.  Packed values add by XOR for p = 2; for odd p the digits add
    slot-wise, and p comes off each slot where the sum plus 2**s - p sets
    the guard bit 2**s.
    """
    p, n = F.p, F.q - 1
    if F.k == 1:
        # a division step leaves up to len(a) unreduced products below
        # (p - 1)**2 in one row
        if len(a) * (p - 1) ** 2 >= 2**63:
            raise InternalInvariantError(f"a Euclid of {len(a)} rows mod {p} would overflow int64")
        a, b = a[:, 0] % p, b[:, 0] % p
    else:
        tables = _packed_tables(F)
        a, b = a @ tables.place, b @ tables.place
        neg, log, half = tables.neg, tables.log, tables.half
        h = -(-F.k // 2)  # the slots that half reads
        low_mask, low, high_place = (1 << tables.width * h) - 1, tables.width * h, p**h
        top = tables.width - 1  # the guard bit of a slot
        ones = int(tables.place.sum())  # 1 in every slot
        guard, offset = ones << top, ones * ((1 << top) - p)
    a, b = _trim(a), _trim(b)
    while len(b):
        db = len(b) - 1
        r = a.copy()
        if F.k == 1:
            inv_lead = pow(int(b[db]), -1, p)
            for i in range(len(r) - 1, db - 1, -1):
                c = int(r[i]) % p
                if c:
                    r[i - db : i] -= c * inv_lead % p * b[:db]
            a, b = b, _trim(r[:db] % p)
            continue
        logs = log[half[b & low_mask] + half[b >> low] * high_place]
        lead = int(logs[db])
        logs = logs[:db]
        for i in range(len(r) - 1, db - 1, -1):
            c = int(r[i])
            if c:
                lc = int(log[half[c & low_mask] + half[c >> low] * high_place])
                term = neg[logs + (lc - lead) % n]
                s = r[i - db : i]
                if p == 2:
                    s ^= term
                else:
                    s += term
                    np.add(s, offset, out=term)
                    term &= guard
                    term >>= top
                    term *= p
                    s -= term
        a, b = b, _trim(r[:db])
    return len(a) - 1


def has_nonzero_root(f: TNomial) -> bool:
    """True iff f vanishes somewhere on the unit group (a full root mask)."""
    return bool(roots_on_units(f).any())


# -- text form ---------------------------------------------------------------
#
# polynomial  ::= [sign] term (sign term)*
# term        ::= coefficient | [coefficient ['*']] 'x' ['^' integer]
# coefficient ::= natural | '[' integer (',' integer)* ']'
# integer     ::= [sign] natural
# sign        ::= '+' | '-'
#
# A natural is what int() reads without a sign: decimal digits, single
# '_' between them.  Blanks may surround every token but may not split an
# integer.  A bracket holds one integer over F_p and at most k over
# F_{p^k}, the coefficient vector in ascending degree.


def parse_tnomial(field: FieldSpec, text: str) -> TNomial:
    """Parse the text form of a t-nomial.  Raises ParseError on bad syntax
    outside the terms first, then per term in text order ParseError or
    ZeroCoefficient, then build's ZeroFunction."""
    terms = []
    for sign, chunk in _split_terms(text):
        a, c = _parse_term(field, chunk)
        if c == field.zero:
            raise ZeroCoefficient(f"zero coefficient in term {chunk!r}")
        terms.append((a, field.neg(c) if sign == "-" else c))
    return build(field, terms)


def _split_terms(text: str) -> list:
    """[(sign, term text)]: a term ends at a '+' or '-' outside brackets
    unless the last non-blank character before it is one of '^*+-'."""
    s = text.strip()
    if not s.startswith(("+", "-")):
        s = "+" + s
    cuts, depth, last = [0], 0, s[0]
    for i, ch in enumerate(s):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced ']' in {text!r}")
        elif ch in "+-" and depth == 0 and last not in "^*+-":
            cuts.append(i)
        if not ch.isspace():
            last = ch
    if depth:
        raise ParseError(f"unbalanced '[' in {text!r}")
    terms = [(s[i], s[i + 1 : j].strip()) for i, j in zip(cuts, cuts[1:] + [len(s)])]
    if any(not t or t[0] in "+-" for _, t in terms):
        raise ParseError(f"missing term or extra sign in {text!r}")
    return terms


def _parse_term(field: FieldSpec, chunk: str):
    """(exponent, coefficient) of one term's text."""
    head, x, tail = chunk.partition("x")
    if not x:
        return 0, _parse_coefficient(field, head)
    head, tail = head.strip(), tail.strip()
    if tail and tail[0] != "^":
        raise ParseError(f"malformed term {chunk!r}")
    c = _parse_coefficient(field, head.removesuffix("*").strip()) if head else field.one
    return (_parse_int(tail[1:]) if tail else 1), c


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"bad integer {s!r}") from None


def _parse_coefficient(field: FieldSpec, s: str) -> Element:
    if not (s.startswith("[") and s.endswith("]")):
        return _coerce_coefficient(field, _parse_int(s))
    c = tuple(_parse_int(v) for v in s[1:-1].split(","))
    if len(c) > field.k:
        raise ParseError(f"coefficient vector {s!r} longer than degree {field.k}")
    return _coerce_coefficient(field, c[0] if field.k == 1 else c)


def format_tnomial(f: TNomial) -> str:
    """Canonical text: terms ascending by exponent, ' + ' separated,
    coefficients as canonical residues (prime) or bracket vectors."""
    parts = []
    for a, c in f.terms:
        c_txt = _format_coefficient(f.field, c)
        if a == 0:
            parts.append(c_txt)
        else:
            x_txt = "x" if a == 1 else f"x^{a}"
            parts.append(x_txt if c == f.field.one else f"{c_txt}*{x_txt}")
    return " + ".join(parts)


def _format_coefficient(field: FieldSpec, c: Element) -> str:
    if field.k == 1:
        return str(c)
    return "[" + ",".join(str(x) for x in c) + "]"
