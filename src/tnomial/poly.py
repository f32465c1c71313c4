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
nonzero, as a TNomial's are, and ZERO_LOG marks a partial sum that
cancels.  The root count, the vanishing cosets and the coset
decomposition are read off its mask.

The gcd oracle never reads those tables.  It raises x to the power q-1
mod f by square and multiply with exact products mod p: np.convolve on
short vectors, a float64 FFT on 8-bit limbs on long ones.  Each square
is reduced by Barrett division, one more product with the Newton inverse
of the reversed f.  Over F_{p^k} a coefficient is a row of k base-p
digits, packed into 2k-1 slots for a product (Kronecker substitution),
so prime and extension fields share the same products; a dense Euclid
then gives the gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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

ZERO_LOG = -1  # the discrete log of the zero element, in tables and kernel sums

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


def root_mask(field: FieldSpec, exponents, coeff_logs) -> np.ndarray:
    """Root mask of sum_i c_i x**a_i: entry j is True iff it is zero at g**j.

    coeff_logs holds log c_i of the nonzero coefficients, shape (t,) for
    one polynomial or (B, t) for a batch; the mask is (q-1,) or (B, q-1).
    Term i at g**j has log (log c_i + a_i*j) mod q-1, and terms are added
    by Zech's logarithm, log(X + Y) = log X + zech[log Y - log X].  A
    partial sum that cancels is ZERO_LOG; adding a term to it gives the
    term.  A negative log, such as the ZERO_LOG of a zero coefficient,
    raises InternalInvariantError.
    """
    n = field.q - 1
    zech = log_tables(field).zech
    logs = np.asarray(coeff_logs, dtype=np.int64)
    if (logs < 0).any():
        raise InternalInvariantError("root_mask takes the logs of nonzero coefficients only")
    j = np.arange(n, dtype=np.int64)
    terms = ((lc[..., None] + (a % n) * j) % n for a, lc in zip(exponents, logs.T))
    acc = next(terms)
    for term in terms:
        z = zech[(term - acc) % n]
        total = (acc + z) % n
        total[z == ZERO_LOG] = ZERO_LOG
        np.copyto(total, term, where=acc == ZERO_LOG)
        acc = total
    return acc == ZERO_LOG


def roots_on_units(f: TNomial) -> np.ndarray:
    """root_mask of f; raises FieldTooLarge when q-1 > 2**22."""
    F = f.field
    log = log_tables(F).log
    return root_mask(F, f.exponents, [log[F.element_to_int(c)] for c in f.coefficients])


# -- gcd oracle: x**(q-1) mod f by exact products ----------------------------
#
# The oracle holds a polynomial over F_{p^k} as an (L, k) int64 array of
# base-p digit rows, row i the coefficient of x**i (k = 1 for a prime
# field).  It uses FieldSpec arithmetic and these arrays only, never the
# log tables, so it stays an independent check of the scan.

# Product length from which the limb FFT beats np.convolve.  Best of 7x20
# products of two equal all-(p-1) vectors mod 65521 on a 2-core Xeon with
# numpy 2.4.6: length 767, convolve 96 us, FFT 112 us; 895, 134 and
# 113 us; 1023, 184 and 132 us; 8191, 12.6 ms and 1.41 ms.
FFT_MIN_LENGTH = 800


def count_roots_gcd(f: TNomial) -> int:
    """Number of distinct nonzero roots as deg gcd(f, x**(q-1) - 1).

    Computes x**(q-1) mod f by left-to-right square and multiply; each
    square is reduced by Barrett division, one product with the Newton
    inverse of the reversed f, and each step by x folds one coefficient.
    Then one dense Euclid.  Products are exact (_convolve_mod_p), on
    Kronecker-packed digit rows for F_{p^k}.  Independent of the scan
    counter.  Raises FieldTooLarge when q > 2**16.
    """
    F = f.field
    if F.q > GCD_LIMIT:
        raise FieldTooLarge(f"field size {F.q} exceeds gcd-count limit {GCD_LIMIT}")
    f = normalize_lowest(f)  # gcd(x, x**(q-1) - 1) = 1, so this is free
    d = f.degree
    if d <= 1:
        # a nonzero constant has no root; c1*x + c0 with c0 != 0 has one
        return d
    p = F.p
    fold = _fold_matrix(F)
    fd = np.zeros((d + 1, F.k), dtype=np.int64)
    for a, c in f.terms:
        fd[a] = _digits(F, c)
    lead_inv = F.inv(f.terms[-1][1])
    mul = _mul_tensor(fold)
    # a square loses quotient * c_a x**a; x * x**(d-1) gains -c_a/lead x**a
    low = [(a, mul @ _digits(F, c) % p) for a, c in f.terms[:-1]]
    shift = [(a, mul @ _digits(F, F.neg(F.mul(c, lead_inv))) % p) for a, c in f.terms[:-1]]
    inv = _series_inverse(fd[::-1], d - 1, _digits(F, lead_inv), p, fold)
    cur = np.zeros((d, F.k), dtype=np.int64)
    cur[1, 0] = 1  # the polynomial x
    for bit in bin(F.q - 1)[3:]:
        sq = _mul_rows(cur, cur, p, fold)  # degree <= 2d - 2
        # the quotient, reversed, is rev(top d - 1 coefficients) * inv mod x**(d-1)
        quo = _mul_rows(sq[: d - 1 : -1], inv, p, fold)[d - 2 :: -1]
        cur = sq[:d]
        for a, m in low:
            n = min(d - 1, d - a)
            cur[a : a + n] -= quo[:n] @ m
        cur %= p
        if bit == "1":
            top = cur[-1].copy()
            cur = np.roll(cur, 1, axis=0)
            cur[0] = 0
            for a, m in shift:
                cur[a] = (cur[a] + top @ m) % p
    cur[0, 0] = (cur[0, 0] - 1) % p  # x**(q-1) - 1 reduced mod f
    if F.k == 1:
        return len(_dense_gcd_prime(fd[:, 0], cur[:, 0], p)) - 1
    return _gcd_degree_rows(F, fold, fd, cur)


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


def _mul_rows(a: np.ndarray, b: np.ndarray, p: int, fold: np.ndarray) -> np.ndarray:
    """Exact product of two digit-row polynomials over F_{p^k}.

    Kronecker substitution: each coefficient takes 2k - 1 slots, so the
    digit products of one coefficient pair never reach the next; after one
    product over F_p each block of slots folds to k digits.
    """
    w, k = fold.shape
    n = len(a) + len(b) - 1

    def pack(v: np.ndarray) -> np.ndarray:
        slots = np.zeros((len(v), w), dtype=np.int64)
        slots[:, :k] = v
        return slots.ravel()[: len(v) * w - (k - 1)]

    pa = pack(a)
    prod = _convolve_mod_p(pa, pa if b is a else pack(b), p)
    return prod.reshape(n, w) @ fold % p


def _convolve_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product mod p of two int64 coefficient vectors with entries
    in [0, p), for p < 2**16.

    Below FFT_MIN_LENGTH it is np.convolve, exact while every sum of
    products stays below 2**63.  From there each vector splits into two
    8-bit limbs, and the three limb products come from float64 FFTs,
    which must round to integers within 1/4.
    """
    n = len(a) + len(b) - 1
    if n < FFT_MIN_LENGTH:
        if min(len(a), len(b)) * (p - 1) ** 2 >= 2**63:
            raise InternalInvariantError(f"np.convolve of length {n} mod {p} would overflow int64")
        return np.convolve(a, b) % p
    if p >= 2**16:
        raise InternalInvariantError(f"the two-limb FFT product needs p < 2**16, got {p}")
    size = 1 << (n - 1).bit_length()
    fa = np.fft.rfft(np.stack((a & 255, a >> 8)), size)
    fb = fa if b is a else np.fft.rfft(np.stack((b & 255, b >> 8)), size)
    prods = np.stack((fa[0] * fb[0], fa[0] * fb[1] + fa[1] * fb[0], fa[1] * fb[1]))
    limbs = np.fft.irfft(prods, size)[:, :n]
    exact = np.rint(limbs)
    if np.abs(limbs - exact).max() >= 0.25:
        raise InternalInvariantError(f"limb FFT product of length {n} mod {p} is not exact")
    lo, mid, hi = exact.astype(np.int64) % p
    return (lo + (mid << 8) + (hi << 16)) % p


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


def _dense_gcd_prime(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """gcd of two coefficient arrays over F_p; returns trimmed array."""

    def trim(v: np.ndarray) -> np.ndarray:
        # a remainder rarely ends in more than one zero: look from the top
        n = len(v)
        while n and not v[n - 1]:
            n -= 1
        return v[:n]

    a, b = trim(a % p), trim(b % p)
    while len(b):
        da, db = len(a) - 1, len(b) - 1
        if da < db:
            a, b = b, a
            continue
        r = a.copy()
        inv_lead = pow(int(b[db]), -1, p)
        for i in range(da, db - 1, -1):
            c = int(r[i]) % p
            if c:
                fac = c * inv_lead % p
                r[i - db : i] -= fac * b[:db]
                r[i] = 0
        a, b = b, trim(r % p)
    return a


def _gcd_degree_rows(F: FieldSpec, fold: np.ndarray, a: np.ndarray, b: np.ndarray) -> int:
    """deg gcd of two digit-row polynomials over F_{p^k}, len(a) > len(b).

    Euclid; each division makes the divisor monic with F.inv of its
    leading coefficient, and a scalar acts by its k x k multiplication
    matrix.
    """
    p = F.p
    mul = _mul_tensor(fold)

    def trim(v: np.ndarray) -> np.ndarray:
        nz = np.flatnonzero(v.any(axis=1))
        return v[: nz[-1] + 1] if len(nz) else v[:0]

    a, b = trim(a), trim(b)
    while len(b):
        lead = F.inv(tuple(int(x) for x in b[-1]))
        b = b @ (mul @ _digits(F, lead) % p) % p
        db = len(b) - 1
        r = a.copy()
        for i in range(len(r) - 1, db - 1, -1):
            if r[i].any():
                r[i - db : i] = (r[i - db : i] - b[:db] @ (mul @ r[i] % p)) % p
        a, b = b, trim(r[:db])
    return len(a) - 1


def has_nonzero_root(f: TNomial) -> bool:
    """True iff f vanishes somewhere on the unit group (a full root mask)."""
    return bool(roots_on_units(f).any())


# -- text form ---------------------------------------------------------------
#
# term ::= [coefficient '*'] 'x' ['^' exponent] | coefficient
# polynomial ::= ['-'] term (('+' | '-') term)*
# coefficient ::= integer | '[' integer (',' integer)* ']'
#
# Bracketed coefficients are extension-field vectors in ascending degree.
# Output always uses canonical residues joined by ' + '.


def parse_tnomial(field: FieldSpec, text: str) -> TNomial:
    """Parse the text form of a t-nomial.  Raises ParseError on bad syntax."""
    chunks = _split_terms(text)
    if not chunks:
        raise ParseError("empty polynomial")
    terms = []
    for sign, chunk in chunks:
        a, c = _parse_term(field, chunk)
        if sign < 0:
            c = field.neg(c)
        if c == field.zero:
            raise ZeroCoefficient(f"zero coefficient in term {chunk!r}")
        terms.append((a, c))
    return build(field, terms)


def _split_terms(text: str):
    out = []
    cur = []
    sign = 1
    depth = 0
    prev = ""
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ']'")
        if ch in "+-" and depth == 0 and prev not in ("", "^", "*", "+", "-"):
            out.append((sign, "".join(cur).strip()))
            cur = []
            sign = 1 if ch == "+" else -1
            prev = ""
            continue
        if ch in "+-" and depth == 0 and prev == "":
            # leading sign of the very first term
            if cur or out:
                raise ParseError(f"misplaced sign in {text!r}")
            sign = 1 if ch == "+" else -1
            continue
        cur.append(ch)
        if not ch.isspace():
            prev = ch
    if depth != 0:
        raise ParseError("unbalanced '['")
    tail = "".join(cur).strip()
    if tail:
        out.append((sign, tail))
    elif out or sign != 1:
        raise ParseError(f"dangling operator in {text!r}")
    return out


def _parse_term(field: FieldSpec, chunk: str):
    s = chunk.strip()
    if not s:
        raise ParseError("empty term")
    coeff_txt = None
    if "*" in s:
        coeff_txt, _, s = s.partition("*")
        coeff_txt = coeff_txt.strip()
        s = s.strip()
        if not coeff_txt or not s:
            raise ParseError(f"malformed term {chunk!r}")
    if s.startswith("x"):
        rest = s[1:].strip()
        if rest == "":
            a = 1
        elif rest.startswith("^"):
            a = _parse_int(rest[1:].strip(), chunk)
        else:
            # allow juxtaposed "2x" only when the 2 was not already split by '*'
            raise ParseError(f"malformed term {chunk!r}")
        c = _parse_coefficient(field, coeff_txt) if coeff_txt is not None else field.one
        return a, c
    if coeff_txt is not None:
        raise ParseError(f"malformed term {chunk!r}")
    # bare coefficient, possibly juxtaposed with x ("3x^2")
    for i, ch in enumerate(s):
        if ch == "x":
            c = _parse_coefficient(field, s[:i].strip())
            rest = s[i + 1 :].strip()
            if rest == "":
                return 1, c
            if rest.startswith("^"):
                return _parse_int(rest[1:].strip(), chunk), c
            raise ParseError(f"malformed term {chunk!r}")
    return 0, _parse_coefficient(field, s)


def _parse_int(s: str, chunk: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"bad integer in term {chunk!r}") from None


def _parse_coefficient(field: FieldSpec, s: str) -> Element:
    if not s:
        raise ParseError("missing coefficient")
    if s.startswith("["):
        if not s.endswith("]"):
            raise ParseError(f"malformed coefficient {s!r}")
        body = s[1:-1].strip()
        if not body:
            raise ParseError(f"empty coefficient vector {s!r}")
        parts = [x.strip() for x in body.split(",")]
        vec = [_parse_int(x, s) for x in parts]
        if field.k == 1:
            if len(vec) != 1:
                raise ParseError("vector coefficient in a prime field")
            return vec[0] % field.p
        if len(vec) > field.k:
            raise ParseError(f"coefficient vector longer than degree {field.k}")
        return tuple(v % field.p for v in vec) + (0,) * (field.k - len(vec))
    v = _parse_int(s, s)
    return v % field.p if field.k == 1 else (v % field.p,) + (0,) * (field.k - 1)


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
