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
lookups (root_mask), the same way for every field; the root count, the
vanishing cosets and the coset decomposition are read off its mask.
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
        raise ValueError("vector coefficient supplied for a prime field")
    if len(c) > field.k:
        raise ValueError(f"coefficient vector longer than extension degree {field.k}")
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

ZERO_LOG = -1  # the discrete log of the zero element, in tables and kernel input

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

    coeff_logs holds log c_i (ZERO_LOG for c_i = 0), shape (t,) for one
    polynomial or (B, t) for a batch; the mask is (q-1,) or (B, q-1).
    Term i at g**j has log (log c_i + a_i*j) mod q-1, and terms are added
    by Zech's logarithm, log(X + Y) = log X + zech[log Y - log X].
    """
    n = field.q - 1
    zech = log_tables(field).zech
    logs = np.asarray(coeff_logs, dtype=np.int64)
    j = np.arange(n, dtype=np.int64)
    acc = np.full(logs.shape[:-1] + (n,), ZERO_LOG, dtype=np.int64)
    for a, lc in zip(exponents, logs.T):
        lc = lc[..., None]
        term = np.where(lc == ZERO_LOG, ZERO_LOG, (lc + (a % n) * j) % n)
        z = zech[(term - acc) % n]
        total = (acc + z) % n
        total[z == ZERO_LOG] = ZERO_LOG
        # a zero summand leaves the other one
        np.copyto(total, term, where=acc == ZERO_LOG)
        np.copyto(total, acc, where=term == ZERO_LOG)
        acc = total
    return acc == ZERO_LOG


def roots_on_units(f: TNomial) -> np.ndarray:
    """root_mask of f; raises FieldTooLarge when q-1 > 2**22."""
    F = f.field
    log = log_tables(F).log
    return root_mask(F, f.exponents, [log[F.element_to_int(c)] for c in f.coefficients])


def count_roots_gcd(f: TNomial) -> int:
    """Number of distinct nonzero roots as deg gcd(f, x**(q-1) - 1).

    Computes x**(q-1) mod f by square and multiply (sparse reduction by
    f at each step), then one dense gcd.  Independent of the scan
    counter.  Raises FieldTooLarge when q > 2**16.
    """
    F = f.field
    if F.q > GCD_LIMIT:
        raise FieldTooLarge(f"field size {F.q} exceeds gcd-count limit {GCD_LIMIT}")
    f = normalize_lowest(f)  # gcd(x, x**(q-1) - 1) = 1, so this is free
    if f.degree == 0:
        return 0  # nonzero constant
    if F.k == 1:
        return _count_roots_gcd_prime(f)
    return _count_roots_gcd_generic(f)


def _count_roots_gcd_prime(f: TNomial) -> int:
    p = f.field.p
    d = f.degree
    lead_inv = pow(f.terms[-1][1], -1, p)
    # reduction rule: x**d = -lead_inv * (lower terms)
    low = [(a, c) for a, c in f.terms[:-1]]

    def reduce_sparse(r: np.ndarray) -> np.ndarray:
        # r: int64 coefficient array, entries already in [0, p)
        for i in range(len(r) - 1, d - 1, -1):
            c = int(r[i])
            if c:
                fac = c * lead_inv % p
                for a, ca in low:
                    r[i - d + a] = (r[i - d + a] - fac * ca) % p
                r[i] = 0
        return r[:d]

    # x**(p-1) mod f by left-to-right square and multiply
    e = p - 1
    cur = np.zeros(d if d > 1 else 1, dtype=np.int64)
    if d == 1:
        # f = c1*x + c0 with c0 != 0: x = -c0/c1 is its one nonzero root
        return 1
    cur[1] = 1  # the polynomial x; e >= 2 here since p >= 3 when d >= 2
    for bit in bin(e)[3:]:
        sq = np.convolve(cur, cur) % p
        cur = reduce_sparse(sq)
        if bit == "1":
            shifted = np.concatenate((np.zeros(1, dtype=np.int64), cur))
            cur = reduce_sparse(shifted)
    cur = cur.copy()
    cur[0] = (cur[0] - 1) % p  # x**(q-1) - 1 reduced mod f
    fd = np.zeros(d + 1, dtype=np.int64)
    for a, c in f.terms:
        fd[a] = c
    g = _dense_gcd_prime(fd, cur, p)
    return len(g) - 1


def _dense_gcd_prime(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """gcd of two coefficient arrays over F_p; returns trimmed array."""

    def trim(v: np.ndarray) -> np.ndarray:
        nz = np.flatnonzero(v)
        return v[: nz[-1] + 1] if len(nz) else v[:0]

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


def _count_roots_gcd_generic(f: TNomial) -> int:
    F = f.field
    d = f.degree
    if d == 1:
        return 1
    fd = [F.zero] * (d + 1)
    for a, c in f.terms:
        fd[a] = c

    def trim(v: list) -> list:
        while v and v[-1] == F.zero:
            v.pop()
        return v

    def rem(a: list, b: list) -> list:
        a = list(a)
        db = len(b) - 1
        inv_lead = F.inv(b[-1])
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            if c != F.zero:
                fac = F.mul(c, inv_lead)
                for j in range(db + 1):
                    a[i - db + j] = F.sub(a[i - db + j], F.mul(fac, b[j]))
        return trim(a[:db])

    def mulmod(a: list, b: list) -> list:
        out = [F.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x != F.zero:
                for j, y in enumerate(b):
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
        return rem(out, fd)

    cur = [F.zero, F.one]  # x
    for bit in bin(F.q - 1)[3:]:
        cur = mulmod(cur, cur)
        if bit == "1":
            cur = rem([F.zero] + cur, fd)
    cur = list(cur) + [F.zero] * max(0, 1 - len(cur))
    cur[0] = F.sub(cur[0], F.one)
    a, b = trim(list(fd)), trim(cur)
    while b:
        a, b = b, rem(a, b)
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
