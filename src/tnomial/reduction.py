"""Degree reduction of a t-nomial by a small common exponent multiplier.

Core fact: among e = 1, ..., n-1 there is one for which every product
e * a_i lies within M of a multiple of N (in the mod-N distance), with
0 < M <= N / n**(1/m) for m exponents.  Pigeonhole proof sketch: split
[0, N)**m into ceil(n**(1/m))**m boxes of side <= N / n**(1/m); two of
the n vectors (e * a_i mod N)_i for e = 0..n-1 share a box, and their
difference gives the multiplier.  find_small_multiple recovers such an
e by exhaustive scan, which also serves as a ground-truth check of the
existence bound.

degree_reduce applies this to the exponents of f (lowest normalized to
0): with b_i = e * a_i + v_i the centered representative, |b_i| <= M,
the polynomials

    h_i(x) = x**M * f_normalized(g**i * x**e),  i = 0..k-1,  k = gcd(e, N)

have degree at most 2M, and x -> g**i x**e maps the units onto the k
images of the index-k power map, so R(f) = (sum_i R(h_i)) / k.  The
substitution preserves distinct roots within each image because x**e is
k-to-1 on units and each root of f is hit by exactly k pairs (i, x).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

import numpy as np

from .cosets import compute_C
from .errors import (
    EmptyInput,
    EmptyRange,
    InternalInvariantError,
    PreconditionViolated,
    TooFewTerms,
)
from .numtheory import gcd_all
from .params import compute_D, compute_delta, root_bound
from .poly import TNomial, build, count_roots_bruteforce, normalize_lowest

_SCAN_CHUNK = 1 << 20


def modular_norm(vec, N: int) -> int:
    """max_i min(r_i, N - r_i) where r_i = vec_i mod N: the largest
    distance of any coordinate from the nearest multiple of N."""
    if N < 1:
        raise PreconditionViolated(f"modulus must be positive, got {N}")
    vals = [v % N for v in vec]
    if not vals:
        raise EmptyInput("norm of empty vector")
    return max(min(r, N - r) for r in vals)


class SmallMultiple(NamedTuple):
    e: int
    v: tuple
    M: int


def find_small_multiple(a, N: int, n: int) -> SmallMultiple:
    """Smallest-norm multiplier e in [1, n) for the exponent vector a.

    Returns (e, v, M) with M = modular_norm(e * a, N) minimal over the
    range (smallest e on ties), v_i the integer making e*a_i + v_i the
    centered representative of e*a_i mod N in [-N/2, N/2] (ties at N/2
    take the positive side), and M = max |e*a_i + v_i| > 0.

    Requires n >= 2 (EmptyRange otherwise) and n <= N / gcd(a, N)
    (PreconditionViolated otherwise: beyond that every norm can be 0).
    Guarantees M**m * n <= N**m for m = len(a).
    """
    a = tuple(int(x) for x in a)
    if not a:
        raise EmptyInput("empty exponent vector")
    if N < 1:
        raise PreconditionViolated(f"modulus must be positive, got {N}")
    if n < 2:
        raise EmptyRange(f"multiplier range [1, {n}) is empty")
    g = gcd_all(a, N)
    if n > N // g:
        raise PreconditionViolated(
            f"range bound {n} exceeds N/gcd(a, N) = {N // g}"
        )
    m = len(a)
    a_mod = np.array([x % N for x in a], dtype=np.int64)
    best_M = None
    best_e = None
    for start in range(1, n, _SCAN_CHUNK):
        es = np.arange(start, min(start + _SCAN_CHUNK, n), dtype=np.int64)
        norms = np.zeros(len(es), dtype=np.int64)
        for ai in a_mod:
            r = (es * int(ai)) % N
            np.maximum(norms, np.minimum(r, N - r), out=norms)
        norms[norms == 0] = np.iinfo(np.int64).max
        i = int(np.argmin(norms))
        if best_M is None or int(norms[i]) < best_M:
            best_M = int(norms[i])
            best_e = int(es[i])
    if best_M is None or best_M == np.iinfo(np.int64).max:
        raise InternalInvariantError("no nonzero-norm multiplier found")
    e = best_e
    v = []
    for ai in a:
        r = (e * ai) % N
        rep = r if r <= N - r else r - N
        v.append(rep - e * ai)
    M = max(abs(e * ai + vi) for ai, vi in zip(a, v))
    if M != best_M or not 0 < M**m * n <= N**m:
        raise InternalInvariantError(
            f"multiplier quality bound failed: M={M}, n={n}, N={N}, m={m}"
        )
    return SmallMultiple(e=e, v=tuple(v), M=M)


@dataclass(frozen=True)
class ReductionCertificate:
    """Outcome of a degree reduction, with enough data to replay it.

    original: the input after lowest-exponent normalization
    n: the multiplier range actually scanned (hypothesis-respecting)
    e, v, M: the small multiple of the nonzero exponents
    k: gcd(e, q-1), the number of reduced polynomials
    reduced_polys: k polynomials h_i of degree <= 2M
    root_accounting: (R(h_0), ..., R(h_{k-1})); their sum is k * R(f)
    root_count: R(f)
    """

    original: TNomial
    n: int
    e: int
    v: tuple
    M: int
    k: int
    reduced_polys: tuple
    root_accounting: tuple
    root_count: int

    @property
    def N(self) -> int:
        return self.original.field.q - 1

    @property
    def coset_split(self) -> bool:
        """True when the reduction splits the units into k > 1 cosets."""
        return self.k > 1


def degree_reduce(f: TNomial) -> ReductionCertificate:
    """Replace root counting for f by root counting for gcd(e, q-1)
    polynomials of degree <= 2M, M roughly (q-1) / C**(1/(t-1)).

    The scan range is n = min((q-1) // max(C(f), 1), (q-1) // delta')
    where delta' = gcd of the normalized nonzero exponents with q-1;
    the second cap keeps the range precondition valid when f is
    root-free but has a large common exponent divisor.  The returned
    accounting is verified internally against a direct root count.
    """
    if f.t < 2:
        raise TooFewTerms("degree reduction needs t >= 2")
    fn = normalize_lowest(f)
    return _degree_reduce(fn, compute_C(fn), count_roots_bruteforce(fn))


def _degree_reduce(fn: TNomial, C: int, direct: int) -> ReductionCertificate:
    """degree_reduce of the normalized fn (t >= 2), given C(fn) and R(fn)."""
    F = fn.field
    N = F.q - 1
    exps = fn.exponents[1:]  # nonzero exponents; lowest is 0
    c_eff = max(C, 1)
    delta_prime = gcd_all(exps, N)
    n = min(N // c_eff, N // delta_prime)
    if n < 2:
        raise EmptyRange(
            f"no admissible multiplier range for q={F.q} with C={c_eff}"
        )
    e, v, M = find_small_multiple(exps, N, n)
    k = gcd(e, N)
    reps = [ea + vi for ea, vi in zip((e * a for a in exps), v)]
    reduced = []
    for i in range(k):
        # h_i = x**M * fn(g**i * x**e); term j maps to
        # c_j * g**(i*a_j) * x**(M + b_j) with b_j the centered rep
        terms = [(M, fn.coefficients[0])]
        for a, c, b in zip(exps, fn.coefficients[1:], reps):
            terms.append((M + b, F.mul(c, F.pow(F.g, (i * a) % N))))
        try:
            reduced.append(build(F, terms))
        except Exception as exc:  # cancellation here would break the count
            raise InternalInvariantError(
                f"reduced polynomial {i} degenerated: {exc}"
            ) from exc
    accounting = tuple(count_roots_bruteforce(h) for h in reduced)
    if sum(accounting) != k * direct:
        raise InternalInvariantError(
            f"root accounting failed: sum {sum(accounting)} != {k} * {direct}"
        )
    return ReductionCertificate(
        original=fn,
        n=n,
        e=e,
        v=v,
        M=M,
        k=k,
        reduced_polys=tuple(reduced),
        root_accounting=accounting,
        root_count=direct,
    )


class CosetBound(NamedTuple):
    bound_C: float
    bound_delta: float | None


def bound_from_C(f: TNomial) -> CosetBound:
    """Root-count bounds driven by the coset-vanishing parameter.

    bound_C = 2 * (q-1)**(1-eps) * max(C,1)**eps with eps = 1/(t-1)
    always applies.  bound_delta substitutes delta for C and applies
    only when C**(t-1) < delta**(t-2) * (q-1) (checked exactly); it is
    None otherwise.  delta here is taken after lowest-exponent
    normalization: R and C are invariant under factoring out x**a_1,
    while the raw exponent gcd is not.
    """
    if f.t < 2:
        raise TooFewTerms("bounds need t >= 2")
    return _bound_from_C(f, compute_C(f))


def _bound_from_C(f: TNomial, C: int) -> CosetBound:
    """bound_from_C of f (t >= 2), given C(f)."""
    N = f.field.q - 1
    t = f.t
    c_eff = max(C, 1)
    delta = compute_delta(normalize_lowest(f))
    bound_d = root_bound(N, t, delta) if c_eff ** (t - 1) < delta ** (t - 2) * N else None
    return CosetBound(bound_C=root_bound(N, t, c_eff), bound_delta=bound_d)


def bound_from_D(f: TNomial) -> float:
    """Baseline root-count bound 2 * (q-1)**(1-eps) * D**eps from the
    min-max pairwise exponent gcd D, eps = 1/(t-1)."""
    if f.t < 2:
        raise TooFewTerms("bounds need t >= 2")
    return root_bound(f.field.q - 1, f.t, compute_D(f))
