"""Degree reduction of a t-nomial by a small common exponent multiplier.

Core fact: among e = 1, ..., n-1 there is one for which every product
e * a_i lies within M of a multiple of N (in the mod-N distance), with
0 < M <= N / n**(1/m) for m exponents.  Pigeonhole proof sketch: split
[0, N)**m into ceil(n**(1/m))**m boxes of side <= N / n**(1/m); two of
the n vectors (e * a_i mod N)_i for e = 0..n-1 share a box, and their
difference gives the multiplier.  find_small_multiple finds the least
such M, and the least e that attains it, without scanning the range: it
walks only the e that bring one exponent within the bound of a multiple
of N, and checks the bound on every result.

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

import numbers
from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

import numpy as np

from .cosets import _C_from_mask, compute_C
from .errors import (
    EmptyInput,
    EmptyRange,
    InternalInvariantError,
    PreconditionViolated,
    TooFewTerms,
)
from .numtheory import gcd_all
from .params import compute_D, compute_delta, root_bound
from .poly import TNomial, build, count_roots_bruteforce, normalize_lowest, roots_on_units

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

    Requires integer exponents, N and n (PreconditionViolated otherwise;
    bools are not integers), n >= 2 (EmptyRange otherwise) and
    n <= N / gcd(a, N) (PreconditionViolated otherwise: beyond that every
    norm can be 0).  Guarantees M**m * n <= N**m for m = len(a).

    The minimal M is at most M0, the largest M with M**m * n <= N**m, so
    every minimizer has e * a_p within M0 of a multiple of N for any one
    exponent a_p.  With g = gcd(a_p, N) those e are r * (a_p/g)**-1
    mod N/g for |r| <= M0/g, lifted by multiples of N/g below n.  The
    walk takes the a_p with the fewest such e, or all of [1, n) when no
    a_p halves the range, and visits them by rising |r| in blocks of at
    most _SCAN_CHUNK products e * a_i, so memory does not grow with their
    number.  Each block drops the e whose distance on another exponent
    exceeds the best norm so far, and the walk ends once g*|r| alone
    exceeds it.
    """
    a = tuple(a)
    integral = (
        type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)
        for x in (N, n, *a)
    )
    if not all(integral):
        raise PreconditionViolated(f"exponents, N and n must be integers, got {a!r}, {N!r}, {n!r}")
    a = tuple(int(x) for x in a)
    N, n = int(N), int(n)
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
    if n * N >= 2**63:
        raise PreconditionViolated(f"the walk's int64 products reach n * N = {n} * {N} >= 2**63")
    m = len(a)
    bound = int(N / n ** (1 / m))
    while (bound + 1) ** m * n <= N**m:
        bound += 1
    while bound**m * n > N**m:
        bound -= 1
    # e*x and e*(N - x) lie equally far from a multiple of N, and x = 0
    # lies at distance 0: one residue of each pair is enough
    residues = sorted({min(x % N, -x % N) for x in a} - {0})
    # a pivot must at least halve the range to pay for its extra passes
    pivot, count = None, n - 1
    for x in residues:
        d = gcd(x, N)
        size = (2 * (bound // d) + 1) * -(-n // (N // d))
        if 2 * size < count:
            pivot, count = x, size
    if pivot is not None:
        g = gcd(pivot, N)
        step = N // g
        inv = pow(pivot // g, -1, step)
        lifts = -(-n // step)
    xs = np.array(residues, dtype=np.int64)
    # a block makes at most _SCAN_CHUNK products e*x; blocks double from
    # 2**12 so that the first survivors lower the cap early
    chunk = max(1, _SCAN_CHUNK // len(residues))
    best, start = None, 0
    while start < count:
        stop = min(count, start + min(chunk, max(start, 1 << 12)))
        idx = np.arange(start, stop, dtype=np.int64)
        start = stop
        if pivot is None:
            es = idx + 1
        else:
            # row k of the lifts holds r = 0, 1, -1, 2, -2, ...
            k = idx // lifts
            half = (k + 1) >> 1
            es = np.where(k & 1, half, -half) * inv % step + (idx - k * lifts) * step
            es = es[(es > 0) & (es < n)]
        cap = bound if best is None else best[0]
        # e*x lies within cap of a multiple of N iff (e*x + cap) mod N <= 2*cap;
        # a pass that keeps more than half of the e is not worth its cost
        for x in residues if 4 * cap < N else ():
            if x != pivot:
                es = es[(es * x + cap) % N <= 2 * cap]
        rem = es[:, None] * xs % N
        norms = np.minimum(rem, N - rem).max(axis=1)
        keep = norms > 0
        es, norms = es[keep], norms[keep]
        if len(es):
            M = int(norms.min())
            cand = (M, int(es[norms == M].min()))
            if best is None or cand < best:
                best = cand
                if pivot is not None:
                    # a later row has g*|r| > M and cannot beat it
                    count = min(count, (2 * (M // g) + 1) * lifts)
    if best is None:
        raise InternalInvariantError("no nonzero-norm multiplier found")
    best_M, e = best
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
    mask = roots_on_units(fn)
    return _degree_reduce(fn, _C_from_mask(fn, mask), int(np.count_nonzero(mask)))


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
