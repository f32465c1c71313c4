"""Exponent-structure parameters of a t-nomial.

All of these depend only on the canonical exponents a_1 < ... < a_t and
on n = q - 1:

  delta : gcd(a_1, ..., a_t, n)
  D     : min_i max_j gcd(a_i - a_j, n)            (j ranges over j != i)
  Q     : gcd_i lcm_j gcd(a_i - a_j, n)
  K     : min_i max_j gcd(a_i - a_j, Q)
  S     : divisors k of n such that every exponent has a partner
          congruent to it mod k (the partner must be a different term)

S is closed under divisors, contains delta, every member divides Q, and
max(S) <= K <= min(D, Q).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import TooFewTerms
from .numtheory import divisors, gcd_all, lcm_all
from .poly import TNomial


@dataclass(frozen=True)
class ParamReport:
    q: int
    t: int
    delta: int
    D: int
    Q: int
    K: int
    S: tuple


def compute_delta(f: TNomial) -> int:
    return gcd_all(f.exponents, f.field.q - 1)


def compute_D(f: TNomial) -> int:
    n = f.field.q - 1
    exps = f.exponents
    if len(exps) < 2:
        raise TooFewTerms("D needs t >= 2")
    return min(max(math.gcd(a - b, n) for b in exps if b != a) for a in exps)


def compute_Q(f: TNomial) -> int:
    n = f.field.q - 1
    exps = f.exponents
    if len(exps) < 2:
        raise TooFewTerms("Q needs t >= 2")
    return gcd_all(
        lcm_all(math.gcd(a - b, n) for b in exps if b != a) for a in exps
    )


def compute_K(f: TNomial) -> int:
    Q = compute_Q(f)
    exps = f.exponents
    return min(max(math.gcd(a - b, Q) for b in exps if b != a) for a in exps)


def pairs_up(exps, k: int) -> bool:
    """Whether the exponents pair up mod k: every residue class that
    contains an exponent contains at least two."""
    return all(v >= 2 for v in Counter(a % k for a in exps).values())


def compute_S(f: TNomial) -> tuple:
    """All k | q-1 such that the exponents pair up mod k.

    For t = 1 no exponent can have a partner, so S is empty.
    """
    return tuple(k for k in divisors(f.field.q - 1) if pairs_up(f.exponents, k))


def root_bound(N: int, t: int, X: int) -> float:
    """The printed root-count bound 2 * N**(1-eps) * X**eps, eps = 1/(t-1)."""
    eps = 1.0 / (t - 1)
    return 2.0 * N ** (1.0 - eps) * X**eps


def within_root_bound(R: int, N: int, t: int, X: int) -> bool:
    """R <= root_bound(N, t, X) in integers: R**(t-1) <= 2**(t-1) * N**(t-2) * X."""
    return R ** (t - 1) <= 2 ** (t - 1) * N ** (t - 2) * X


def compute_params(f: TNomial) -> ParamReport:
    """All exponent parameters at once.  Raises TooFewTerms for t < 2."""
    if f.t < 2:
        raise TooFewTerms("parameters are defined for t >= 2")
    return ParamReport(
        q=f.field.q,
        t=f.t,
        delta=compute_delta(f),
        D=compute_D(f),
        Q=compute_Q(f),
        K=compute_K(f),
        S=compute_S(f),
    )
