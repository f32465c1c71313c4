"""Small exact number-theory helpers: primality, factorization, divisors.

Everything here works on plain Python ints with trial division, which is
ample for the supported range (inputs below 2**31, so trial divisors stay
below 2**16).
"""

from __future__ import annotations

import math
from functools import reduce

from .errors import EmptyInput, PreconditionViolated


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, multiplicity), ...) with
    primes ascending.  factorize(1) == ()."""
    if n < 1:
        raise PreconditionViolated(f"cannot factorize {n}")
    out = []
    for p in _trial_divisors(n):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _trial_divisors(n):
    yield 2
    yield 3
    d = 5
    while d * d <= n:
        yield d
        yield d + 2
        d += 6


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return tuple(sorted(ds))


def gcd_all(values, extra: int | None = None) -> int:
    """gcd of an iterable of ints, optionally folded with one more value.

    gcd_all([], extra) == extra; gcd_all([]) raises EmptyInput.
    """
    vals = list(values)
    if extra is not None:
        vals.append(extra)
    if not vals:
        raise EmptyInput("gcd of empty collection")
    return reduce(math.gcd, vals)


def lcm_all(values) -> int:
    vals = list(values)
    if not vals:
        raise EmptyInput("lcm of empty collection")
    return reduce(math.lcm, vals)


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out
