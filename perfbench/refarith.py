"""Reference finite-field arithmetic for the benchmark, written apart from tnomial.

Everything the benchmark uses to build its inputs and to check the
program's outputs lives here, so that no check relies on the code it
checks.  Prime fields use plain modular powers on numpy int64 arrays
(p < 2**31, so every product stays below 2**62).  Extension fields use
polynomial-basis multiplication modulo a monic modulus, on arrays of
coefficient vectors of shape (count, k).
"""

from __future__ import annotations

import math

import numpy as np


def prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def divisors(n: int) -> list:
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def pairing_set(exps, n: int) -> tuple:
    """S(f): the divisors k of n for which every exponent has a partner
    (another exponent) in its residue class mod k."""
    out = []
    for k in divisors(n):
        counts: dict = {}
        for a in exps:
            counts[a % k] = counts.get(a % k, 0) + 1
        if all(v >= 2 for v in counts.values()):
            out.append(k)
    return tuple(out)


class Field:
    """F_q as q = p**k, with elements as int64 arrays of shape (count, k).

    A prime field is the case k == 1 with modulus None.  Element labels
    follow the program's text format: digit i of the base-p label is the
    coefficient of alpha**i.
    """

    def __init__(self, p: int, k: int = 1, modulus=None):
        self.p, self.k, self.q = p, k, p**k
        self.modulus = None if modulus is None else tuple(int(c) % p for c in modulus)
        if k > 1 and (self.modulus is None or len(self.modulus) != k + 1 or self.modulus[-1] != 1):
            raise ValueError("extension fields need a monic modulus of degree k")

    # -- encoding ---------------------------------------------------------

    def decode(self, labels) -> np.ndarray:
        labels = np.asarray(labels, dtype=np.int64)
        out = np.empty((len(labels), self.k), dtype=np.int64)
        rest = labels.copy()
        for i in range(self.k):
            out[:, i] = rest % self.p
            rest //= self.p
        return out

    def encode(self, vecs: np.ndarray) -> np.ndarray:
        out = np.zeros(len(vecs), dtype=np.int64)
        for i in range(self.k - 1, -1, -1):
            out = out * self.p + vecs[:, i]
        return out

    def units(self) -> np.ndarray:
        return self.decode(np.arange(1, self.q, dtype=np.int64))

    def const(self, c, count: int = 1) -> np.ndarray:
        vec = [c] if isinstance(c, int) else list(c)
        vec = vec + [0] * (self.k - len(vec))
        return np.tile(np.array(vec, dtype=np.int64) % self.p, (count, 1))

    # -- arithmetic on arrays of elements ---------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        p, k = self.p, self.k
        if k == 1:
            return a * b % p
        prod = np.zeros((len(a), 2 * k - 1), dtype=np.int64)
        for i in range(k):
            prod[:, i : i + k] += a[:, i : i + 1] * b
        prod %= p
        for d in range(2 * k - 2, k - 1, -1):
            top = prod[:, d : d + 1]
            prod[:, d - k : d] -= top * np.array(self.modulus[:k], dtype=np.int64)
            prod[:, d - k : d] %= p
        return prod[:, :k] % p

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        result = self.const(1, len(a))
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    def inv(self, a: np.ndarray) -> np.ndarray:
        return self.pow(a, self.q - 2)

    def is_zero(self, a: np.ndarray) -> np.ndarray:
        return ~a.any(axis=1)

    def evaluate(self, terms, xs: np.ndarray) -> np.ndarray:
        """Values of sum c * x**a at every row of xs."""
        acc = np.zeros_like(xs)
        for a, c in terms:
            acc = self.add(acc, self.mul(self.const(c, len(xs)), self.pow(xs, a)))
        return acc

    def has_order(self, x, order: int) -> bool:
        """True iff x has multiplicative order exactly `order`.  An element
        of order q - 1 proves the modulus irreducible: the ring then has
        q - 1 units, so it is a field."""
        xa = self.const(x)
        if not np.array_equal(self.pow(xa, order), self.const(1)):
            return False
        return all(
            not np.array_equal(self.pow(xa, order // ell), self.const(1))
            for ell in prime_factors(order)
        )

    # -- scalar helpers for the input generator ---------------------------

    def scalar(self, arr: np.ndarray):
        row = [int(v) for v in arr[0]]
        return row[0] if self.k == 1 else tuple(row)


def is_irreducible(modulus, p: int) -> bool:
    """Monic modulus of degree k is irreducible iff no monic polynomial of
    degree 1..k//2 divides it (trial division over F_p)."""
    m = [int(c) % p for c in modulus]
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for label in range(p**d):
            div = [(label // p**i) % p for i in range(d)] + [1]
            rem = list(m)
            for i in range(k, d - 1, -1):
                c = rem[i]
                if c:
                    for j in range(d + 1):
                        rem[i - d + j] = (rem[i - d + j] - c * div[j]) % p
            if not any(rem[:d]):
                return False
    return True


def small_multiple(exps, N: int, n: int) -> tuple:
    """(e, M): the multiplier e in [1, n) minimising M = max_i of the
    distance from e * a_i to the nearest multiple of N, ignoring e with
    M = 0, smallest e on ties (the degree-reduction multiplier)."""
    es = np.arange(1, n, dtype=np.int64)
    norms = np.zeros(len(es), dtype=np.int64)
    for a in exps:
        r = es * (a % N) % N
        norms = np.maximum(norms, np.minimum(r, N - r))
    norms[norms == 0] = np.iinfo(np.int64).max
    i = int(np.argmin(norms))
    return int(es[i]), int(norms[i])


def reduction(exps, N: int, C: int) -> tuple:
    """(n, e, M) of degree reduction: the multiplier range
    n = min(N // max(C, 1), N // delta'), delta' the gcd of the nonzero
    exponents after shifting the lowest to 0, and the small multiple of
    those exponents over [1, n)."""
    low = min(exps)
    shifted = [a - low for a in exps if a != low]
    g = 0
    for a in shifted:
        g = math.gcd(g, a)
    n = min(N // max(C, 1), N // math.gcd(g, N))
    return (n, *small_multiple(shifted, N, n))


def root_mask(ref: Field, terms, units: np.ndarray) -> np.ndarray:
    return ref.is_zero(ref.evaluate(terms, units))


def vanishing_cosets(ref: Field, zero: np.ndarray, units: np.ndarray, size: int) -> np.ndarray:
    """Labels beta of the cosets {x : x**size = beta} on which every unit
    is a root."""
    keys = ref.encode(ref.pow(units, size))
    members = np.bincount(keys, minlength=ref.q)
    roots = np.bincount(keys[zero], minlength=ref.q)
    return np.flatnonzero((members > 0) & (roots == members))
