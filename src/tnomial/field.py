"""Exact arithmetic in finite fields F_q, q = p**k.

Elements are plain values, not wrapper objects: an element of a prime
field is an int in [0, p), and an element of an extension field is a
tuple of k ints (coefficients of the residue-class representative in
ascending degree).  All operations go through a FieldSpec, which carries
the characteristic, the modulus, a fixed generator of the unit group,
and the factored unit-group order.

F_{p^k} is F_p[y]/(m).  Its arithmetic runs on one F_p[y] layer at the
end of this module (product, division with remainder, extended Euclid):
a product is reduced mod m, an inverse is the Euclid against m, and m
is irreducible iff gcd(y**(p**i) - y, m) = 1 for every i <= k // 2.

Size ceilings keep every supported operation exact and affordable:
prime fields up to 2**31 and extension fields up to 2**20 elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterator, Union

from .errors import (
    DivisionByZero,
    FieldTooLarge,
    InternalInvariantError,
    NotADivisor,
    NotPrime,
    PreconditionViolated,
    ReducibleModulus,
)
from .numtheory import factorize, is_prime

Element = Union[int, tuple]

PRIME_FIELD_LIMIT = 2**31
EXTENSION_FIELD_LIMIT = 2**20


@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of a finite field plus its arithmetic.

    p: characteristic (prime)
    k: extension degree (1 for a prime field)
    q: field size p**k
    modulus: monic irreducible modulus as a tuple of k+1 ints in
        ascending degree, or None when k == 1
    g: fixed generator of the unit group (smallest in canonical order)
    group_order_factors: prime factorization of q - 1
    """

    p: int
    k: int
    q: int
    modulus: tuple | None
    g: Element
    group_order_factors: tuple

    # -- canonical special elements ------------------------------------

    @property
    def zero(self) -> Element:
        return 0 if self.k == 1 else (0,) * self.k

    @property
    def one(self) -> Element:
        return 1 if self.k == 1 else (1,) + (0,) * (self.k - 1)

    # -- arithmetic ------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        if self.k == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        if self.k == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        if self.k == 1:
            return (-a) % self.p
        return tuple((-x) % self.p for x in a)

    def mul(self, a: Element, b: Element) -> Element:
        if self.k == 1:
            return (a * b) % self.p
        r = _poly_divmod(_poly_mul(a, b, self.p), self.modulus, self.p)[1]
        return tuple(r) + (0,) * (self.k - len(r))

    def inv(self, a: Element) -> Element:
        """Multiplicative inverse; raises DivisionByZero on the zero element."""
        if self.k == 1:
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return pow(a, -1, self.p)
        # m is irreducible: the Euclid of m and a ends at a constant unless m | a
        p = self.p
        r, s = _poly_xgcd(self.modulus, a, p)
        if len(r) != 1:
            raise DivisionByZero("inverse of zero")
        scale = pow(r[0], -1, p)
        return tuple([x * scale % p for x in s]) + (0,) * (self.k - len(s))

    def pow(self, a: Element, e: int) -> Element:
        """a**e with e any integer; negative e inverts first."""
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        if a == self.zero:
            return self.zero if e else self.one
        e %= self.q - 1
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- canonical integer encoding ---------------------------------------

    def element_from_int(self, n: int) -> Element:
        """Decode the canonical integer label n in [0, q) to an element.

        Prime fields use the value itself; extension fields read n in
        base p, least-significant digit = constant coefficient.
        """
        if not 0 <= n < self.q:
            raise PreconditionViolated(f"element label {n} out of range for q={self.q}")
        if self.k == 1:
            return n
        digits = []
        for _ in range(self.k):
            digits.append(n % self.p)
            n //= self.p
        return tuple(digits)

    def element_to_int(self, a: Element) -> int:
        if self.k == 1:
            return a
        n = 0
        for d in reversed(a):
            n = n * self.p + d
        return n

    # -- iteration ---------------------------------------------------------

    def elements(self) -> Iterator[Element]:
        """All q elements in canonical integer order."""
        for n in range(self.q):
            yield self.element_from_int(n)

    def unit_powers(self) -> Iterator[Element]:
        """g**0, g**1, ..., g**(q-2): every nonzero element exactly once."""
        x = self.one
        for _ in range(self.q - 1):
            yield x
            x = self.mul(x, self.g)


def make_prime_field(p: int) -> FieldSpec:
    """Construct F_p.  Raises NotPrime / FieldTooLarge on bad input."""
    if p < 2 or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p > PRIME_FIELD_LIMIT:
        raise FieldTooLarge(f"prime field size {p} exceeds {PRIME_FIELD_LIMIT}")
    factors = factorize(p - 1)
    spec = FieldSpec(p=p, k=1, q=p, modulus=None, g=1, group_order_factors=factors)
    g = _find_generator(spec)
    return FieldSpec(p=p, k=1, q=p, modulus=None, g=g, group_order_factors=factors)


def make_extension_field(p: int, k: int, modulus=None) -> FieldSpec:
    """Construct F_{p**k}, k >= 2.

    modulus, if given, is a sequence of k+1 ints (ascending degree) that
    must be monic and irreducible mod p; otherwise the smallest monic
    irreducible in canonical integer order is used.
    """
    if p < 2 or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 2:
        raise PreconditionViolated("extension degree must be >= 2; use make_prime_field for k=1")
    q = p**k
    if q > EXTENSION_FIELD_LIMIT:
        raise FieldTooLarge(f"extension field size {q} exceeds {EXTENSION_FIELD_LIMIT}")
    if modulus is None:
        mod = _smallest_irreducible(p, k)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1:
            raise ReducibleModulus(f"modulus must be monic of degree {k}")
        if not _is_irreducible(mod, p):
            raise ReducibleModulus(f"modulus {list(mod)} is reducible mod {p}")
    factors = factorize(q - 1)
    spec = FieldSpec(p=p, k=k, q=q, modulus=mod, g=(1,) + (0,) * (k - 1),
                     group_order_factors=factors)
    g = _find_generator(spec)
    return FieldSpec(p=p, k=k, q=q, modulus=mod, g=g, group_order_factors=factors)


def _find_generator(spec: FieldSpec) -> Element:
    """Smallest unit-group generator in canonical integer order.

    x generates iff x**((q-1)/l) != 1 for every prime l dividing q-1.
    """
    checks = [(spec.q - 1) // ell for ell, _ in spec.group_order_factors]
    one = spec.one
    # for k >= 2 the labels below p are F_p, whose unit orders divide p-1 < q-1
    for n in range(1 if spec.k == 1 else spec.p, spec.q):
        x = spec.element_from_int(n)
        if all(spec.pow(x, c) != one for c in checks):
            return x
    raise InternalInvariantError("no unit-group generator found")  # pragma: no cover


def subgroup_of_order(field: FieldSpec, d: int) -> Element:
    """Canonical generator g**((q-1)/d) of the unique subgroup of order d.

    Raises NotADivisor unless d | q-1.
    """
    n = field.q - 1
    if d < 1 or n % d != 0:
        raise NotADivisor(f"{d} does not divide the unit-group order {n}")
    return field.pow(field.g, n // d)


def subgroup_elements(field: FieldSpec, d: int) -> list:
    """The d elements of the order-d subgroup, as successive powers of
    its canonical generator."""
    h = subgroup_of_order(field, d)
    out = []
    x = field.one
    for _ in range(d):
        out.append(x)
        x = field.mul(x, h)
    return out


# -- the F_p[y] layer: product, division, extended Euclid -------------------
# A polynomial is a sequence of ints in [0, p), constant term first.


def _poly_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p: int) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % p for c in out]


def _poly_divmod(a, b, p: int) -> tuple:
    """(quotient, remainder) of a by b over F_p; b need not be monic.
    The remainder is trimmed."""
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    quo = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        f = a[i] * inv_lead % p
        if f:
            quo[i - db] = f
            # a[i] itself is left as is: only a[:db] is read back
            for j in range(db):
                a[i - db + j] = (a[i - db + j] - f * b[j]) % p
    return quo, _poly_trim(a[:db])


def _poly_xgcd(a, b, p: int) -> tuple:
    """(r, s) with s*b = r mod a, for a trimmed a of degree >= 1.

    Runs the Euclidean remainder sequence of a and b and stops at the
    first remainder of degree <= 0.  If that remainder is a nonzero
    constant, gcd(a, b) = 1 and r is that constant; otherwise r is the
    last nonzero remainder, a gcd of a and b of degree >= 1.
    """
    r0, r1 = a, _poly_trim(list(b))
    s0, s1 = [], [1]
    while len(r1) > 1:
        quo, rem = _poly_divmod(r0, r1, p)
        prod = _poly_mul(quo, s1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, [(x - y) % p for x, y in zip_longest(s0, prod, fillvalue=0)]
    return (r1, s1) if r1 else (r0, s0)


def _poly_powmod(base, e: int, m, p: int) -> list:
    result = [1]
    b = _poly_divmod(base, m, p)[1]
    while e:
        if e & 1:
            result = _poly_divmod(_poly_mul(result, b, p), m, p)[1]
        b = _poly_divmod(_poly_mul(b, b, p), m, p)[1]
        e >>= 1
    return result


def _is_irreducible(m: tuple, p: int) -> bool:
    """Irreducibility of a monic m of degree k >= 1 mod p.

    A reducible m has an irreducible factor of degree d <= k // 2, which
    divides y**(p**d) - y; an irreducible m of degree k divides
    y**(p**i) - y only for k | i.  So m is irreducible iff
    gcd(y**(p**i) - y, m) is constant for every 1 <= i <= k // 2.
    """
    r = [0, 1]  # the polynomial y
    for _ in range((len(m) - 1) // 2):
        r = _poly_powmod(r, p, m, p)
        diff = r + [0] * (2 - len(r))
        diff[1] = (diff[1] - 1) % p
        if len(_poly_xgcd(m, diff, p)[0]) != 1:
            return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple:
    """Smallest monic irreducible of degree k, ordered by the canonical
    integer encoding of the k lower coefficients."""
    for n in range(p**k):
        lower = []
        nn = n
        for _ in range(k):
            lower.append(nn % p)
            nn //= p
        m = tuple(lower) + (1,)
        if _is_irreducible(m, p):
            return m
    raise InternalInvariantError(
        f"no irreducible of degree {k} over F_{p}"
    )  # pragma: no cover
