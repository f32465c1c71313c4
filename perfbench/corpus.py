"""Seeded input generator for the four benchmark corpora.

A corpus is a fixed table of slots per workload; the seed fills each slot
with a fresh polynomial (or fresh sampling seeds for the experiment
commands).  Slots fix everything that sets how much work an operation
does: the field, the term count t, the exponent span where the gcd
oracle runs, the pairing set S(f) that decides how many subgroups the C
search walks, the number k of reduced polynomials, and whether f has a
root.  The seed picks exponents, coefficients, the planted coset and,
for extension fields, the irreducible modulus.  So every seed gives a
corpus of the same shape and nearly the same cost.

Two kinds of analyze slot:

  random   exponents and coefficients drawn until S(f), k and the
           presence of a root match the slot and f vanishes on no coset
           larger than one point.
  planted  f = sum_j x**r_j * h_j(x**m) with every h_j vanishing at
           beta = y**m for a random unit y, so f vanishes on the whole
           coset {x : x**m = beta} of size m.  Drawn until S(f) is
           exactly the divisors of m, so C(f) = m.

All arithmetic here is the benchmark's own (refarith), never tnomial's.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from refarith import (Field, divisors, is_irreducible, pairing_set, reduction, root_mask,
                      vanishing_cosets)


@dataclass(frozen=True)
class FieldDesc:
    p: int
    k: int = 1
    modulus: tuple | None = None

    @property
    def q(self) -> int:
        return self.p**self.k


@dataclass(frozen=True)
class AnalyzeOp:
    field: FieldDesc
    terms: tuple  # ((exponent, coefficient), ...), coefficient int or tuple
    text: str
    planted: int  # planted coset size m, 0 for a random polynomial


@dataclass(frozen=True)
class CliOp:
    argv: tuple
    command: str  # max-r | conjecture | sample-c2 | root-dist


@dataclass(frozen=True)
class Corpus:
    fields: tuple
    ops: tuple


class Slot(NamedTuple):
    """One analyze operation of a corpus.

    kind   "random" or "planted"
    p, k   the field F_{p^k}
    size   t for a random slot, the planted coset size m otherwise
    shape  the target S(f) for a random slot, the term count of each
           residue class mod m for a planted slot
    span   None: exponents anywhere in [0, q-2]; otherwise they span
           exactly [0, span], the degree the gcd oracle works on
    red_k  the number of reduced polynomials degree reduction makes
    rooted for a random slot, whether f has a nonzero root; a random f
           never vanishes on a coset larger than one point
    """

    kind: str
    p: int
    k: int
    size: int
    shape: tuple
    span: int | None
    red_k: int
    rooted: bool = True


ANALYZE_PRIME = (
    Slot("random", 65537, 1, 7, (1,), None, 1, True),
    Slot("random", 65543, 1, 2, (1,), None, 1, True),
    Slot("random", 66067, 1, 5, (1,), None, 2, False),
    Slot("random", 65543, 1, 8, (1,), None, 1, True),
    Slot("planted", 66067, 1, 6, (2, 2), None, 1),
    Slot("planted", 65537, 1, 4, (3,), None, 1),
    Slot("planted", 66067, 1, 11, (6,), None, 3),
)

ANALYZE_GCD = (
    Slot("random", 2003, 1, 3, (1,), 1950, 1, True),
    Slot("random", 3001, 1, 5, (1,), 2900, 1, False),
    Slot("random", 4001, 1, 8, (1, 2), 3900, 1, True),
    Slot("random", 5003, 1, 4, (1,), 4900, 1, False),
    Slot("planted", 3001, 1, 6, (2, 2), 2964, 1),
    Slot("planted", 4001, 1, 8, (3,), 3960, 1),
    Slot("planted", 2003, 1, 7, (2,), 1981, 1),
    Slot("random", 6007, 1, 2, (1, 2), 5998, 1, False),
    Slot("random", 6007, 1, 7, (1,), 5900, 1, False),
)

ANALYZE_EXT = (
    Slot("random", 3, 3, 3, (1,), 24, 1, True),
    Slot("random", 2, 6, 3, (1,), 60, 1, True),
    Slot("random", 3, 4, 5, (1, 2), 76, 1, False),
    Slot("random", 5, 3, 4, (1,), 120, 1, True),
    Slot("random", 2, 7, 7, (1,), 120, 1, False),
    Slot("random", 2, 7, 2, (1,), 126, 1, True),
    Slot("planted", 3, 5, 11, (2,), 231, 1),
    Slot("random", 3, 5, 8, (1, 2), 240, 1, True),
    Slot("planted", 2, 8, 5, (4,), 250, 1),
    Slot("random", 7, 3, 6, (1, 2), 200, 1, False),
    Slot("planted", 7, 3, 6, (2, 2), 204, 1),
)

# experiment command lines: (command, p, k, t or samples)
EXPERIMENTS = (
    ("max-r", 53, 1, 3),
    ("max-r", 71, 1, 3),
    ("max-r", 79, 1, 3),
    ("conjecture", 13, 1, 3),
    ("conjecture", 11, 1, 4),
    ("conjecture", 7, 1, 5),
    ("conjecture", 17, 1, 4),
    ("conjecture", 13, 1, 5),
    ("sample-c2", 257, 1, 20000),
    ("sample-c2", 1021, 1, 4000),
    ("sample-c2", 3, 2, 1000),
    ("sample-c2", 2, 3, 2000),
    ("sample-c2", 2, 4, 150),
    ("root-dist", 509, 1, 4000),
    ("root-dist", 1021, 1, 2000),
)

WORKLOADS = ("analyze_prime", "analyze_gcd", "analyze_ext", "experiments")

_MAX_DRAWS = 100_000
# Each analyze slot is drawn twice: the seed-to-seed spread of a sum over
# the corpus shrinks, and since every table has an odd number of slots,
# the median operation is a draw of the middle slot instead of the
# boundary between two slots.
DRAWS_PER_SLOT = 2


def generate(workload: str, seed: int) -> Corpus:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "experiments":
        return _experiments(rng)
    table = {"analyze_prime": ANALYZE_PRIME, "analyze_gcd": ANALYZE_GCD,
             "analyze_ext": ANALYZE_EXT}[workload]
    fields: dict = {}
    ops = []
    for slot in table * DRAWS_PER_SLOT:
        key = (slot.p, slot.k)
        if key not in fields:
            fields[key] = FieldDesc(slot.p, slot.k,
                                    _random_modulus(rng, slot.p, slot.k) if slot.k > 1 else None)
        draw = _random_op if slot.kind == "random" else _planted_op
        ops.append(draw(rng, fields[key], slot))
    return Corpus(fields=tuple(fields.values()), ops=tuple(ops))


def _random_modulus(rng: random.Random, p: int, k: int) -> tuple:
    while True:
        m = tuple(rng.randrange(p) for _ in range(k)) + (1,)
        if m[0] and is_irreducible(m, p):
            return m


def _nonzero(rng: random.Random, F: FieldDesc):
    if F.k == 1:
        return rng.randrange(1, F.p)
    while True:
        c = tuple(rng.randrange(F.p) for _ in range(F.k))
        if any(c):
            return c


def reduced_count(exps, N: int, C: int) -> int:
    """k = gcd(e, N) for the degree-reduction multiplier e of f."""
    _n, e, _M = reduction(exps, N, C)
    return math.gcd(e, N)


def _random_op(rng, F: FieldDesc, slot: Slot) -> AnalyzeOp:
    n = F.q - 1
    t, span = slot.size, slot.span
    ref = Field(F.p, F.k, F.modulus)
    units = ref.units()
    for _ in range(_MAX_DRAWS):
        if span is None:
            exps = rng.sample(range(n), t)
        else:
            exps = [0, span] + rng.sample(range(1, span), t - 2)
        if pairing_set(exps, n) != slot.shape or reduced_count(exps, n, 1) != slot.red_k:
            continue
        terms = tuple(sorted((a, _nonzero(rng, F)) for a in exps))
        zero = root_mask(ref, terms, units)
        if bool(zero.any()) != slot.rooted or any(
                len(vanishing_cosets(ref, zero, units, size)) for size in slot.shape[1:]):
            continue
        return _analyze_op(F, terms, planted=0)
    raise RuntimeError(f"no polynomial fits {slot}")


def _planted_op(rng, F: FieldDesc, slot: Slot) -> AnalyzeOp:
    n = F.q - 1
    m, span = slot.size, slot.span
    top = n - 1 if span is None else span
    if n % m or (span is not None and span % m):
        raise ValueError(f"planted size {m} must divide {n} and the span {top}")
    ref = Field(F.p, F.k, F.modulus)
    target = tuple(divisors(m))
    for _ in range(_MAX_DRAWS):
        residues = [0] + rng.sample(range(1, m), len(slot.shape) - 1)
        classes = []
        for r, s in zip(residues, slot.shape):
            umax = (top - r) // m
            if span is not None and r == 0:
                us = [0, umax] + rng.sample(range(1, umax), s - 2)
            else:
                us = rng.sample(range(umax + 1), s)
            classes.append((r, sorted(us)))
        exps = [m * u + r for r, us in classes for u in us]
        if pairing_set(exps, n) != target or reduced_count(exps, n, m) != slot.red_k:
            continue
        beta = ref.pow(ref.decode([rng.randrange(1, F.q)]), m)
        terms = []
        for r, us in classes:
            terms += _vanishing_class(rng, F, ref, beta, m, r, us)
        return _analyze_op(F, tuple(sorted(terms)), planted=m)
    raise RuntimeError(f"no planted polynomial fits {slot}")


def _vanishing_class(rng, F: FieldDesc, ref: Field, beta, m: int, r: int, us) -> list:
    """Terms c_i x**(m*u_i + r) with sum c_i beta**u_i = 0, so that
    x**r h(x**m) vanishes wherever x**m = beta."""
    while True:
        cs = [_nonzero(rng, F) for _ in us[:-1]]
        acc = ref.const(0)
        for c, u in zip(cs, us):
            acc = ref.add(acc, ref.mul(ref.const(c), ref.pow(beta, u)))
        last = ref.mul((-acc) % F.p, ref.inv(ref.pow(beta, us[-1])))
        if not ref.is_zero(last)[0]:
            cs.append(ref.scalar(last))
            return [(m * u + r, c) for u, c in zip(us, cs)]


def _analyze_op(F: FieldDesc, terms: tuple, planted: int) -> AnalyzeOp:
    return AnalyzeOp(field=F, terms=terms, text=format_terms(F, terms), planted=planted)


def format_terms(F: FieldDesc, terms) -> str:
    parts = []
    for a, c in terms:
        coef = str(c) if F.k == 1 else "[" + ",".join(str(x) for x in c) + "]"
        parts.append(coef if a == 0 else f"{coef}*x^{a}")
    return " + ".join(parts)


def _experiments(rng: random.Random) -> Corpus:
    ops = []
    for command, p, k, size in EXPERIMENTS:
        if command in ("max-r", "conjecture"):
            argv = ("experiment", command, "--p", str(p), "--t", str(size))
        else:
            argv = ("experiment", command, "--p", str(p))
            if k > 1:
                argv += ("--k", str(k))
            argv += ("--samples", str(size), "--seed", str(rng.randrange(2**31)))
        ops.append(CliOp(argv=argv, command=command))
    fields = {(p, k): FieldDesc(p, k) for _command, p, k, _size in EXPERIMENTS}
    return Corpus(fields=tuple(fields.values()), ops=tuple(ops))
