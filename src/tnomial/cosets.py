"""Vanishing of a t-nomial on cosets of multiplicative subgroups.

For k | q-1 the subgroup H = {x : x**k = 1} has order k; the coset of H
labelled by beta (an element of the order-(q-1)/k subgroup) is the
solution set of x**k = beta.  Writing each exponent as a_i = k*u_i + r_i,
f vanishes identically on that coset iff every residue-class sum

    sum over terms with r_i = r of  c_i * beta**u_i

is zero: substituting x**k = beta collapses f on the coset to one such
sum per residue class, weighted by x**r.

C(f) is the largest k for which a vanishing coset exists, with the
conventions C = 0 when f has no nonzero root at all and C = 1 when it
has roots but no vanishing coset of size larger than one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BetaNotInSubgroup,
    InternalInvariantError,
    NotADivisor,
    TooFewTerms,
)
from .field import Element, FieldSpec
from .params import compute_S, compute_delta, root_bound
from .poly import TNomial, log_tables, normalize_lowest, roots_on_units

# unused here, but perfbench's tracer hooks it in this module's namespace
from .poly import has_nonzero_root  # noqa: F401


@dataclass(frozen=True)
class CosetWitness:
    """A coset {x : x**k = beta} on which the polynomial vanishes.

    representative is the smallest power of the field generator lying in
    the coset; the full coset is representative times the subgroup of
    order (q-1)/k."""

    k: int
    beta: Element
    representative: Element


def _validate_beta(field: FieldSpec, k: int, beta: Element) -> None:
    n = field.q - 1
    if k < 1 or n % k != 0:
        raise NotADivisor(f"{k} does not divide the unit-group order {n}")
    if beta == field.zero or field.pow(beta, n // k) != field.one:
        raise BetaNotInSubgroup(
            f"beta must lie in the subgroup of order {n // k}"
        )


def vanishes_on_coset(f: TNomial, k: int, beta: Element) -> bool:
    """True iff f is identically zero on the coset {x : x**k = beta}."""
    F = f.field
    _validate_beta(F, k, beta)
    sums: dict[int, Element] = {}
    for a, c in f.terms:
        r, u = a % k, a // k
        contrib = F.mul(c, F.pow(beta, u))
        sums[r] = F.add(sums[r], contrib) if r in sums else contrib
    return all(v == F.zero for v in sums.values())


def find_vanishing_cosets(f: TNomial, k: int) -> list[CosetWitness]:
    """All cosets of the order-k subgroup on which f vanishes, ordered by
    the canonical integer label of beta."""
    n = f.field.q - 1
    if k < 1 or n % k != 0:
        raise NotADivisor(f"{k} does not divide the unit-group order {n}")
    return _vanishing_cosets(f, roots_on_units(f), k)


def _vanishing_cosets(f: TNomial, mask, k: int) -> list[CosetWitness]:
    """Witnesses read off the root mask of f: with x = g**j, the cosets
    are the classes s of j mod (q-1)/k, with representative g**s and
    beta = g**(k*s).  The residue-class test confirms each witness; a
    disagreement raises InternalInvariantError."""
    F = f.field
    n = F.q - 1
    exp = log_tables(F).exp
    classes = np.flatnonzero(mask.reshape(k, n // k).all(axis=0))
    out = []
    for s in classes[np.argsort(exp[k * classes % n])]:
        beta = F.element_from_int(int(exp[k * s % n]))
        if not vanishes_on_coset(f, k, beta):
            raise InternalInvariantError(
                f"root mask and residue-class test disagree on the coset x^{k} = {beta} of {f}"
            )
        out.append(CosetWitness(k=k, beta=beta, representative=F.element_from_int(int(exp[s]))))
    return out


def compute_C(f: TNomial) -> int:
    """Largest k | q-1 with a vanishing coset of the order-k subgroup;
    0 if f has no nonzero root, 1 if it has roots but no such coset.

    Only k in S(f) can carry a vanishing coset (a residue class with a
    single term has a lone nonzero summand), so the search runs over
    S(f) from the top down, on one root mask.
    """
    fn = normalize_lowest(f)
    return _C_from_mask(fn, roots_on_units(fn))


def _C_from_mask(fn: TNomial, mask) -> int:
    """C of the normalized fn, read off its root mask."""
    for k in sorted((k for k in compute_S(fn) if k > 1), reverse=True):
        if _vanishing_cosets(fn, mask, k):
            return k
    return 1 if mask.any() else 0


class CosetDecomposition(NamedTuple):
    delta: int
    coset_count: int
    bound: float


def root_coset_decomposition(f: TNomial) -> CosetDecomposition:
    """Group the roots of f into cosets of the order-delta subgroup.

    After normalizing the lowest exponent to 0, every exponent is a
    multiple of delta = gcd(exponents, q-1), so f factors through
    x**delta and its root set is a union of full cosets of the order-delta
    subgroup H = {x : x**delta = 1}.  Returns (delta, number of cosets,
    2*((q-1)/delta)**(1-1/(t-1))).

    The roots are counted per coset on the root mask; a partial coset
    would indicate a bug and raises InternalInvariantError.
    """
    if f.t < 2:
        raise TooFewTerms("decomposition needs t >= 2")
    fn = normalize_lowest(f)
    return _decomposition_from_mask(fn, roots_on_units(fn))


def _decomposition_from_mask(fn: TNomial, mask) -> CosetDecomposition:
    """The decomposition of the normalized fn (t >= 2), read off its root mask."""
    n = fn.field.q - 1
    delta = compute_delta(fn)
    # x**delta is constant exactly on the classes of j mod n/delta
    counts = mask.reshape(delta, n // delta).sum(axis=0)
    partial = np.flatnonzero(counts % delta)
    if len(partial):
        s = int(partial[0])
        raise InternalInvariantError(
            f"coset of g^{s} contains {counts[s]} roots, expected the full {delta}"
        )
    bound = root_bound(n // delta, fn.t, 1)
    return CosetDecomposition(delta=delta, coset_count=int(np.count_nonzero(counts)), bound=bound)
