"""The translation-orbit walk, the tests' reference for orbit order and
weights: one exponent set per orbit of a -> a + s mod n.  The drivers
walk affine orbits (`tnomial.experiments._affine_reps`); these sets and
weights are what the affine representatives, the translation-only
driver references and the exhaustive acceptance sweep are checked
against."""

from itertools import combinations
from typing import Iterator


def _orbit_reps(n: int, t: int) -> Iterator[tuple]:
    """Canonical exponent sets (containing 0, minimal among translates)
    with their orbit sizes under a -> a + s mod n."""
    # combinations() copies its pool, which a monomial does not need
    for rest in combinations(range(1, n) if t > 1 else (), t - 1):
        A = (0,) + rest
        stab = 0
        minimal = True
        for a in A:
            tr = tuple(sorted((x - a) % n for x in A))
            if tr < A:
                minimal = False
                break
            if tr == A:
                stab += 1
        if minimal:
            yield A, n // stab
