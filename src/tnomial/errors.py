"""Exception types raised by the tnomial package.

Every error that signals bad *input* derives from ValueError so callers
can catch broadly; InternalInvariantError signals a broken internal
invariant and derives from RuntimeError instead.
"""


class TNomialError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(TNomialError, ValueError):
    """The characteristic passed to a field constructor is not prime."""


class ReducibleModulus(TNomialError, ValueError):
    """The extension modulus is not irreducible (or not monic of the right degree)."""


class FieldTooLarge(TNomialError, ValueError):
    """The requested field or operation exceeds the supported size ceiling."""


class NotADivisor(TNomialError, ValueError):
    """An integer that must divide the unit-group order does not."""


class BetaNotInSubgroup(TNomialError, ValueError):
    """A coset label lies outside the required multiplicative subgroup."""


class DivisionByZero(TNomialError, ZeroDivisionError):
    """Multiplicative inverse of the zero element."""


class EmptyInput(TNomialError, ValueError):
    """A term list, exponent vector, or similar input was empty."""


class ZeroCoefficient(TNomialError, ValueError):
    """A term was supplied with coefficient zero."""


class ZeroFunction(TNomialError, ValueError):
    """All terms cancelled: the input is the zero function, which has no
    sparse canonical form."""


class TooFewTerms(TNomialError, ValueError):
    """The operation needs at least two terms to be meaningful."""


class EmptyRange(TNomialError, ValueError):
    """A search range contains no admissible values."""


class PreconditionViolated(TNomialError, ValueError):
    """A stated arithmetic precondition fails for the given input."""


class InvalidT(TNomialError, ValueError):
    """Term count outside the enumerable range for the given field."""


class InvalidSampleCount(TNomialError, ValueError):
    """A sample count must be a positive integer."""


class BudgetExceeded(TNomialError, RuntimeError):
    """Estimated work for an enumeration exceeds the configured budget."""


class ParseError(TNomialError, ValueError):
    """A polynomial or modulus string does not match the input grammar."""


class UnwritableOutput(TNomialError, ValueError):
    """The output path given on the command line cannot be opened for writing."""


class InternalInvariantError(TNomialError, RuntimeError):
    """An internally-verified identity failed; indicates a bug, not bad input."""
