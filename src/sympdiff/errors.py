"""Exception hierarchy shared by all sympdiff modules.

Every precondition violation raises a subclass of :class:`SympdiffError`,
so callers (and the CLI) can distinguish "bad input" from genuine bugs.
"""


class SympdiffError(Exception):
    """Base class for all errors raised by sympdiff."""


class InvalidArgument(SympdiffError, ValueError):
    """An argument is out of range or inconsistent (a dimension, an index,
    an inventory entry)."""


# ---------------------------------------------------------------- fields

class NonPrimeCharacteristic(SympdiffError):
    """A field constructor was given a modulus that is not prime."""


class ReducibleModulus(SympdiffError):
    """An extension-field modulus is not irreducible over its prime field."""


class DivisionByZero(SympdiffError):
    """Division or inversion of the zero scalar."""


class MixedFieldContexts(SympdiffError):
    """Two operands live over different field contexts."""


class InfiniteField(SympdiffError):
    """An enumeration was requested over an infinite field."""


class DegreeBoundExceeded(SympdiffError):
    """A rational-function numerator/denominator outgrew the configured cap."""


class FieldSpecError(SympdiffError):
    """A field specification string could not be parsed."""


# ---------------------------------------------------------------- polynomials

class WrongDegree(SympdiffError):
    """A polynomial has the wrong degree for the requested operation."""


class ZeroPolynomial(SympdiffError):
    """The zero polynomial is not allowed here (leading coefficient, roots,
    Fitting split)."""


class NonMonic(SympdiffError):
    """A monic polynomial was required."""


class NotIrreducible(SympdiffError):
    """An irreducible polynomial was required."""


class ParseError(SympdiffError):
    """A polynomial/scalar literal could not be parsed."""


# ---------------------------------------------------------------- linear algebra

class DimensionMismatch(SympdiffError):
    """Matrix shapes are incompatible."""


class NotSquare(SympdiffError):
    """A square matrix was required."""


class SingularMatrix(SympdiffError):
    """An invertible matrix was required."""


class NotStable(SympdiffError):
    """A subspace is not stable under the given endomorphism."""


# ---------------------------------------------------------------- pairs and decisions

class InvalidPair(SympdiffError):
    """(B, U) is not a symplectic pair; carries the validity report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotNonIncreasing(SympdiffError):
    """An intertwining test was fed a sequence that is not non-increasing."""


class DecisionWasNo(SympdiffError):
    """A witness was requested for a pair that is not a (p,q)-difference;
    carries the decision report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------- search / construction

class ConstructionInvariantViolated(SympdiffError):
    """A constructed object failed its own self-checks (internal bug)."""


class DimensionBoundExceeded(SympdiffError):
    """A brute-force search was requested above the configured dimension cap."""


class NeedsIrreducibleInventory(SympdiffError):
    """Enumeration over an infinite field needs a user-supplied irreducible list."""


class DifferenceInBaseField(SympdiffError):
    """A norm was requested for a root difference that lies in the base field."""


class SerializationError(SympdiffError):
    """A JSON payload does not match the documented schemas."""
