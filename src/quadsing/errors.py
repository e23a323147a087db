"""Exception hierarchy, and the one rule for reading and for writing a rational.

Every library error carries a stable kebab-case ``code`` that the CLI maps
into its machine-readable error object.  ``rational`` and ``json_rational``
live here, in the module every call loads, so that using them loads no
other module of the package.
"""

from fractions import Fraction


class QuadsingError(Exception):
    """Base class for all mathematical and domain errors raised here."""

    code = "error"


class ContextMismatchError(QuadsingError):
    """Two elements from different base-field contexts were combined."""

    code = "context-mismatch"


class UnsupportedInvariantError(QuadsingError):
    """An invariant was requested over a context where it is undefined."""

    code = "unsupported-invariant"


class InvalidExtensionError(QuadsingError):
    """The minimal polynomial of a field extension is unusable."""

    code = "invalid-extension"


class DegenerateFormError(QuadsingError):
    """A symmetric bilinear form expected to be nondegenerate is singular."""

    code = "degenerate-form"


class NotIsolatedError(QuadsingError):
    """The critical point is not isolated (infinite Jacobian quotient)."""

    code = "not-isolated"


class InadmissibleWeightsError(QuadsingError):
    """No isolated singularity has these weights and degree: the Jacobian
    Hilbert series is not a polynomial."""

    code = "inadmissible-weights"


class InvalidIdealError(QuadsingError):
    """An ideal computation received no nonzero generators."""

    code = "invalid-ideal"


class InfiniteQuotientError(QuadsingError):
    """A quotient-ring operation needs a finite monomial basis."""

    code = "infinite-quotient"


class InputDomainError(QuadsingError):
    """An input violates a documented precondition."""

    code = "invalid-input"


class ParseError(QuadsingError):
    """Syntax error in a polynomial or form expression."""

    code = "parse-error"

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariableError(ParseError):
    """An identifier in an expression is not a declared variable."""

    code = "unknown-variable"


def rational(v) -> Fraction:
    """An outside value as an exact rational: an int, a Fraction or a string
    such as "1/3" is read exactly, and a float, a binary fraction, is a
    TypeError."""
    if isinstance(v, float):
        raise TypeError(f"a float is not an exact rational: {v!r}")
    return Fraction(v)


def json_rational(v):
    """A rational as a JSON value: an integer as a number, else "p/q"."""
    return v.numerator if v.denominator == 1 else str(v)
