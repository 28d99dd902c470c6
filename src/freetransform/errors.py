"""Exception types shared across the package.

Every numerical routine raises one of these instead of returning NaN or
Inf, so a non-finite value can never escape an operation silently.
"""

import sys


def _shown(value) -> str:
    """repr(value) for an error message, but an int past the double range
    by its bit length: str() refuses an int of more than 4 300 digits."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    return repr(value)


class FreeTransformError(Exception):
    """Base class for all package errors."""


class InvalidInput(FreeTransformError, ValueError):
    """Malformed argument: bad measure data, bad grid, bad config."""


class DomainError(FreeTransformError, ValueError):
    """Argument lies outside the mathematical domain of the function."""


class ConvergenceError(FreeTransformError, ArithmeticError):
    """An iteration or series failed to converge within its budget."""


class MaxSubdivisionError(ConvergenceError):
    """Adaptive quadrature exhausted its panel budget before reaching tol."""


class NonFiniteError(FreeTransformError, ArithmeticError):
    """An integrand or intermediate value came back NaN or infinite."""


class StepError(FreeTransformError, ValueError):
    """Differentiation step too large for the evaluation point."""
