"""Exception types shared across the package.

Every numerical routine raises one of these instead of returning NaN or
Inf, so a non-finite value can never escape an operation silently.

_real and _complex are the package's one definition of an acceptable
number, and every public numeric argument passes one of them where it
enters: what float() or complex() converts, except a str, bytes or
bytearray, which is never parsed, and finite.  Anything else raises the
caller's package error (_complex's argument is always z, and its error
DomainError) as "<what> must be a [positive] finite number, got
<value>", the value shown by _shown.

_callable is the gate for a function parameter, and of a record's
stored function: the value itself where callable() holds, else
InvalidInput "<what> must be callable, got <value>".

_instance is the gate for a record parameter, and of a record's stored
record: the value itself where it is an instance of the record's class,
else InvalidInput "<what> must be a <class>, got <value>".

_items is the gate for a sequence parameter: its items as a tuple, each
a pair where the caller asks for pairs, else InvalidInput "<what> must
be a sequence of numbers" (or "of pairs").  The numbers inside then pass
_real where they are read.
"""

import math
import sys


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


def _shown(value) -> str:
    """repr(value) for an error message, but an int past the double range
    by its bit length: str() refuses an int of more than 4 300 digits."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    return repr(value)


def _real(value, what: str, error=InvalidInput, positive: bool = False) -> float:
    """value as a finite float, and > 0 where positive is set."""
    x = value
    if type(x) is not float:  # a float, the common case, needs no conversion
        try:
            x = math.nan if isinstance(value, (str, bytes, bytearray)) else float(value)
        except (TypeError, ValueError, OverflowError):
            x = math.nan
    # x - x is 0.0 exactly where x is finite
    if x - x == 0.0 and (x > 0.0 or not positive):
        return x
    sign = "positive " if positive else ""
    raise error(f"{what} must be a {sign}finite number, got {_shown(value)}")


def _complex(value) -> complex:
    """The argument z as a complex with finite parts, else DomainError."""
    z = value
    if type(z) is not complex:
        try:
            z = math.nan if isinstance(value, (str, bytes, bytearray)) else complex(value)
        except (TypeError, ValueError, OverflowError):
            z = math.nan
    if z - z == 0.0:
        return z
    raise DomainError(f"z must be a finite number, got {_shown(value)}")


def _callable(value, what: str):
    """value where it is callable, else InvalidInput naming it."""
    if callable(value):
        return value
    raise InvalidInput(f"{what} must be callable, got {_shown(value)}")


def _instance(value, cls: type, what: str):
    """value where it is an instance of cls, else InvalidInput naming it."""
    if isinstance(value, cls):
        return value
    raise InvalidInput(f"{what} must be a {cls.__name__}, got {_shown(value)}")


def _items(value, what: str, pairs: bool = False) -> tuple:
    """value's items as a tuple, each unpacked as a pair where pairs is
    set; InvalidInput where value is a str, bytes or bytearray, is not
    iterable, or an item does not unpack into two."""
    try:
        if isinstance(value, (str, bytes, bytearray)):
            raise TypeError
        items = tuple(value)
        if pairs:
            # a loop, not a generator expression: under CPython 3.11 the
            # latter kept one block per call alive here, and the peak RSS
            # of a 25 s eval-wide run grew by 1.4 MB
            unpacked = []
            for x, w in items:
                unpacked.append((x, w))
            items = tuple(unpacked)
    except (TypeError, ValueError):
        kind = "pairs" if pairs else "numbers"
        raise InvalidInput(f"{what} must be a sequence of {kind}, got {_shown(value)}") from None
    return items
