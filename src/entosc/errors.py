"""Exception types and the argument contract shared across the package.

The library and the CLI check their arguments through the validators below
before doing any work, and every size that could exhaust memory through
`budget`, so a bad input fails fast with one DomainError naming the argument
instead of returning nan or raising from numpy.
"""

import math

ETA_MAX = 25.0  # beyond this tanh(eta) == 1 at double precision
BYTE_BUDGET = 4 * 2**30  # the most any one call may allocate


class CutoffError(IndexError):
    """An excitation index or series cutoff exceeded the configured bound."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NumericsError(ArithmeticError):
    """A numerical routine failed to meet its accuracy contract."""


def integer(name: str, value, low=0, high=math.inf) -> int:
    """value as an int if it is a whole number in [low, high], else DomainError."""
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):  # nan, inf, non-numbers
        whole = False
    if not (whole and low <= value <= high):
        bound = f"in [{low}, {high}]" if high < math.inf else f">= {low}"
        raise DomainError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def _float(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):  # non-numbers, and ints past the float range
        return math.nan


def positive(name: str, value) -> float:
    """value as a float if 0 < value < inf, else DomainError."""
    number = _float(value)
    if not 0 < number < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return number


def finite(name: str, value) -> float:
    """value as a float if it is neither nan nor infinite, else DomainError."""
    number = _float(value)
    if not -math.inf < number < math.inf:
        raise DomainError(f"{name} must be finite, got {value!r}")
    return number


def rapidity(eta) -> float:
    """eta as a float with |eta| <= ETA_MAX."""
    number = _float(eta)
    if not abs(number) <= ETA_MAX:
        raise DomainError(f"rapidity must be finite with |eta| <= {ETA_MAX}, got {eta!r}")
    return number


def budget(nbytes: float, what: str) -> None:
    """DomainError, before anything is allocated, when nbytes (nan and inf included) passes BYTE_BUDGET."""
    if not nbytes <= BYTE_BUDGET:
        raise DomainError(f"{what} needs up to {nbytes / 2**30:.3g} GiB; the budget is {BYTE_BUDGET / 2**30:.3g} GiB")
