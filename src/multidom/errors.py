"""Exception types and the integer checks shared across the package."""

from typing import Iterable

import numpy as np


def _integer(value, name: str, low: int | None = None, high: int = 2**63 - 1, *,
             owner: str | None = None) -> int:
    """value as a Python int in [low, high]. It must be an int or a numpy
    integer; anything else, bools included, raises ValueError rather than
    being cast. A value out of range reads "<name> must be >= <low>", or
    "<owner> needs <name> >= <low>" when an owner is given."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} takes integers only, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        bad = f">= {low}"
    elif value > high:
        bad = f"<= {high}"
    else:
        return value
    raise ValueError(f"{owner} needs {name} {bad}" if owner else f"{name} must be {bad}")


def _integers(values: Iterable, what: str) -> list[int]:
    """The entries of values as Python ints. Each must be an int or a numpy
    integer; anything else, bools included, raises rather than being cast."""
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        return values.tolist()
    try:
        values = list(values)
    except TypeError:  # not a collection at all
        raise ValueError(f"{what} must be integers, got {values!r}") from None
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values
    for kind in kinds:
        if issubclass(kind, bool) or not issubclass(kind, (int, np.integer)):
            bad = next(v for v in values if type(v) is kind)
            raise ValueError(f"{what} must be integers, got {bad!r}")
    return list(map(int, values))


class MultidomError(Exception):
    """Base class for all multidom errors."""


class GraphFormatError(MultidomError, ValueError):
    """Malformed graph input. Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InfeasibleSpecError(MultidomError, ValueError):
    """The domination spec cannot be satisfied on the given graph."""


class CapViolationError(MultidomError, ValueError):
    """A vertex function exceeds its per-vertex caps."""


class NotApplicableError(MultidomError, ValueError):
    """A bound or tuning procedure has no feasible parameters."""


class ResourceLimitError(MultidomError, RuntimeError):
    """An exact search refused to run or exceeded its configured limits.

    ``partial`` holds whatever information was gathered before giving up.
    """

    def __init__(self, message: str, partial: object = None):
        self.partial = partial
        super().__init__(message)
