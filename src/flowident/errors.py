"""Exception hierarchy shared across the toolkit.

Two broad families map onto CLI exit codes: FormatError for malformed or
unsupported input files (exit 1), ContractError for operations invoked
outside their contract, degenerate datasets included (exit 2).
"""

from __future__ import annotations

import math
import numbers


class FlowidentError(Exception):
    """Base class for every error raised by this package."""


class FormatError(FlowidentError):
    """Input bytes or text do not parse as the expected format."""


class ContractError(FlowidentError):
    """An operation was called with arguments outside its contract."""


class DegenerateDatasetError(ContractError):
    """A dataset lacks the variety an operation needs (e.g. one class)."""


def check_finite(name: str, value: float, positive: bool = False) -> None:
    """Refuse NaN and infinities, and with ``positive`` also zero and negative values."""
    if not (math.isfinite(value) and (value > 0 or not positive)):
        raise ContractError(f"{name} must be finite{' and positive' * positive}, got {value!r}")


def is_integer(value) -> bool:
    """Whether ``value`` is an int or a NumPy integer; a bool or a float, even a whole one, is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integer(name: str, value) -> int:
    """``value`` as a Python int; a value that is not an integer raises."""
    if not is_integer(value):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    return int(value)
