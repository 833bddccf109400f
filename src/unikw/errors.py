"""Exception hierarchy shared across the package.

Library code raises :class:`ValidationError` for bad inputs or malformed
files, :class:`ConsistencyError` for violations of internal invariants
(e.g. mismatched components assembled into one engine), and
:class:`TrainingDiverged` when optimization produces non-finite losses.
Plain I/O failures propagate as ``OSError``.
"""

from numbers import Integral


class UnikwError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(UnikwError, ValueError):
    """Invalid argument, malformed input data, or corrupted file."""


class ConsistencyError(UnikwError, RuntimeError):
    """Internal invariant violated; indicates inconsistent components."""


class TrainingDiverged(UnikwError, RuntimeError):
    """Training produced a non-finite loss."""


def check_integer(name: str, value, least: int) -> None:
    """Raise ValidationError unless ``value`` is an integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
