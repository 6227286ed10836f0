"""Exception types shared across the package, and the integer checks."""

import numbers

import numpy as np


class ConewiseError(Exception):
    """Base class for all package errors."""


class InvalidSpecError(ConewiseError, ValueError):
    """A spectral model, ensemble recipe, or run configuration is malformed."""


class NumericalError(ConewiseError, RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class DegenerateProcessError(NumericalError):
    """A stochastic process has vanishing variance where positive variance is required."""


class DegenerateDynamicsError(NumericalError):
    """The evolving direction was annihilated by a matrix application."""

    def __init__(self, step: int):
        super().__init__(f"direction mapped to the zero vector at step {step}")
        self.step = step


class FitError(ConewiseError, ValueError):
    """A regression could not be performed on the supplied data."""


class CollapseUndefinedError(ConewiseError, ValueError):
    """Finite-size curves do not overlap enough to define a collapse metric."""


def check_count(value, minimum: int, message: str) -> None:
    """Raise :class:`InvalidSpecError` with ``message`` unless ``value`` is
    a Python or NumPy integer >= ``minimum``; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidSpecError(message)


def integer_array(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; an integer array passes as it is and an
    integral float one is cast.  Any other dtype (bool, string, complex,
    object), or a non-finite or non-integral entry, raises
    :class:`InvalidSpecError` naming ``what``."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    if values.dtype.kind != "f":
        raise InvalidSpecError(f"{what} must be integers, got {values.dtype} values {values}")
    whole = (np.floor(values) == values) & (np.abs(values) < 2.0**63)
    if not np.all(whole):
        raise InvalidSpecError(f"{what} must be finite integers, got {values[~whole]}")
    return values.astype(np.int64)
