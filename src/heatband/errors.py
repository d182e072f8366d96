"""Exception hierarchy for heatband, and its one check of real parameters.

Every error raised on purpose by this package derives from HeatbandError,
so callers can catch the package's failures without swallowing bugs.
check_finite sits here, below every other module, so that each of them,
quadrature included, can refuse a malformed real with DomainError, and
_json_real writes the NumPy reals it admits into the JSON artifacts.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_FLOAT_MAX = sys.float_info.max


class HeatbandError(Exception):
    """Base class for all heatband errors."""


class DomainError(HeatbandError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeError(HeatbandError, ValueError):
    """A requested evaluation point is not representable in double precision.

    Raised instead of returning garbage; the message points at the
    log-domain band API, which reports exact asymptotic bands without
    ever materializing the offending point.
    """


class EvaluationError(HeatbandError):
    """An integrand returned a non-finite value.

    Attributes
    ----------
    point : float
        The sample point at which the integrand failed.
    """

    def __init__(self, message: str, point: float):
        super().__init__(message)
        self.point = point


class ConvergenceError(HeatbandError):
    """An iterative numerical procedure did not reach its tolerance.

    Attributes
    ----------
    best_value : float or None
        Best estimate available when the budget ran out, or None when no
        meaningful estimate exists (e.g. a request refused up front).
    error_estimate : float or None
        Error estimate attached to best_value.
    """

    def __init__(self, message: str, best_value: float | None = None,
                 error_estimate: float | None = None):
        super().__init__(message)
        self.best_value = best_value
        self.error_estimate = error_estimate


class SearchFailure(HeatbandError):
    """A root or bracket search found no admissible solution."""


class UnsupportedExpression(HeatbandError):
    """The requested operation has no implementation for this expression."""


class PartialBandError(HeatbandError):
    """A band estimate could not cover the required number of periods.

    Carries the partial band that WAS covered, so callers can report it.

    Attributes
    ----------
    band : OscillationBand
        The band over the representable sub-range (periods_covered < 3).
    """

    def __init__(self, message: str, band):
        super().__init__(message)
        self.band = band


def check_finite(**named) -> None:
    """The package's one check of real parameters: each value must be a
    Python or NumPy real, not a bool, and finite as a double, which refuses
    nan, the infinities and integers beyond double range."""
    for name, value in named.items():
        if isinstance(value, bool) or not (
                isinstance(value, (int, float)) and abs(value) <= _FLOAT_MAX
                or isinstance(value, (np.integer, np.floating)) and math.isfinite(value)):
            raise DomainError(f"{name} must be a finite real, got {value!r}")


def _json_real(value):
    """json.dumps default: the Python int or float of a NumPy real, which
    check_finite admits; any other object stays unserializable.  Python
    numbers never reach it, so their bytes do not depend on it."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
