"""Exception hierarchy for heatband, and its one check of each kind of input.

Every error raised on purpose by this package derives from HeatbandError,
so callers can catch the package's failures without swallowing bugs.  The
checks sit here, below every other module, so that each of them,
quadrature included, refuses malformed input with DomainError: _finite
checks the values a function returns, _loads reads JSON text, and _dumps
writes it, with the NumPy reals that check_finite admits (_json_real).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields, is_dataclass

import numpy as np

# float constants that several modules share
TWO_PI = 2.0 * math.pi
_FLOAT_MAX = sys.float_info.max
_EPS = sys.float_info.epsilon


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


def check_positive(**named) -> None:
    """check_finite, and each value above 0: the one check of positive parameters."""
    check_finite(**named)
    for name, value in named.items():
        if not value > 0:
            raise DomainError(f"{name} must be a positive finite real, got {value!r}")


def check_integer(**named) -> None:
    """The package's one check of integer parameters: each value must be a
    Python or NumPy integer, not a bool.  Ranges stay with the callers."""
    for name, value in named.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {value!r}")


def _finite(values, points: np.ndarray, source: str, name: str) -> np.ndarray:
    """values, what source returned at points, as a float array of the
    points' shape: the package's one check of a function's values.  Values
    other than bools, integers or floats of the points' shape or one scalar,
    which broadcasts, raise DomainError, a non-finite value EvaluationError."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf" or arr.ndim and arr.shape != points.shape:
        raise DomainError(f"{source} must return reals of the shape {points.shape} "
                          f"or one real, got {arr.dtype} values of shape {arr.shape}")
    arr = arr.astype(float, copy=False) if arr.ndim else np.full(points.shape, float(arr))
    if not np.isfinite(arr).all():
        point = float(points[~np.isfinite(arr)].flat[0])
        raise EvaluationError(
            f"{source} returned a non-finite value at {name} = {point!r}", point=point)
    return arr


def _points(values, check) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """(values as a flat float array, their shape or None for one value).
    check must accept an interval of reals: it sees one value before any
    conversion (so an integer beyond double range is refused, not
    overflowed), an array of reals by its least and greatest element, which
    a nan or an infinity becomes, and raises what it raises for that value."""
    if not isinstance(values, (np.ndarray, list, tuple)):
        check(values)
        return np.array([float(values)]), None
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"points must be finite reals, got an array of {arr.dtype}")
    flat = arr.astype(float).ravel()
    if flat.size:
        check(float(flat.min()))
        check(float(flat.max()))
    return flat, arr.shape or None


def _loads(text, schema: str):
    """json.loads of text, which must be a str: the one reader of JSON artifacts."""
    if not isinstance(text, str):
        raise DomainError(f"{schema} text must be a str, got {type(text).__name__}")
    return json.loads(text)


def _json_real(value):
    """json.dumps default: the Python int or float of a NumPy real, which
    check_finite admits; any other object stays unserializable.  Python
    numbers never reach it, so their bytes do not depend on it."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(doc) -> str:
    """json.dumps of a document with sorted keys: the one writer of JSON artifacts."""
    return json.dumps(doc, sort_keys=True, default=_json_real)


def _plain(value):
    """A dataclass as the object of its fields and a tuple as an array, recursively."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value
