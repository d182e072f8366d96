"""Adaptive quadrature for plain callables, exact Gaussian moments, and the
package's one u(0, t) tolerance and one node budget.

  integrate_weighted(f, k)        ~  int_0^inf exp(-z^2) z^k f(z) dz

serves the plain callables of u_origin and the off-centre probe; every
expression leaf of the package integrates by a fixed rule with an a-priori
bound instead.  integrate_log_oscillatory (on the log axis, at least 8
panels per period) and integrate_interval run the same batched adaptive
Simpson core with per-panel Richardson error estimates but have no caller
in the package.  The semi-infinite tail beyond _Z_MAX is bounded
analytically, never sampled.

_ABS_TOL sizes the fixed rules of the expression leaves (the log-axis
trapezoid sum, the split Gauss sum and the wave's integration-by-parts
series); _MAX_NODES is the one node budget of every fixed rule, which
refuses with ConvergenceError, before it lays any, more nodes at a point.
The adaptive engine of plain callables reads _REL_TOL, _ABS_TOL and
_MAX_NODES as its panel budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (ConvergenceError, DomainError, _finite, check_finite, check_integer,
                     check_positive)

__all__ = [
    "IntegralResult",
    "integrate_weighted",
    "integrate_log_oscillatory",
    "integrate_interval",
    "gaussian_power_tail",
    "PANELS_PER_PERIOD",
    "MAX_OSCILLATION_FREQUENCY",
]

# Oscillatory panels are never wider than (period / PANELS_PER_PERIOD).
PANELS_PER_PERIOD = 8

# Frequencies above this are refused outright.  Riemann-Lebesgue decay makes
# the integral indistinguishable from zero in double precision long before
# m = 500, while the panel cap would keep burning panels linearly in m.
MAX_OSCILLATION_FREQUENCY = 500.0


def check_frequency(m) -> None:
    """The one check of a log frequency m: positive, and at most the ceiling."""
    check_positive(m=m)
    if m > MAX_OSCILLATION_FREQUENCY:
        raise ConvergenceError(
            f"m = {m} exceeds the refusal threshold {MAX_OSCILLATION_FREQUENCY}; "
            "the oscillatory integral is below double-precision noise there")


# 8-point Gauss-Legendre rule on [0, 1]: the fixed panel rule of the linear
# pieces of bump trains and waves and of the log-radius ball averages
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
GL_NODES = 0.5 * (GL_NODES + 1.0)
GL_WEIGHTS = 0.5 * GL_WEIGHTS

# Cut z_max of every u(0, t) integral on z = r / sqrt(4t), beyond which the
# kernel z^k e^{-z^2} holds 1.2e-64 at k = 0 and 9.3e-53 at k = 11
_Z_MAX = 12.0

# Left endpoint stand-in for the open interval (0, _Z_MAX]: integrands such as
# cos(m log z) are undefined at exactly 0 but fine at any positive double.
_LEFT_EDGE = 1e-300

# Left end of the log-axis window of integrate_log_oscillatory: a kernel
# amplitude exp((k+1) x) is at most e^{-40} there for every power k >= 0.
_LOG_LEFT_EDGE = -40.0

# Error targets of the u(0, t) integrals, which verify's report records, and
# the node budget of every fixed rule and of the adaptive engine's panels
_REL_TOL = 1e-11
_ABS_TOL = 1e-13
_MAX_NODES = 200_000


@dataclass(frozen=True)
class IntegralResult:
    """Value, conservative absolute error estimate, and evaluation count."""

    value: float
    abs_error_est: float
    evaluations: int

    def __post_init__(self):
        check_finite(value=self.value, abs_error_est=self.abs_error_est)
        check_integer(evaluations=self.evaluations)
        if not (self.abs_error_est >= 0):
            raise DomainError("abs_error_est must be nonnegative")
        if self.evaluations < 1:
            raise DomainError("evaluations must be at least 1")


@lru_cache(maxsize=256, typed=True)
def gaussian_power_tail(k: int, z_cut: float) -> float:
    """Exact value of int_{z_cut}^inf z^k exp(-z^2) dz for integer k >= 0.

    From I_0 = sqrt(pi) erfc(z_cut) / 2 and I_1 = exp(-z_cut^2) / 2, the
    upward recurrence I_j = ((j-1)/2) I_{j-2} + z_cut^{j-1} exp(-z_cut^2) / 2
    adds positive terms only, so it is stable.
    """
    check_integer(k=k)
    check_finite(z_cut=z_cut)
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    lo = float(z_cut)
    e_lo = np.exp(-lo * lo)
    out = [0.5 * math.sqrt(math.pi) * math.erfc(lo), 0.5 * e_lo]
    for j in range(2, k + 1):
        out.append(0.5 * (j - 1) * out[j - 2] + 0.5 * (lo ** (j - 1) * e_lo))
    return float(out[k])


class _Counter:
    __slots__ = ("n", "f_max")

    def __init__(self):
        self.n = 0
        self.f_max = 0.0


def _checked_eval(f: Callable, x: np.ndarray, counter: _Counter,
                  weight: Callable | None) -> np.ndarray:
    """f at the points x, checked by errors._finite, times weight(x) when a
    weight is given; counter tallies the evaluations and the largest |f|
    seen, which bounds the unsampled tail."""
    vals = _finite(f(x), x, "integrand", "x")
    counter.n += x.size
    if vals.size:
        counter.f_max = max(counter.f_max, float(np.max(np.abs(vals))))
    return vals if weight is None else vals * weight(x)


def _adaptive_simpson(f: Callable, a: float, b: float, *, rel_tol: float,
                      abs_tol: float, max_panels: int,
                      max_width: float | None = None,
                      weight: Callable | None = None) -> tuple[float, float, _Counter]:
    """Batched adaptive Simpson with Richardson acceptance on [a, b] for the
    integrand f(x) weight(x) (f alone without a weight).

    Relative tolerance is applied against an L1 estimate of the integrand so
    that oscillatory cancellation does not force unbounded refinement.
    Returns (value, error_estimate, counter of evaluations and max |f|).
    """
    if not b > a:
        raise DomainError(f"empty integration interval [{a}, {b}]")
    span = b - a
    counter = _Counter()

    n0 = 16
    if max_width is not None and span / n0 > max_width:
        n0 = int(math.ceil(span / max_width))
    if n0 > max_panels:
        raise ConvergenceError(
            f"initial grid needs {n0} panels, exceeding max_panels={max_panels}")

    edges = np.linspace(a, b, n0 + 1)
    lefts = edges[:-1].copy()
    widths = np.diff(edges)
    # 5-point stencil per panel: endpoints, midpoint, quarter points.
    stencil = lefts[:, None] + widths[:, None] * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    fv = _checked_eval(f, stencil.ravel(), counter, weight).reshape(n0, 5)

    value = 0.0
    err_total = 0.0
    panels_processed = n0
    tol = None

    while lefts.size:
        h = widths
        s1 = h / 6.0 * (fv[:, 0] + 4.0 * fv[:, 2] + fv[:, 4])
        s2 = h / 12.0 * (fv[:, 0] + 4.0 * fv[:, 1] + 2.0 * fv[:, 2]
                         + 4.0 * fv[:, 3] + fv[:, 4])
        err = (s2 - s1) / 15.0
        if tol is None:
            l1 = float(np.sum(h / 12.0 * (np.abs(fv[:, 0]) + 4.0 * np.abs(fv[:, 1])
                                          + 2.0 * np.abs(fv[:, 2])
                                          + 4.0 * np.abs(fv[:, 3])
                                          + np.abs(fv[:, 4]))))
            tol = max(abs_tol, rel_tol * l1)

        unsplittable = (lefts + 0.25 * h) <= lefts
        accept = (np.abs(err) <= tol * (h / span)) | unsplittable
        value += float(np.sum(s2[accept] + err[accept]))
        err_total += float(np.sum(np.abs(err[accept])))

        reject = ~accept
        if not reject.any():
            break
        n_children = 2 * int(reject.sum())
        if panels_processed + n_children > max_panels:
            best = value + float(np.sum(s2[reject] + err[reject]))
            est = err_total + float(np.sum(np.abs(err[reject])))
            raise ConvergenceError(
                f"panel budget {max_panels} exhausted before reaching tolerance",
                best_value=best, error_estimate=est)
        panels_processed += n_children

        rl, rh, rf = lefts[reject], h[reject], fv[reject]
        # children reuse the parent's endpoint/quarter/mid values
        new_pts = rl[:, None] + rh[:, None] * np.array([0.125, 0.375, 0.625, 0.875])
        nf = _checked_eval(f, new_pts.ravel(), counter, weight).reshape(-1, 4)
        half = 0.5 * rh
        lefts = np.concatenate([rl, rl + half])
        widths = np.concatenate([half, half])
        f_lo = np.column_stack([rf[:, 0], nf[:, 0], rf[:, 1], nf[:, 1], rf[:, 2]])
        f_hi = np.column_stack([rf[:, 2], nf[:, 2], rf[:, 3], nf[:, 3], rf[:, 4]])
        fv = np.vstack([f_lo, f_hi])

    return value, err_total, counter


def integrate_weighted(f: Callable, k: int) -> IntegralResult:
    """Integrate exp(-z^2) z^k f(z) over (0, inf).

    f must be bounded on (0, _Z_MAX] and is called with numpy arrays of
    positive points (never exactly 0).  The semi-infinite tail beyond _Z_MAX
    is bounded by max|f| over the sampled points times the exact Gaussian
    power tail, 9.3e-53 times max|f| at k = 11.

    f may oscillate only where the weight damps it; integrands oscillating
    without bound as z -> 0+ at k = 0 belong on the log axis instead.
    """
    tail_mass = gaussian_power_tail(k, _Z_MAX)  # checks k
    value, err, counter = _adaptive_simpson(
        f, _LEFT_EDGE, _Z_MAX, rel_tol=_REL_TOL, abs_tol=_ABS_TOL,
        max_panels=_MAX_NODES, weight=lambda z: np.exp(-z * z) * z ** k)
    tail = counter.f_max * tail_mass
    left_edge = counter.f_max * _LEFT_EDGE ** (k + 1) / (k + 1)
    return IntegralResult(value, err + tail + left_edge, counter.n)


def integrate_log_oscillatory(F: Callable, m: float, trig) -> IntegralResult:
    """Integrate F(x) trig(m x) over [_LOG_LEFT_EDGE, log _Z_MAX] on the log axis.

    This is the substitution x = log z applied to a weighted oscillatory
    integral: the infinitely many oscillations of trig(m log z) near z = 0
    become the uniform frequency m in x, and panels are capped at 1/8 of the
    period 2 pi / m.  F must decay fast enough that both tails beyond the
    window are below _ABS_TOL (true for the kernel amplitudes, which die like
    exp((power+1) x) on the left and exp(-e^{2x}) on the right).
    """
    check_frequency(m)
    trig_fn = _normalize_trig(trig)
    cap = (2.0 * math.pi / m) / PANELS_PER_PERIOD
    value, err, counter = _adaptive_simpson(
        F, _LOG_LEFT_EDGE, math.log(_Z_MAX), rel_tol=_REL_TOL, abs_tol=_ABS_TOL,
        max_panels=_MAX_NODES, max_width=cap, weight=lambda x: trig_fn(m * x))
    # the precondition grants that both unseen tails are below _ABS_TOL
    return IntegralResult(value, err + _ABS_TOL, counter.n)


def _normalize_trig(trig):
    if trig is np.cos or trig is math.cos or trig == "cos":
        return np.cos
    if trig is np.sin or trig is math.sin or trig == "sin":
        return np.sin
    raise DomainError(f"trig must be 'cos' or 'sin', got {trig!r}")


def integrate_interval(f: Callable, a: float, b: float, *,
                       rel_tol: float = 1e-11, abs_tol: float = 1e-13,
                       max_panels: int = 200_000,
                       max_width: float | None = None) -> IntegralResult:
    """Adaptive integral of a vectorized f over the finite interval [a, b].

    Same engine as the weighted entry points, exposed for finite-range work
    such as ball averages.  f receives a float array and must return one of
    the same shape.
    """
    value, err, counter = _adaptive_simpson(
        f, a, b, rel_tol=rel_tol, abs_tol=abs_tol, max_panels=max_panels,
        max_width=max_width)
    return IntegralResult(value, err, counter.n)
