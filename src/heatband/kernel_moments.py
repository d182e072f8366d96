"""Trigonometric moments of the two radial heat-kernel weights.

The solution at the origin and the ball average of the initial data are both
weighted Gaussian integrals; against log-periodic data they reduce to the
moment pair

    a(m) = coeff(n) * int_0^inf exp(-z^2) z^power cos(m log z) dz
    b(m) = coeff(n) * int_0^inf exp(-z^2) z^power sin(m log z) dz

with (power, coeff) depending on which weight is in play:

    AverageKernel : power = n + 1, coeff = 2 omega(n) / pi^(n/2)
    DataKernel    : power = n - 1, coeff = n omega(n) / pi^(n/2)

where omega(n) = pi^(n/2) / Gamma(n/2 + 1) is the unit ball volume.  Both
weights integrate to exactly 1 (the m -> 0 limit).  DLMF 5.9.1 with mu = 2
gives the pair in closed form,

    a(m) + i b(m) = Gamma(s + i m/2) / Gamma(s),     s = (power + 1) / 2,

because coeff(n) Gamma(s) / 2 = 1.  By the product formula DLMF 5.8.3,
|Gamma(s + i y) / Gamma(s)|^2 = prod_k (1 + y^2 / (s + k)^2)^(-1), so the norm
sqrt(a^2 + b^2) falls strictly from 1 towards 0 as m grows.  Every ratio in
(0, 1) is therefore hit at exactly one frequency, which solve_m finds by
bisection in log m.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass

from scipy.special import loggamma

from .errors import (ConvergenceError, DomainError, RangeError, SearchFailure, check_finite,
                     check_integer)
from .quadrature import MAX_OSCILLATION_FREQUENCY

__all__ = [
    "KernelFlavor",
    "MomentPair",
    "unit_ball_volume",
    "kernel_moments",
    "moment_norm",
    "solve_m",
    "SCAN_GRID_LO",
    "SCAN_GRID_HI",
    "MAX_DIMENSION",
]

# Largest dimension every route of the package is tested in: the Gauss rule
# on the linear pieces of wave and bump ball averages is exact up to n = 15,
# the fixed z_max = 12 cut of the u kernel z^(n-1) e^(-z^2) reaches rounding
# level near n = 120, and unit_ball_volume overflows from n = 342 on.
MAX_DIMENSION = 10

# Frequency bracket of solve_m: ratios outside [norm(SCAN_GRID_HI),
# norm(SCAN_GRID_LO)] are reported as a SearchFailure.
SCAN_GRID_LO = 1e-3
SCAN_GRID_HI = 1e2

_EPS = sys.float_info.epsilon

# The u sweep of verify (solution_probe.band_estimate at its defaults) runs
# on x = log sqrt(4t) from t = _SWEEP_T_ANCHOR up to _X_CAP, past which t
# stops being a double (exp(700) ~ 1e304), and must cover _SWEEP_PERIODS
# periods 2 pi / m; constructions refuse m below _M_FLOOR, about 0.0551.
_X_CAP, _SWEEP_T_ANCHOR, _SWEEP_PERIODS = 350.0, 1e6, 3.0
_M_FLOOR = _SWEEP_PERIODS * 2.0 * math.pi / (_X_CAP - 0.5 * math.log(4.0 * _SWEEP_T_ANCHOR))


class KernelFlavor(enum.Enum):
    """Which radial weight a moment pair belongs to."""

    AVERAGE = "average"
    DATA = "data"

    def power(self, n: int) -> int:
        """Exponent of z in the weighted integrand."""
        check_dimension(n)
        return n + 1 if self is KernelFlavor.AVERAGE else n - 1

    def coefficient(self, n: int) -> float:
        """Normalizing constant making the m -> 0 moment exactly 1."""
        check_dimension(n)
        if self is KernelFlavor.AVERAGE:
            return 2.0 * unit_ball_volume(n) / math.pi ** (n / 2.0)
        return n * unit_ball_volume(n) / math.pi ** (n / 2.0)


@dataclass(frozen=True)
class MomentPair:
    """Cosine and sine moments of one kernel at one frequency."""

    a_value: float
    b_value: float
    m: float
    n: int
    flavor: KernelFlavor
    abs_error_est: float

    def norm(self) -> float:
        return math.hypot(self.a_value, self.b_value)


def check_dimension(n: int) -> None:
    """The package's one dimension check: n must be an integer, not a bool,
    with 1 <= n <= MAX_DIMENSION."""
    check_integer(**{"dimension n": n})
    if n < 1:
        raise DomainError(f"dimension n must be a positive integer, got {n!r}")
    if n > MAX_DIMENSION:
        raise DomainError(f"dimension n must be at most {MAX_DIMENSION}")


def check_time(t) -> None:
    """t must be a positive finite real with sqrt(4t) a double."""
    check_finite(t=t)
    if not t > 0:
        raise DomainError(f"t must be a positive finite real, got {t!r}")
    if 4.0 * t > 1e308:
        raise RangeError(
            f"t = {t} puts sqrt(4t) outside double precision; use the "
            "analytic band API for asymptotic statements")


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    check_dimension(n)
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _log_moment(s: float, m: float) -> complex:
    """log(a + i b) = log Gamma(s + i m/2) - log Gamma(s), s = (power + 1)/2."""
    return complex(loggamma(complex(s, 0.5 * m))) - math.lgamma(s)


def kernel_moments(n: int, m: float, flavor: KernelFlavor) -> MomentPair:
    """Moment pair (a, b) at frequency m, in closed form (DLMF 5.9.1).

    a + i b = Gamma(s + i m/2) / Gamma(s) with s = (power + 1)/2, evaluated
    as exp of a difference of log Gammas; the error estimate is the
    rounding of that exponent.  Frequencies above MAX_OSCILLATION_FREQUENCY
    are refused with ConvergenceError, as for every oscillatory integral of
    the package.
    """
    check_dimension(n)
    check_finite(m=m)
    if not m > 0:
        raise DomainError(f"frequency m must be positive, got {m!r}")
    if m > MAX_OSCILLATION_FREQUENCY:
        raise ConvergenceError(
            f"m = {m} exceeds the refusal threshold {MAX_OSCILLATION_FREQUENCY}; "
            "the moments are below double-precision noise there")
    log_pair = _log_moment(0.5 * (flavor.power(n) + 1), m)
    pair = cmath.exp(log_pair)
    return MomentPair(
        a_value=pair.real,
        b_value=pair.imag,
        m=m, n=n, flavor=flavor,
        abs_error_est=16.0 * _EPS * (1.0 + abs(log_pair)) * abs(pair),
    )


def moment_norm(n: int, m: float, flavor: KernelFlavor) -> float:
    """sqrt(a^2 + b^2) at frequency m; lies in (0, 1) for m > 0."""
    return kernel_moments(n, m, flavor).norm()


def solve_m(n: int, ratio: float, flavor: KernelFlavor,
            root_tol: float = 1e-10) -> float:
    """The m in [SCAN_GRID_LO, SCAN_GRID_HI] with moment_norm(n, m, flavor) = ratio.

    The norm is strictly decreasing in m (DLMF 5.8.3), so the root is
    unique.  Bisection on log norm as a function of log m halves the
    bracket until its width reaches rounding level (about 55 steps); the
    result must then satisfy |moment_norm(m) - ratio| <= root_tol.  A ratio
    outside [norm(SCAN_GRID_HI), norm(SCAN_GRID_LO)] raises SearchFailure.
    The open-interval requirement on ratio is structural: the norm equals 1
    only in the degenerate m -> 0 limit and never vanishes at finite m.
    """
    check_dimension(n)
    if not (0.0 < ratio < 1.0):
        raise DomainError(
            f"ratio must lie strictly inside (0, 1), got {ratio!r}; the "
            "moment norm only attains (0, 1) at positive frequencies")
    if not (root_tol > 0):
        raise DomainError(f"root_tol must be positive, got {root_tol!r}")
    s = 0.5 * (flavor.power(n) + 1)
    log_ratio = math.log(ratio)

    def excess(mu):  # log norm(e^mu) - log ratio, decreasing in mu
        return _log_moment(s, math.exp(mu)).real - log_ratio

    norm_lo = moment_norm(n, SCAN_GRID_LO, flavor)
    norm_hi = moment_norm(n, SCAN_GRID_HI, flavor)
    if not (norm_hi <= ratio <= norm_lo):
        raise SearchFailure(
            f"moment_norm never equals {ratio} on [{SCAN_GRID_LO}, "
            f"{SCAN_GRID_HI}]: it spans [{norm_hi:.12g}, {norm_lo:.12g}] there")
    lo, hi = math.log(SCAN_GRID_LO), math.log(SCAN_GRID_HI)
    while hi - lo > 4.0 * _EPS * max(1.0, abs(lo), abs(hi)):
        mu = 0.5 * (lo + hi)
        if excess(mu) > 0.0:
            lo = mu
        else:
            hi = mu
    m = math.exp(0.5 * (lo + hi))
    residual = moment_norm(n, m, flavor) - ratio
    if abs(residual) > root_tol:
        raise SearchFailure(
            f"root search stalled: residual {residual:.3e} above root_tol {root_tol}")
    return m
