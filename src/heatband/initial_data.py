"""Closed-form family of radial initial data with known oscillation bands.

Every construction in the band prescriptions is assembled from a small set
of expression variants (log-periodic sines, their average preimages, a
doubly-log sine, zero-mean trapezoid waves, sparse bump trains, and sums or
negations of these).  Keeping the family closed-form means the ball average

    H(tau) = (n / tau^n) * int_0^tau phi(r) r^(n-1) dr,      H(0) = phi(0)

and the exact asymptotic band (liminf, limsup) of phi are either available
symbolically or computable by fixed rules with a-priori error bounds, so the
numerical probes always have an honest reference.
"""

from __future__ import annotations

import itertools
import json
import math
from contextlib import suppress
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import zeta

from .errors import (
    ConvergenceError,
    DomainError,
    RangeError,
    UnsupportedExpression,
    _finite,
    _json_real,
    _loads,
    _points,
    check_finite,
    check_positive,
)
from .kernel_moments import KernelFlavor, check_dimension, kernel_moments
from .quadrature import (
    GL_NODES,
    GL_WEIGHTS,
    MAX_OSCILLATION_FREQUENCY,
    _ABS_TOL,
    _MAX_NODES,
    _Z_MAX,
    gaussian_power_tail,
    integrate_weighted,
)

__all__ = [
    "PeriodicFunction", "TrapezoidWave", "TrigPolynomial",
    "CenterLaw", "GeometricCenters", "DoubleExpCenters",
    "InitialDataExpr", "Constant", "LogSine", "LogSineAvgPreimage",
    "LogLogSine", "PeriodicZeroMean", "BumpTrain", "SlowFromPeriodic",
    "PeriodicOfLog", "Sum", "Negate",
    "eval_phi", "closed_H", "numeric_H", "phi_from_H",
    "analytic_band_phi", "sup_abs_phi", "band_witnesses",
    "to_json", "from_json", "dumps", "loads",
    "SCHEMA_ID",
]

SCHEMA_ID = "idexpr/1"

TWO_PI = 2.0 * math.pi

# Largest double; centers or tau beyond this are not representable.
_FLOAT_MAX = float(np.finfo(float).max)
_LOG_FLOAT_MAX = math.log(_FLOAT_MAX)
_FLOAT_TINY = float(np.finfo(float).tiny)  # least normal double
_EPS = float(np.finfo(float).eps)

# ---------------------------------------------------------------------------
# 2 pi periodic building blocks


class PeriodicFunction:
    """A 2 pi periodic function with exact derivative and extrema."""

    def value(self, theta):
        raise NotImplementedError

    def derivative(self, theta):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def extrema(self) -> tuple[float, float]:
        raise NotImplementedError


@dataclass(frozen=True)
class TrapezoidWave(PeriodicFunction):
    """Zero-mean 2 pi periodic trapezoid wave.

    Shape over one period: ramp 0 -> v_max over ramp_width, plateau at v_max,
    ramp down to 0, ramp on down to v_min, plateau at v_min, ramp back to 0.
    The two plateau lengths are solved from

        P_plus + P_minus = 2 pi - 4 w
        v_max (P_plus + w) + v_min (P_minus + w) = 0       (zero mean)

    Parameter combinations that would need a negative plateau are rejected.
    """

    v_max: float
    v_min: float
    ramp_width: float = math.pi / 8.0

    def __post_init__(self):
        check_positive(v_max=self.v_max)
        check_finite(v_min=self.v_min, ramp_width=self.ramp_width)
        if not self.v_min < 0:
            raise DomainError(f"v_min must be negative, got {self.v_min!r}")
        if not (0.0 < self.ramp_width < math.pi / 4.0):
            raise DomainError(
                f"ramp_width must lie in (0, pi/4), got {self.ramp_width!r}")
        p_plus, p_minus = self._plateaus()
        if p_plus < 0 or p_minus < 0:
            raise DomainError(
                "extremes too lopsided for a zero-mean trapezoid: plateau "
                f"lengths ({p_plus:.6g}, {p_minus:.6g}) must be nonnegative")

    def _plateaus(self) -> tuple[float, float]:
        w = self.ramp_width
        length = TWO_PI - 4.0 * w
        p_plus = (-w * (self.v_max + self.v_min) - self.v_min * length) \
            / (self.v_max - self.v_min)
        return p_plus, length - p_plus

    @cached_property
    def breakpoints(self) -> tuple[float, ...]:
        w = self.ramp_width
        p_plus, p_minus = self._plateaus()
        return (0.0, w, w + p_plus, 2.0 * w + p_plus, 3.0 * w + p_plus,
                3.0 * w + p_plus + p_minus, TWO_PI)

    @cached_property
    def knot_values(self) -> tuple[float, ...]:
        return (0.0, self.v_max, self.v_max, 0.0, self.v_min, self.v_min, 0.0)

    def value(self, theta):
        th = np.mod(theta, TWO_PI)
        return np.interp(th, self.breakpoints, self.knot_values)

    @cached_property
    def pieces(self) -> tuple[tuple[float, float, float, float], ...]:
        """The linear pieces of one period as (start, width, start value,
        rise), the wave v + rise s at fraction s of the piece; an empty
        plateau has no piece."""
        bp, kv = self.breakpoints, self.knot_values
        return tuple((bp[i], bp[i + 1] - bp[i], kv[i], kv[i + 1] - kv[i])
                     for i in range(len(bp) - 1) if bp[i + 1] > bp[i])

    def derivative(self, theta):
        th = np.mod(np.asarray(theta, dtype=float), TWO_PI)
        start, width, _v, rise = np.array(self.pieces).T
        idx = np.clip(np.searchsorted(start, th, side="right") - 1, 0, start.size - 1)
        return (rise / width)[idx]

    def mean(self) -> float:
        return 0.0

    def extrema(self) -> tuple[float, float]:
        return (self.v_min, self.v_max)

    def extremizer_args(self) -> tuple[float, float]:
        """Phase of the min plateau center and of the max plateau center."""
        bp = self.breakpoints
        return (0.5 * (bp[4] + bp[5]), 0.5 * (bp[1] + bp[2]))


@dataclass(frozen=True)
class TrigPolynomial(PeriodicFunction):
    """const + sum_j cos_coeffs[j-1] cos(j theta) + sin_coeffs[j-1] sin(j theta).

    Its extremes are its values at the roots of its derivative, found as
    the eigenvalues of one companion matrix (_critical_points); above a
    highest nonzero harmonic of MAX_OSCILLATION_FREQUENCY they are refused.
    """

    const: float = 0.0
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("cos_coeffs", "sin_coeffs"):
            coeffs = getattr(self, name)
            if not (isinstance(coeffs, (tuple, list))
                    or isinstance(coeffs, np.ndarray) and coeffs.ndim == 1):
                raise DomainError(f"{name} must be a sequence of reals, got {coeffs!r}")
        cos, sin = tuple(self.cos_coeffs), tuple(self.sin_coeffs)
        for c in (self.const, *cos, *sin):
            check_finite(**{"trig polynomial coefficient": c})
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in cos))
        object.__setattr__(self, "sin_coeffs", tuple(float(s) for s in sin))

    def value(self, theta):
        th = np.asarray(theta, dtype=float)
        out = np.full_like(th, self.const)
        for j, c in enumerate(self.cos_coeffs, start=1):
            if c:
                out = out + c * np.cos(j * th)
        for j, s in enumerate(self.sin_coeffs, start=1):
            if s:
                out = out + s * np.sin(j * th)
        return out

    def derivative(self, theta):
        return self.derivative_poly().value(theta)

    def mean(self) -> float:
        return self.const

    def derivative_poly(self) -> "TrigPolynomial":
        pairs = itertools.zip_longest(self.cos_coeffs, self.sin_coeffs, fillvalue=0.0)
        slopes = [(s * j, -c * j) for j, (c, s) in enumerate(pairs, start=1)]
        return TrigPolynomial(0.0, tuple(a for a, _b in slopes), tuple(b for _a, b in slopes))

    def _critical_points(self) -> np.ndarray:
        """Angles in [0, 2 pi) of the 2J roots of z^J p'(theta), z = e^{i theta},
        J the highest nonzero harmonic, in ascending order.

        A harmonic a cos j theta + b sin j theta of p' is
        ((a - ib) z^j + (a + ib) z^-j) / 2, so z^J p' is a polynomial of
        degree 2J whose unit-circle roots are the zeros of p', solved by one
        companion-matrix eigenvalue call (Boyd, J. Eng. Math. 56, 2006).  The
        angle of every root is kept: an off-circle one is just one more
        sample of p, which cannot move its min or max past rounding.  A J
        above MAX_OSCILLATION_FREQUENCY is refused with ConvergenceError
        before the O(J^3) solve.
        """
        dp = self.derivative_poly()
        harmonics = [j for j, (a, b) in enumerate(zip(dp.cos_coeffs, dp.sin_coeffs), start=1)
                     if a or b]
        if not harmonics:
            return np.empty(0)
        top = harmonics[-1]
        if top > MAX_OSCILLATION_FREQUENCY:
            raise ConvergenceError(
                f"harmonic {top} exceeds the refusal threshold "
                f"{MAX_OSCILLATION_FREQUENCY}; its critical points need a "
                f"{2 * top} x {2 * top} eigenvalue problem")
        a = np.array(dp.cos_coeffs[:top])
        b = np.array(dp.sin_coeffs[:top])
        coeffs = np.zeros(2 * top + 1, dtype=complex)  # coeffs[k] multiplies z^(2 top - k)
        coeffs[top - 1::-1] = 0.5 * (a - 1j * b)
        coeffs[top + 1:] = 0.5 * (a + 1j * b)
        return np.sort(np.mod(np.angle(np.roots(coeffs)), TWO_PI))

    def extrema(self) -> tuple[float, float]:
        lo, hi = self.extrema_with_args()[0]
        return lo, hi

    def extrema_with_args(self):
        """((min, max), (argmin, argmax)) over one period."""
        crits = self._critical_points()
        if crits.size == 0:
            return (self.const, self.const), (0.0, 0.0)
        vals = self.value(crits)
        i_lo = int(np.argmin(vals))
        i_hi = int(np.argmax(vals))
        return ((float(vals[i_lo]), float(vals[i_hi])),
                (float(crits[i_lo]), float(crits[i_hi])))

    def abs_max(self) -> float:
        lo, hi = self.extrema()
        return max(abs(lo), abs(hi))


# ---------------------------------------------------------------------------
# Center laws for bump trains


# Most representable centers a GeometricCenters law may have; a base closer
# to 1 is refused before the centers are allocated.
_MAX_CENTERS = 1_000_000


class CenterLaw:
    """Where the bumps of a BumpTrain sit."""

    def representable_centers(self) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class GeometricCenters(CenterLaw):
    """Centers c_k = base^k, k >= 1, base > 1."""

    base: float = math.e

    def __post_init__(self):
        check_finite(base=self.base)
        if not self.base > 1.0:
            raise DomainError(f"base must exceed 1, got {self.base!r}")
        if self._count() > _MAX_CENTERS:
            raise DomainError(
                f"base {self.base!r} puts {self._count():.3g} centers below the "
                f"largest double; at most {_MAX_CENTERS} are supported")

    def _count(self) -> float:
        return math.floor(_LOG_FLOAT_MAX / math.log(self.base))

    @cached_property
    def _centers(self) -> np.ndarray:
        ks = np.arange(1, self._count() + 1, dtype=float)
        with np.errstate(over="ignore"):
            cs = np.power(self.base, ks)
        return cs[np.isfinite(cs)]

    def representable_centers(self) -> np.ndarray:
        return self._centers


@dataclass(frozen=True)
class DoubleExpCenters(CenterLaw):
    """Doubly exponential centers log(c_k + 2) = exp(2 k pi + phase), k >= 0.

    parity 'peak' uses phase pi/2 (the doubly-log sine tops out there),
    'trough' uses 3 pi / 2.  Only the k = 0 center of either parity fits in a
    double (peak: ~1.2e2, trough: ~2.6e48); the k >= 1 centers exist only as
    stored inner exponents, which is all the analytic band needs.
    """

    parity: str = "peak"

    def __post_init__(self):
        if not isinstance(self.parity, str) or self.parity not in ("peak", "trough"):
            raise DomainError(f"parity must be 'peak' or 'trough', got {self.parity!r}")

    def inner_exponent(self, k: int) -> float:
        phase = math.pi / 2.0 if self.parity == "peak" else 3.0 * math.pi / 2.0
        return 2.0 * k * math.pi + phase

    @cached_property
    def _centers(self) -> np.ndarray:
        out = []
        k = 0
        while True:
            inner = self.inner_exponent(k)
            if inner > math.log(_LOG_FLOAT_MAX):
                break
            out.append(math.exp(math.exp(inner)) - 2.0)
            k += 1
        return np.asarray(out)

    def representable_centers(self) -> np.ndarray:
        return self._centers


# ---------------------------------------------------------------------------
# Expression family


class InitialDataExpr:
    """Base class; subclasses are frozen dataclasses.

    Sum and Negate are the only inner nodes.  Every other subclass is a leaf
    and carries the per-leaf rules that the module combines over the signed
    leaves of an expression (see _signed_leaves):

      band()             exact (liminf, limsup) of the leaf alone
      sup_abs()          sup of |leaf| over [0, inf)
      strip_bound()      (mass, omega) with |leaf(tau)| <= mass e^{omega a}
                         for |arg tau| <= a, for every a < pi/2, for leaves
                         analytic in log tau; None for the rest
      _piece_bound()     (sup, steep, phases) for leaves linear in L =
                         log(tau + 1) between corners theta + 2 pi q, theta
                         in phases (see _split_gauss); None for the rest
      slow_frequency()   lowest frequency on the log(tau + 1) axis, or None
      witnesses()        tau values approaching the liminf and the limsup,
                         looked for in _WITNESS_WINDOW first
      limit_u(y, n)      limit of u(0, t) in dimension n at y = log sqrt(4t)
    """

    @cached_property
    def _leaves(self) -> _Leaves:  # see _split_leaves
        return _Leaves.of(self)

    def _values(self, tau: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def band(self) -> tuple[float, float]:
        raise UnsupportedExpression(f"no band rule for {type(self).__name__}")

    def sup_abs(self) -> float:
        raise UnsupportedExpression(f"no sup bound for {type(self).__name__}")

    def strip_bound(self) -> tuple[float, float] | None:
        return None

    def _piece_bound(self) -> tuple[float, float, tuple[float, ...]] | None:
        return None

    def slow_frequency(self) -> float | None:
        return None

    def witnesses(self):
        raise UnsupportedExpression(f"no witnesses for {type(self).__name__}")

    def limit_u(self, y: float, n: int) -> float:
        raise UnsupportedExpression(f"no limit rule for {type(self).__name__}")


@dataclass(frozen=True)
class Constant(InitialDataExpr):
    c: float

    def __post_init__(self):
        check_finite(c=self.c)

    def _values(self, tau):
        return np.full_like(tau, self.c)

    def band(self):
        return (self.c, self.c)

    def sup_abs(self):
        return abs(self.c)

    def witnesses(self):
        mid = 0.5 * (_WITNESS_WINDOW[0] + _WITNESS_WINDOW[1])
        return [mid], [mid]

    def limit_u(self, y, n):
        return self.c


class _ModeOfLog(InitialDataExpr):
    """Shared rules of the log modes amplitude [sin(m L) + (tau / (tau + 1))
    q cos(m L)] + offset, L = log(tau + 1), q = m / _n: _n is the dimension n
    of LogSineAvgPreimage and inf for LogSine.  The mode tends to
    amplitude sqrt(1 + q^2) sin(m L + atan(q)) + offset."""

    _n = math.inf

    def __post_init__(self):
        check_positive(amplitude=self.amplitude, m=self.m)
        check_finite(offset=self.offset)

    def band_halfwidth(self) -> float:
        return self.amplitude * math.sqrt(1.0 + (self.m / self._n) ** 2)

    def band(self):
        h = self.band_halfwidth()
        return (self.offset - h, self.offset + h)

    def sup_abs(self):
        return abs(self.offset) + self.band_halfwidth()

    def strip_bound(self):
        return self.amplitude * (1.0 + self.m / self._n) + abs(self.offset), self.m

    def slow_frequency(self):
        return float(self.m)

    def witnesses(self):
        # asymptotic extremal phase of sin th + q cos th
        th = math.atan2(1.0, self.m / self._n)
        return _phase_taus(self.m, th + math.pi), _phase_taus(self.m, th)

    def limit_u(self, y, n):
        # amplitude (a' sin(m y) + b' cos(m y)) + offset, a' + i b' = (a + i b)(1 + i q)
        a, b = _data_moments(n, self.m)
        q = self.m / self._n
        return self.amplitude * ((a - q * b) * math.sin(self.m * y)
                                 + (b + q * a) * math.cos(self.m * y)) + self.offset


@lru_cache(maxsize=64, typed=True)  # a probe asks for the same pair at every t
def _data_moments(n: int, m: float) -> tuple[float, float]:
    mom = kernel_moments(n, m, KernelFlavor.DATA)
    return mom.a_value, mom.b_value


@dataclass(frozen=True)
class LogSine(_ModeOfLog):
    """amplitude * sin(m log(tau + 1)) + offset."""

    amplitude: float
    m: float
    offset: float = 0.0

    def _values(self, tau):
        return self.amplitude * np.sin(self.m * np.log1p(tau)) + self.offset


@dataclass(frozen=True)
class LogSineAvgPreimage(_ModeOfLog):
    """The initial data whose ball average is exactly a log sine.

    amplitude * [ sin(m log(tau+1)) + (m tau / (n (tau+1))) cos(m log(tau+1)) ]
    + offset.  Its band widens over the average's by the factor
    sqrt(1 + m^2/n^2), since the cosine term saturates at m/n.
    """

    amplitude: float
    m: float
    offset: float
    n: int

    def __post_init__(self):
        super().__post_init__()
        check_dimension(self.n)

    @property
    def _n(self):
        return self.n

    def _values(self, tau):
        theta = self.m * np.log1p(tau)
        lam = self.m * tau / (self.n * (tau + 1.0))
        return self.amplitude * (np.sin(theta) + lam * np.cos(theta)) + self.offset


@dataclass(frozen=True)
class LogLogSine(InitialDataExpr):
    """amplitude * sin(log(log(tau + 2))) + offset: extremely slow oscillation."""

    amplitude: float
    offset: float = 0.0

    def __post_init__(self):
        check_positive(amplitude=self.amplitude)
        check_finite(offset=self.offset)

    def _values(self, tau):
        return self.amplitude * np.sin(np.log(np.log(tau + 2.0))) + self.offset

    def band(self):
        return (self.offset - self.amplitude, self.offset + self.amplitude)

    def sup_abs(self):
        return abs(self.offset) + self.amplitude

    def strip_bound(self):
        # the phase log log(tau + 2) has |Im| <= a / log 2 for |arg tau| <= a
        return self.amplitude + abs(self.offset), 1.0 / math.log(2.0)

    def witnesses(self):
        # only the first peak/trough of each parity fits in a double
        peaks = DoubleExpCenters("peak").representable_centers()
        troughs = DoubleExpCenters("trough").representable_centers()
        return list(troughs), list(peaks)

    def limit_u(self, y, n):
        if y <= 0.0:
            raise DomainError("the doubly-log envelope needs log sqrt(4t) > 0, i.e. "
                              f"t > 0.25; got log sqrt(4t) = {y}")
        return self.amplitude * math.sin(math.log(y)) + self.offset


@dataclass(frozen=True)
class PeriodicZeroMean(InitialDataExpr):
    """Zero-mean 2 pi periodic trapezoid wave in tau (see TrapezoidWave)."""

    v_max: float
    v_min: float
    ramp_width: float = math.pi / 8.0

    def __post_init__(self):
        self.wave  # validates

    @cached_property
    def wave(self) -> TrapezoidWave:
        return TrapezoidWave(self.v_max, self.v_min, self.ramp_width)

    def _values(self, tau):
        return self.wave.value(tau)

    def band(self):
        return (self.v_min, self.v_max)

    def sup_abs(self):
        return max(self.v_max, -self.v_min)

    def witnesses(self):
        arg_lo, arg_hi = self.wave.extremizer_args()
        first = math.ceil(_WITNESS_WINDOW[0] / TWO_PI)
        base = TWO_PI * np.arange(first, first + 40)
        return list(base + arg_lo), list(base + arg_hi)

    def limit_u(self, y, n):
        return 0.0


@dataclass(frozen=True)
class BumpTrain(InitialDataExpr):
    """baseline plus disjoint triangular bumps at the centers of a CenterLaw.

    height may be negative (downward bumps).  Disjointness of consecutive
    representable centers is enforced at construction.
    """

    height: float
    half_width: float
    baseline: float
    centers: CenterLaw

    def __post_init__(self):
        check_finite(height=self.height, baseline=self.baseline)
        check_positive(half_width=self.half_width)
        if self.height == 0:
            raise DomainError("height must be nonzero")
        if not isinstance(self.centers, CenterLaw):
            raise DomainError(f"centers must be a CenterLaw, got {self.centers!r}")
        cs = self.centers.representable_centers()
        if cs.size > 1 and not np.all(np.diff(cs) > 2.0 * self.half_width):
            raise DomainError("bump supports overlap: consecutive centers must "
                              f"differ by more than 2 * half_width = {2 * self.half_width}")

    def _values(self, tau):
        cs = self.centers.representable_centers()
        out = np.full_like(tau, self.baseline)
        if cs.size == 0:
            return out
        idx = np.searchsorted(cs, tau)
        j_left = np.clip(idx - 1, 0, cs.size - 1)
        j_right = np.clip(idx, 0, cs.size - 1)
        for j, live in ((j_left, None), (j_right, j_right != j_left)):
            dist = np.abs(tau - cs[j])
            hit = dist < self.half_width
            if live is not None:
                hit = hit & live
            out += self.height * np.maximum(0.0, 1.0 - dist / self.half_width) * hit
        # supports are disjoint so at most one candidate center is within
        # half_width of any point
        return out

    def band(self):
        return (self.baseline + min(self.height, 0.0),
                self.baseline + max(self.height, 0.0))

    def sup_abs(self):
        return max(abs(self.baseline), abs(self.baseline + self.height))

    def witnesses(self):
        cs = self.centers.representable_centers()
        cs = cs[(cs >= _WITNESS_WINDOW[0]) & (cs <= _WITNESS_WINDOW[1])]
        if cs.size == 0:
            cs = self.centers.representable_centers()[-1:]
        gaps = np.sqrt(cs[:-1] * cs[1:]) if cs.size > 1 else cs * 7.0
        at_bumps, away = list(cs), list(gaps)
        if self.height > 0:
            return away, at_bumps
        return at_bumps, away

    def limit_u(self, y, n):
        # the bumps' spikes have no closed limit; envelope_u refuses bumps alone
        return self.baseline


class _ProfileOfLog(InitialDataExpr):
    """Shared rules of the leaves phi = g(x) + (tau / (tau + 1)) g'(x) / _n
    on a 2 pi periodic profile g of x = log(tau + 1): _n is the dimension n
    of SlowFromPeriodic and inf for PeriodicOfLog, and _slope = 1 / _n.  The
    asymptotic profile g + g'/_n gives the band and the witnesses; it divides
    by _n, as phi does, since d (1/n) may round apart from d / n."""

    _n = math.inf

    def __post_init__(self):
        if not isinstance(self.g, (TrapezoidWave, TrigPolynomial)):
            raise DomainError("g must be a TrapezoidWave or TrigPolynomial, "
                              f"got {type(self.g).__name__}")

    @property
    def _slope(self):
        return 1.0 / self._n

    @cached_property
    def _profile(self) -> TrigPolynomial | None:
        """The asymptotic profile g + g'/n of phi for a trig-polynomial g."""
        g = self.g
        if not isinstance(g, TrigPolynomial):
            return None
        dp = g.derivative_poly()

        def lean(coeffs, slopes):
            return tuple(c + d / self._n for c, d in
                         itertools.zip_longest(coeffs, slopes, fillvalue=0.0))

        return TrigPolynomial(g.const, lean(g.cos_coeffs, dp.cos_coeffs),
                              lean(g.sin_coeffs, dp.sin_coeffs))

    def _profile_extrema(self):
        """((min, max), (argmin, argmax)) of the asymptotic profile over one period."""
        if self._profile is not None:
            return self._profile.extrema_with_args()
        # trapezoid: g + g'/n is linear on each open piece, so its extremes
        # sit at one-sided piece ends; the arguments are nudged inward so
        # evaluation picks the correct piece (the corner value itself
        # belongs to the neighbor)
        nudge = 1e-9
        ends, inward = [], []
        for start, width, v, rise in self.g.pieces:
            slope = rise / width
            lean = slope / self._n
            ends += [v + lean, v + rise + lean]
            inward += [(v + slope * nudge + lean, start + nudge),
                       (v + rise - slope * nudge + lean, start + width - nudge)]
        lowest = min(inward, key=lambda pair: pair[0])
        highest = max(inward, key=lambda pair: pair[0])
        return (min(ends), max(ends)), (lowest[1], highest[1])

    def band(self):
        return self._profile_extrema()[0]

    def sup_abs(self):
        g = self.g
        if isinstance(g, TrigPolynomial):  # g' has no weight in PeriodicOfLog
            return g.abs_max() + (g.derivative_poly().abs_max() / self._n if self._slope else 0.0)
        return max(g.v_max, -g.v_min) + self._steepest() / self._n

    def _steepest(self):  # max |g'| of a trapezoid g
        return max(abs(rise) / width for _start, width, _v, rise in self.g.pieces)

    def strip_bound(self):
        # with L = log(tau + 1), |Im L| <= |arg tau| and |tau / (tau + 1)| <= 1,
        # so a trig term of frequency j grows by at most cosh(j a); a
        # trapezoid g jumps in slope and has no strip bound
        g = self.g
        if not isinstance(g, TrigPolynomial):
            return None
        mass = abs(g.const) + sum(
            (1.0 + j * self._slope) * abs(c)
            for coeffs in (g.cos_coeffs, g.sin_coeffs)
            for j, c in enumerate(coeffs, start=1))
        return mass, float(max(len(g.cos_coeffs), len(g.sin_coeffs), 1))

    def _piece_bound(self):
        # a trapezoid g is linear in L between corners; over the ellipse of a Gauss
        # panel inside |Im s| <= a < pi/2, |Im L| <= a and Re L overshoots the panel's piece
        # by at most a - log cos a, so its formula stays below sup|phi| + max|g'| (2a - log cos a)
        g = self.g
        if not isinstance(g, TrapezoidWave):
            return None
        return self.sup_abs(), self._steepest(), tuple(sorted(set(g.breakpoints[:-1])))

    def slow_frequency(self):
        g = self.g
        if not isinstance(g, TrigPolynomial):
            return 1.0
        for j, (c, s) in enumerate(itertools.zip_longest(
                g.cos_coeffs, g.sin_coeffs, fillvalue=0.0), start=1):
            if c != 0.0 or s != 0.0:
                return float(j)
        return None

    def witnesses(self):
        a_lo, a_hi = self._profile_extrema()[1]
        return _phase_taus(1.0, a_lo), _phase_taus(1.0, a_hi)


@dataclass(frozen=True)
class SlowFromPeriodic(_ProfileOfLog):
    """phi(tau) = (tau/n) G'(tau) + G(tau) with G = g(log(tau + 1)).

    By construction the ball average of phi is exactly g(log(tau + 1)), so
    any 2 pi periodic profile g becomes a slow oscillation of the average.
    g must be a TrapezoidWave or TrigPolynomial so G' is exact.  With a
    trapezoid g, phi jumps at the ramp corners (piecewise continuous).
    """

    g: PeriodicFunction
    n: int

    def __post_init__(self):
        super().__post_init__()
        check_dimension(self.n)

    @property
    def _n(self):
        return self.n

    def _values(self, tau):
        x = np.log1p(tau)
        return self.g.value(x) + (tau / (self.n * (tau + 1.0))) * self.g.derivative(x)


@dataclass(frozen=True)
class PeriodicOfLog(_ProfileOfLog):
    """g(log(tau + 1)) for a 2 pi periodic g: a pure slow oscillation."""

    g: PeriodicFunction

    def _values(self, tau):
        return self.g.value(np.log1p(tau))


@dataclass(frozen=True)
class Sum(InitialDataExpr):
    terms: tuple[InitialDataExpr, ...]

    def __post_init__(self):
        if not isinstance(self.terms, (tuple, list)):
            raise DomainError(f"Sum terms must be a tuple of expressions, got {self.terms!r}")
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise DomainError("Sum needs at least one term")
        for t in self.terms:
            if not isinstance(t, InitialDataExpr):
                raise DomainError(f"Sum terms must be expressions, got {t!r}")

    def _values(self, tau):
        out = self.terms[0]._values(tau)
        for t in self.terms[1:]:
            out = out + t._values(tau)
        return out


@dataclass(frozen=True)
class Negate(InitialDataExpr):
    """Pointwise negation; negate(negate(e)) unwraps to e exactly."""

    term: InitialDataExpr

    def __post_init__(self):
        if not isinstance(self.term, InitialDataExpr):
            raise DomainError(f"Negate needs an expression, got {self.term!r}")

    def _values(self, tau):
        return -self.term._values(tau)


def negate(expr: InitialDataExpr) -> InitialDataExpr:
    """Exact pointwise negation, unwrapping double negations."""
    if isinstance(expr, Negate):
        return expr.term
    if isinstance(expr, Constant):
        return Constant(-expr.c)
    if isinstance(expr, Sum):
        return Sum(tuple(negate(t) for t in expr.terms))
    return Negate(expr)


def _signed_leaves(expr: InitialDataExpr, sign: float = 1.0,
                   out: list | None = None) -> list[tuple[float, InitialDataExpr]]:
    """The leaves of expr under Sum and Negate as (sign, leaf), depth first.

    This is the one walk through expression structure outside negate, the
    closed_H / phi_from_H map and the idexpr/1 codec, made once per
    expression by _split_leaves; sign and out carry its state down the
    recursion.  Chains of Negate unwrap in a loop, so only nested sums cost
    stack depth.
    """
    if out is None:
        out = []
    while isinstance(expr, Negate):
        expr, sign = expr.term, -sign
    if isinstance(expr, Sum):
        for term in expr.terms:
            _signed_leaves(term, sign, out)
    else:
        out.append((sign, expr))
    return out


def _signed_band(sign: float, leaf: InitialDataExpr) -> tuple[float, float]:
    lo, hi = leaf.band()
    return (lo, hi) if sign > 0 else (-hi, -lo)


# ---------------------------------------------------------------------------
# Evaluation


def _check_expr(expr) -> None:
    if not isinstance(expr, InitialDataExpr):
        raise DomainError(f"expr must be an InitialDataExpr, got {type(expr).__name__}")


def eval_phi(expr: InitialDataExpr, tau):
    """Evaluate phi at tau (scalar or array), tau >= 0 and finite.

    A tau that is not an integer or float, or an array of them (a bool, a
    string, None, a complex number), raises DomainError.  Non-finite tau is
    rejected with a range error: bands at tau -> infinity come from
    analytic_band_phi, never from evaluating at a fake infinity.
    """
    _check_expr(expr)
    arr = np.asarray(tau)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"tau must be a real or an array of reals, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise RangeError(
            "tau is not representable; use analytic_band_phi for the "
            "asymptotic band instead of evaluating at infinity")
    if np.any(arr < 0):
        raise DomainError("tau must be nonnegative")
    vals = expr._values(arr if arr.ndim else arr.reshape(1))
    if arr.ndim == 0:
        return float(vals[0])
    return vals


# ---------------------------------------------------------------------------
# Closed-form ball averages


def _map_leaves(expr: InitialDataExpr, rule) -> InitialDataExpr | None:
    """expr with every leaf replaced by rule(leaf), keeping its Sum and
    Negate nodes; None as soon as rule returns None for a leaf."""
    _check_expr(expr)
    if isinstance(expr, Sum):
        terms = tuple(_map_leaves(t, rule) for t in expr.terms)
        return None if any(t is None for t in terms) else Sum(terms)
    if isinstance(expr, Negate):
        inner = _map_leaves(expr.term, rule)
        return None if inner is None else Negate(inner)
    return rule(expr)


def closed_H(expr: InitialDataExpr, n: int) -> InitialDataExpr | None:
    """Closed-form ball average of expr in dimension n, or None.

    Available exactly when every piece was built as an average preimage:
    LogSineAvgPreimage averages to the matching LogSine, SlowFromPeriodic to
    its periodic profile of log(tau+1), constants to themselves.
    """
    check_dimension(n)

    def average(leaf):
        if isinstance(leaf, Constant):
            return leaf
        if isinstance(leaf, LogSineAvgPreimage) and leaf.n == n:
            return LogSine(leaf.amplitude, leaf.m, leaf.offset)
        if isinstance(leaf, SlowFromPeriodic) and leaf.n == n:
            return PeriodicOfLog(leaf.g)
        return None

    return _map_leaves(expr, average)


def phi_from_H(h_expr: InitialDataExpr, n: int) -> InitialDataExpr:
    """Initial data whose ball average is exactly h_expr.

    Inverts the averaging identity H'(tau) = (n/tau)(phi - H), i.e.
    phi = H + (tau/n) H'.  Supported H forms: LogSine, Constant,
    PeriodicOfLog, and sums/negations of these.
    """
    check_dimension(n)

    def preimage(leaf):
        if isinstance(leaf, Constant):
            return leaf
        if isinstance(leaf, LogSine):
            return LogSineAvgPreimage(leaf.amplitude, leaf.m, leaf.offset, n)
        if isinstance(leaf, PeriodicOfLog):
            return SlowFromPeriodic(leaf.g, n)
        raise UnsupportedExpression(
            f"no average preimage formula for {type(leaf).__name__}; supported "
            "H forms are LogSine, Constant, PeriodicOfLog, and sums/negations")

    return _map_leaves(h_expr, preimage)


# ---------------------------------------------------------------------------
# Leaf routes
#
# Both integrals of the data, u(0, t) against the heat kernel (_weighted_value)
# and the ball average H(tau) (_ball_average), are routed per signed leaf by
# its kind, which _split_leaves alone decides (see _Leaves); the bands and
# witnesses of a sum and verify's sweeps read the same split, and each route
# adds its leaves in leaf order, waves before bumps.  Constants are closed
# forms.  Leaves analytic in log tau (log sines, their average preimages, the
# doubly-log sine, trig-polynomial profiles of log(tau + 1)) share one fixed
# sum on a log-radius axis, with an a-priori bound through the strip where
# the integrand stays analytic: a trapezoid sum on x = log z for u, a
# Gauss-Legendre sum on s = log(r / tau) for H.  Trapezoid profiles of
# log(tau + 1), analytic only between their corners, take the Gauss layout
# split at the corners, radius by radius, for either kernel, beside the
# analytic leaves' own rule (in H tol/2 each).  2 pi periodic waves and bump
# trains would alias under fixed panels; both are linear in tau piece by
# piece, a bump train above its baseline, which joins the constants.  One
# Gauss rule on those pieces, in coordinates local to each, serves both
# kernels: every bump train, and a wave below four periods in H and at roots
# too small for its series in u.  Elsewhere a wave integrates by parts
# against the primitives of one cached model: H ends after n steps, one
# array expression over the radii, and u is a series whose remainder bound
# picks its length, so no cost grows with tau or t.  Each fixed rule is a
# cached read-only layout, the same nodes at every t or tau, so a batch of
# points is one evaluation of phi on the outer product of radii and nodes and
# one matrix-vector product; the wave's series are array expressions over the
# points, the piece rule one layout a block of points, and kinked leaves loop
# over them.  A grid uniform in x = log root, given as the grid itself (the
# grid call of verify's sweep), shares its trapezoid nodes: its sums are one
# correlation of phi on a lattice that all grid points share (_lattice_sums).
# Every fixed rule refuses, before it lays any, more nodes at a point than the
# one node budget _MAX_NODES (_check_nodes), and every u(0, t) rule is sized
# by the one tolerance _ABS_TOL.  Only plain callables take adaptive quadrature.

# Most values of phi in one block of rows of a batch's outer product
_BLOCK = 1 << 20

# Most terms of the integration-by-parts series of a wave; where they cannot
# reach abs_tol / 2 (root below about 15 to 30, the more the larger k), the
# wave route integrates the wave piece by piece instead.
_IBP_TERMS = 60
_IBP_ORDERS = np.arange(1, _IBP_TERMS + 1)

# Least radius, four periods, of the integration-by-parts ball average of a
# wave; nearer 2 pi the Gauss rule on its pieces has the tighter bound.
_WAVE_SERIES_FROM = 4.0 * TWO_PI

# Widest z-panel of the Gauss-Legendre rule on linear pieces in u, and the
# constant (8!)^4 / (17 (16!)^3) of that 8-node rule's remainder
_PIECE_PANEL = 0.125
_GAUSS_REMAINDER = math.factorial(8) ** 4 / (17 * math.factorial(16) ** 3)


@dataclass(frozen=True)
class _Leaves:
    """The signed leaves of an expression under Sum and Negate by kind, each
    kind in leaf order: the one place that decides a leaf's kind.

    Every leaf is a (sign, leaf) pair, and signed holds them all in leaf
    order.  constant is the sum of the signed constants and bump-train
    baselines; analytic holds the leaves with a strip_bound, with their strip
    masses summed in mass and their top log frequency in omega; waves holds
    the 2 pi periodic waves and bumps the bump trains above their baselines,
    both linear piece by piece (_linear_pieces); kinked holds the leaves with
    a _piece_bound (trapezoid profiles of log(tau + 1)), which the Gauss
    routes split at their corners, apart from the analytic leaves, with their
    sups summed in kink_sup, their steepest slopes in kink_steep and their
    corner phases, sorted, in phases.  analytic + kinked are the slow
    leaves, and loglog says whether one of them is a doubly-log sine.
    """

    signed: tuple[tuple[float, InitialDataExpr], ...]
    constant: float
    analytic: tuple[tuple[float, InitialDataExpr], ...]
    mass: float
    omega: float
    waves: tuple[tuple[float, InitialDataExpr], ...]
    bumps: tuple[tuple[float, InitialDataExpr], ...]
    kinked: tuple[tuple[float, InitialDataExpr], ...]
    kink_sup: float
    kink_steep: float
    phases: tuple[float, ...]
    loglog: bool

    @classmethod
    def of(cls, expr: InitialDataExpr) -> _Leaves:
        """Sort the leaves of expr; a leaf with no route raises UnsupportedExpression."""
        signed = tuple(_signed_leaves(expr))
        constant, mass, omega, kink_sup, kink_steep = 0.0, 0.0, 0.0, 0.0, 0.0
        analytic, waves, bumps, kinked, phases = [], [], [], [], set()
        for sign, leaf in signed:
            if isinstance(leaf, Constant):
                constant += sign * leaf.c
            elif isinstance(leaf, PeriodicZeroMean):
                waves.append((sign, leaf))
            elif isinstance(leaf, BumpTrain):
                constant += sign * leaf.baseline
                bumps.append((sign, leaf))
            elif (bound := leaf.strip_bound()) is not None:
                analytic.append((sign, leaf))
                mass += bound[0]
                omega = max(omega, bound[1])
            elif (pieces := leaf._piece_bound()) is not None:
                kinked.append((sign, leaf))
                kink_sup, kink_steep = kink_sup + pieces[0], kink_steep + pieces[1]
                phases.update(pieces[2])
            else:
                raise UnsupportedExpression(
                    f"no integration route for {type(leaf).__name__}")
        return cls(signed, constant, tuple(analytic), mass, omega, tuple(waves), tuple(bumps),
                   tuple(kinked), kink_sup, kink_steep, tuple(sorted(phases)),
                   any(isinstance(leaf, LogLogSine) for _sign, leaf in analytic))


def _split_leaves(expr: InitialDataExpr) -> _Leaves:
    """The leaves of expr by kind (_Leaves), split once per expression object."""
    _check_expr(expr)
    return expr._leaves


def _signed_sum(pairs) -> InitialDataExpr:
    """One expression for (sign, leaf) pairs, evaluated in one vectorised call."""
    terms = [leaf if sign > 0 else Negate(leaf) for sign, leaf in pairs]
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def _phi_on(expr: InitialDataExpr, tau: np.ndarray) -> np.ndarray:
    """phi at the radii tau; a non-finite value raises EvaluationError."""
    return _finite(eval_phi(expr, tau), tau, "initial data", "tau")


def _log_quotient(num: float, den: float) -> float:
    """log(num / den), num >= 0 and den > 0: of the quotient where it is a
    normal double, else the difference of the logs (-inf for num = 0)."""
    ratio = num / den
    if _FLOAT_TINY <= ratio < math.inf:
        return math.log(ratio)
    return math.log(num) - math.log(den) if num > 0.0 else -math.inf


def _check_nodes(nodes) -> None:
    """Refuse more than _MAX_NODES nodes at a point, or nan, with ConvergenceError."""
    if not nodes <= _MAX_NODES:
        raise ConvergenceError(f"fixed rule needs at least {nodes:.6g} nodes a point, "
                               f"exceeding the node budget {_MAX_NODES}")


def _fixed_sums(pairs, radii, scale, weights) -> np.ndarray:
    """sum_j weights_j phi(radii_i scale_j) for each radius, phi the signed
    sum of pairs, in blocks of rows of at most _BLOCK values."""
    expr, rows = _signed_sum(pairs), max(1, _BLOCK // scale.size)
    out = np.empty(radii.size)
    for i in range(0, radii.size, rows):
        out[i:i + rows] = np.dot(_phi_on(expr, np.multiply.outer(radii[i:i + rows], scale)),
                                 weights)
    return out


def _split_gauss(lo: float, h: float, panels: int, radius: float, phases):
    """(s_i, w_i, near) of the 8-node Gauss-Legendre rule on `panels` panels
    of width h from s = lo, s = log(r / radius), each panel split where
    L = log(r + 1) crosses a corner theta + 2 pi q, theta in phases.  near
    marks the nodes whose L lies within rounding of a corner, where
    evaluation may take the neighbouring piece's formula.  Each corner adds
    at most one panel; more than _MAX_NODES nodes in all raise
    ConvergenceError before any node is laid.
    """
    edges = lo + h * np.arange(panels + 1)
    ell_lo, ell_hi = np.log1p(radius * np.exp(edges[[0, -1]]))
    q = np.arange(math.floor(ell_lo / TWO_PI), math.floor(ell_hi / TWO_PI) + 1)
    corners = (TWO_PI * q[:, None] + np.asarray(phases)).ravel()
    corners = corners[(corners > ell_lo) & (corners < ell_hi)]
    _check_nodes(GL_NODES.size * (panels + corners.size))
    # s = log(e^L - 1) - log radius, without overflow at large L
    edges = np.union1d(edges, corners + np.log(-np.expm1(-corners)) - math.log(radius))
    widths = np.diff(edges)
    nodes = (edges[:-1, None] + widths[:, None] * GL_NODES).ravel()
    ell = np.log1p(radius * np.exp(nodes))
    gap = np.abs(ell[:, None] - corners).min(axis=1, initial=np.inf)
    return nodes, (widths[:, None] * GL_WEIGHTS).ravel(), gap <= 16.0 * _EPS * (ell + 1.0)


def _split_gauss_sum(leaves: _Leaves, radii: np.ndarray, layout,
                     kernel) -> tuple[np.ndarray, np.ndarray]:
    """(values, error bounds) of int_{-D}^0 K(s) phi(radius e^s) ds at each
    radius of the 1-D array radii, phi the signed sum of leaves.kinked, by
    the Gauss layout (D, P, bound) of _log_gauss_panels split at their
    corners, which move with the radius, so radius by radius, within the node
    budget at each radius.

    kernel(s) gives K at the nodes and factors c_i with K_i right to 4 c_i eps
    relative.  The terms are summed exactly by math.fsum; the bound adds to
    the layout's their rounding, 4 eps sum_i c_i |term_i|, and
    2 (kink_sup + kink_steep) w_i K_i for each node near a corner, where
    both pieces' formulas stay within kink_sup + kink_steep of 0.
    """
    depth, panels, bound = layout
    expr, near_bound = _signed_sum(leaves.kinked), 2.0 * (leaves.kink_sup + leaves.kink_steep)
    values, bounds = np.empty(radii.size), np.empty(radii.size)
    for i, radius in enumerate(radii.tolist()):
        s, w, near = _split_gauss(-depth, depth / panels, panels, radius, leaves.phases)
        k_vals, cond = kernel(s)
        weights = w * k_vals
        terms = weights * _phi_on(expr, radius * np.exp(s))
        rounding = 4.0 * _EPS * float(np.sum(np.abs(terms) * cond))
        values[i] = math.fsum(terms)
        bounds[i] = bound + rounding + near_bound * float(np.sum(weights[near]))
    return values, bounds


@lru_cache(maxsize=64)
def _log_gauss_panels(n: int, mass: float, omega: float, tol: float,
                      steep: float = 0.0, reach: float = 0.5 * math.pi):
    """(D, P, error bound) of the Gauss rule of n int_{-inf}^0 K(s) phi(tau e^s) ds
    on s = log(r / tau), |K(s)| <= e^{n Re s} for |Im s| <= reach (pi/2 for
    H's K = e^{ns}, pi/4 for the heat kernel).  |phi(tau e^s)| <= M(a) =
    mass e^{omega a} + steep (2a - log cos a) for |Im s| < a < pi/2, whatever
    tau, and <= mass on the real axis: steep = 0 for analytic leaves
    (strip_bound), omega = 0 for kinked ones, piece by piece (_piece_bound).  The rule

    * cuts the window at s = -D with D = log(2 mass / tol) / n, which drops
      at most mass e^{-nD} = tol / 2 of n int phi(tau e^s) e^{ns} ds;
    * covers [-D, 0] with P panels of width h = D / P carrying the 8-point
      Gauss-Legendre rule.  On a panel with centre c the Bernstein ellipse
      E_rho with (h/4)(rho - 1/rho) = a fits in the strip and reaches
      Re s = c + r, r = sqrt(h^2/4 + a^2), so the integrand is at most
      n M(a) e^{n c + n r} there, and the panel errs by at most
      h/2 * 64/15 * that * rho^-16 / (rho^2 - 1) (Trefethen, Approximation
      Theory and Approximation Practice, Theorem 19.3).  As
      sum_c (h/2) e^{nc} <= 1/(2n), all panels together err by at most
          E(h, a) = (32/15) M(a) e^{n r} rho^-16 / (rho^2 - 1),
      which grows with h.  a is where 12 bisections over (0, reach] find
      log E, with derivative (log M)'(a) + (n a - 17) / r - 1 / a, turn up:
      its minimiser for steep = 0, where log E is convex in a, and a valid
      bound for any a.  P is the least count with E(D / P, a) <= tol/2.

    The bound returned is E(h, a) + mass e^{-nD}; panels split at corners
    keep it, being narrower, as e^{ns} is convex.  More than _MAX_NODES nodes
    raise ConvergenceError (_split_gauss counts the corners); D and tol/2
    are logs of quotients (_log_quotient), so no tol is too fine.
    """
    order = len(GL_NODES)
    tol = max(tol, math.ulp(0.0))  # a halved tolerance may round to 0
    depth = max(_log_quotient(2.0 * mass, tol), 1.0) / n
    target = _log_quotient(tol, 2.0)

    def strip(a):  # log((32/15) M(a)) and (log M)'(a); steep = 0 forms no e^{omega a}
        if not steep:
            return math.log(32.0 / 15.0 * mass) + omega * a, omega
        grown = mass * math.exp(omega * a)
        bound = grown + steep * (2.0 * a - math.log(math.cos(a)))
        return math.log(32.0 / 15.0 * bound), (omega * grown + steep * (2.0 + math.tan(a))) / bound

    def log_error(panels):
        h, lo, a = depth / panels, 0.0, reach
        for _ in range(12):
            mid = 0.5 * (lo + a)
            slope = strip(mid)[1] + (n * mid - 2 * order - 1) / math.hypot(0.5 * h, mid)
            lo, a = (lo, mid) if slope > 1.0 / mid else (mid, a)
        rho = 2.0 * a / h + math.hypot(2.0 * a / h, 1.0)
        return (strip(a)[0] + n * math.hypot(0.5 * h, a)
                - 2 * order * math.log(rho) - math.log(rho * rho - 1.0))

    def fits(panels):
        return mass == 0.0 or log_error(panels) <= target

    hi = 1
    while not fits(hi):  # double the count, then bisect
        _check_nodes(order * (hi + 1))  # the least count that may fit
        hi *= 2
    lo = hi // 2  # fits(hi) holds; fits(lo) fails or lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    _check_nodes(order * hi)
    quad = math.exp(log_error(hi)) if mass > 0.0 else 0.0
    return depth, hi, quad + mass * math.exp(-n * depth)


@lru_cache(maxsize=64)
def _log_gauss_rule(n: int, mass: float, omega: float, tol: float):
    """(e^{s_i}, w_i, error bound) with H(tau) ~ sum_i w_i phi(tau e^{s_i})
    for analytic leaves: the panels of _log_gauss_panels in the strip that
    needs fewest, the same for every tau, within the node budget, and
    their bound plus the rounding of the weighted sum."""
    depth, panels, bound = _log_gauss_panels(n, mass, omega, tol)
    h = depth / panels
    s = -depth + h * (np.arange(panels)[:, None] + GL_NODES).ravel()
    scale = np.exp(s)
    weights = n * h * np.tile(GL_WEIGHTS, panels) * scale ** n
    rounding = weights.size * _EPS * mass * float(np.sum(weights))
    scale.flags.writeable = weights.flags.writeable = False
    return scale, weights, bound + rounding


@lru_cache(maxsize=64)
def _log_trapezoid_rule(k: int, mass: float, omega: float):
    """(e^{x_j}, w_j, h, error bound) with w_j = e^{(k+1) x_j - e^{2 x_j}} and
    int_0^inf z^k e^{-z^2} phi(root z) dz ~ h sum_j w_j phi(root e^{x_j})
    for analytic leaves, on nodes x_j = log z_max - h j, j = 0 .. J - 1, the
    same for every root.

    phi is a sum of leaves whose strip masses sum to mass and whose
    frequencies are at most omega.  On the x = log z axis the integrand
    f(x) = exp((k+1) x - e^{2x}) phi(root e^x) is analytic in the strip
    |Im x| < a for any a < pi/4, and there the integral of |f(x + iy)| over
    x is at most M = mass e^{omega a} M_k cos(2a)^(-(k+1)/2), with
    M_k = int_0^inf z^k e^{-z^2} dz.
    The trapezoid rule with step h on the whole line then errs by at most
    2 M / (e^{2 pi a / h} - 1) (Trefethen & Weideman, SIAM Rev. 56, 2014,
    Theorem 5.1); any h <= h_max = 2 pi a / log(2 + 4 M / _ABS_TOL) keeps that
    below _ABS_TOL / 2.  Up to the 2, log(4 M / _ABS_TOL) / a is least where
    (k+1) (a tan 2a + log(cos 2a) / 2) = log(4 mass M_k / _ABS_TOL), whose
    left side grows from 0 to infinity on (0, pi/4); a is the lower end of
    its bracket after 24 bisections.  The rule takes
    h = L / (floor(L / h_max) + 1), J - 1 steps over the window of
    _log_window, of length L, whose cuts add at most its tails.  The bound
    returned is the sum of the two.  More than _MAX_NODES nodes raise
    ConvergenceError, and so do more in the lattice of _lattice_sums.
    """
    # log(4 mass M_k / _ABS_TOL); mass is floored at _ABS_TOL, which only shrinks h
    log_mass = _log_quotient(4.0 * max(mass, _ABS_TOL) * gaussian_power_tail(k, 0.0), _ABS_TOL)
    lo, hi = 0.0, 0.25 * math.pi
    for _ in range(24):
        a = 0.5 * (lo + hi)
        below = (k + 1) * (a * math.tan(2.0 * a) + 0.5 * math.log(math.cos(2.0 * a))) < log_mass
        lo, hi = (a, hi) if below else (lo, a)
    log_ratio = omega * lo + log_mass - 0.5 * (k + 1) * math.log(math.cos(2.0 * lo))
    x_lo, x_hi, tails = _log_window(k, mass)
    steps = ((x_hi - x_lo) * (log_ratio + math.log1p(2.0 * math.exp(-log_ratio)))
             / (2.0 * math.pi * lo))
    nodes = steps // 1.0 + 2.0  # int(steps) + 2; nan, so refused, for steps = inf
    _check_nodes(nodes)
    count = int(nodes)
    h = (x_hi - x_lo) / (count - 1)
    x = x_hi - h * np.arange(count)
    scale, kernel = np.exp(x), np.exp((k + 1) * x - np.exp(2.0 * x))
    scale.flags.writeable = kernel.flags.writeable = False
    return scale, kernel, h, 0.5 * _ABS_TOL + tails


def _log_window(k: int, mass: float) -> tuple[float, float, float]:
    """(x_lo, log z_max, tails): the window of the log-axis trapezoid rule
    for analytic leaves of strip mass mass, and the most its two cuts drop,
    mass (e^{(k+1) x_lo} / (k+1) + G_k(z_max)), G_k the Gaussian power tail.
    (k+1) x_lo is the lesser of -40 and log((k+1) _ABS_TOL / (4 mass)), a log
    of a quotient (_log_quotient), so the left cut drops at most _ABS_TOL / 4
    at any mass; the fixed right cut refuses an _ABS_TOL below 4 mass G_k(z_max)."""
    cut = mass * gaussian_power_tail(k, _Z_MAX)
    if cut > 0.25 * _ABS_TOL:
        raise ConvergenceError(f"the cut at z = {_Z_MAX:g} drops up to {cut:.6g}: abs_tol "
                               f"needs at least {4.0 * cut:.6g} to be met, got {_ABS_TOL!r}")
    depth = min(-40.0, _log_quotient((k + 1) * _ABS_TOL, 4.0 * max(mass, _ABS_TOL)))
    tails = mass * (math.exp(depth) / (k + 1) + gaussian_power_tail(k, _Z_MAX))
    return depth / (k + 1), math.log(_Z_MAX), tails


def _lattice_sums(leaves: _Leaves, k: int, h: float, log_grid) -> np.ndarray:
    """The log-axis trapezoid sums of _log_trapezoid_rule, whose step is h,
    at every root e^{x_i} of the grid x = np.linspace(x0, x1, N),
    log_grid = (x0, x1, N), phi the signed sum of leaves.analytic: one
    correlation of phi with the kernel on a lattice that all grid points share.

    With the grid step D = (x1 - x0) / (N - 1), the lattice step is
    g = D / q, q = ceil(D / h), and the node step h' = p g,
    p = floor(h / g) >= 1.  The nodes log z_max - j h' run down past the
    window of _log_window, so every node of every grid point lies on
    sigma_r = x0 + log z_max - r g, and phi is evaluated once at each
    e^{sigma_r}.  As h' <= h and the nodes cover the same window, the rule's
    bound holds as it is; as h' > h/2, the budget is checked again.  The sums
    are one strided matrix-vector product, in blocks of rows of at most
    _BLOCK values.
    """
    x0, x1, count = log_grid
    step = (x1 - x0) / (count - 1) if count > 1 else h  # numpy's linspace step
    q = math.ceil(step / h)
    g = step / q
    p = max(1, int(h / g))
    x_lo, x_hi, _tails = _log_window(k, leaves.mass)
    nodes = math.ceil((x_hi - x_lo) / (p * g)) + 1
    _check_nodes(nodes)
    x = x_hi - p * g * np.arange(nodes)
    kernel = np.exp((k + 1) * x - np.exp(2.0 * x))[::-1]  # ascending in x
    # sigma ascending: grid point i reads entries i q + j p, j = 0 .. nodes - 1
    r = np.arange((count - 1) * q + (nodes - 1) * p + 1) - (nodes - 1) * p
    phi = _phi_on(_signed_sum(leaves.analytic), np.exp((x0 + x_hi) + g * r))
    rows = sliding_window_view(phi, (nodes - 1) * p + 1)[::q, ::p]
    out, block = np.empty(count), max(1, _BLOCK // nodes)
    for i in range(0, count, block):
        out[i:i + block] = np.dot(rows[i:i + block], kernel)
    return p * g * out


# ---------------------------------------------------------------------------
# The two integrals: ball average and u(0, t)


def numeric_H(expr: InitialDataExpr, n: int, tau, tol: float = 1e-8):
    """Ball average H(tau) = (n/tau^n) int_0^tau phi r^(n-1) dr, H(0) = phi(0).

    tau is a radius (giving a float) or an array of radii (giving an array
    of its shape); a bad radius anywhere raises DomainError.  Each signed
    leaf of expr takes its route (see Leaf routes): profiles of log tau a
    fixed Gauss-Legendre sum on s = log(r / tau), where
    H(tau) = n int_{-inf}^0 phi(tau e^s) e^{ns} ds, whose a-priori bound keeps
    the error below tol at every tau (analytic and trapezoid profiles, split
    at their corners, share tol, tol/2 each); a wave from four periods on
    its integration-by-parts sum, and bump trains and nearer waves a Gauss
    rule on each linear piece, exact for the kernel r^(n-1).

    tol must be a positive finite real.  Too fine a tol for the analytic
    leaves raises ConvergenceError, a non-finite data value EvaluationError.
    """
    taus, shape = _points(tau, _check_radius)
    values = _ball_average(expr, n, taus, tol)[0]
    return float(values[0]) if shape is None else values.reshape(shape)


def _check_radius(tau) -> None:
    check_finite(tau=tau)
    if not tau >= 0:
        raise DomainError(f"tau must be finite and nonnegative, got {tau!r}")


def _ball_average(expr, n, taus, tol) -> tuple[np.ndarray, np.ndarray]:
    """(H, error bound) at each radius of the 1-D array taus, which
    numeric_H has checked.

    The bound adds the a-priori bounds of the Gauss sums, with 2 (kink_sup + kink_steep) |w_i|
    for each node that rounding may evaluate on the wrong side of a corner, and the bounds of
    the wave and bump routes; the rest of the rounding in evaluating phi itself is not counted.
    """
    check_dimension(n)
    check_positive(tol=tol)
    taus, tol = np.asarray(taus, dtype=float).reshape(-1), float(tol)
    values, bounds, live = np.zeros(taus.size), np.zeros(taus.size), taus > 0.0
    if not live.all():
        values[~live] = eval_phi(expr, 0.0)
    if not live.any():
        return values, bounds
    taus = taus[live]

    leaves = _split_leaves(expr)
    value, bound = np.full(taus.size, leaves.constant), np.zeros(taus.size)
    # analytic and kinked leaves together share tol, tol/2 each
    share = 0.5 * tol if leaves.analytic and leaves.kinked else tol
    if leaves.analytic:
        scale, weights, rule_bound = _log_gauss_rule(n, leaves.mass, leaves.omega, share)
        value += _fixed_sums(leaves.analytic, taus, scale, weights)
        bound += rule_bound
    if leaves.kinked:
        layout = _log_gauss_panels(n, leaves.kink_sup, 0.0, share, leaves.kink_steep)
        part, part_bound = _split_gauss_sum(leaves, taus, layout,
                                            lambda s: (n * np.exp(s) ** n, 2.0 + n))
        value += part
        bound += part_bound
    for sign, leaf in leaves.waves:
        part, part_bound = _wave_radial_integral(leaf, n, taus)
        value += sign * n * part
        bound += n * part_bound
    for sign, leaf in leaves.bumps:
        pieces, sup, _steep = _linear_pieces(leaf, taus.max())
        part, part_bound = _pieces_radial(pieces, sup, n, taus)
        value += sign * n * part
        bound += n * part_bound
    values[live], bounds[live] = value, bound
    return values, bounds


def _weighted_value(expr, k: int, roots, log_grid=None) -> tuple[np.ndarray, np.ndarray]:
    """(values, error bounds) of int_0^inf z^k e^{-z^2} expr(root z) dz at
    each root of the 1-D array roots.

    With roots None, log_grid = (x0, x1, N) gives the roots e^x on the grid
    x = np.linspace(x0, x1, N), and the analytic leaves take one correlation
    on a lattice that all its points share (_lattice_sums) instead of the
    batch route; every other leaf takes its route at the roots e^x.
    A plain callable goes through adaptive quadrature, root by root; an
    expression is routed per signed leaf (see Leaf routes), split once for
    all roots, and the bound adds the bounds of its routes.
    """
    if log_grid is not None:
        roots = np.exp(np.linspace(*log_grid))
    roots = np.asarray(roots, dtype=float).reshape(-1)
    if not isinstance(expr, InitialDataExpr):
        if not callable(expr):
            raise DomainError(
                f"expr must be an InitialDataExpr or a callable, got {type(expr).__name__}")
        results = [integrate_weighted(lambda z: expr(root * z), k)
                   for root in roots.tolist()]
        return np.array([(r.value, r.abs_error_est) for r in results]).reshape(-1, 2).T

    # the constants and bump baselines c: c M_k, M_k within (k + 2) eps
    leaves = _split_leaves(expr)
    value = np.full(roots.size, leaves.constant * gaussian_power_tail(k, 0.0))
    bound = (k + 4) * _EPS * np.abs(value)
    if leaves.analytic:
        scale, weights, h, rule_bound = _log_trapezoid_rule(k, leaves.mass, leaves.omega)
        if log_grid is None:
            value += h * _fixed_sums(leaves.analytic, roots, scale, weights)
        else:
            value += _lattice_sums(leaves, k, h, log_grid)
        bound += rule_bound
    if leaves.kinked:
        # on s = log(z / z_max) the kernel z^(k+1) e^{-z^2} is at most z_max^(k+1) e^{(k+1) Re s}
        # for |Im s| <= pi/4: the layout of n = k + 1, kink_sup and kink_steep times
        # z_max^(k+1) / (k + 1) and tol _ABS_TOL / 2; the cut at z_max adds kink_sup G_k(z_max)
        scale = _Z_MAX ** (k + 1) / (k + 1)

        def kernel(s):
            z = _Z_MAX * np.exp(s)
            return z ** (k + 1) * np.exp(-z * z), 2.0 + k + z * z

        layout = _log_gauss_panels(k + 1, leaves.kink_sup * scale, 0.0, 0.5 * _ABS_TOL,
                                   leaves.kink_steep * scale, 0.25 * math.pi)
        part, part_bound = _split_gauss_sum(leaves, roots * _Z_MAX, layout, kernel)
        value += part
        bound += part_bound + leaves.kink_sup * gaussian_power_tail(k, _Z_MAX)
    for sign, leaf in leaves.waves:
        part, part_bound = _wave_weighted_integral(leaf, k, roots)
        value += sign * part
        bound += part_bound
    for sign, leaf in leaves.bumps:
        pieces = _linear_pieces(leaf, _Z_MAX * roots.max(initial=0.0))
        part, part_bound = _pieces_weighted(*pieces, k, roots)
        value += sign * part
        bound += part_bound
    return value, bound


# ---------------------------------------------------------------------------
# Waves and bump trains: one Gauss rule on their linear pieces, and the
# wave's integration-by-parts sums


@lru_cache(maxsize=64)
def _panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the 8-node Gauss-Legendre rule on `panels` equal
    panels of [0, 1], read-only."""
    nodes = (np.arange(panels)[:, None] + GL_NODES).ravel() / panels
    weights = np.tile(GL_WEIGHTS, panels) / panels
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _linear_pieces(leaf, tau_max: float):
    """(pieces, sup, steep) for a bump train above its baseline or a wave:
    pieces has rows start, width, v, rise, one column for each linear piece
    in tau that starts below tau_max (and a few beyond), sorted by start,
    with the leaf v + rise s at fraction s of the piece; sup bounds
    |v + rise s| and steep |rise| / width on every piece of the leaf.  A
    bump train repeats a rising and a falling piece at each representable
    centre, a wave its pieces at each period.  More than _MAX_NODES nodes,
    one 8-node Gauss panel a piece, raise ConvergenceError before any is listed."""
    if isinstance(leaf, BumpTrain):
        half, height = leaf.half_width, leaf.height
        block = np.array([[-half, 0.0], [half, half], [0.0, height], [height, -height]])
        centers = leaf.centers.representable_centers()
        count = int(np.searchsorted(centers, tau_max + half))
    else:
        block = np.array(leaf.wave.pieces).T
        count = math.floor(tau_max / TWO_PI) + 1
    _check_nodes(GL_NODES.size * block.shape[1] * count)
    offsets = centers[:count] if isinstance(leaf, BumpTrain) else TWO_PI * np.arange(count)
    pieces = np.empty((4, offsets.size, block.shape[1]))
    pieces[:] = block[:, None]
    pieces[0] += offsets[:, None]
    _start, width, v, rise = block.tolist()
    return (pieces.reshape(4, -1), max(max(abs(a), abs(a + b)) for a, b in zip(v, rise)),
            max(abs(b) / w for b, w in zip(rise, width)))


def _piece_layout(pieces, scales, cut: float, panels: int):
    """(x, weights, vals) of the 8-node Gauss-Legendre rule on `panels`
    equal panels of each linear piece of _linear_pieces clipped to
    [0, cut scale], in x = tau / scale, at each scale of the 1-D array scales:
    shape (scales, pieces, nodes a piece).

    A piece that starts below cut scale keeps its part from lo = max(start, 0)
    of length span = min(width, start + width, cut scale - start, cut scale):
    width itself inside the window, and one rounding from the clipped length
    otherwise.  Its nodes lie at (lo + span u_j) / scale, sums of nonnegative
    terms, within 3 eps of their place relative, and vals holds the leaf
    there, v + rise s, with the fraction s = (lo - start) / width +
    (span / width) u_j of the piece within 3 eps: local coordinates, so no
    large coefficient cancels however far out a piece lies.  A piece beyond
    a window keeps no part of it: span and weights 0, nodes at x = cut."""
    tau_max = cut * scales[:, None]
    start, width, v, rise = pieces[:, :np.searchsorted(pieces[0], tau_max.max(initial=0.0))]
    lo = np.minimum(np.maximum(start, 0.0), tau_max)
    span = np.maximum(np.minimum(np.minimum(width, start + width),
                                 np.minimum(tau_max - start, tau_max)), 0.0)
    u, w = _panel_rule(panels)
    s = (np.maximum(lo - start, 0.0) / width)[..., None] + (span / width)[..., None] * u
    scale = scales[:, None, None]
    return ((lo[..., None] + span[..., None] * u) / scale, span[..., None] / scale * w,
            v[:, None] + rise[:, None] * s)


def _row_sums(terms: np.ndarray) -> list[float]:
    """Sum of each row of terms, shape (rows, pieces, nodes a piece): the 8
    terms of each panel added pairwise, within 1.5 eps of their absolute sum,
    and the panel sums exactly by math.fsum, so no row depends on the others
    or on the pieces beyond its window."""
    for _ in range(3):
        terms = terms[..., 0::2] + terms[..., 1::2]
    return [math.fsum(row) for row in terms.reshape(terms.shape[0], -1).tolist()]


def _pieces_weighted(pieces, sup: float, steep: float, k: int,
                     roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, error bounds) of int_0^inf z^k e^{-z^2} v(root z) dz at each
    root of the 1-D array roots, v the linear pieces of _linear_pieces, by the
    Gauss rule of _piece_layout up to z = _Z_MAX on panels at most
    _PIECE_PANEL wide in z, as many on each piece, within the node
    budget, one layout for the roots of one panel count, in blocks of at most
    about _BLOCK nodes, and the terms summed by _row_sums.  The bound adds
    * the rule's error: on a panel of z-width h the rule errs by at most
      c h^17 max |(v f)^(16)|, c = _GAUSS_REMAINDER and f(z) = z^k e^{-z^2}
      (Abramowitz & Stegun 25.4.30), where (v f)^(16) = v f^(16) +
      16 v' f^(15) as v is linear on the panel, |v'| <= steep root in z; with
      S_j >= sup |f^(j)| (_gauss_derivatives), panels at most
      H = min(widest, _Z_MAX root) / (root panels) wide and at most _Z_MAX long
      in all, the rule errs by at most c _Z_MAX H^16 (sup S_16 + 16 steep root S_15);
    * the rounding, eps (|v| (5 |k - 2 z^2| + z^2 + 8) + 6 sup) times
      each node's weight w_i z^k e^{-z^2}: a node off by 5 eps z moves
      z^k e^{-z^2} by 5 eps |k - 2 z^2| of itself;
    * sup G_k(_Z_MAX) for the cut.
    """
    sups = _gauss_derivatives(k)[2]
    values, bounds = np.empty(roots.size), np.empty(roots.size)
    reach = np.minimum(float(pieces[1].max(initial=0.0)), _Z_MAX * roots)
    counts = np.ceil(reach / (roots * _PIECE_PANEL)).clip(1).astype(int)
    used = np.searchsorted(pieces[0], _Z_MAX * roots)  # pieces that start below the cut
    _check_nodes(GL_NODES.size * int(np.max(counts * used, initial=0)))
    for panels in set(counts.tolist()):
        todo = np.flatnonzero(counts == panels)
        step = max(1, _BLOCK // max(1, pieces.shape[1] * panels * GL_NODES.size))
        for rows in np.split(todo, range(step, todo.size, step)):
            z, weights, vals = _piece_layout(pieces, roots[rows], _Z_MAX, panels)
            zz = z * z
            weights = weights * z ** k * np.exp(-zz)
            values[rows] = _row_sums(weights * vals)
            bounds[rows] = _row_sums(
                _EPS * weights * (np.abs(vals) * (5.0 * np.abs(k - 2.0 * zz) + zz + 8.0) + 6.0 * sup))
    rule = _GAUSS_REMAINDER * _Z_MAX * (reach / (roots * counts)) ** 16 \
        * (sup * sups[15] + 16.0 * steep * sups[14] * roots)
    return values, bounds + rule + sup * gaussian_power_tail(k, _Z_MAX)


def _pieces_radial(pieces, sup: float, n: int, taus: np.ndarray):
    """(values, error bounds) of (1/tau^n) int_0^tau v(r) r^(n-1) dr at each
    radius of the 1-D array taus > 0, v the linear pieces of _linear_pieces,
    by the Gauss rule of _piece_layout on x = r / tau, one panel a piece,
    exact for v x^(n-1) of degree n <= 15, one layout a block of radii of at
    most about _BLOCK nodes, and the terms summed by _row_sums.

    A node within 3 eps x of its place moves x^(n-1) by (3n - 2) eps, the
    weight errs by 2 eps, the value by 4 eps sup, the products by eps and
    the sum by 1.5 eps, so the bound is eps ((3n + 6) |v| + 5 sup) times each
    node's weight w_i x_i^(n-1), and 2 eps sup for the clipped ends.
    """
    values, bounds = np.empty(taus.size), np.empty(taus.size)
    step = max(1, _BLOCK // max(1, pieces.shape[1] * GL_NODES.size))
    for rows in np.split(np.arange(taus.size), range(step, taus.size, step)):
        x, weights, vals = _piece_layout(pieces, taus[rows], 1.0, 1)
        weights = weights * x ** (n - 1)
        values[rows] = _row_sums(weights * vals)
        bounds[rows] = _row_sums(_EPS * weights * ((3 * n + 6) * np.abs(vals) + 5.0 * sup))
    return values, bounds + 2.0 * _EPS * sup


@lru_cache(maxsize=64)
def _wave_primitives(trap: TrapezoidWave):
    """(mean, jump, at, at_zero), the model of a trapezoid wave w in both
    kernels' integration-by-parts routes.  mean is the mean of w over its
    period T = TWO_PI, exact from the knots (zero up to the rounding of the
    plateau lengths): the model reads the breakpoints and knots as Fractions,
    not the rounded widths and rises of w.pieces, so that the mean and each
    jump are rounded once.  w - mean is linear between its corners theta_i,
    where its slope jumps by ds_i, and jump = sum_i |ds_i|.  Its zero-mean
    primitives, W_j' = W_{j-1} with W_0 = w - mean, follow from the Fourier
    series of w'' = sum_i ds_i delta(theta - theta_i):

        W_j(theta) = -(1/T) sum_i ds_i beta_{j+2}(frac((theta - theta_i) / T)),
        beta_n(x) = T^n B_n(x) / n!,

    B_n the Bernoulli polynomial, so that sup |W_j| <= zeta(j+2) jump / pi.
    About x = 1/2, beta_n(x) = sum_r b_{n-r} y^r / r! with
    y = T (x - 1/2) = T/2 - ((theta_i - theta) mod T), and
    b_m = 2 (-1)^(m/2) eta(m) for even m (eta the Dirichlet eta function,
    b_0 = 1; exact for period 2 pi, within m eps / 4 for T), 0 for odd m.
    Every term is at most 2 pi^r / r!, so the sum is stable at every
    degree, where the monomial form of B_n is not.  at(theta, count) gives
    W[i, j-1] = W_j(theta_i) within W_err[i, j-1], j <= count <= _IBP_TERMS,
    theta in [0, T), and at_zero is at(0, _IBP_TERMS).  T W_err_j / eps is
    sum_r s_r |b_{j+2-r}| (3r + j + 22), s_r = sum_i |ds_i| |y_i|^r / r!,
    for the sum, and 2 T zeta(j+1) jump = T^2 sup|W_{j-1}| for y, whose two
    steps err by eps/2 T each.
    """
    bp, kv = trap.breakpoints, trap.knot_values
    # (theta_i, width, v_i, rise) of each piece, exact
    pieces = [(Fraction(bp[i]), Fraction(bp[i + 1]) - Fraction(bp[i]),
               Fraction(kv[i]), Fraction(kv[i + 1]) - Fraction(kv[i]))
              for i in range(len(bp) - 1) if bp[i + 1] > bp[i]]
    mean = float(sum(d * (2 * v + r) for _t, d, v, r in pieces) / (2 * Fraction(TWO_PI)))
    slopes = [r / d for _t, d, _v, r in pieces]
    ds = np.array([float(slopes[i] - slopes[i - 1]) for i in range(len(slopes))])
    corners, jump = np.array([float(t) for t, _d, _v, _r in pieces]), float(np.sum(np.abs(ds)))
    orders = np.arange(_IBP_TERMS + 3)
    b = np.zeros(orders.size)
    b[0] = 1.0
    even = orders[2::2]
    b[even] = 2.0 * (-1.0) ** (even // 2) * (1.0 - 0.5 ** (even - 1.0)) * zeta(even)
    gap = orders[3:] - orders[:, None]      # j + 2 - r, row r, column j - 1
    weights = np.abs(b)[np.maximum(gap, 0)] * (gap >= 0) * (3 * orders[:, None] + orders[3:] + 20)
    weights[0] += 2.0 * TWO_PI * zeta(orders[2:-1])     # y, as s_0 = jump

    def at(theta, count):
        y = 0.5 * TWO_PI - np.mod(corners - theta[:, None], TWO_PI)
        powers = np.cumprod(np.concatenate(
            [np.ones((1,) + y.shape), y / orders[1:count + 3, None, None]]), axis=0)
        powers = powers.reshape(-1, ds.size)    # row (r, phase): y_i^r / r!
        moments = (powers @ ds).reshape(count + 3, -1)      # m_r = sum_i ds_i y_i^r / r!
        sizes = (np.abs(powers) @ np.abs(ds)).reshape(count + 3, -1)
        w = np.array([b[j + 2::-1] @ moments[:j + 3] for j in range(1, count + 1)]).T
        return w / -TWO_PI, _EPS / TWO_PI * (sizes.T @ weights[:count + 3, :count])

    w0, w0_err = at(np.zeros(1), _IBP_TERMS)
    return mean, jump, at, (w0[0], w0_err[0])


@lru_cache(maxsize=64)
def _gauss_derivatives(k: int):
    """(c, log_norms, sups) for f(z) = z^k e^{-z^2}: c[j-1] = (-1)^j f^(j-1)(0),
    log_norms[P-1] = log(zeta(P+2) N_P / pi) and sups[P-1] = S_P, for
    j, P = 1 .. _IBP_TERMS, with N_P >= ||f^(P)||_1 and S_P >= sup |f^(P)|
    on (0, inf).

    f = sum_m (-1)^m z^(k+2m) / m!, so f^(j)(0) = j! (-1)^m / m! for j = k + 2m
    and 0 otherwise.  f^(P) = p_P(z) e^{-z^2} with p_0 = z^k and
    p_{P+1} = p_P' - 2 z p_P, whose integer coefficients a_i are kept exact,
    N_P = sum_i |a_i| Gamma((i+1)/2) / 2 and, as z^i e^{-z^2} peaks at
    z^2 = i/2, S_P = sum_i |a_i| (i/2)^(i/2) e^{-i/2}.
    """
    coeffs = np.zeros(_IBP_TERMS)
    for j in range(k, _IBP_TERMS, 2):
        m = (j - k) // 2
        coeffs[j] = (-1) ** (m + j + 1) * (math.factorial(j) // math.factorial(m))
    poly = [0] * k + [1]
    norms, sups = [], []
    for _ in range(_IBP_TERMS):
        nxt = [0] * (len(poly) + 1)
        for i, a in enumerate(poly):
            if i:
                nxt[i - 1] += i * a
            nxt[i + 1] -= 2 * a
        poly = nxt
        norms.append(sum(abs(a) * math.gamma(0.5 * (i + 1)) for i, a in enumerate(poly) if a))
        sups.append(sum(abs(a) * (0.5 * i) ** (0.5 * i) * math.exp(-0.5 * i)
                        for i, a in enumerate(poly) if a))
    return coeffs, np.log(0.5 * np.array(norms) * zeta(_IBP_ORDERS + 2.0) / math.pi), tuple(sups)


def _wave_weighted_integral(expr: PeriodicZeroMean, k: int, roots):
    """(values, error bounds) of int_0^inf f(z) w(root z) dz, f(z) = z^k e^{-z^2}
    and w the wave of expr, at each root of the 1-D array roots.

    Integrating by parts P times against the zero-mean primitives W_j of
    w - mean (see _wave_primitives) gives

        mean M_k + sum_{j=1}^{P} (-1)^j f^(j-1)(0) W_j(0) / root^j + r_P,
        |r_P| <= sup|W_P| ||f^(P)||_1 / root^P,

    M_k = int_0^inf f, with every table cached per wave and per k
    (Iserles & Norsett, Proc. R. Soc. A 461, 2005).  The route takes, per
    root, the least P <= _IBP_TERMS whose bound on r_P is at most
    _ABS_TOL / 2, at a cost that does not depend on root, and returns
    that bound plus the rounding of the terms, which are summed exactly by
    math.fsum.  The remainder table and the terms of every root are one
    array expression.  Where no P reaches _ABS_TOL / 2, the Gauss rule on the
    wave's pieces up to _Z_MAX serves instead (_pieces_weighted), within
    its node budget; so does it, root by root, where the series' rounding,
    which grows with jump, takes its bound past _ABS_TOL and the rule fits.
    """
    mean, jump, _at, (w0, w_err) = _wave_primitives(expr.wave)
    coeffs, log_norms, _sups = _gauss_derivatives(k)
    # math.log per root: np.log may round differently in the last bit, and
    # a count P on the threshold would move
    log_root = np.array([math.log(root) for root in roots.tolist()])
    log_rem = (log_norms + math.log(jump)) - _IBP_ORDERS * log_root[:, None]
    fits = log_rem <= _log_quotient(_ABS_TOL, 2.0)
    series = fits.any(axis=1)
    counts = np.where(series, fits.argmax(axis=1) + 1, 0)
    # powers only for the series roots: a small root would overflow root^-60
    scaled = np.zeros(log_rem.shape)
    scaled[series] = coeffs * roots[series, None] ** -_IBP_ORDERS.astype(float)
    scaled[_IBP_ORDERS > counts[:, None]] = 0.0
    terms = scaled * w0
    mean_term = mean * gaussian_power_tail(k, 0.0)
    rounding = np.abs(scaled) @ w_err + 8.0 * _EPS * (np.abs(terms).sum(axis=1) + abs(mean_term))
    values, bounds = np.empty(roots.size), np.empty(roots.size)
    for i, p in enumerate(counts.tolist()):
        if p:
            values[i] = math.fsum([*terms[i, :p].tolist(), mean_term])
            bounds[i] = math.exp(log_rem[i, p - 1]) + rounding[i]
    near = roots[~series]
    if near.size:
        pieces = _linear_pieces(expr, _Z_MAX * near.max())
        values[~series], bounds[~series] = _pieces_weighted(*pieces, k, near)
    over = [i for i, p in enumerate(counts.tolist()) if p and bounds[i] > _ABS_TOL]
    for i in over:
        with suppress(ConvergenceError):  # beyond the budget the series stays
            pieces = _linear_pieces(expr, _Z_MAX * roots[i])
            values[i:i + 1], bounds[i:i + 1] = _pieces_weighted(*pieces, k, roots[i:i + 1])
    return values, bounds


def _wave_radial_integral(expr: PeriodicZeroMean, n: int, taus: np.ndarray):
    """(values, error bounds) of (1/tau^n) int_0^tau w(r) r^(n-1) dr at each
    radius of the 1-D array taus > 0, w the wave of expr.

    As (r^(n-1))^(n) = 0, n integrations by parts against the primitives W_j
    of w - mean (_wave_primitives) end exactly, theta = tau mod T exact:

        mean / n + sum_{j=1}^{n} (-1)^(j-1) (n-1)!/(n-j)! W_j(theta) / tau^j
                 - (-1)^(n-1) (n-1)! W_n(0) / tau^n,

    from tau = _WAVE_SERIES_FROM on one array expression with powers
    (1/tau)^j, bounded by the rounding of each W_j times its weight and
    (n + 3) eps sum |terms|.  Below it the terms cancel and their weights
    are near 1, and the Gauss rule on the pieces serves (_pieces_radial).
    """
    mean, _jump, at, (w0, w0_err) = _wave_primitives(expr.wave)
    values, bounds = np.empty(taus.size), np.empty(taus.size)
    far = taus >= _WAVE_SERIES_FROM
    coeffs = np.array([(-1) ** j * math.perm(n - 1, j) for j in range(n)], dtype=float)
    w, w_err = at(np.mod(taus[far], TWO_PI), n)
    powers = (1.0 / taus[far])[:, None] ** np.arange(1, n + 1)
    last = math.factorial(n - 1) * powers[:, -1]
    terms = np.column_stack([coeffs * w * powers, (-1) ** n * w0[n - 1] * last])
    values[far] = terms.sum(axis=1) + mean / n
    bounds[far] = ((np.abs(coeffs) * w_err * powers).sum(axis=1) + w0_err[n - 1] * last
                   + (n + 3) * _EPS * (np.abs(terms).sum(axis=1) + abs(mean / n)))
    if not far.all():
        near = taus[~far]
        pieces, sup, _steep = _linear_pieces(expr, near.max())
        values[~far], bounds[~far] = _pieces_radial(pieces, sup, n, near)
    return values, bounds


# ---------------------------------------------------------------------------
# Analytic bands


def analytic_band_phi(expr: InitialDataExpr) -> tuple[float, float]:
    """Exact (liminf, limsup) of phi as tau -> infinity.

    The slow content is either a single leaf or a set of integer-frequency
    log sines (whose joint asymptotic profile is a trig polynomial);
    constants, 2 pi periodic waves and sparse bump trains add their own
    extremes on top because their phases decouple from the slow phase.  The
    parts are added in a fixed order: constants and bump baselines, the slow
    part, the waves, the bump heights.
    """
    split = _split_leaves(expr)
    level, slows = split.constant, split.analytic + split.kinked
    wave_lo = wave_hi = bump_lo = bump_hi = 0.0
    for sign, leaf in split.waves:
        lo, hi = _signed_band(sign, leaf)
        wave_lo += lo
        wave_hi += hi
    for sign, leaf in split.bumps:
        bump_lo += min(sign * leaf.height, 0.0)
        bump_hi += max(sign * leaf.height, 0.0)
    if len(slows) > 1:
        s_lo, s_hi = _commensurate_profile(slows).extrema()
    elif slows:
        s_lo, s_hi = _signed_band(*slows[0])
    else:
        s_lo = s_hi = 0.0
    return (level + s_lo + wave_lo + bump_lo, level + s_hi + wave_hi + bump_hi)


def _commensurate_profile(slows) -> TrigPolynomial:
    """Joint asymptotic profile of several signed log sines sharing integer
    frequencies.

    Their phases are all m_i log(tau+1), so the profile is the trig
    polynomial sum_i a_i [sin(m_i x) + (m_i/n_i) cos(m_i x)] (no cosine for
    a plain log sine), and the band is its range over one period.
    """
    const = 0.0
    cos: dict[int, float] = {}
    sin: dict[int, float] = {}
    for sign, t in slows:
        j = round(t.m) if isinstance(t, _ModeOfLog) else 0
        if j < 1 or abs(t.m - j) > 1e-12 * max(1.0, abs(t.m)):
            raise UnsupportedExpression(
                "band of a multi-mode sum needs every slow term to be a log sine "
                "with integer frequency; mixed or incommensurate slow terms have "
                "no product-form band")
        sin[j] = sin.get(j, 0.0) + sign * t.amplitude
        cos[j] = cos.get(j, 0.0) + sign * t.amplitude * t.m / t._n
        const += sign * t.offset
    j_max = max(list(cos) + list(sin))
    return TrigPolynomial(
        const,
        tuple(cos.get(j, 0.0) for j in range(1, j_max + 1)),
        tuple(sin.get(j, 0.0) for j in range(1, j_max + 1)),
    )


def sup_abs_phi(expr: InitialDataExpr) -> float:
    """Upper bound for sup |phi| over all of [0, infinity).

    Exact for a lone leaf; subadditive (so possibly loose) for sums.
    This is the M in the maximum principle |u| <= M.
    """
    return sum(leaf.sup_abs() for _, leaf in _split_leaves(expr).signed)


# ---------------------------------------------------------------------------
# Band witnesses: tau values where phi provably comes within o(1) of its band


# The tau window of the witnesses, where every leaf rule looks for them first
_WITNESS_WINDOW = (1e3, 1e12)


def band_witnesses(expr: InitialDataExpr) -> tuple[np.ndarray, np.ndarray]:
    """(tau values approaching liminf, tau values approaching limsup).

    These are the analytic extremizer locations, inside _WITNESS_WINDOW
    where it holds any: exact phase solutions for the slow terms, plateau
    centers for periodic waves (aligned inside the slow term's long extremal
    stretches when both occur), bump centers and gap midpoints for trains.
    Values are clipped to representable range.
    """
    split = _split_leaves(expr)
    if len(split.signed) == 1:
        lo_w, hi_w = _signed_witnesses(*split.signed[0])
    else:
        # a sum: the witnesses of its slow content, each shifted onto the
        # extremal plateau of every wave, plus the centers of every bump train
        slows = split.analytic + split.kinked
        if len(slows) > 1:
            (_l, _h), (a_lo, a_hi) = _commensurate_profile(slows).extrema_with_args()
            lo_w, hi_w = _phase_taus(1.0, a_lo), _phase_taus(1.0, a_hi)
        elif slows:
            lo_w, hi_w = _signed_witnesses(*slows[0])
        else:
            lo_w = hi_w = np.asarray([0.5 * (_WITNESS_WINDOW[0] + _WITNESS_WINDOW[1])])
        lo_w, hi_w = np.asarray(lo_w, dtype=float), np.asarray(hi_w, dtype=float)
        for sign, leaf in split.waves:
            # the slow phase is frozen over a shift of at most 2 pi in tau
            arg_lo, arg_hi = leaf.wave.extremizer_args()
            if sign < 0:
                arg_lo, arg_hi = arg_hi, arg_lo
            lo_w = _align_phase(lo_w, arg_lo)
            hi_w = _align_phase(hi_w, arg_hi)
        for sign, leaf in split.bumps:
            # limsup needs a bump center, which the double-exponential
            # law places exactly at the slow term's peaks
            cs = leaf.centers.representable_centers()
            if sign * leaf.height > 0:
                hi_w = np.concatenate([hi_w, cs])
            else:
                lo_w = np.concatenate([lo_w, cs])
    lo = np.asarray(sorted(set(float(t) for t in lo_w if 0 <= t < _FLOAT_MAX)))
    hi = np.asarray(sorted(set(float(t) for t in hi_w if 0 <= t < _FLOAT_MAX)))
    return lo, hi


def _signed_witnesses(sign, leaf):
    lo_w, hi_w = leaf.witnesses()
    return (lo_w, hi_w) if sign > 0 else (hi_w, lo_w)


def _phase_taus(m, phase):
    """tau = exp((phase + 2 k pi)/m) - 1 inside [tau_lo, tau_hi] =
    _WITNESS_WINDOW, or if none lies there (m < 0.304) the nearest on
    m log(tau + 1): the last below if its tau >= 0, else the first above."""
    tau_lo, tau_hi = _WITNESS_WINDOW
    x_lo = math.log1p(tau_lo) * m
    x_hi = math.log1p(tau_hi) * m
    k_lo = math.ceil((x_lo - phase) / TWO_PI)
    k_hi = math.floor((x_hi - phase) / TWO_PI)
    if k_lo > k_hi:  # k_hi is the last below, k_lo = k_hi + 1 the first above
        below, above = phase + TWO_PI * k_hi, phase + TWO_PI * k_lo
        k_lo = k_hi = k_hi if below >= 0 and x_lo - below <= above - x_hi else k_lo
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    if ks.size > 64:
        ks = ks[np.linspace(0, ks.size - 1, 64).astype(int)]
    return np.expm1((phase + TWO_PI * ks) / m)


def _align_phase(taus: np.ndarray, target_arg: float) -> np.ndarray:
    """Shift each tau forward (< 2 pi) so tau mod 2 pi equals target_arg."""
    shift = np.mod(target_arg - np.mod(taus, TWO_PI), TWO_PI)
    return taus + shift


# ---------------------------------------------------------------------------
# Serialization (schema idexpr/1)
#
# A node is an object that holds its class's tag and one key per dataclass
# field, named after the field except for _DOC_KEYS.  A tuple is an array;
# the fields in _NESTED hold nodes, and arrays of nodes.


_TAGS = {
    Constant: ("variant", "constant"),
    LogSine: ("variant", "log_sine"),
    LogSineAvgPreimage: ("variant", "log_sine_avg_preimage"),
    LogLogSine: ("variant", "log_log_sine"),
    PeriodicZeroMean: ("variant", "periodic_zero_mean"),
    BumpTrain: ("variant", "bump_train"),
    SlowFromPeriodic: ("variant", "slow_from_periodic"),
    PeriodicOfLog: ("variant", "periodic_of_log"),
    Sum: ("variant", "sum"),
    Negate: ("variant", "negate"),
    TrapezoidWave: ("kind", "trapezoid"),
    TrigPolynomial: ("kind", "trig_poly"),
    GeometricCenters: ("law", "geometric"),
    DoubleExpCenters: ("law", "double_exp"),
}
_CLASSES = {tag: cls for cls, tag in _TAGS.items()}
_DOC_KEYS = {"cos_coeffs": "cos", "sin_coeffs": "sin"}
# the fields that hold nodes, with the tag key of the nodes they hold
_NESTED = {"terms": "variant", "term": "variant", "g": "kind", "centers": "law"}


def to_json(expr: InitialDataExpr) -> dict:
    return {"schema": SCHEMA_ID, "expr": _to_doc(expr)}


def from_json(doc) -> InitialDataExpr:
    """Expression from an idexpr/1 document; any malformed part is a DomainError."""
    if not isinstance(doc, dict):
        raise DomainError(
            f"an {SCHEMA_ID} document must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMA_ID:
        raise DomainError(f"expected schema {SCHEMA_ID!r}, got {doc.get('schema')!r}")
    try:
        return _from_doc(doc["expr"], "variant")
    except DomainError:
        raise
    except KeyError as exc:
        raise DomainError(f"{SCHEMA_ID} document lacks the field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed {SCHEMA_ID} document: {exc}") from exc
    except RecursionError as exc:
        raise DomainError(f"{SCHEMA_ID} document nests too deeply") from exc


def dumps(expr: InitialDataExpr) -> str:
    return json.dumps(to_json(expr), sort_keys=True, default=_json_real)


def loads(text: str) -> InitialDataExpr:
    return from_json(_loads(text, SCHEMA_ID))


def _to_doc(node) -> dict:
    """The idexpr/1 node of an expression, a periodic function or a center law."""
    if type(node) not in _TAGS:
        raise DomainError(f"unserializable {type(node).__name__}")
    key, name = _TAGS[type(node)]
    doc = {key: name}
    # a plain loop, so that a nesting level costs as many frames as _from_doc
    # spends on it: one, and two for a Sum
    for f in fields(node):
        value = getattr(node, f.name)
        if f.name in _NESTED:
            value = ([_to_doc(t) for t in value] if isinstance(value, tuple)
                     else _to_doc(value))
        elif isinstance(value, tuple):
            value = list(value)
        doc[_DOC_KEYS.get(f.name, f.name)] = value
    return doc


def _from_doc(doc, key: str):
    """The node of an idexpr/1 object whose tag sits under key."""
    if not isinstance(doc, dict):
        raise DomainError(f"an {SCHEMA_ID} node must be an object, got {doc!r}")
    cls = _CLASSES.get((key, doc.get(key)))
    if cls is None:
        raise DomainError(f"unknown {key} {doc.get(key)!r}")
    args = {}
    for f in fields(cls):
        value = doc[_DOC_KEYS.get(f.name, f.name)]
        if f.name in _NESTED:
            inner = _NESTED[f.name]
            value = (tuple(_from_doc(t, inner) for t in value) if isinstance(value, list)
                     else _from_doc(value, inner))
        args[f.name] = value
    return cls(**args)
