"""Closed-form family of radial initial data with known oscillation bands.

Every construction in the band prescriptions is assembled from a small set
of expression variants (log-periodic sines, their average preimages, a
doubly-log sine, zero-mean trapezoid waves, sparse bump trains, and sums or
negations of these).  Keeping the family closed-form means the ball average

    H(tau) = (n / tau^n) * int_0^tau phi(r) r^(n-1) dr,      H(0) = phi(0)

and the exact asymptotic band (liminf, limsup) of phi are either available
symbolically or computable by a dedicated exact/adaptive integrator, so the
numerical probes always have an honest reference.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import zeta

from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    RangeError,
    UnsupportedExpression,
    _json_real,
    _points,
    check_finite,
)
from .kernel_moments import check_dimension
from .quadrature import (
    GL_NODES,
    GL_WEIGHTS,
    QuadratureSpec,
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
        check_finite(v_max=self.v_max, v_min=self.v_min, ramp_width=self.ramp_width)
        if not self.v_max > 0:
            raise DomainError(f"v_max must be positive, got {self.v_max!r}")
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

    def derivative(self, theta):
        th = np.mod(np.asarray(theta, dtype=float), TWO_PI)
        bp = np.asarray(self.breakpoints)
        kv = np.asarray(self.knot_values)
        slopes = np.diff(kv) / np.diff(bp)
        idx = np.clip(np.searchsorted(bp, th, side="right") - 1, 0, len(slopes) - 1)
        return slopes[idx]

    def mean(self) -> float:
        return 0.0

    def extrema(self) -> tuple[float, float]:
        return (self.v_min, self.v_max)

    def extremizer_args(self) -> tuple[float, float]:
        """Phase of the min plateau center and of the max plateau center."""
        bp = self.breakpoints
        return (0.5 * (bp[4] + bp[5]), 0.5 * (bp[1] + bp[2]))

    def segments(self) -> tuple[tuple[float, float, float, float], ...]:
        """Linear pieces as (theta0, theta1, a, b) with value = a + b theta."""
        bp = self.breakpoints
        kv = self.knot_values
        out = []
        for i in range(len(bp) - 1):
            if bp[i + 1] == bp[i]:
                continue
            b = (kv[i + 1] - kv[i]) / (bp[i + 1] - bp[i])
            a = kv[i] - b * bp[i]
            out.append((bp[i], bp[i + 1], a, b))
        return tuple(out)


@dataclass(frozen=True)
class TrigPolynomial(PeriodicFunction):
    """const + sum_j cos_coeffs[j-1] cos(j theta) + sin_coeffs[j-1] sin(j theta)."""

    const: float = 0.0
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
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
        th = np.asarray(theta, dtype=float)
        out = np.zeros_like(th)
        for j, c in enumerate(self.cos_coeffs, start=1):
            if c:
                out = out - c * j * np.sin(j * th)
        for j, s in enumerate(self.sin_coeffs, start=1):
            if s:
                out = out + s * j * np.cos(j * th)
        return out

    def mean(self) -> float:
        return self.const

    def derivative_poly(self) -> "TrigPolynomial":
        j_max = max(len(self.cos_coeffs), len(self.sin_coeffs))
        cos = [0.0] * j_max
        sin = [0.0] * j_max
        for j in range(1, j_max + 1):
            c = self.cos_coeffs[j - 1] if j <= len(self.cos_coeffs) else 0.0
            s = self.sin_coeffs[j - 1] if j <= len(self.sin_coeffs) else 0.0
            cos[j - 1] = s * j
            sin[j - 1] = -c * j
        return TrigPolynomial(0.0, tuple(cos), tuple(sin))

    def _critical_points(self) -> np.ndarray:
        """Zeros of the derivative over [0, 2 pi), bisected to ~1e-15.

        A cell of the 4096-cell grid gives its left end when the derivative
        vanishes there, and otherwise, when its ends differ in sign (a zero
        right end counting as negative), the midpoint of its bracket after
        60 bisections; all such cells are bisected together.  A midpoint
        where the derivative vanishes closes its bracket.
        """
        grid = np.linspace(0.0, TWO_PI, 4097)
        dv = self.derivative(grid)
        left, right = dv[:-1], dv[1:]
        exact = left == 0.0
        cells = ~exact & ((left > 0) != (right > 0))
        a, b, rising = grid[:-1][cells], grid[1:][cells], left[cells] > 0
        for _ in range(60):
            mid = 0.5 * (a + b)
            fm = self.derivative(mid)
            same = (fm > 0) == rising
            a = np.where(same | (fm == 0.0), mid, a)
            b = np.where(~same | (fm == 0.0), mid, b)
        roots = grid[:-1].copy()
        roots[cells] = 0.5 * (a + b)
        return roots[exact | cells]

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
        if self.parity not in ("peak", "trough"):
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
                         for |arg tau| <= a, for leaves analytic in log tau;
                         None for the rest
      _piece_bound()     (mass, phases) for leaves linear in L = log(tau + 1)
                         between corners theta + 2 pi q, theta in phases
                         (see _split_gauss); None for the rest
      slow_frequency()   lowest frequency on the log(tau + 1) axis, or None
      witnesses(lo, hi)  tau values approaching the liminf and the limsup
      to_doc()           the idexpr/1 node
    """

    def _values(self, tau: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def band(self) -> tuple[float, float]:
        raise UnsupportedExpression(f"no band rule for {type(self).__name__}")

    def sup_abs(self) -> float:
        raise UnsupportedExpression(f"no sup bound for {type(self).__name__}")

    def strip_bound(self) -> tuple[float, float] | None:
        return None

    def _piece_bound(self) -> tuple[float, tuple[float, ...]] | None:
        return None

    def slow_frequency(self) -> float | None:
        return None

    def witnesses(self, tau_lo: float, tau_hi: float):
        raise UnsupportedExpression(f"no witnesses for {type(self).__name__}")

    def to_doc(self) -> dict:
        raise DomainError(f"unserializable expression {type(self).__name__}")


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

    def witnesses(self, tau_lo, tau_hi):
        mid = 0.5 * (tau_lo + tau_hi)
        return [mid], [mid]

    def to_doc(self):
        return {"variant": "constant", "c": self.c}


@dataclass(frozen=True)
class LogSine(InitialDataExpr):
    """amplitude * sin(m log(tau + 1)) + offset."""

    amplitude: float
    m: float
    offset: float = 0.0

    def __post_init__(self):
        check_finite(amplitude=self.amplitude, m=self.m, offset=self.offset)
        if not self.amplitude > 0:
            raise DomainError(f"amplitude must be positive, got {self.amplitude!r}")
        if not self.m > 0:
            raise DomainError(f"m must be positive, got {self.m!r}")

    def _values(self, tau):
        return self.amplitude * np.sin(self.m * np.log1p(tau)) + self.offset

    def band(self):
        return (self.offset - self.amplitude, self.offset + self.amplitude)

    def sup_abs(self):
        return abs(self.offset) + self.amplitude

    def strip_bound(self):
        return self.amplitude + abs(self.offset), self.m

    def slow_frequency(self):
        return float(self.m)

    def witnesses(self, tau_lo, tau_hi):
        return (_phase_taus(self.m, 1.5 * math.pi, tau_lo, tau_hi),
                _phase_taus(self.m, 0.5 * math.pi, tau_lo, tau_hi))

    def to_doc(self):
        return {"variant": "log_sine", "amplitude": self.amplitude,
                "m": self.m, "offset": self.offset}


@dataclass(frozen=True)
class LogSineAvgPreimage(InitialDataExpr):
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
        check_finite(amplitude=self.amplitude, m=self.m, offset=self.offset)
        if not self.amplitude > 0:
            raise DomainError(f"amplitude must be positive, got {self.amplitude!r}")
        if not self.m > 0:
            raise DomainError(f"m must be positive, got {self.m!r}")
        check_dimension(self.n)

    def _values(self, tau):
        theta = self.m * np.log1p(tau)
        lam = self.m * tau / (self.n * (tau + 1.0))
        return self.amplitude * (np.sin(theta) + lam * np.cos(theta)) + self.offset

    def band_halfwidth(self) -> float:
        return self.amplitude * math.sqrt(1.0 + (self.m / self.n) ** 2)

    def band(self):
        h = self.band_halfwidth()
        return (self.offset - h, self.offset + h)

    def sup_abs(self):
        return abs(self.offset) + self.band_halfwidth()

    def strip_bound(self):
        return self.amplitude * (1.0 + self.m / self.n) + abs(self.offset), self.m

    def slow_frequency(self):
        return float(self.m)

    def witnesses(self, tau_lo, tau_hi):
        # asymptotic extremal phase of sin th + (m/n) cos th
        th = math.atan2(1.0, self.m / self.n)
        return (_phase_taus(self.m, th + math.pi, tau_lo, tau_hi),
                _phase_taus(self.m, th, tau_lo, tau_hi))

    def to_doc(self):
        return {"variant": "log_sine_avg_preimage", "amplitude": self.amplitude,
                "m": self.m, "offset": self.offset, "n": self.n}


@dataclass(frozen=True)
class LogLogSine(InitialDataExpr):
    """amplitude * sin(log(log(tau + 2))) + offset: extremely slow oscillation."""

    amplitude: float
    offset: float = 0.0

    def __post_init__(self):
        check_finite(amplitude=self.amplitude, offset=self.offset)
        if not self.amplitude > 0:
            raise DomainError(f"amplitude must be positive, got {self.amplitude!r}")

    def _values(self, tau):
        return self.amplitude * np.sin(np.log(np.log(tau + 2.0))) + self.offset

    def band(self):
        return (self.offset - self.amplitude, self.offset + self.amplitude)

    def sup_abs(self):
        return abs(self.offset) + self.amplitude

    def strip_bound(self):
        # the phase log log(tau + 2) has |Im| <= a / log 2 for |arg tau| <= a
        return self.amplitude + abs(self.offset), 1.0 / math.log(2.0)

    def witnesses(self, tau_lo, tau_hi):
        # only the first peak/trough of each parity fits in a double
        peaks = DoubleExpCenters("peak").representable_centers()
        troughs = DoubleExpCenters("trough").representable_centers()
        return list(troughs), list(peaks)

    def to_doc(self):
        return {"variant": "log_log_sine", "amplitude": self.amplitude,
                "offset": self.offset}


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

    def witnesses(self, tau_lo, tau_hi):
        arg_lo, arg_hi = self.wave.extremizer_args()
        base = TWO_PI * np.arange(math.ceil(tau_lo / TWO_PI),
                                  math.ceil(tau_lo / TWO_PI) + 40)
        return list(base + arg_lo), list(base + arg_hi)

    def to_doc(self):
        return {"variant": "periodic_zero_mean", "v_max": self.v_max,
                "v_min": self.v_min, "ramp_width": self.ramp_width}


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
        check_finite(height=self.height, half_width=self.half_width, baseline=self.baseline)
        if self.height == 0:
            raise DomainError("height must be nonzero")
        if not self.half_width > 0:
            raise DomainError(f"half_width must be positive, got {self.half_width!r}")
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

    def witnesses(self, tau_lo, tau_hi):
        cs = self.centers.representable_centers()
        cs = cs[(cs >= tau_lo) & (cs <= tau_hi)]
        if cs.size == 0:
            cs = self.centers.representable_centers()[-1:]
        gaps = np.sqrt(cs[:-1] * cs[1:]) if cs.size > 1 else cs * 7.0
        at_bumps, away = list(cs), list(gaps)
        if self.height > 0:
            return away, at_bumps
        return at_bumps, away

    def to_doc(self):
        return {"variant": "bump_train", "height": self.height,
                "half_width": self.half_width, "baseline": self.baseline,
                "centers": _centers_to_doc(self.centers)}


class _ProfileOfLog(InitialDataExpr):
    """Shared rules of the leaves built on a 2 pi periodic profile g of
    x = log(tau + 1); subclasses give _slope (the weight of g'(x) in phi
    over tau / (tau + 1)) and _profile_extrema."""

    _slope = 0.0

    def __post_init__(self):
        if not isinstance(self.g, (TrapezoidWave, TrigPolynomial)):
            raise DomainError("g must be a TrapezoidWave or TrigPolynomial, "
                              f"got {type(self.g).__name__}")

    def _profile_extrema(self):
        """((min, max), (argmin, argmax)) of the asymptotic profile over one period."""
        raise NotImplementedError

    def band(self):
        return self._profile_extrema()[0]

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
        # a trapezoid g is linear in L between corners; over the ellipse of
        # a Gauss panel inside |Im s| <= a, |Im L| <= a and Re L overshoots
        # the panel's piece by at most a - log cos a, so the piece's formula,
        # continued, stays below sup|phi| + max|g'| (2a - log cos a)
        g = self.g
        if not isinstance(g, TrapezoidWave):
            return None
        steep = max(abs(b) for (_t0, _t1, _a, b) in g.segments())
        return (self.sup_abs() + steep * (2.0 * _STRIP - math.log(math.cos(_STRIP))),
                tuple(sorted(set(g.breakpoints[:-1]))))

    def slow_frequency(self):
        g = self.g
        if not isinstance(g, TrigPolynomial):
            return 1.0
        for j, (c, s) in enumerate(itertools.zip_longest(
                g.cos_coeffs, g.sin_coeffs, fillvalue=0.0), start=1):
            if c != 0.0 or s != 0.0:
                return float(j)
        return None

    def witnesses(self, tau_lo, tau_hi):
        a_lo, a_hi = self._profile_extrema()[1]
        return (_phase_taus(1.0, a_lo, tau_lo, tau_hi),
                _phase_taus(1.0, a_hi, tau_lo, tau_hi))


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
    def _slope(self):
        return 1.0 / self.n

    def _values(self, tau):
        x = np.log1p(tau)
        return self.g.value(x) + (tau / (self.n * (tau + 1.0))) * self.g.derivative(x)

    @cached_property
    def _profile(self) -> TrigPolynomial | None:
        """The asymptotic profile g + g'/n of phi for a trig-polynomial g."""
        g = self.g
        if not isinstance(g, TrigPolynomial):
            return None
        dp = g.derivative_poly()
        j_max = max(len(g.cos_coeffs), len(g.sin_coeffs), 1)

        def coeff(seq, j):
            return seq[j] if j < len(seq) else 0.0

        return TrigPolynomial(
            g.const,
            tuple(coeff(g.cos_coeffs, j) + coeff(dp.cos_coeffs, j) / self.n
                  for j in range(j_max)),
            tuple(coeff(g.sin_coeffs, j) + coeff(dp.sin_coeffs, j) / self.n
                  for j in range(j_max)))

    def _profile_extrema(self):
        if self._profile is not None:
            return self._profile.extrema_with_args()
        # trapezoid: g + g'/n is linear on each open segment, so its extremes
        # sit at one-sided segment endpoints; the arguments are nudged inward
        # so evaluation picks the correct piece (the corner value itself
        # belongs to the neighbor)
        nudge = 1e-9
        ends, inward = [], []
        for (t0, t1, a, b) in self.g.segments():
            for th, th_in in ((t0, t0 + nudge), (t1, t1 - nudge)):
                ends.append(a + b * th + b / self.n)
                inward.append((a + b * th_in + b / self.n, th_in))
        lowest = min(inward, key=lambda pair: pair[0])
        highest = max(inward, key=lambda pair: pair[0])
        return (min(ends), max(ends)), (lowest[1], highest[1])

    def sup_abs(self):
        g = self.g
        if isinstance(g, TrigPolynomial):
            return g.abs_max() + g.derivative_poly().abs_max() / self.n
        slopes = [abs(b) for (_t0, _t1, _a, b) in g.segments()]
        return max(g.v_max, -g.v_min) + max(slopes) / self.n

    def to_doc(self):
        return {"variant": "slow_from_periodic", "g": _periodic_to_doc(self.g),
                "n": self.n}


@dataclass(frozen=True)
class PeriodicOfLog(_ProfileOfLog):
    """g(log(tau + 1)) for a 2 pi periodic g: a pure slow oscillation."""

    g: PeriodicFunction

    def _values(self, tau):
        return self.g.value(np.log1p(tau))

    def _profile_extrema(self):
        if isinstance(self.g, TrigPolynomial):
            return self.g.extrema_with_args()
        return self.g.extrema(), self.g.extremizer_args()

    def sup_abs(self):
        lo, hi = self.g.extrema()
        return max(abs(lo), abs(hi))

    def to_doc(self):
        return {"variant": "periodic_of_log", "g": _periodic_to_doc(self.g)}


@dataclass(frozen=True)
class Sum(InitialDataExpr):
    terms: tuple[InitialDataExpr, ...]

    def __post_init__(self):
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

    def to_doc(self):
        return {"variant": "sum", "terms": [t.to_doc() for t in self.terms]}


@dataclass(frozen=True)
class Negate(InitialDataExpr):
    """Pointwise negation; negate(negate(e)) unwraps to e exactly."""

    term: InitialDataExpr

    def __post_init__(self):
        if not isinstance(self.term, InitialDataExpr):
            raise DomainError(f"Negate needs an expression, got {self.term!r}")

    def _values(self, tau):
        return -self.term._values(tau)

    def to_doc(self):
        return {"variant": "negate", "term": self.term.to_doc()}


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
    closed_H / phi_from_H map and the idexpr/1 codec; sign and out carry its
    state down the recursion.  Chains of Negate unwrap in a loop, so only
    nested sums cost stack depth.
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


def eval_phi(expr: InitialDataExpr, tau):
    """Evaluate phi at tau (scalar or array), tau >= 0 and finite.

    Non-finite tau is rejected with a range error: bands at tau -> infinity
    come from analytic_band_phi, never from evaluating at a fake infinity.
    """
    arr = np.asarray(tau, dtype=float)
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
# and the ball average H(tau) (_ball_average), are routed per signed leaf.
# Constants are exact.  Leaves analytic in log tau (log sines, their average
# preimages, the doubly-log sine, trig-polynomial profiles of log(tau + 1))
# share one fixed sum on a log-radius axis, with an a-priori bound through the
# strip where the integrand stays analytic: a trapezoid sum on x = log z for
# u, a Gauss-Legendre sum on s = log(r / tau) for H.  Trapezoid profiles of
# log(tau + 1), analytic only between their corners, take the Gauss layout
# split at the corners, for either kernel.  2 pi periodic waves and bump
# trains would alias under fixed panels.  Both integrals of a wave integrate
# by parts against the primitives of one cached model: H ends after n steps,
# one array expression over all tau >= 2 pi, and u is a series whose
# remainder bound picks its length, so no cost grows with tau or t; a Gauss
# rule on each linear piece serves tau < 2 pi and small roots.  Bump trains
# integrate bump by bump.  Each fixed rule is a cached read-only layout, the
# same nodes at every t or tau, so a batch of points is one evaluation of phi
# on the outer product of radii and nodes and one matrix-vector product;
# the wave's u series is one array expression over the points, and kinked
# leaves and bump trains loop over them.
# Only plain callables take adaptive quadrature.

# Half-width a of the strip |Im s| < a around a log-radius axis (s = log z for
# u(0, t), s = log(r / tau) for ball averages) inside which strip_bound
# bounds the analytic leaves; the u kernel exp((k+1) s - e^{2s}) stays
# integrable up to pi/4.
_STRIP = math.pi / 8.0

# Most values of phi in one block of rows of a batch's outer product
_BLOCK = 1 << 20

# Most nodes the log-radius Gauss rule may use; a larger need raises
# ConvergenceError.
_H_MAX_NODES = 100_000

# Most terms of the integration-by-parts series of a wave; where they cannot
# reach abs_tol / 2 (root below about 15 to 30, the more the larger k), the
# wave route integrates the wave piece by piece instead.
_IBP_TERMS = 60
_IBP_ORDERS = np.arange(1, _IBP_TERMS + 1)

# widest z-panel of the Gauss-Legendre rule on the bump and wave pieces, and
# the half-height of the Bernstein ellipse about each wave panel in its bound
_PIECE_PANEL = 0.125
_PANEL_ELLIPSE = 0.5


@dataclass(frozen=True)
class _Leaves:
    """The signed leaves of an expression under Sum and Negate, by route.

    Every leaf is a (sign, leaf) pair.  constant is the sum of the signed
    constants; analytic holds the leaves with a strip_bound, with their
    strip masses summed in mass and their top log frequency in omega; fast
    holds the 2 pi periodic waves and the bump trains, whose fine structure
    needs exact routes; kinked holds the leaves with a _piece_bound
    (trapezoid profiles of log(tau + 1)), which the Gauss routes split at
    their corners, with their piece masses summed in kink_mass and their
    corner phases, sorted, in phases.
    """

    constant: float
    analytic: tuple[tuple[float, InitialDataExpr], ...]
    mass: float
    omega: float
    fast: tuple[tuple[float, InitialDataExpr], ...]
    kinked: tuple[tuple[float, InitialDataExpr], ...]
    kink_mass: float
    phases: tuple[float, ...]


def _split_leaves(expr: InitialDataExpr) -> _Leaves:
    """Sort the signed leaves of expr into their routes; a leaf with none
    raises UnsupportedExpression."""
    constant, mass, omega, kink_mass = 0.0, 0.0, 0.0, 0.0
    analytic, fast, kinked, phases = [], [], [], set()
    for sign, leaf in _signed_leaves(expr):
        if isinstance(leaf, Constant):
            constant += sign * leaf.c
        elif isinstance(leaf, (PeriodicZeroMean, BumpTrain)):
            fast.append((sign, leaf))
        elif (bound := leaf.strip_bound()) is not None:
            analytic.append((sign, leaf))
            mass += bound[0]
            omega = max(omega, bound[1])
        elif (pieces := leaf._piece_bound()) is not None:
            kinked.append((sign, leaf))
            kink_mass += pieces[0]
            phases.update(pieces[1])
        else:
            raise UnsupportedExpression(
                f"no integration route for {type(leaf).__name__}")
    return _Leaves(constant, tuple(analytic), mass, omega, tuple(fast), tuple(kinked),
                   kink_mass, tuple(sorted(phases)))


def _signed_sum(pairs) -> InitialDataExpr:
    """One expression for (sign, leaf) pairs, evaluated in one vectorised call."""
    terms = [leaf if sign > 0 else Negate(leaf) for sign, leaf in pairs]
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def _phi_on(expr: InitialDataExpr, radii, scale: np.ndarray) -> np.ndarray:
    """phi at tau = radii * scale, an outer product for a 1-D array of
    radii; a non-finite value raises EvaluationError."""
    tau = np.multiply.outer(radii, scale)
    vals = eval_phi(expr, tau)
    if not np.all(np.isfinite(vals)):
        bad = float(tau[~np.isfinite(vals)][0])
        raise EvaluationError(
            f"initial data returned a non-finite value at tau = {bad!r}", point=bad)
    return vals


def _fixed_sums(pairs, radii, scale, weights) -> np.ndarray:
    """sum_j weights_j phi(radii_i scale_j) for each radius, phi the signed
    sum of pairs, in blocks of rows of at most _BLOCK values."""
    expr, rows = _signed_sum(pairs), max(1, _BLOCK // scale.size)
    out = np.empty(radii.size)
    for i in range(0, radii.size, rows):
        out[i:i + rows] = np.dot(_phi_on(expr, radii[i:i + rows], scale), weights)
    return out


def _split_gauss(lo: float, h: float, panels: int, radius: float, phases):
    """(s_i, w_i, near) of the 8-node Gauss-Legendre rule on `panels` panels
    of width h from s = lo, s = log(r / radius), each panel split where
    L = log(r + 1) crosses a corner theta + 2 pi q, theta in phases.  near
    marks the nodes whose L lies within rounding of a corner, where
    evaluation may take the neighbouring piece's formula.
    """
    edges = lo + h * np.arange(panels + 1)
    ell_lo, ell_hi = np.log1p(radius * np.exp(edges[[0, -1]]))
    q = np.arange(math.floor(ell_lo / TWO_PI), math.floor(ell_hi / TWO_PI) + 1)
    corners = (TWO_PI * q[:, None] + np.asarray(phases)).ravel()
    corners = corners[(corners > ell_lo) & (corners < ell_hi)]
    # s = log(e^L - 1) - log radius, without overflow at large L
    edges = np.union1d(edges, corners + np.log(-np.expm1(-corners)) - math.log(radius))
    widths = np.diff(edges)
    nodes = (edges[:-1, None] + widths[:, None] * GL_NODES).ravel()
    ell = np.log1p(radius * np.exp(nodes))
    gap = np.abs(ell[:, None] - corners).min(axis=1, initial=np.inf)
    return nodes, (widths[:, None] * GL_WEIGHTS).ravel(), gap <= 16.0 * _EPS * (ell + 1.0)


def _split_gauss_sum(pairs, leaves: _Leaves, radius: float, layout,
                     kernel) -> tuple[float, float]:
    """(value, error bound) for int_{-D}^0 K(s) phi(radius e^s) ds, phi the
    signed sum of pairs, by the Gauss layout (D, P, bound) of
    _log_gauss_panels split at the corners of leaves.kinked.

    kernel(s) gives K at the nodes and factors c_i with K_i right to 4 c_i eps
    relative.  The terms are summed exactly by math.fsum; the bound adds to
    the layout's their rounding, 4 eps sum_i c_i |term_i|, and
    2 kink_mass w_i K_i for each node near a corner.
    """
    depth, panels, bound = layout
    s, w, near = _split_gauss(-depth, depth / panels, panels, radius, leaves.phases)
    k_vals, cond = kernel(s)
    weights = w * k_vals
    terms = weights * _phi_on(_signed_sum(pairs), radius, np.exp(s))
    rounding = 4.0 * _EPS * float(np.sum(np.abs(terms) * cond))
    return math.fsum(terms), (bound + rounding
                              + 2.0 * leaves.kink_mass * float(np.sum(weights[near])))


@lru_cache(maxsize=64)
def _log_gauss_panels(n: int, mass: float, omega: float, tol: float):
    """(D, P, error bound) of the Gauss rule of H(tau) on s = log(r / tau).

    phi is a sum of leaves whose strip masses sum to mass and whose
    frequencies are at most omega, so |phi(tau e^s)| <= mass e^{omega a} for
    |Im s| <= a = _STRIP, whatever tau (piece by piece for kinked leaves,
    see _piece_bound).  The rule

    * cuts the window at s = -D with D = log(2 mass / tol) / n, which drops
      at most mass e^{-nD} = tol / 2 of n int phi(tau e^s) e^{ns} ds;
    * covers [-D, 0] with P panels of width h = D / P carrying the 8-point
      Gauss-Legendre rule.  On a panel with centre c the Bernstein ellipse
      E_rho with (h/4)(rho - 1/rho) = a fits in the strip and reaches
      Re s = c + sqrt(h^2/4 + a^2), so the integrand is at most
      n mass e^{omega a + n c + n sqrt(h^2/4 + a^2)} there, and the panel
      errs by at most h/2 * 64/15 * that * rho^-16 / (rho^2 - 1)
      (Trefethen, Approximation Theory and Approximation Practice,
      Theorem 19.3).  As sum_c (h/2) e^{nc} <= 1/(2n), all panels together
      err by at most
          E(h) = (32/15) mass e^{omega a + n sqrt(h^2/4 + a^2)} rho^-16 / (rho^2 - 1),
      which grows with h; P is the least panel count with E(D / P) <= tol/2.

    The bound returned is E(h) + mass e^{-nD}; panels split at corners keep
    it, being narrower, as e^{ns} is convex.  Nothing depends on tau, so the
    layout is found once per (n, mass, omega, tol).  More than _H_MAX_NODES
    nodes raise ConvergenceError.
    """
    order = len(GL_NODES)
    depth = math.log(max(2.0 * mass / tol, math.e)) / n
    target = math.log(0.5 * tol)

    def log_error(panels):
        h = depth / panels
        rho = 2.0 * _STRIP / h + math.hypot(2.0 * _STRIP / h, 1.0)
        return (math.log(32.0 / 15.0 * mass) + omega * _STRIP
                + n * math.hypot(0.5 * h, _STRIP)
                - 2 * order * math.log(rho) - math.log(rho * rho - 1.0))

    def fits(panels):
        return mass == 0.0 or log_error(panels) <= target

    top = _H_MAX_NODES // order
    if not fits(top):
        raise ConvergenceError(
            f"log-radius Gauss rule needs more than {_H_MAX_NODES} nodes for "
            f"tol = {tol!r} at frequency {omega!r}")
    lo, hi = 0, top  # fits(hi) holds; fits(lo) fails or lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    quad = math.exp(log_error(hi)) if mass > 0.0 else 0.0
    return depth, hi, quad + mass * math.exp(-n * depth)


@lru_cache(maxsize=64)
def _log_gauss_rule(n: int, mass: float, omega: float, tol: float):
    """(e^{s_i}, w_i, error bound) with H(tau) ~ sum_i w_i phi(tau e^{s_i})
    for analytic leaves: the panels of _log_gauss_panels, the same for every
    tau, and their bound plus the rounding of the weighted sum."""
    depth, panels, bound = _log_gauss_panels(n, mass, omega, tol)
    h = depth / panels
    s = -depth + h * (np.arange(panels)[:, None] + GL_NODES).ravel()
    scale = np.exp(s)
    weights = n * h * np.tile(GL_WEIGHTS, panels) * scale ** n
    rounding = weights.size * _EPS * mass * float(np.sum(weights))
    scale.flags.writeable = weights.flags.writeable = False
    return scale, weights, bound + rounding


@lru_cache(maxsize=64)
def _log_trapezoid_rule(k: int, mass: float, omega: float, spec: QuadratureSpec):
    """(e^{x_j}, w_j, h, error bound) with w_j = e^{(k+1) x_j - e^{2 x_j}} and
    int_0^inf z^k e^{-z^2} phi(root z) dz ~ h sum_j w_j phi(root e^{x_j})
    for analytic leaves, on nodes x_j = log z_max - h j, j = 0 .. J - 1, the
    same for every root.

    phi is a sum of leaves whose strip masses sum to mass and whose
    frequencies are at most omega.  On the x = log z axis the integrand
    f(x) = exp((k+1) x - e^{2x}) phi(root e^x) is analytic in the strip
    |Im x| < a = _STRIP, and there the integral of |f(x + iy)| over x is at
    most M = mass e^{omega a} M_k cos(2a)^(-(k+1)/2), with
    M_k = int_0^inf z^k e^{-z^2} dz.
    The trapezoid rule with step h on the whole line then errs by at most
    2 M / (e^{2 pi a / h} - 1) (Trefethen & Weideman, SIAM Rev. 56, 2014,
    Theorem 5.1); any h <= h_max = 2 pi a / log(2 + 4 M / abs_tol) keeps that
    below abs_tol / 2.  The rule takes h = L / (floor(L / h_max) + 1), J - 1
    steps over [-40/(k+1), log z_max] of length L.  Keeping only those nodes
    adds at most mass (e^{-40} / (k+1) + G_k(z_max)), G_k the Gaussian power
    tail.  The bound returned is the sum of the two.  More than max_panels
    nodes raise ConvergenceError.
    """
    # log(4 M / abs_tol); mass is floored at abs_tol, which only shrinks h
    log_ratio = (omega * _STRIP
                 + math.log(4.0 * max(mass, spec.abs_tol) * gaussian_power_tail(k, 0.0)
                            / spec.abs_tol)
                 - 0.5 * (k + 1) * math.log(math.cos(2.0 * _STRIP)))
    x_lo, x_hi = -40.0 / (k + 1), math.log(spec.z_max)
    steps = ((x_hi - x_lo) * (log_ratio + math.log1p(2.0 * math.exp(-log_ratio)))
             / (2.0 * math.pi * _STRIP))
    if not steps < spec.max_panels:
        raise ConvergenceError(
            f"log-axis trapezoid needs {steps:.3g} nodes, exceeding "
            f"max_panels={spec.max_panels}")
    count = int(steps) + 2
    h = (x_hi - x_lo) / (count - 1)
    x = x_hi - h * np.arange(count)
    scale, kernel = np.exp(x), np.exp((k + 1) * x - np.exp(2.0 * x))
    scale.flags.writeable = kernel.flags.writeable = False
    tails = mass * (math.exp(-40.0) / (k + 1) + gaussian_power_tail(k, spec.z_max))
    return scale, kernel, h, 0.5 * spec.abs_tol + tails


# ---------------------------------------------------------------------------
# The two integrals: ball average and u(0, t)


def numeric_H(expr: InitialDataExpr, n: int, tau, tol: float = 1e-8):
    """Ball average H(tau) = (n/tau^n) int_0^tau phi r^(n-1) dr, H(0) = phi(0).

    tau is a radius (giving a float) or an array of radii (giving an array
    of its shape); a bad radius anywhere raises DomainError.  Each signed
    leaf of expr takes its route (see Leaf routes): profiles of log tau one
    fixed Gauss-Legendre sum on s = log(r / tau), where
    H(tau) = n int_{-inf}^0 phi(tau e^s) e^{ns} ds, whose a-priori bound keeps
    the error below tol at every tau; waves and bump trains exact sums.

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

    The bound adds the a-priori bound of the Gauss sum, with 2 mass |w_i|
    for each node that rounding may evaluate on the wrong side of a corner,
    and the bounds of the wave and bump routes; the rest of the rounding in
    evaluating phi itself is not counted.
    """
    check_dimension(n)
    check_finite(tol=tol)
    if not tol > 0:
        raise DomainError(f"tol must be a positive finite real, got {tol!r}")
    taus, tol = np.asarray(taus, dtype=float).reshape(-1), float(tol)
    values, bounds, live = np.zeros(taus.size), np.zeros(taus.size), taus > 0.0
    if not live.all():
        values[~live] = eval_phi(expr, 0.0)
    if not live.any():
        return values, bounds
    taus = taus[live]

    leaves = _split_leaves(expr)
    value, bound = np.full(taus.size, leaves.constant), np.zeros(taus.size)
    if leaves.kinked:  # the layout for the summed mass, split at the corners
        layout = _log_gauss_panels(n, leaves.mass + leaves.kink_mass, leaves.omega, tol)
        parts = np.array([_split_gauss_sum(leaves.analytic + leaves.kinked, leaves, tau, layout,
                                           lambda s: (n * np.exp(s) ** n, 2.0 + n))
                          for tau in taus.tolist()])
        value += parts[:, 0]
        bound += parts[:, 1]
    elif leaves.analytic:
        scale, weights, rule_bound = _log_gauss_rule(n, leaves.mass, leaves.omega, tol)
        value += _fixed_sums(leaves.analytic, taus, scale, weights)
        bound += rule_bound
    for sign, leaf in leaves.fast:
        if isinstance(leaf, PeriodicZeroMean):
            part, part_bound = _wave_radial_integral(leaf, n, taus)
        else:
            part, part_bound = np.array([_bump_radial_integral(leaf, n, t) for t in taus]).T
        value += sign * n * part
        bound += n * part_bound
    values[live], bounds[live] = value, bound
    return values, bounds


def _weighted_value(expr, k: int, roots, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """(values, error bounds) of int_0^inf z^k e^{-z^2} expr(root z) dz at
    each root of the 1-D array roots.

    A plain callable goes through adaptive quadrature, root by root; an
    expression is routed per signed leaf (see Leaf routes), split once for
    all roots, and the bound adds the bounds of its routes.
    """
    roots = np.asarray(roots, dtype=float).reshape(-1)
    if not isinstance(expr, InitialDataExpr):
        if not callable(expr):
            raise DomainError(
                f"expr must be an InitialDataExpr or a callable, got {type(expr).__name__}")
        results = [integrate_weighted(lambda z: expr(root * z), k, spec)
                   for root in roots.tolist()]
        return np.array([(r.value, r.abs_error_est) for r in results]).reshape(-1, 2).T

    leaves, bound = _split_leaves(expr), np.zeros(roots.size)
    value = np.full(roots.size, leaves.constant * gaussian_power_tail(k, 0.0))
    if leaves.analytic:
        scale, weights, h, rule_bound = _log_trapezoid_rule(k, leaves.mass, leaves.omega, spec)
        value += h * _fixed_sums(leaves.analytic, roots, scale, weights)
        bound += rule_bound
    if leaves.kinked:
        # on s = log(z / z_max) the kernel z^(k+1) e^{-z^2} is at most
        # z_max^(k+1) e^{(k+1) Re s} for |Im s| <= _STRIP, so the layout for
        # n = k + 1, mass z_max^(k+1) kink_mass / (k + 1) and tol abs_tol / 2
        # applies; the cut at z_max adds kink_mass G_k(z_max)
        z_max = spec.z_max

        def kernel(s):
            z = z_max * np.exp(s)
            return z ** (k + 1) * np.exp(-z * z), 2.0 + k + z * z

        layout = _log_gauss_panels(k + 1, leaves.kink_mass * z_max ** (k + 1) / (k + 1),
                                   0.0, 0.5 * spec.abs_tol)
        for i, root in enumerate(roots.tolist()):
            part, part_bound = _split_gauss_sum(leaves.kinked, leaves, root * z_max, layout, kernel)
            value[i] += part
            bound[i] += part_bound + leaves.kink_mass * gaussian_power_tail(k, z_max)
    for sign, leaf in leaves.fast:
        if isinstance(leaf, PeriodicZeroMean):
            part, part_bound = _wave_weighted_integral(leaf, k, roots, spec.z_max,
                                                       spec.abs_tol, spec.max_panels)
            value += sign * part
            bound += part_bound
            continue
        for i, root in enumerate(roots.tolist()):
            part, part_bound = _bump_weighted_integral(leaf, k, root, spec.z_max)
            value[i] += sign * part
            bound[i] += part_bound
    return value, bound


# ---------------------------------------------------------------------------
# Exact routes of waves and bump trains


def _bump_radial_integral(expr: BumpTrain, n, tau) -> tuple[float, float]:
    """(value, error bound) for (1/tau^n) int_0^tau (baseline + bumps)(r) r^(n-1) dr:
    with x = r / tau, a bump piece times x^k, k = n - 1, is a polynomial of
    degree n <= 15, which the Gauss rule of _bump_pieces integrates exactly.
    The bound is the rounding, as in _bump_weighted_integral with x^k <= 1,
    |(x^k)'| <= k and each piece covering at most min(d, 1), d = half_width / tau.
    """
    k, base, d = n - 1, expr.baseline / n, expr.half_width / tau
    bumps, pieces = _bump_pieces(expr, tau, 1.0, lambda x: x ** k)
    return base + bumps, _EPS * ((8 * k + pieces + 15) * abs(bumps) + 2.0 * abs(base)
                                 + abs(expr.height) * min(d, 1.0) * pieces * (8.0 * k * d + 8.0))


@lru_cache(maxsize=64)
def _panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the 8-node Gauss-Legendre rule on `panels` equal
    panels of [0, 1], read-only."""
    nodes = (np.arange(panels)[:, None] + GL_NODES).ravel() / panels
    weights = np.tile(GL_WEIGHTS, panels) / panels
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _panel_rule_bound(h, sup, slope, kernel_reach):
    """Error bound of the 8-node Gauss-Legendre rule on a panel of z-width h
    for v(z) f(z), v linear on the panel with |v| <= sup there and
    |v'| <= slope, where kernel_reach(a) bounds |f| on the panel's Bernstein
    ellipse.

    The ellipse E_rho of half-height b = _PANEL_ELLIPSE,
    (h/4)(rho - 1/rho) = b, reaches a = sqrt(h^2/4 + b^2) along the axis,
    where |v| <= sup + slope (a - h/2 + b), and the panel errs by at most
    h/2 * 64/15 * max|v f| * rho^-16 / (rho^2 - 1) (Trefethen, ATAP,
    Theorem 19.3); 1/rho = h / (2b + hypot(2b, h)) keeps an empty panel,
    h = 0, at 0.  Up to h = 1/8 the bound grows with h: rho^-18 ~ (h/2b)^18
    outweighs the fall of a - h/2.  h, sup and slope may be floats or
    arrays; kernel_reach takes and returns the same.
    """
    r = h / (2.0 * _PANEL_ELLIPSE + (4.0 * _PANEL_ELLIPSE ** 2 + h * h) ** 0.5)
    a = (0.25 * h * h + _PANEL_ELLIPSE ** 2) ** 0.5
    return 32.0 / 15.0 * h * r ** 18 / (1.0 - r * r) \
        * (sup + slope * (a - 0.5 * h + _PANEL_ELLIPSE)) * kernel_reach(a)


def _bump_pieces(train: BumpTrain, scale: float, cut: float, kernel,
                 panels: int = 1) -> tuple[float, int]:
    """(int_0^cut (train - baseline)(scale x) kernel(x) dx, number of pieces).

    Each bump is a rising and a falling linear piece of x-width
    d = half_width / scale, integrated by the 8-node Gauss-Legendre rule on
    `panels` panels, vectorised over the pieces.  The rule works in
    coordinates local to each piece: at fraction s of a piece the bump is
    height s (rising) or height (1 - s) (falling), so no large coefficient
    cancels however far out the centres lie.
    """
    centers = train.centers.representable_centers()
    centers = centers[:np.searchsorted(centers, cut * scale + train.half_width, "right")]
    d = train.half_width / scale
    z_centers = centers / scale
    starts = np.concatenate([z_centers - d, z_centers])  # rising, then falling
    # the part [s_lo, s_hi] of each piece that lies inside [0, cut]
    s_lo = np.minimum(np.maximum(-starts / d, 0.0), 1.0)
    s_hi = np.minimum(np.maximum((cut - starts) / d, 0.0), 1.0)
    u, w = _panel_rule(panels)
    s = s_lo[:, None] + (s_hi - s_lo)[:, None] * u
    frac = np.concatenate([s[:centers.size], 1.0 - s[centers.size:]])
    per_piece = (s_hi - s_lo) * ((kernel(starts[:, None] + d * s) * frac) @ w)
    return train.height * d * float(per_piece.sum()), starts.size


@lru_cache(maxsize=64)
def _wave_primitives(trap: TrapezoidWave):
    """(mean, jump, at, at_zero), the model of a trapezoid wave w in both
    kernels' integration-by-parts routes.  mean is the mean of w over its
    period T = TWO_PI, exact from the knots (zero up to the rounding of the
    plateau lengths).  w - mean is linear between its corners theta_i, where
    its slope jumps by ds_i, and jump = sum_i |ds_i|.  Its zero-mean
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
    # (theta_i, width, v_i, rise) of each piece, exact, so that the mean and
    # the jumps are each rounded once
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
    """(c, log_norms) for f(z) = z^k e^{-z^2}: c[j-1] = (-1)^j f^(j-1)(0)
    and log_norms[P-1] = log(zeta(P+2) N_P / pi), for j, P = 1 .. _IBP_TERMS,
    with N_P >= ||f^(P)||_1 on (0, inf).

    f = sum_m (-1)^m z^(k+2m) / m!, so f^(j)(0) = j! (-1)^m / m! for j = k + 2m
    and 0 otherwise.  f^(P) = p_P(z) e^{-z^2} with p_0 = z^k and
    p_{P+1} = p_P' - 2 z p_P, whose integer coefficients a_i are kept exact,
    and N_P = sum_i |a_i| Gamma((i+1)/2) / 2.
    """
    coeffs = np.zeros(_IBP_TERMS)
    for j in range(k, _IBP_TERMS, 2):
        m = (j - k) // 2
        coeffs[j] = (-1) ** (m + j + 1) * (math.factorial(j) // math.factorial(m))
    poly = [0] * k + [1]
    norms = []
    for _ in range(_IBP_TERMS):
        nxt = [0] * (len(poly) + 1)
        for i, a in enumerate(poly):
            if i:
                nxt[i - 1] += i * a
            nxt[i + 1] -= 2 * a
        poly = nxt
        norms.append(sum(abs(a) * math.gamma(0.5 * (i + 1)) for i, a in enumerate(poly) if a))
    return coeffs, np.log(0.5 * np.array(norms) * zeta(_IBP_ORDERS + 2.0) / math.pi)


def _wave_weighted_integral(expr: PeriodicZeroMean, k: int, roots, z_cut: float,
                            abs_tol: float = QuadratureSpec.abs_tol,
                            max_nodes: int = QuadratureSpec.max_panels):
    """(values, error bounds) of int_0^inf f(z) w(root z) dz, f(z) = z^k e^{-z^2}
    and w the wave of expr, at each root of the 1-D array roots.

    Integrating by parts P times against the zero-mean primitives W_j of
    w - mean (see _wave_primitives) gives

        mean M_k + sum_{j=1}^{P} (-1)^j f^(j-1)(0) W_j(0) / root^j + r_P,
        |r_P| <= sup|W_P| ||f^(P)||_1 / root^P,

    M_k = int_0^inf f, with every table cached per wave and per k
    (Iserles & Norsett, Proc. R. Soc. A 461, 2005).  The route takes, per
    root, the least P <= _IBP_TERMS whose bound on r_P is at most
    abs_tol / 2, at a cost that does not depend on root, and returns that
    bound plus the rounding of the terms, which are summed exactly by
    math.fsum.  The remainder table and the terms of every root are one
    array expression.  Where no P reaches abs_tol / 2, _wave_pieces
    integrates the wave piece by piece up to z_cut instead.
    """
    mean, jump, _at, (w0, w_err) = _wave_primitives(expr.wave)
    coeffs, log_norms = _gauss_derivatives(k)
    # math.log per root: np.log may round differently in the last bit, and
    # a count P on the threshold would move
    log_root = np.array([math.log(root) for root in roots.tolist()])
    log_rem = (log_norms + math.log(jump)) - _IBP_ORDERS * log_root[:, None]
    fits = log_rem <= math.log(0.5 * abs_tol)
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
    for i, (root, p) in enumerate(zip(roots.tolist(), counts.tolist())):
        if p:
            values[i] = math.fsum([*terms[i, :p].tolist(), mean_term])
            bounds[i] = math.exp(log_rem[i, p - 1]) + rounding[i]
        else:
            values[i], bounds[i] = _wave_pieces(expr, k, root, z_cut, max_nodes)
    return values, bounds


def _wave_layout(wave: TrapezoidWave, root: float, z_cut: float, panels: int,
                 max_nodes: int = QuadratureSpec.max_panels):
    """(start, span, slope, z, vals) in z = tau / root of the linear pieces of
    wave inside [0, root z_cut]: start, covered length and |w'| of each, and
    the 8-node Gauss-Legendre nodes on `panels` panels of it with the wave
    there, v_i + (v_{i+1} - v_i) s at fraction s of the piece, local to it
    (see _bump_pieces).  More than max_nodes nodes raise ConvergenceError."""
    bp, kv = wave.breakpoints, wave.knot_values
    width, rise = np.diff(bp), np.diff(kv)
    live = width > 0
    theta, v0 = np.asarray(bp[:-1])[live], np.asarray(kv[:-1])[live]
    width, rise = width[live], rise[live]
    tau_max = z_cut * root
    periods = math.floor(tau_max / TWO_PI) + 1
    if periods * theta.size * panels * GL_NODES.size > max_nodes:
        raise ConvergenceError(
            f"wave pieces need {periods * theta.size * panels * GL_NODES.size:.3g} "
            f"nodes at root = {root!r}, exceeding {max_nodes}")
    tau0 = (TWO_PI * np.arange(periods)[:, None] + theta).ravel()
    inside = tau0 < tau_max
    tau0 = tau0[inside]
    width, v0, rise = (np.tile(a, periods)[inside] for a in (width, v0, rise))
    frac = np.minimum(1.0, (tau_max - tau0) / width)   # the part inside the window
    s = frac[:, None] * _panel_rule(panels)[0]
    z = (tau0[:, None] + width[:, None] * s) / root
    vals = v0[:, None] + rise[:, None] * s
    return tau0 / root, width * frac / root, np.abs(rise / width) * root, z, vals


def _wave_pieces(expr: PeriodicZeroMean, k: int, root: float, z_cut: float,
                 max_nodes: int) -> tuple[float, float]:
    """(value, error bound) for int_0^inf z^k e^{-z^2} w(root z) dz by the
    8-node Gauss-Legendre rule on the linear pieces of the wave w up to
    z = z_cut (_wave_layout).

    Every piece takes the same number of panels, at most _PIECE_PANEL wide
    in z.  The bound adds
    * the rule's error, panel by panel (_panel_rule_bound), with
      |z^k e^{-z^2}| <= hypot(c + a, b)^k e^{b^2 - max(0, c - a)^2} on the
      ellipse about a panel of centre c;
    * the rounding, eps (|w| (5 |k - 2 z^2| + z^2 + 6) + 6 sup|w|) times
      each node's weight w_i z^k e^{-z^2}: a node off by 5 eps z moves
      z^k e^{-z^2} by 5 eps |k - 2 z^2| of itself, and the terms are summed
      exactly by math.fsum;
    * sup|w| G_k(z_cut) for the cut.
    More than max_nodes nodes raise ConvergenceError.
    """
    bp = expr.wave.breakpoints
    sup = max(abs(v) for v in expr.wave.knot_values)
    panels = max(1, math.ceil(min(max(np.diff(bp)), z_cut * root) / (root * _PIECE_PANEL)))
    start, span, slope, z, vals = _wave_layout(expr.wave, root, z_cut, panels, max_nodes)
    weights = span[:, None] * _panel_rule(panels)[1] * z ** k * np.exp(-z * z)
    value = math.fsum((weights * vals).ravel())
    rounding = _EPS * float(np.sum(
        weights * (np.abs(vals) * (5.0 * np.abs(k - 2.0 * z * z) + z * z + 6.0) + 6.0 * sup)))
    centre = start[:, None] + span[:, None] * ((np.arange(panels) + 0.5) / panels)

    def reach(a):
        # |z^k e^{-z^2}| on the ellipse about each panel
        return np.hypot(centre + a, _PANEL_ELLIPSE) ** k \
            * np.exp(_PANEL_ELLIPSE ** 2 - np.maximum(0.0, centre - a) ** 2)

    rule = float(np.sum(_panel_rule_bound((span / panels)[:, None], sup, slope[:, None], reach)))
    return value, rule + rounding + sup * gaussian_power_tail(k, z_cut)


def _wave_radial_integral(expr: PeriodicZeroMean, n: int, taus: np.ndarray):
    """(values, error bounds) of (1/tau^n) int_0^tau w(r) r^(n-1) dr at each
    radius of the 1-D array taus > 0, w the wave of expr.

    As (r^(n-1))^(n) = 0, n integrations by parts against the primitives W_j
    of w - mean (_wave_primitives) end exactly, theta = tau mod T exact:

        mean / n + sum_{j=1}^{n} (-1)^(j-1) (n-1)!/(n-j)! W_j(theta) / tau^j
                 - (-1)^(n-1) (n-1)! W_n(0) / tau^n,

    for tau >= T one array expression with powers (1/tau)^j, bounded by the
    rounding of each W_j times its weight and (n + 3) eps sum |terms|.  Below
    T the terms cancel, and the Gauss rule of _wave_layout, exact for degree
    n <= 15, takes the pieces on x = r / tau; a node within 2 eps x of its
    place moves x^(n-1) by (2n - 1) eps, weight and value err by 5 eps and
    5 eps sup|w|, and the clipped end adds 2 eps sup|w|.
    """
    mean, _jump, at, (w0, w0_err) = _wave_primitives(expr.wave)
    values, bounds, far = np.empty(taus.size), np.empty(taus.size), taus >= TWO_PI
    coeffs = np.array([(-1) ** j * math.perm(n - 1, j) for j in range(n)], dtype=float)
    w, w_err = at(np.mod(taus[far], TWO_PI), n)
    powers = (1.0 / taus[far])[:, None] ** np.arange(1, n + 1)
    last = math.factorial(n - 1) * powers[:, -1]
    terms = np.column_stack([coeffs * w * powers, (-1) ** n * w0[n - 1] * last])
    values[far] = terms.sum(axis=1) + mean / n
    bounds[far] = ((np.abs(coeffs) * w_err * powers).sum(axis=1) + w0_err[n - 1] * last
                   + (n + 3) * _EPS * (np.abs(terms).sum(axis=1) + abs(mean / n)))
    sup = max(abs(v) for v in expr.wave.knot_values)
    for i in np.flatnonzero(~far):
        _start, span, _slope, x, vals = _wave_layout(expr.wave, float(taus[i]), 1.0, 1)
        weights = span[:, None] * _panel_rule(1)[1] * x ** (n - 1)
        values[i] = math.fsum((weights * vals).ravel())
        bounds[i] = _EPS * (float(np.sum(weights * ((2 * n + 4) * np.abs(vals) + 5.0 * sup)))
                            + 2.0 * sup)
    return values, bounds


def _gauss_sup(j: int) -> float:
    """max over z >= 0 of z^j e^{-z^2}, (j/2)^(j/2) e^(-j/2)."""
    return (0.5 * j) ** (0.5 * j) * math.exp(-0.5 * j)


def _gauss_reach(k: int, a: float) -> float:
    """Bound of |z^k e^{-z^2}| on every ellipse of half-height
    b = _PANEL_ELLIPSE that reaches a along the axis about a centre c >= 0:
    there |z| <= c + a + b and Re z^2 >= max(0, c - a)^2 - b^2, and with
    A = 2a + b, y = max(0, c - a), (y + A)^k e^{-y^2} peaks at
    y = (sqrt(A^2 + 2k) - A) / 2."""
    big = 2.0 * a + _PANEL_ELLIPSE
    y = 0.5 * (math.sqrt(big * big + 2.0 * k) - big)
    return (y + big) ** k * math.exp(_PANEL_ELLIPSE ** 2 - y * y)


def _bump_weighted_integral(expr: BumpTrain, k: int, root: float,
                            z_cut: float) -> tuple[float, float]:
    """(value, error bound) for int_0^inf z^k e^{-z^2} expr(root z) dz.

    The (constant) baseline integrates in closed form over all of (0, inf),
    as baseline M_k, the bumps inside the window by _bump_pieces on panels
    at most _PIECE_PANEL wide.  With d = half_width / root, n pieces and
    S_j = max z^j e^{-z^2}, the bound adds
    * the rule's error: n * panels times _panel_rule_bound of the widest
      panel, with |v| <= |height|, |v'| <= |height| / d and _gauss_reach;
    * the rounding.  A node lands within 8 eps (z + d) of its place, which
      moves z^k e^{-z^2} by at most 8 eps ((k + d^2 + 3 z^2) z^k e^{-z^2}
      + k d S_{k-1}); its evaluation errs by (z^2 + 5) eps of itself, and
      the bump shape and the clipped piece ends by 8 eps S_k per unit of
      weight.  With z^(k+2) e^{-z^2} <= S_(k+2), the nodes add
      eps |height| d n (25 S_{k+2} + 8 k d S_{k-1} + 8 S_k) and
      (8k + 8 d^2 + 6) eps of the bump sum; the sums and products add
      (8 panels + n + 6) eps of it, and baseline M_k, within (k + 2) eps,
      (k + 4) eps of itself with the last sum;
    * (|baseline| + |height|) G_k(z_cut) for the bumps beyond the window.
    """
    base = expr.baseline * gaussian_power_tail(k, 0.0)
    panels = max(1, math.ceil(min(expr.half_width / root, z_cut) / _PIECE_PANEL))
    bumps, n = _bump_pieces(expr, root, z_cut, lambda z: z ** k * np.exp(-z * z), panels)
    d = expr.half_width / root
    size = abs(expr.height)
    rule = n * panels * _panel_rule_bound(min(d, z_cut) / panels, size, size / d,
                                          lambda a: _gauss_reach(k, a))
    spread = 25.0 * _gauss_sup(k + 2) + 8.0 * (k * d * _gauss_sup(max(k - 1, 0)) + _gauss_sup(k))
    rounding = _EPS * ((k + 4) * abs(base) + size * d * n * spread
                       + (8 * k + 8.0 * d * d + 8 * panels + n + 12) * abs(bumps))
    return base + bumps, rule + rounding \
        + (abs(expr.baseline) + size) * gaussian_power_tail(k, z_cut)


# ---------------------------------------------------------------------------
# Analytic bands


def analytic_band_phi(expr: InitialDataExpr) -> tuple[float, float]:
    """Exact (liminf, limsup) of phi as tau -> infinity.

    A lone signed leaf has its own band.  In a sum the slow content is
    either a single leaf or a set of integer-frequency log sines (whose
    joint asymptotic profile is a trig polynomial); constants, 2 pi periodic
    waves and sparse bump trains add their own extremes on top because
    their phases decouple from the slow phase.  The parts are added in a
    fixed order: constants and bump baselines, the slow part, the waves,
    the bump heights.
    """
    leaves = _signed_leaves(expr)
    if len(leaves) == 1:
        return _signed_band(*leaves[0])
    level = wave_lo = wave_hi = bump_lo = bump_hi = 0.0
    slows = []
    for sign, leaf in leaves:
        if isinstance(leaf, Constant):
            level += sign * leaf.c
        elif isinstance(leaf, BumpTrain):
            level += sign * leaf.baseline
            bump_lo += min(sign * leaf.height, 0.0)
            bump_hi += max(sign * leaf.height, 0.0)
        elif isinstance(leaf, PeriodicZeroMean):
            lo, hi = _signed_band(sign, leaf)
            wave_lo += lo
            wave_hi += hi
        else:
            slows.append((sign, leaf))

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
        j = _as_integer(t.m) if isinstance(t, (LogSine, LogSineAvgPreimage)) else None
        if j is None:
            raise UnsupportedExpression(
                "band of a multi-mode sum needs every slow term to be a log sine "
                "with integer frequency; mixed or incommensurate slow terms have "
                "no product-form band")
        sin[j] = sin.get(j, 0.0) + sign * t.amplitude
        if isinstance(t, LogSineAvgPreimage):
            cos[j] = cos.get(j, 0.0) + sign * t.amplitude * t.m / t.n
        const += sign * t.offset
    j_max = max(list(cos) + list(sin))
    return TrigPolynomial(
        const,
        tuple(cos.get(j, 0.0) for j in range(1, j_max + 1)),
        tuple(sin.get(j, 0.0) for j in range(1, j_max + 1)),
    )


def _as_integer(m: float) -> int | None:
    j = round(m)
    if j >= 1 and abs(m - j) <= 1e-12 * max(1.0, abs(m)):
        return int(j)
    return None


def sup_abs_phi(expr: InitialDataExpr) -> float:
    """Upper bound for sup |phi| over all of [0, infinity).

    Exact for a lone leaf; subadditive (so possibly loose) for sums.
    This is the M in the maximum principle |u| <= M.
    """
    return sum(leaf.sup_abs() for _, leaf in _signed_leaves(expr))


# ---------------------------------------------------------------------------
# Band witnesses: tau values where phi provably comes within o(1) of its band


def band_witnesses(expr: InitialDataExpr, tau_lo: float = 1e3,
                   tau_hi: float = 1e12) -> tuple[np.ndarray, np.ndarray]:
    """(tau values approaching liminf, tau values approaching limsup).

    These are the analytic extremizer locations: exact phase solutions for
    the slow terms, plateau centers for periodic waves (aligned inside the
    slow term's long extremal stretches when both occur), bump centers and
    gap midpoints for trains.  Values are clipped to representable range.
    """
    leaves = _signed_leaves(expr)
    if len(leaves) == 1:
        lo_w, hi_w = _signed_witnesses(*leaves[0], tau_lo, tau_hi)
    else:
        # a sum: the witnesses of its slow content, each shifted onto the
        # extremal plateau of every wave, plus the centers of every bump train
        slows = [(sign, leaf) for sign, leaf in leaves
                 if not isinstance(leaf, (Constant, PeriodicZeroMean, BumpTrain))]
        if len(slows) > 1:
            (_l, _h), (a_lo, a_hi) = _commensurate_profile(slows).extrema_with_args()
            lo_w = _phase_taus(1.0, a_lo, tau_lo, tau_hi)
            hi_w = _phase_taus(1.0, a_hi, tau_lo, tau_hi)
        elif slows:
            lo_w, hi_w = _signed_witnesses(*slows[0], tau_lo, tau_hi)
        else:
            lo_w = hi_w = np.asarray([0.5 * (tau_lo + tau_hi)])
        lo_w, hi_w = np.asarray(lo_w, dtype=float), np.asarray(hi_w, dtype=float)
        for sign, leaf in leaves:
            if isinstance(leaf, PeriodicZeroMean):
                # the slow phase is frozen over a shift of at most 2 pi in tau
                arg_lo, arg_hi = leaf.wave.extremizer_args()
                if sign < 0:
                    arg_lo, arg_hi = arg_hi, arg_lo
                lo_w = _align_phase(lo_w, arg_lo)
                hi_w = _align_phase(hi_w, arg_hi)
        for sign, leaf in leaves:
            if isinstance(leaf, BumpTrain):
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


def _signed_witnesses(sign, leaf, tau_lo, tau_hi):
    lo_w, hi_w = leaf.witnesses(tau_lo, tau_hi)
    return (lo_w, hi_w) if sign > 0 else (hi_w, lo_w)


def _phase_taus(m, phase, tau_lo, tau_hi):
    """tau = exp((phase + 2 k pi)/m) - 1 inside [tau_lo, tau_hi]."""
    x_lo = math.log1p(tau_lo) * m
    x_hi = math.log1p(min(tau_hi, _FLOAT_MAX / 4)) * m
    k_lo = math.ceil((x_lo - phase) / TWO_PI)
    k_hi = math.floor((x_hi - phase) / TWO_PI)
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


def to_json(expr: InitialDataExpr) -> dict:
    return {"schema": SCHEMA_ID, "expr": expr.to_doc()}


def from_json(doc) -> InitialDataExpr:
    """Expression from an idexpr/1 document; any malformed part is a DomainError."""
    if not isinstance(doc, dict):
        raise DomainError(
            f"an {SCHEMA_ID} document must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMA_ID:
        raise DomainError(f"expected schema {SCHEMA_ID!r}, got {doc.get('schema')!r}")
    try:
        return _node_from_doc(doc["expr"])
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
    return from_json(json.loads(text))


def _periodic_to_doc(g: PeriodicFunction) -> dict:
    if isinstance(g, TrapezoidWave):
        return {"kind": "trapezoid", "v_max": g.v_max, "v_min": g.v_min,
                "ramp_width": g.ramp_width}
    if isinstance(g, TrigPolynomial):
        return {"kind": "trig_poly", "const": g.const,
                "cos": list(g.cos_coeffs), "sin": list(g.sin_coeffs)}
    raise DomainError(f"unserializable periodic function {type(g).__name__}")


def _periodic_from_doc(doc: dict) -> PeriodicFunction:
    if not isinstance(doc, dict):
        raise DomainError(f"periodic function must be an object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "trapezoid":
        return TrapezoidWave(doc["v_max"], doc["v_min"], doc["ramp_width"])
    if kind == "trig_poly":
        return TrigPolynomial(doc["const"], tuple(doc["cos"]), tuple(doc["sin"]))
    raise DomainError(f"unknown periodic function kind {kind!r}")


def _centers_to_doc(law: CenterLaw) -> dict:
    if isinstance(law, GeometricCenters):
        return {"law": "geometric", "base": law.base}
    if isinstance(law, DoubleExpCenters):
        return {"law": "double_exp", "parity": law.parity}
    raise DomainError(f"unserializable center law {type(law).__name__}")


def _centers_from_doc(doc: dict) -> CenterLaw:
    if not isinstance(doc, dict):
        raise DomainError(f"center law must be an object, got {doc!r}")
    law = doc.get("law")
    if law == "geometric":
        return GeometricCenters(doc["base"])
    if law == "double_exp":
        return DoubleExpCenters(doc["parity"])
    raise DomainError(f"unknown center law {law!r}")


def _node_from_doc(doc: dict) -> InitialDataExpr:
    if not isinstance(doc, dict):
        raise DomainError(f"expression node must be an object, got {doc!r}")
    v = doc.get("variant")
    if v == "constant":
        return Constant(doc["c"])
    if v == "log_sine":
        return LogSine(doc["amplitude"], doc["m"], doc["offset"])
    if v == "log_sine_avg_preimage":
        return LogSineAvgPreimage(doc["amplitude"], doc["m"], doc["offset"],
                                  doc["n"])
    if v == "log_log_sine":
        return LogLogSine(doc["amplitude"], doc["offset"])
    if v == "periodic_zero_mean":
        return PeriodicZeroMean(doc["v_max"], doc["v_min"], doc["ramp_width"])
    if v == "bump_train":
        return BumpTrain(doc["height"], doc["half_width"], doc["baseline"],
                         _centers_from_doc(doc["centers"]))
    if v == "slow_from_periodic":
        return SlowFromPeriodic(_periodic_from_doc(doc["g"]), doc["n"])
    if v == "periodic_of_log":
        return PeriodicOfLog(_periodic_from_doc(doc["g"]))
    if v == "sum":
        return Sum(tuple(_node_from_doc(t) for t in doc["terms"]))
    if v == "negate":
        return Negate(_node_from_doc(doc["term"]))
    raise DomainError(f"unknown expression variant {v!r}")
