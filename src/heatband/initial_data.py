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
import math
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import cached_property, partial

import numpy as np

from .errors import (
    _EPS,
    _FLOAT_MAX,
    TWO_PI,
    ConvergenceError,
    DomainError,
    RangeError,
    UnsupportedExpression,
    _dumps,
    _finite,
    _loads,
    _points,
    check_finite,
    check_positive,
)
from .kernel_moments import KernelFlavor, check_dimension, kernel_moments
from .quadrature import (
    GL_NODES,
    MAX_OSCILLATION_FREQUENCY,
    _ABS_TOL,
    _H_TOL,
    _Z_MAX,
    _check_nodes,
    _fixed_sums,
    _log_gauss_rule,
    _log_trapezoid_rule,
    _phi_rounding,
    _pieces_radial,
    _power_series,
    _power_sums,
    _radial_terms,
    _pieces_weighted,
    _split_gauss_radial,
    _split_gauss_weighted,
    _wave_radial_series,
    _wave_weighted_series,
    _weighted_terms,
    gaussian_power_tail,
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

# Log of the largest double, past which a centre or tau is not representable
_LOG_FLOAT_MAX = math.log(_FLOAT_MAX)

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
        top = _check_harmonic(harmonics[-1])
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
      _powers()          (beta, a) pairs, leaf = Re sum beta (1 + tau)^a, or None;
                         read by the series of u and H, _trig_profile and slow_m
      witnesses()        tau values approaching the liminf and the limsup,
                         looked for in _WITNESS_WINDOW first
      limit_u(y, n)      limit of u(0, t) in dimension n at y = log sqrt(4t), y an array too
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

    def _powers(self) -> tuple[tuple[complex, complex], ...] | None:
        return None

    def witnesses(self):
        raise UnsupportedExpression(f"no witnesses for {type(self).__name__}")

    def limit_u(self, y, n: int):
        # Re sum beta' e^(i Im(a) y) over the terms (beta', a) of _limit_powers
        if (pairs := self._powers()) is None:
            raise UnsupportedExpression(f"no limit rule for {type(self).__name__}")
        return sum(beta.real * np.cos(a.imag * y) - beta.imag * np.sin(a.imag * y)
                   for beta, a in _limit_powers(pairs, n, KernelFlavor.DATA))


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
        return self.c + 0.0 * y  # an array for an array y


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

    def _powers(self):
        # sin(m L) = Re(-i (1 + tau)^(im)) and tau / (tau + 1) = 1 - (1 + tau)^-1
        q, a = self.m / self._n, complex(0.0, self.m)
        return ((self.amplitude * complex(q, -1.0), a), (-self.amplitude * q, a - 1.0),
                (self.offset, 0j))

    def witnesses(self):
        # asymptotic extremal phase of sin th + q cos th
        th = math.atan2(1.0, self.m / self._n)
        return _phase_taus(self.m, th + math.pi), _phase_taus(self.m, th)


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
        if np.any(y <= 0.0):
            raise DomainError("the doubly-log envelope needs log sqrt(4t) > 0, i.e. "
                              f"t > 0.25; got log sqrt(4t) = {np.min(y)}")
        return self.amplitude * np.sin(np.log(y)) + self.offset


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
        return 0.0 * y


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
        return self.baseline + 0.0 * y


class _ProfileOfLog(InitialDataExpr):
    """Shared rules of the leaves phi = g(x) + (tau / (tau + 1)) g'(x) / _n
    on a 2 pi periodic profile g of x = log(tau + 1): _n is the dimension n
    of SlowFromPeriodic and inf for PeriodicOfLog, and _slope = 1 / _n.  The
    asymptotic profile g + g'/_n gives the band and the witnesses: a trig g
    reads it from _powers, which weigh g' by _slope as the series do (d (1/n)
    may round apart from phi's d / n), a trapezoid g divides by _n."""

    _n = math.inf

    def __post_init__(self):
        if not isinstance(self.g, (TrapezoidWave, TrigPolynomial)):
            raise DomainError("g must be a TrapezoidWave or TrigPolynomial, "
                              f"got {type(self.g).__name__}")

    @property
    def _slope(self):
        return 1.0 / self._n

    def _profile_extrema(self):
        """((min, max), (argmin, argmax)) of the asymptotic profile over one period."""
        if (powers := self._powers()) is not None:
            return _trig_profile(powers).extrema_with_args()
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

    def _powers(self):
        # g = const + Re sum_j (c_j - i s_j) e^(ijL), g' = Re sum_j j (s_j + i c_j) e^(ijL)
        g = self.g
        if not isinstance(g, TrigPolynomial):
            return None
        pairs = [(g.const, 0j)]
        for j, (c, s) in enumerate(itertools.zip_longest(
                g.cos_coeffs, g.sin_coeffs, fillvalue=0.0), start=1):
            lean = self._slope * j * complex(s, c)  # tau / (tau + 1) = 1 - (1 + tau)^-1
            pairs += [(complex(c, -s) + lean, complex(0.0, j)), (-lean, complex(-1.0, j))]
        return tuple(pairs)

    def _piece_bound(self):
        # a trapezoid g is linear in L between corners; over the ellipse of a Gauss
        # panel inside |Im s| <= a < pi/2, |Im L| <= a and Re L overshoots the panel's piece
        # by at most a - log cos a, so its formula stays below sup|phi| + max|g'| (2a - log cos a)
        g = self.g
        if not isinstance(g, TrapezoidWave):
            return None
        return self.sup_abs(), self._steepest(), tuple(sorted(set(g.breakpoints[:-1])))

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
# Leaf kinds


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
    corner phases, sorted, in phases.  analytic_phi and kinked_phi evaluate
    either group as one sum (_phi_on; None if empty), and powers as the
    (beta, a) pairs of their _powers summed per a, or None when one declares
    none or every beta cancels.  slows = analytic + kinked are the slow
    leaves, slow_m their lowest log frequency (the least nonzero Im a of a
    declared beta != 0, and 1 for a trapezoid profile) or None, and loglog
    says whether one of them is a doubly-log sine.
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
    analytic_phi: partial | None = field(compare=False)
    kinked_phi: partial | None = field(compare=False)
    powers: tuple[tuple[complex, complex], ...] | None
    slows: tuple[tuple[float, InitialDataExpr], ...]
    slow_m: float | None
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
        slows = tuple(analytic + kinked)
        declared, powers = [(sign, leaf._powers()) for sign, leaf in analytic], {}
        for sign, pairs in declared:
            for beta, a in pairs or ():
                powers[a] = powers.get(a, 0.0) + sign * beta
        if any(pairs is None for _sign, pairs in declared):
            powers = {}
        freqs = [a.imag for _sign, pairs in declared for beta, a in pairs or () if beta and a.imag]
        return cls(signed, constant, tuple(analytic), mass, omega, tuple(waves), tuple(bumps),
                   tuple(kinked), kink_sup, kink_steep, tuple(sorted(phases)),
                   partial(_phi_on, _signed_sum(analytic)) if analytic else None,
                   partial(_phi_on, _signed_sum(kinked)) if kinked else None,
                   tuple((beta, a) for a, beta in powers.items() if beta) or None, slows,
                   min(freqs + ([1.0] if kinked else []), default=None),
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


# ---------------------------------------------------------------------------
# The two integrals: ball average and u(0, t)
# The routers _ball_average and _weighted_value route each signed leaf, by its
# kind (_split_leaves), to a rule of quadrature, and decide the points each
# rule serves; each adds its leaves in leaf order, waves before bumps.

# Least radius, four periods, of the integration-by-parts ball average of a
# wave; nearer 2 pi the Gauss rule on its pieces has the tighter bound.
_WAVE_SERIES_FROM = 4.0 * TWO_PI


def numeric_H(expr: InitialDataExpr, n: int, tau):
    """Ball average H(tau) = (n/tau^n) int_0^tau phi r^(n-1) dr, H(0) = phi(0).

    tau is a radius (giving a float) or an array of radii (giving an array
    of its shape); a bad radius anywhere raises DomainError.  Each signed
    leaf of expr takes its route (_ball_average): log modes and trig
    profiles their residue series from about tau = 2 (m + n + 1) on; below it
    profiles of log tau a fixed
    Gauss-Legendre sum on s = log(r / tau) whose a-priori bound keeps the
    error below the one H target quadrature._H_TOL = 1e-8 at every tau
    (analytic and trapezoid profiles share it, half each); a wave from four
    periods on its integration-by-parts sum, and bump trains and nearer
    waves a Gauss rule on each linear piece.  A rule past the node budget
    raises ConvergenceError, a non-finite data value EvaluationError.
    """
    taus, shape = _points(tau, _check_radius)
    values = _ball_average(expr, n, taus)[0]
    return float(values[0]) if shape is None else values.reshape(shape)


def _check_radius(tau) -> None:
    check_finite(tau=tau)
    if not tau >= 0:
        raise DomainError(f"tau must be finite and nonnegative, got {tau!r}")


def _ball_average(expr, n, taus) -> tuple[np.ndarray, np.ndarray]:
    """(H, error bound) at each radius of the 1-D array taus, which
    numeric_H has checked.  The bound adds the bounds of its routes, and the
    analytic rule's counts the rounding of phi at its nodes (_phi_rounding).
    """
    check_dimension(n)
    taus = np.asarray(taus, dtype=float).reshape(-1)
    values, bounds, live = np.zeros(taus.size), np.zeros(taus.size), taus > 0.0
    if not live.all():
        values[~live] = eval_phi(expr, 0.0)
    if not live.any():
        return values, bounds
    taus = taus[live]

    leaves = _split_leaves(expr)
    value, bound = np.full(taus.size, leaves.constant), np.zeros(taus.size)
    # analytic and kinked leaves together share _H_TOL, half each
    share = 0.5 * _H_TOL if leaves.analytic and leaves.kinked else _H_TOL
    if leaves.analytic:
        def rule(radii):
            scale, weights, rule_err = _log_gauss_rule(n, leaves.mass, leaves.omega, share)
            rounding = _phi_rounding(1.0, leaves.mass, leaves.omega, radii)
            return _fixed_sums(leaves.analytic_phi, radii, scale, weights), rule_err + rounding

        part, part_bound = _analytic_part(leaves, n, _radial_terms, taus, rule)
        value += part
        bound += part_bound
    if leaves.kinked:
        part, part_bound = _split_gauss_radial(
            leaves.kinked_phi, leaves.kink_sup, leaves.kink_steep, leaves.phases, n, taus, share)
        value += part
        bound += part_bound
    far = taus >= _WAVE_SERIES_FROM
    for sign, leaf in leaves.waves:
        part, part_bound = np.empty((2, taus.size))
        part[far], part_bound[far] = _wave_radial_series(leaf.wave, n, taus[far])
        if not far.all():
            pieces, sup, _steep = _linear_pieces(leaf, taus[~far].max())
            part[~far], part_bound[~far] = _pieces_radial(pieces, sup, n, taus[~far])
        value += sign * n * part
        bound += n * part_bound
    for sign, leaf in leaves.bumps:
        pieces, sup, _steep = _linear_pieces(leaf, taus.max())
        part, part_bound = _pieces_radial(pieces, sup, n, taus)
        value += sign * n * part
        bound += n * part_bound
    values[live], bounds[live] = value, bound
    return values, bounds


def _analytic_part(leaves: _Leaves, p: int, terms, points: np.ndarray, rule):
    """(values, error bounds) of the analytic leaves at each point of the 1-D
    array points: their residue series (_power_series with p and terms) from
    its reach on, which rests on p and each |a| only, else rule(points)."""
    series = leaves.powers and _power_series(leaves.powers, p, terms)
    far = points >= (series[0] if series else math.inf)
    if series and far.all():
        return _power_sums(series, points)
    values, bounds = np.empty((2, points.size))
    if far.any():
        values[far], bounds[far] = _power_sums(series, points[far])
    values[~far], bounds[~far] = rule(points[~far])
    return values, bounds


def _weighted_value(expr, k: int, roots) -> tuple[np.ndarray, np.ndarray]:
    """(values, error bounds) of int_0^inf z^k e^{-z^2} expr(root z) dz at
    each root > 0 of the 1-D array roots, expr routed per signed leaf, split
    once for all roots; the bound adds the bounds of its routes, and the
    analytic rule's counts the rounding of phi at its nodes (_phi_rounding).
    """
    roots = np.asarray(roots, dtype=float).reshape(-1)
    # the constants and bump baselines c: c M_k, M_k within (k + 2) eps
    leaves, mass_k = _split_leaves(expr), gaussian_power_tail(k, 0.0)
    value = np.full(roots.size, leaves.constant * mass_k)
    bound = (k + 4) * _EPS * np.abs(value)
    if leaves.analytic:
        def rule(below):
            scale, weights, h, rule_err = _log_trapezoid_rule(k, leaves.mass, leaves.omega)
            rounding = _phi_rounding(mass_k, leaves.mass, leaves.omega, _Z_MAX * below)
            return h * _fixed_sums(leaves.analytic_phi, below, scale, weights), rule_err + rounding

        part, part_bound = _analytic_part(leaves, k + 1, _weighted_terms, roots, rule)
        value += part
        bound += part_bound
    if leaves.kinked:
        part, part_bound = _split_gauss_weighted(
            leaves.kinked_phi, leaves.kink_sup, leaves.kink_steep, leaves.phases, k, roots)
        value += part
        bound += part_bound
    for sign, leaf in leaves.waves:
        part, part_bound, series = _wave_weighted_series(leaf.wave, k, roots)
        near = roots[~series]
        if near.size:
            pieces = _linear_pieces(leaf, _Z_MAX * near.max())
            part[~series], part_bound[~series] = _pieces_weighted(*pieces, k, near)
        # where the series' rounding, which grows with the slope jumps, takes
        # its bound past _ABS_TOL, the pieces serve if they fit the budget
        for i in np.flatnonzero(series & (part_bound > _ABS_TOL)).tolist():
            with suppress(ConvergenceError):  # beyond the budget the series stays
                pieces = _linear_pieces(leaf, _Z_MAX * roots[i])
                part[i:i + 1], part_bound[i:i + 1] = _pieces_weighted(*pieces, k, roots[i:i + 1])
        value += sign * part
        bound += part_bound
    for sign, leaf in leaves.bumps:
        pieces = _linear_pieces(leaf, _Z_MAX * roots.max(initial=0.0))
        part, part_bound = _pieces_weighted(*pieces, k, roots)
        value += sign * part
        bound += part_bound
    return value, bound


# ---------------------------------------------------------------------------
# Analytic bands


def analytic_band_phi(expr: InitialDataExpr) -> tuple[float, float]:
    """Exact (liminf, limsup) of phi as tau -> infinity.

    The slow content is either a single leaf or several log modes and trig
    profiles of integer frequencies (whose joint asymptotic profile is the
    trig polynomial of their powers); constants, 2 pi periodic waves and
    sparse bump trains add their own extremes on top because their phases
    decouple from the slow phase.  The parts are added in a fixed order:
    constants and bump baselines, the slow part, the waves, the bump heights.
    """
    split = _split_leaves(expr)
    level, slows = split.constant, split.slows
    wave_lo = wave_hi = bump_lo = bump_hi = 0.0
    for sign, leaf in split.waves:
        lo, hi = _signed_band(sign, leaf)
        wave_lo += lo
        wave_hi += hi
    for sign, leaf in split.bumps:
        bump_lo += min(sign * leaf.height, 0.0)
        bump_hi += max(sign * leaf.height, 0.0)
    if len(slows) > 1:
        s_lo, s_hi = _joint_profile(split).extrema()
    elif slows:
        s_lo, s_hi = _signed_band(*slows[0])
    else:
        s_lo = s_hi = 0.0
    return (level + s_lo + wave_lo + bump_lo, level + s_hi + wave_hi + bump_hi)


def _joint_profile(split: _Leaves) -> TrigPolynomial:
    """The asymptotic profile of several slow leaves from their summed powers
    (None also when every beta cancels), which these leaves must declare."""
    if split.loglog or split.kinked:
        raise UnsupportedExpression("a doubly-log sine or a trapezoid profile has "
                                    "no joint band with other slow terms")
    return _trig_profile(split.powers or ())


def _trig_profile(pairs) -> TrigPolynomial:
    """The trig polynomial in x = log(tau + 1) of the Re a = 0 terms of the
    powers, one harmonic per integer Im a: their asymptotic profile, as terms
    with Re a < 0 vanish.  A non-integer Im a raises UnsupportedExpression, and
    a top nonzero harmonic above the threshold is refused before a tuple is laid."""
    const, harmonics = 0.0, {}
    for beta, a in pairs:
        if a.real:
            continue
        j = round(a.imag)
        if abs(a.imag - j) > 1e-12 * max(1.0, abs(a.imag)):
            raise UnsupportedExpression(
                "band of a multi-mode sum needs every slow term to be a log sine "
                "with integer frequency; mixed or incommensurate slow terms have "
                "no product-form band")
        if j:  # Re beta e^(ijx) = Re beta cos(jx) - Im beta sin(jx)
            harmonics[j] = harmonics.get(j, 0.0) + beta
        else:
            const += beta.real
    top = range(1, _check_harmonic(max((j for j, b in harmonics.items() if b), default=0)) + 1)
    return TrigPolynomial(const, tuple(harmonics.get(j, 0j).real for j in top),
                          tuple(-harmonics.get(j, 0j).imag for j in top))


def _limit_powers(pairs, n: int, flavor: KernelFlavor) -> tuple[tuple[complex, complex], ...]:
    """(beta M(a), a) for each power (beta, a) with Re a = 0: Re sum beta (1 + tau)^a
    against the kernel of flavor in dimension n tends to Re sum beta M(a) (4t)^(a/2),
    M(a) = Gamma(s + a/2) / Gamma(s) = a + ib of kernel_moments at Im a, 1 at a = 0."""
    def moment(a):
        mom = kernel_moments(n, a.imag, flavor)
        return complex(mom.a_value, mom.b_value)
    return tuple((beta * moment(a) if a else beta, a) for beta, a in pairs if not a.real)


def _check_harmonic(top: int) -> int:
    """top, a highest nonzero harmonic, refused above MAX_OSCILLATION_FREQUENCY."""
    if top > MAX_OSCILLATION_FREQUENCY:
        raise ConvergenceError(
            f"harmonic {top} exceeds the refusal threshold {MAX_OSCILLATION_FREQUENCY}; "
            f"its critical points need a {2 * top} x {2 * top} eigenvalue problem")
    return top


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
    where it holds any: exact phase solutions for the slow terms (of their
    joint trig profile if several), plateau centers for periodic waves
    (aligned inside the slow term's long extremal stretches when both occur),
    bump centers and gap midpoints for trains.  Values are clipped to
    representable range.
    """
    split = _split_leaves(expr)
    if len(split.signed) == 1:
        lo_w, hi_w = _signed_witnesses(*split.signed[0])
    else:
        # a sum: the witnesses of its slow content, each shifted onto the
        # extremal plateau of every wave, plus the centers of every bump train
        slows = split.slows
        if len(slows) > 1:
            (_l, _h), (a_lo, a_hi) = _joint_profile(split).extrema_with_args()
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
    return _dumps(to_json(expr))


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
