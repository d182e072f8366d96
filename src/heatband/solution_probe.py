"""Numeric probes of the heat solution induced by radial initial data.

u_origin evaluates u(0, t) through the weighted semi-infinite integral of
phi(sqrt(4t) z); u_origin_from_H does the same through the ball average.
band_estimate sweeps log-spaced time grids to estimate oscillation bands,
verify_certificate runs all three measurements against a certificate's
analytic bands, and u_offcenter_1d probes u(x, t) away from the origin in
dimension one.

The weighted integral is routed per part of the data.  Constants are exact
(c times a Gaussian moment).  Parts analytic in log tau (log sines, their
average preimages, the doubly-log sine, trig-polynomial profiles of
log(tau + 1)) share one trapezoid sum on the x = log z axis, whose error
decays exponentially in 1/h and is bounded through the width of the strip
where the integrand stays analytic.  Trapezoid profiles of log(tau + 1),
analytic only between their corners, take a composite Gauss-Legendre rule
on the same axis with its panels split at the corners.  Fast piecewise
content (2 pi periodic waves, triangular bump trains) would alias under
fixed panels once sqrt(4t) is large: waves integrate segment-exactly
against Gaussian power moments, with a zero-plus-integration-by-parts bound
beyond a segment budget, and bumps by a Gauss-Legendre rule local to each
bump.  Only plain callables go through adaptive quadrature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    PartialBandError,
    RangeError,
    UnsupportedExpression,
)
from .initial_data import (
    BumpTrain,
    InitialDataExpr,
    LogLogSine,
    PeriodicZeroMean,
    _EPS,
    _STRIP,
    _bump_pieces,
    _kink_bound,
    _log_gauss_panels,
    _signed_leaves,
    _signed_sum,
    _split_gauss,
    _split_leaves,
    band_witnesses,
    eval_phi,
    numeric_H,
)
from .kernel_moments import KernelFlavor
from .prescriber import (
    PrescriptionCertificate,
    cert_to_json,
    envelope_u,
)
from .quadrature import (
    QuadratureSpec,
    _gaussian_moments,
    gaussian_power_tail,
    integrate_weighted,
)

__all__ = [
    "OscillationBand",
    "VerificationReport",
    "u_origin",
    "u_origin_from_H",
    "band_estimate",
    "verify_certificate",
    "u_offcenter_1d",
    "report_to_json",
    "report_dumps",
    "REPORT_SCHEMA_ID",
]

REPORT_SCHEMA_ID = "report/1"

TWO_PI = 2.0 * math.pi

# log sqrt(4t) beyond which t itself stops being a double (exp(700) ~ 1e304)
_X_CAP = 350.0

# total linear segments a single exact wave integral may enumerate; beyond
# this the integration-by-parts zero-with-bound branch takes over
_WAVE_SEGMENT_BUDGET = 2_000_000

# widest z-panel of the Gauss-Legendre rule on the bump pieces
_BUMP_PANEL = 0.125


@dataclass(frozen=True)
class OscillationBand:
    """Min/max of an evaluator over a log-spaced probe window.

    periods_covered < 3 marks a partial estimate (carried by
    PartialBandError, never returned as an accepted band); bands built from
    analytic extremizer witnesses count as fully covered and record the
    nominal 3.0.
    """

    lower_est: float
    upper_est: float
    grid_lo: float
    grid_hi: float
    points_per_period: int
    periods_covered: float

    def __post_init__(self):
        if not (math.isfinite(self.lower_est) and math.isfinite(self.upper_est)
                and self.lower_est <= self.upper_est):
            raise DomainError(
                f"band estimates must be ordered finite reals, got "
                f"({self.lower_est}, {self.upper_est})")
        if not (0 < self.grid_lo <= self.grid_hi):
            raise DomainError(
                f"grid range must be ordered and positive, got "
                f"({self.grid_lo}, {self.grid_hi})")
        if self.points_per_period < 1:
            raise DomainError("points_per_period must be at least 1")
        if not (math.isfinite(self.periods_covered) and self.periods_covered >= 0):
            raise DomainError("periods_covered must be a nonnegative real")


@dataclass(frozen=True)
class VerificationReport:
    """Measured bands for one certificate, with the pass/fail verdict.

    chain_ok requires every measured band to match its pinned analytic band
    within tol_band (containment instead of endpoint match when the u window
    is partial) and the measured values to satisfy the ordering chain
    phi_lo <= H_lo <= u_lo <= u_hi <= H_hi <= phi_hi up to tol_band.
    """

    cert: PrescriptionCertificate
    measured_u_band: OscillationBand
    measured_H_band: OscillationBand
    measured_phi_band: OscillationBand
    max_abs_u: float
    chain_ok: bool
    tol_band: float
    u_partial: bool
    envelope_gaps: tuple[tuple[float, float], ...] | None
    notes: tuple[str, ...]
    quad_rel_tol: float
    quad_abs_tol: float


# ---------------------------------------------------------------------------
# Exact Gaussian segment moments


def _primitive_abs_max(trap) -> float:
    """max over one period of |int_0^theta wave|, for the drop bound."""
    acc = 0.0
    peak = 0.0
    for (t0, t1, a, b) in trap.segments():
        crits = [t1]
        if b != 0.0:
            vertex = -a / b
            if t0 < vertex < t1:
                crits.append(vertex)
        for th in crits:
            cand = acc + a * (th - t0) + 0.5 * b * (th * th - t0 * t0)
            peak = max(peak, abs(cand))
        acc += a * (t1 - t0) + 0.5 * b * (t1 * t1 - t0 * t0)
    return peak


def _wave_weighted_integral(expr: PeriodicZeroMean, k: int, root: float,
                            z_cut: float) -> tuple[float, float]:
    """(value, error bound) for int_0^inf z^k e^{-z^2} wave(root z) dz.

    Enumerates the wave's linear segments exactly up to z_cut; when the
    segment count would blow the budget, returns 0 with the
    integration-by-parts bound max|W| / root * (2 M_{k+1} + k M_{k-1}),
    W the wave's running integral and M_j the full Gaussian moments.
    """
    trap = expr.wave
    segs = trap.segments()
    tau_max = z_cut * root
    n_periods = int(math.floor(tau_max / TWO_PI)) + 1
    wave_sup = max(abs(expr.v_min), abs(expr.v_max))
    tail = wave_sup * gaussian_power_tail(k, z_cut)

    if n_periods * len(segs) > _WAVE_SEGMENT_BUDGET:
        w_max = _primitive_abs_max(trap)
        bound = 2.0 * gaussian_power_tail(k + 1, 0.0)
        if k > 0:
            bound += k * gaussian_power_tail(k - 1, 0.0)
        return 0.0, (w_max / root) * bound + tail

    starts = TWO_PI * np.arange(n_periods, dtype=float)
    total = 0.0
    for (t0, t1, a, b) in segs:
        lo_tau = starts + t0
        hi_tau = np.minimum(starts + t1, tau_max)
        keep = lo_tau < hi_tau
        if not np.any(keep):
            continue
        # value = a + b (tau - start) = (a - b start) + (b root) z
        c0 = a - b * starts[keep]
        moments = _gaussian_moments(k + 1, lo_tau[keep] / root, hi_tau[keep] / root)
        total += float(np.sum(c0 * moments[k] + b * root * moments[k + 1]))
    return total, tail


def _bump_weighted_integral(expr: BumpTrain, k: int, root: float,
                            z_cut: float) -> tuple[float, float]:
    """(value, error bound) for the weighted integral of a bump train.

    The (constant) baseline integrates in closed form over all of (0, inf),
    the bumps inside the window by _bump_pieces on panels at most
    _BUMP_PANEL wide; bumps beyond it are covered by the Gaussian tail bound.
    """
    value = expr.baseline * gaussian_power_tail(k, 0.0)
    err = (abs(expr.baseline) + abs(expr.height)) * gaussian_power_tail(k, z_cut)
    panels = max(1, math.ceil(min(expr.half_width / root, z_cut) / _BUMP_PANEL))
    return value + _bump_pieces(expr, root, z_cut, lambda z: z ** k * np.exp(-z * z),
                                panels), err


# ---------------------------------------------------------------------------
# Solution values


def _check_time(t):
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0):
        raise DomainError(f"t must be a positive finite real, got {t!r}")
    if 4.0 * t > 1e308:
        raise RangeError(
            f"t = {t} puts sqrt(4t) outside double precision; use the "
            "analytic band API for asymptotic statements")


def _log_trapezoid_weighted(expr, k: int, root: float, mass: float, omega: float,
                            spec: QuadratureSpec) -> tuple[float, float]:
    """(value, error bound) for int_0^inf z^k e^{-z^2} expr(root z) dz.

    expr is a sum of leaves with a strip_bound, whose masses sum
    to mass and whose frequencies are at most omega.  On the x = log z axis
    the integrand
    f(x) = exp((k+1) x - e^{2x}) expr(root e^x) is analytic in the strip
    |Im x| < a = _STRIP, and there the integral of |f(x + iy)| over x is at
    most M = mass e^{omega a} M_k cos(2a)^(-(k+1)/2), with
    M_k = int_0^inf z^k e^{-z^2} dz.
    The trapezoid rule with step h on the whole line then errs by at most
    2 M / (e^{2 pi a / h} - 1) (Trefethen & Weideman, SIAM Rev. 56, 2014,
    Theorem 5.1); any h <= 2 pi a / log(2 + 4 M / abs_tol) keeps that below
    abs_tol / 2.  Keeping only the nodes on [-40/(k+1), log z_max] adds at
    most mass (e^{-40} / (k+1) + G_k(z_max)), G_k the Gaussian power tail.
    The bound returned is the sum of the two.  More than max_panels nodes
    raise ConvergenceError.
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
    vals = eval_phi(expr, root * np.exp(x))
    if not np.all(np.isfinite(vals)):
        bad = float(root * np.exp(x[~np.isfinite(vals)][0]))
        raise EvaluationError(
            f"initial data returned a non-finite value at tau = {bad!r}", point=bad)
    value = h * float(np.dot(np.exp((k + 1) * x - np.exp(2.0 * x)), vals))
    tails = mass * (math.exp(-40.0) / (k + 1) + gaussian_power_tail(k, spec.z_max))
    return value, 0.5 * spec.abs_tol + tails


def _kinked_weighted(pairs, k: int, root: float,
                     spec: QuadratureSpec) -> tuple[float, float]:
    """(value, error bound) for int_0^inf z^k e^{-z^2} expr(root z) dz, expr
    the signed sum of the kinked leaves in pairs (trapezoid profiles).

    On s = log(z / z_max) the kernel z^(k+1) e^{-z^2} is at most
    z_max^(k+1) e^{(k+1) Re s} for |Im s| <= _STRIP, so the layout of
    _log_gauss_panels for n = k + 1 and mass z_max^(k+1) mass / (k + 1),
    split at the corners, errs by at most abs_tol / 2.  The bound adds the
    cut at z_max, mass G_k(z_max), the rounding of the terms (summed exactly
    by math.fsum) and 2 mass |w_i| per node near a corner.
    """
    mass, phases = _kink_bound(pairs)
    depth, panels, bound = _log_gauss_panels(
        k + 1, mass * spec.z_max ** (k + 1) / (k + 1), 0.0, 0.5 * spec.abs_tol)
    s, w, near = _split_gauss(-depth, depth / panels, panels, root * spec.z_max, phases)
    z = spec.z_max * np.exp(s)
    weights = w * z ** (k + 1) * np.exp(-z * z)
    terms = weights * eval_phi(_signed_sum(pairs), root * z)
    rounding = 4.0 * _EPS * float(np.dot(np.abs(terms), 2.0 + k + z * z))
    return math.fsum(terms), (bound + mass * gaussian_power_tail(k, spec.z_max) + rounding
                              + 2.0 * mass * float(np.sum(weights[near])))


def _weighted_value(expr, k: int, root: float, spec: QuadratureSpec) -> float:
    """int_0^inf z^k e^{-z^2} expr(root z) dz with per-variant routing.

    Constants are exact (c M_k); leaves analytic in log tau share one
    log-axis trapezoid sum; trapezoid profiles take the split Gauss rule;
    waves and bump trains take their exact routes; only plain callables go
    through adaptive quadrature.
    """
    if not isinstance(expr, InitialDataExpr):
        if not callable(expr):
            raise DomainError(
                f"expr must be an InitialDataExpr or a callable, got {type(expr).__name__}")
        return integrate_weighted(lambda z: expr(root * z), k, spec).value

    leaves = _split_leaves(expr)
    total = leaves.constant * gaussian_power_tail(k, 0.0)
    if leaves.analytic:
        total += _log_trapezoid_weighted(
            _signed_sum(leaves.analytic), k, root, leaves.mass, leaves.omega, spec)[0]
    if leaves.kinked:
        total += _kinked_weighted(leaves.kinked, k, root, spec)[0]
    for sign, term in leaves.fast:
        if isinstance(term, PeriodicZeroMean):
            val, _ = _wave_weighted_integral(term, k, root, spec.z_max)
        else:
            val, _ = _bump_weighted_integral(term, k, root, spec.z_max)
        total += sign * val
    return total


def u_origin(expr, n: int, t: float, spec: QuadratureSpec | None = None) -> float:
    """u(0, t) = (n omega_n / pi^{n/2}) int_0^inf e^{-z^2} z^{n-1} phi(sqrt(4t) z) dz.

    expr may be an InitialDataExpr or a plain vectorized callable of tau.
    Piecewise-fast terms (waves, bump trains) integrate segment-exactly; at
    extreme t the wave term is dropped with a rigorous O(1/sqrt(t)) bound.
    """
    return _u_at_origin(expr, n, t, spec, KernelFlavor.DATA)


def u_origin_from_H(h_expr, n: int, t: float,
                    spec: QuadratureSpec | None = None) -> float:
    """u(0, t) = (2 omega_n / pi^{n/2}) int_0^inf e^{-z^2} z^{n+1} H(sqrt(4t) z) dz.

    The dual route to u_origin: it consumes the ball average instead of the
    data and must agree with u_origin(phi_from_H(H, n), n, t) within the
    combined quadrature tolerances.
    """
    return _u_at_origin(h_expr, n, t, spec, KernelFlavor.AVERAGE)


def _u_at_origin(expr, n, t, spec, flavor: KernelFlavor) -> float:
    coeff = flavor.coefficient(n)  # checks n
    _check_time(t)
    if spec is None:
        spec = QuadratureSpec()
    return coeff * _weighted_value(expr, flavor.power(n), math.sqrt(4.0 * t), spec)


def u_offcenter_1d(expr, x: float, t: float,
                   spec: QuadratureSpec | None = None) -> float:
    """u(x, t) in dimension one: convolution of phi(|.|) with the heat kernel.

    Splits the two-sided integral into the two half-lines,
    u(x, t) = pi^{-1/2} int_0^inf e^{-z^2} [phi(|x + s z|) + phi(|x - s z|)] dz
    with s = sqrt(4t).  Intended for slow (log-scale) data; fast periodic
    content would need the segment-exact route that u_origin applies.
    """
    if spec is None:
        spec = QuadratureSpec()
    _check_time(t)
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise DomainError(f"x must be a finite real, got {x!r}")
    root = math.sqrt(4.0 * t)
    if abs(x) + root * spec.z_max > 1e308:
        raise RangeError(
            f"|x| + sqrt(4t) z_max overflows double precision at x = {x}, t = {t}")

    if isinstance(expr, InitialDataExpr):
        def f(tau):
            return eval_phi(expr, tau)
    elif callable(expr):
        f = expr
    else:
        raise DomainError(
            f"expr must be an InitialDataExpr or a callable, got {type(expr).__name__}")

    plus = integrate_weighted(lambda z: f(np.abs(x + root * z)), 0, spec)
    minus = integrate_weighted(lambda z: f(np.abs(x - root * z)), 0, spec)
    return (plus.value + minus.value) / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Band estimation


def _golden_extremum(f, a: float, b: float, find_max: bool,
                     iters: int = 48) -> float:
    """Extremal value of f on [a, b] by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    sign = -1.0 if find_max else 1.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = sign * f(c)
    fd = sign * f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = sign * f(d)
    best = min(fc, fd)
    return sign * best


def band_estimate(evaluator, m_hint, t_anchor: float = 1e6, *,
                  points_per_period: int = 64,
                  min_periods: float = 3.0) -> OscillationBand:
    """Oscillation band of evaluator(t) over a log-time window.

    For a numeric m_hint the grid is uniform in x = log sqrt(4t) with
    points_per_period samples per period 2 pi / m_hint, spanning min_periods
    periods from t_anchor, followed by golden-section refinement around the
    grid extrema.  m_hint = "log-log" sweeps y = log log sqrt(4t) instead;
    double precision runs out long before 3 such periods, so that mode
    always raises PartialBandError carrying the covered sub-band.
    """
    if not callable(evaluator):
        raise DomainError("evaluator must be callable")
    if points_per_period < 64:
        raise DomainError(
            f"points_per_period must be at least 64, got {points_per_period}")
    if min_periods < 3.0:
        raise DomainError(f"min_periods must be at least 3, got {min_periods}")
    _check_time(t_anchor)
    x0 = 0.5 * math.log(4.0 * t_anchor)

    if isinstance(m_hint, str):
        if m_hint != "log-log":
            raise DomainError(f"m_hint must be a frequency or 'log-log', got {m_hint!r}")
        if x0 <= 1.0:
            raise DomainError(
                f"t_anchor = {t_anchor} is too small for a log-log sweep; "
                "need log sqrt(4t) > 1")
        y0 = math.log(x0)
        y1 = min(y0 + min_periods * TWO_PI, math.log(_X_CAP))
        covered = (y1 - y0) / TWO_PI
        npts = max(int(math.ceil(points_per_period * covered)) + 1, 9)
        xs = np.exp(np.linspace(y0, y1, npts))
    else:
        m = float(m_hint)
        if not (math.isfinite(m) and m > 0):
            raise DomainError(f"m_hint must be positive, got {m_hint!r}")
        if x0 <= 0.0:
            raise DomainError(
                f"t_anchor = {t_anchor} is too small; need log sqrt(4t) > 0")
        period = TWO_PI / m
        x1 = min(x0 + min_periods * period, _X_CAP)
        covered = (x1 - x0) / period
        npts = max(int(math.ceil(points_per_period * covered)) + 1, 9)
        xs = np.linspace(x0, x1, npts)

    def at_x(x):
        return float(evaluator(math.exp(2.0 * x) / 4.0))

    vals = np.array([at_x(x) for x in xs])
    if not np.all(np.isfinite(vals)):
        bad = float(xs[~np.isfinite(vals)][0])
        raise EvaluationError(
            f"evaluator returned a non-finite value at t = {math.exp(2 * bad) / 4.0}",
            point=bad)

    i_lo = int(np.argmin(vals))
    i_hi = int(np.argmax(vals))
    lower = float(vals[i_lo])
    upper = float(vals[i_hi])
    for idx, find_max in ((i_lo, False), (i_hi, True)):
        a = float(xs[max(idx - 1, 0)])
        b = float(xs[min(idx + 1, len(xs) - 1)])
        if a < b:
            refined = _golden_extremum(at_x, a, b, find_max)
            if find_max:
                upper = max(upper, refined)
            else:
                lower = min(lower, refined)

    band = OscillationBand(
        lower_est=lower, upper_est=upper,
        grid_lo=float(math.exp(2.0 * xs[0]) / 4.0),
        grid_hi=float(math.exp(2.0 * xs[-1]) / 4.0),
        points_per_period=points_per_period,
        periods_covered=covered,
    )
    if covered < min_periods - 1e-12:
        raise PartialBandError(
            f"probe window exhausted double precision after {covered:.3f} of "
            f"{min_periods:g} required periods; partial band attached", band)
    return band


# ---------------------------------------------------------------------------
# Certificate verification


def _slow_content(expr) -> tuple[float | None, bool]:
    """(lowest log frequency of the slow leaves or None, whether a
    doubly-log sine is present): what the sweeps of verify need."""
    freqs, loglog = [], False
    for _sign, leaf in _signed_leaves(expr):
        if (freq := leaf.slow_frequency()) is not None:
            freqs.append(freq)
        loglog = loglog or isinstance(leaf, LogLogSine)
    return (min(freqs) if freqs else None), loglog


def _slow_taus(m: float) -> np.ndarray:
    """tau grid of 3 periods of frequency m on the log(tau + 1) axis from
    tau ~ 1e4, 64 points a period."""
    x = np.linspace(math.log(1e4), math.log(1e4) + 3.0 * TWO_PI / m, int(64 * 3) + 1)
    return np.expm1(x)


def _witness_taus(expr) -> np.ndarray:
    lo_w, hi_w = band_witnesses(expr)
    return np.concatenate([lo_w, hi_w]) if lo_w.size + hi_w.size else np.array([1.0])


def _measure_phi_band(expr, slow_m: float | None, loglog: bool) -> OscillationBand:
    taus = [_witness_taus(expr), np.geomspace(1e2, 1e12, 513)]
    if slow_m is not None:
        taus.append(_slow_taus(slow_m))
    if loglog:
        ys = np.linspace(1.0, 5.2, 129)
        taus.append(np.exp(np.exp(ys)) - 2.0)
    tau = np.unique(np.concatenate(taus))
    tau = tau[(tau >= 0) & np.isfinite(tau)]
    vals = eval_phi(expr, tau)
    return OscillationBand(
        lower_est=float(np.min(vals)), upper_est=float(np.max(vals)),
        grid_lo=float(np.min(tau[tau > 0])), grid_hi=float(np.max(tau)),
        points_per_period=64, periods_covered=3.0)


def _measure_H_band(expr, n: int, slow_m: float | None, loglog: bool,
                    spec: QuadratureSpec) -> OscillationBand:
    if loglog:
        # both extremizers of the doubly-log phase fit below tau ~ 1e79
        ys = np.linspace(1.2, 5.2, 129)
        taus = np.exp(np.exp(ys)) - 2.0
        covered = 3.0  # extremizer-pinned window, see OscillationBand note
    elif slow_m is not None:
        taus = _slow_taus(slow_m)
        covered = 3.0
    else:
        taus = np.geomspace(1e4, 1e8, 129)
        covered = 3.0  # content averages to a constant; window nominal
    h_tol = min(1e-6, spec.abs_tol * 1e6)
    vals = np.array([numeric_H(expr, n, float(t), tol=h_tol) for t in taus])
    return OscillationBand(
        lower_est=float(np.min(vals)), upper_est=float(np.max(vals)),
        grid_lo=float(taus[0]), grid_hi=float(taus[-1]),
        points_per_period=64, periods_covered=covered)


def verify_certificate(cert: PrescriptionCertificate, n: int | None = None,
                       spec: QuadratureSpec | None = None,
                       tol_band: float = 0.02, *,
                       t_anchor: float = 1e6,
                       gap_times: tuple[float, ...] = (1e2, 1e4, 1e8, 1e16),
                       points_per_period: int = 64,
                       min_periods: float = 3.0,
                       ) -> VerificationReport:
    """Measure phi, H, and u bands for a certificate and compare.

    phi is sampled at its analytic extremizer witnesses plus dense log
    grids; H through numeric ball averages on a log-tau grid; u through
    band_estimate driven by u_origin.  Certificates with doubly-log content
    get a partial u band (the sweep cannot cover 3 periods in double
    precision) plus per-time envelope gaps as the convergence signal.
    """
    if spec is None:
        spec = QuadratureSpec()
    if n is None:
        n = cert.target.n
    if n != cert.target.n:
        raise DomainError(
            f"dimension mismatch: certificate was built for n = {cert.target.n}, "
            f"got n = {n}")
    if not (math.isfinite(tol_band) and tol_band > 0):
        raise DomainError(f"tol_band must be positive, got {tol_band!r}")

    slow_m, loglog = _slow_content(cert.data)
    notes: list[str] = []

    phi_band = _measure_phi_band(cert.data, slow_m, loglog)
    h_band = _measure_H_band(cert.data, n, slow_m, loglog, spec)

    def u_at(t):
        return u_origin(cert.data, n, t, spec)

    sweep_kwargs = dict(points_per_period=points_per_period,
                        min_periods=min_periods)
    u_partial = False
    if loglog:
        try:
            u_band = band_estimate(u_at, "log-log", t_anchor, **sweep_kwargs)
        except PartialBandError as err:
            u_band = err.band
            u_partial = True
            notes.append(
                f"u sweep covered {u_band.periods_covered:.3f} of "
                f"{min_periods:g} doubly-log periods before the "
                "double-precision cap; endpoint match relaxed to containment")
    else:
        if slow_m is not None:
            m_hint = slow_m
        else:
            m_hint = 1.0
            notes.append("envelope is constant; sweep frequency 1.0 is nominal")
        u_band = band_estimate(u_at, m_hint, t_anchor, **sweep_kwargs)

    max_abs_u = max(abs(u_band.lower_est), abs(u_band.upper_est))
    gaps = None
    try:
        pairs = []
        for t in gap_times:
            u_val = u_at(t)
            max_abs_u = max(max_abs_u, abs(u_val))
            pairs.append((float(t), abs(u_val - envelope_u(cert, t))))
        gaps = tuple(pairs)
    except (UnsupportedExpression, DomainError):
        notes.append("no envelope formula for this construction; gaps omitted")

    def endpoints_match(band: OscillationBand, expected) -> bool:
        return (abs(band.lower_est - expected[0]) <= tol_band
                and abs(band.upper_est - expected[1]) <= tol_band)

    def contained(band: OscillationBand, expected) -> bool:
        return (band.lower_est >= expected[0] - tol_band
                and band.upper_est <= expected[1] + tol_band)

    ok = endpoints_match(phi_band, cert.expected_phi_band)
    if cert.expected_H_band is not None:
        ok = ok and endpoints_match(h_band, cert.expected_H_band)
    if u_partial:
        ok = ok and contained(u_band, cert.expected_u_band)
    else:
        ok = ok and endpoints_match(u_band, cert.expected_u_band)
    chain = (phi_band.lower_est, h_band.lower_est, u_band.lower_est,
             u_band.upper_est, h_band.upper_est, phi_band.upper_est)
    ok = ok and all(left <= right + tol_band
                    for left, right in zip(chain, chain[1:]))

    return VerificationReport(
        cert=cert,
        measured_u_band=u_band,
        measured_H_band=h_band,
        measured_phi_band=phi_band,
        max_abs_u=max_abs_u,
        chain_ok=bool(ok),
        tol_band=tol_band,
        u_partial=u_partial,
        envelope_gaps=gaps,
        notes=tuple(notes),
        quad_rel_tol=spec.rel_tol,
        quad_abs_tol=spec.abs_tol,
    )


# ---------------------------------------------------------------------------
# Report serialization (schema report/1)


def _band_to_json(band: OscillationBand) -> dict:
    return {
        "lower_est": band.lower_est,
        "upper_est": band.upper_est,
        "grid_lo": band.grid_lo,
        "grid_hi": band.grid_hi,
        "points_per_period": band.points_per_period,
        "periods_covered": band.periods_covered,
    }


def report_to_json(report: VerificationReport) -> dict:
    return {
        "schema": REPORT_SCHEMA_ID,
        "cert": cert_to_json(report.cert),
        "measured_u_band": _band_to_json(report.measured_u_band),
        "measured_H_band": _band_to_json(report.measured_H_band),
        "measured_phi_band": _band_to_json(report.measured_phi_band),
        "max_abs_u": report.max_abs_u,
        "chain_ok": report.chain_ok,
        "tol_band": report.tol_band,
        "u_partial": report.u_partial,
        "envelope_gaps": (None if report.envelope_gaps is None
                          else [[t, g] for t, g in report.envelope_gaps]),
        "notes": list(report.notes),
        "quad_rel_tol": report.quad_rel_tol,
        "quad_abs_tol": report.quad_abs_tol,
    }


def report_dumps(report: VerificationReport) -> str:
    return json.dumps(report_to_json(report), sort_keys=True)
