"""Numeric probes of the heat solution induced by radial initial data.

u_origin evaluates u(0, t) through the weighted semi-infinite integral of
phi(sqrt(4t) z); u_origin_from_H does the same through the ball average.
band_estimate sweeps log-spaced time grids to estimate oscillation bands,
verify_certificate runs all three measurements against a certificate's
analytic bands, and u_offcenter_1d probes u(x, t) away from the origin in
dimension one.  The weighted integral is routed per leaf of the data in
initial_data (see its Leaf routes); every sweep hands it a whole grid at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EvaluationError,
    PartialBandError,
    RangeError,
    UnsupportedExpression,
    _json_real,
    _points,
    check_finite,
    check_integer,
)
from .initial_data import (
    InitialDataExpr,
    LogLogSine,
    _signed_leaves,
    _weighted_value,
    band_witnesses,
    eval_phi,
    numeric_H,
)
from .kernel_moments import (
    KernelFlavor,
    _SWEEP_PERIODS,
    _SWEEP_T_ANCHOR,
    _X_CAP,
    check_time,
)
from .prescriber import (
    PrescriptionCertificate,
    cert_to_json,
    envelope_u,
)
from .quadrature import QuadratureSpec, integrate_weighted

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

# the spec of calls that pass none: frozen, so one instance serves them all,
# and each u_origin call skips validating a fresh one
_DEFAULT_SPEC = QuadratureSpec()

TWO_PI = 2.0 * math.pi


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
# Solution values


def u_origin(expr, n: int, t, spec: QuadratureSpec | None = None):
    """u(0, t) = (n omega_n / pi^{n/2}) int_0^inf e^{-z^2} z^{n-1} phi(sqrt(4t) z) dz.

    t is a time (giving a float) or an array of times (giving an array of
    its shape, in one call); a bad time anywhere raises what check_time
    raises for it.  expr may be an InitialDataExpr or a plain vectorized
    callable of tau.
    Each leaf takes its route in initial_data (see its Leaf routes): a wave
    an integration-by-parts series in 1/sqrt(4t), whose cost does not grow
    with t, bump trains a Gauss rule on each bump.
    """
    return _u_at_origin(expr, n, t, spec, KernelFlavor.DATA)


def u_origin_from_H(h_expr, n: int, t, spec: QuadratureSpec | None = None):
    """u(0, t) = (2 omega_n / pi^{n/2}) int_0^inf e^{-z^2} z^{n+1} H(sqrt(4t) z) dz.

    The dual route to u_origin: it consumes the ball average instead of the
    data and must agree with u_origin(phi_from_H(H, n), n, t) within the
    combined quadrature tolerances.  t is a time or an array, as for u_origin.
    """
    return _u_at_origin(h_expr, n, t, spec, KernelFlavor.AVERAGE)


def _u_at_origin(expr, n, t, spec, flavor: KernelFlavor):
    coeff = flavor.coefficient(n)  # checks n
    ts, shape = _points(t, check_time)
    if spec is None:
        spec = _DEFAULT_SPEC
    values = coeff * _weighted_value(expr, flavor.power(n), np.sqrt(4.0 * ts), spec)[0]
    return float(values[0]) if shape is None else values.reshape(shape)


def u_offcenter_1d(expr, x: float, t: float,
                   spec: QuadratureSpec | None = None) -> float:
    """u(x, t) in dimension one: convolution of phi(|.|) with the heat kernel.

    Splits the two-sided integral into the two half-lines,
    u(x, t) = pi^{-1/2} int_0^inf e^{-z^2} [phi(|x + s z|) + phi(|x - s z|)] dz
    with s = sqrt(4t).  Intended for slow (log-scale) data; fast periodic
    content would need the wave route that u_origin applies.
    """
    if spec is None:
        spec = _DEFAULT_SPEC
    check_time(t)
    check_finite(x=x)
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


# A band_estimate sweep refines each band end by at most 48 steps; an end
# stops once its bracket is no wider than 48 golden-section steps would leave
# it (0.618^48 of the grid bracket), or once its samples agree to rounding.
_REFINE_STEPS = 48
_GOLDEN_SHRINK = ((math.sqrt(5.0) - 1.0) / 2.0) ** _REFINE_STEPS
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = float(np.finfo(float).eps)


class _BrentEnd:
    """Brent's search for the least of sign * f about the grid extremum
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 5).

    The bracket [a, c] holds the best sample x; w and v are the second best
    and the one before it, and every bracket end is a sample (the grid
    neighbours of x at first).  A step goes to the vertex of the parabola
    through x, w and v when that lies strictly inside (a, c).  A vertex
    closer to x than the x-tolerance (sqrt(eps) times the grid bracket)
    gives a step of the x-tolerance into the larger side instead: Brent's
    least step, which puts a sample within rounding of the best on that
    side.  Any other step is a golden-section step into the larger side.
    """

    def __init__(self, xs, vals, sign: float):
        fs = sign * vals
        i = int(np.argmin(fs))
        lo, hi = max(i - 1, 0), min(i + 1, xs.size - 1)
        self.sign = sign
        self.a, self.fa = float(xs[lo]), float(fs[lo])
        self.c, self.fc = float(xs[hi]), float(fs[hi])
        self.x, self.fx = float(xs[i]), float(fs[i])
        self.w, self.fw, self.v, self.fv = self.a, self.fa, self.c, self.fc
        self.width = (self.c - self.a) * _GOLDEN_SHRINK
        self.tol = (self.c - self.a) * math.sqrt(_EPS)

    def done(self) -> bool:
        # outer samples within rounding of the best carry no parabola
        flat = 8.0 * _EPS * max(1.0, abs(self.fx))
        return (self.c - self.a <= self.width
                or max(self.fa, self.fc) - self.fx <= flat)

    def trial(self) -> float:
        x, w, v, fx = self.x, self.w, self.v, self.fx
        far = self.a if x - self.a > self.c - x else self.c
        r, q = (x - w) * (fx - self.fv), (x - v) * (fx - self.fw)
        if r != q:
            u = x + ((x - v) * q - (x - w) * r) / (2.0 * (r - q))
            if self.a < u < self.c:
                if abs(u - x) > self.tol:
                    return u
                if abs(far - x) > self.tol:
                    return x + math.copysign(self.tol, far - x)
        return x + _GOLDEN * (far - x)

    def update(self, u: float, fu: float) -> None:
        if fu <= self.fx:
            if u < self.x:
                self.c, self.fc = self.x, self.fx
            else:
                self.a, self.fa = self.x, self.fx
            self.v, self.fv, self.w, self.fw = self.w, self.fw, self.x, self.fx
            self.x, self.fx = u, fu
            return
        if u < self.x:
            self.a, self.fa = u, fu
        else:
            self.c, self.fc = u, fu
        if fu <= self.fw or self.w == self.x:
            self.v, self.fv, self.w, self.fw = self.w, self.fw, u, fu
        elif fu <= self.fv or self.v == self.x or self.v == self.w:
            self.v, self.fv = u, fu


def band_estimate(evaluator, m_hint, t_anchor: float = _SWEEP_T_ANCHOR, *,
                  points_per_period: int = 64,
                  min_periods: float = _SWEEP_PERIODS) -> OscillationBand:
    """Oscillation band of evaluator(t) over a log-time window.

    evaluator receives a 1-D float array of times and returns its values
    there, an array of that shape (a scalar broadcasts).  For a numeric
    m_hint the grid, one evaluator call, is uniform in x = log sqrt(4t)
    with points_per_period samples per period 2 pi / m_hint, spanning
    min_periods periods from t_anchor.  Brent searches (parabolic steps
    safeguarded by golden-section steps, see _BrentEnd) about the lowest and
    the highest grid value refine both ends in lockstep, one call of at most
    two points per step.  An end stops once its bracket is as narrow as 48
    golden-section steps would leave it or its samples agree to rounding,
    after 48 steps at most, so a sweep makes at most 49 calls.  Each end is
    the least or greatest of the grid and every refinement sample.
    m_hint = "log-log" sweeps y = log log sqrt(4t) instead; double
    precision runs out long before 3 such periods, so that mode always
    raises PartialBandError carrying the covered sub-band.  A non-finite
    value raises EvaluationError.
    """
    if not callable(evaluator):
        raise DomainError("evaluator must be callable")
    check_integer(points_per_period=points_per_period)
    if points_per_period < 64:
        raise DomainError(
            f"points_per_period must be an integer of at least 64, got {points_per_period!r}")
    check_finite(min_periods=min_periods)
    if min_periods < 3.0:
        raise DomainError(f"min_periods must be at least 3, got {min_periods}")
    check_time(t_anchor)
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
        check_finite(m_hint=m_hint)
        m = float(m_hint)
        if not m > 0:
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
        # the evaluator at t = e^{2x} / 4, in one call for the array x
        t = np.exp(2.0 * x) / 4.0
        vals = np.broadcast_to(np.asarray(evaluator(t), dtype=float), t.shape)
        if not np.all(np.isfinite(vals)):
            bad = float(x[~np.isfinite(vals)][0])
            raise EvaluationError(
                f"evaluator returned a non-finite value at t = {math.exp(2 * bad) / 4.0}",
                point=bad)
        return vals

    vals = at_x(xs)
    # Brent searches for the least of sign * f about the grid minimum (sign 1)
    # and maximum (sign -1), in lockstep: one call a step for the trial
    # points of the ends still open
    ends = [_BrentEnd(xs, vals, sign) for sign in (1.0, -1.0)]
    samples = [vals]
    for _ in range(_REFINE_STEPS):
        open_ends = [end for end in ends if not end.done()]
        if not open_ends:
            break
        trials = np.array([end.trial() for end in open_ends])
        samples.append(at_x(trials))
        for end, u, fu in zip(open_ends, trials, samples[-1]):
            end.update(float(u), float(end.sign * fu))
    samples = np.concatenate(samples)
    lower, upper = float(samples.min()), float(samples.max())

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
    vals = numeric_H(expr, n, taus, tol=min(1e-6, spec.abs_tol * 1e6))
    return OscillationBand(
        lower_est=float(np.min(vals)), upper_est=float(np.max(vals)),
        grid_lo=float(taus[0]), grid_hi=float(taus[-1]),
        points_per_period=64, periods_covered=covered)


def verify_certificate(cert: PrescriptionCertificate,
                       spec: QuadratureSpec | None = None,
                       tol_band: float = 0.02, *,
                       t_anchor: float = _SWEEP_T_ANCHOR,
                       gap_times: tuple[float, ...] = (1e2, 1e4, 1e8, 1e16),
                       points_per_period: int = 64,
                       min_periods: float = _SWEEP_PERIODS,
                       ) -> VerificationReport:
    """Measure phi, H, and u bands for a certificate and compare.

    phi is sampled at its analytic extremizer witnesses plus dense log
    grids; H through numeric ball averages on a log-tau grid; u through
    band_estimate driven by u_origin.  Certificates with doubly-log content
    get a partial u band (the sweep cannot cover 3 periods in double
    precision) plus per-time envelope gaps as the convergence signal; a note
    names each gap time where the envelope is undefined (bumps alone: none).
    """
    if spec is None:
        spec = _DEFAULT_SPEC
    n = cert.target.n
    check_finite(tol_band=tol_band)
    if not tol_band > 0:
        raise DomainError(f"tol_band must be positive, got {tol_band!r}")
    for t in gap_times:
        check_time(t)

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

    u_gaps = u_at(np.array(gap_times, dtype=float)).tolist()
    max_abs_u = max([abs(u_band.lower_est), abs(u_band.upper_est)]
                    + [abs(u_val) for u_val in u_gaps])
    gaps, refused = [], []
    for t, u_val in zip(gap_times, u_gaps):
        try:
            env = envelope_u(cert, t)
        except UnsupportedExpression:
            notes.append("no envelope formula for this construction; gaps omitted")
            gaps = None
            break
        except DomainError:
            refused.append(repr(float(t)))
            continue
        gaps.append((float(t), abs(u_val - env)))
    if refused:
        notes.append(f"no envelope at t = {', '.join(refused)}; those gaps omitted")

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
        envelope_gaps=None if gaps is None else tuple(gaps),
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
    return json.dumps(report_to_json(report), sort_keys=True, default=_json_real)
