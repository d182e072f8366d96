"""Numeric probes of the heat solution induced by radial initial data.

u_origin evaluates u(0, t) through the weighted semi-infinite integral of
phi(sqrt(4t) z); u_origin_from_H does the same through the ball average.
band_estimate sweeps log-spaced time grids to estimate oscillation bands,
verify_certificate runs all three measurements against a certificate's
analytic bands, and u_offcenter_1d probes u(x, t) away from the origin in
dimension one.  The weighted integral of an expression is routed per leaf
by initial_data._weighted_value; a sweep hands it a whole grid at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    _EPS,
    TWO_PI,
    DomainError,
    PartialBandError,
    RangeError,
    UnsupportedExpression,
    _dumps,
    _finite,
    _plain,
    _points,
    check_finite,
    check_integer,
    check_positive,
)
from .initial_data import (
    InitialDataExpr,
    _split_leaves,
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
    _check_cert,
    cert_to_json,
    envelope_u,
)
from .quadrature import _ABS_TOL, _REL_TOL, _Z_MAX, integrate_weighted

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

# Times of verify's envelope gaps, where every envelope holds (doubly-log: t > 0.25)
_GAP_TIMES = (1e2, 1e4, 1e8, 1e16)

# Sampling density of every verify window: the u sweep, the data and H probes
_POINTS_PER_PERIOD = 64


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
        check_finite(lower_est=self.lower_est, upper_est=self.upper_est,
                     grid_lo=self.grid_lo, grid_hi=self.grid_hi,
                     periods_covered=self.periods_covered)
        check_integer(points_per_period=self.points_per_period)
        if not self.lower_est <= self.upper_est:
            raise DomainError(
                f"band estimates must be ordered finite reals, got "
                f"({self.lower_est}, {self.upper_est})")
        if not (0 < self.grid_lo <= self.grid_hi):
            raise DomainError(
                f"grid range must be ordered and positive, got "
                f"({self.grid_lo}, {self.grid_hi})")
        if self.points_per_period < 1:
            raise DomainError("points_per_period must be at least 1")
        if not self.periods_covered >= 0:
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


def u_origin(expr, n: int, t):
    """u(0, t) = (n omega_n / pi^{n/2}) int_0^inf e^{-z^2} z^{n-1} phi(sqrt(4t) z) dz.

    t is a time (giving a float) or an array of times (giving an array of
    its shape, in one call); a bad time anywhere raises what check_time
    raises for it.  expr may be an InitialDataExpr or a plain vectorized
    callable of tau, which takes adaptive quadrature, time by time.
    Each leaf of an expression takes its route (initial_data._weighted_value):
    log modes and trig profiles their residue series in 1/sqrt(4t) from its
    reach on, other analytic leaves and smaller t a trapezoid sum in log z,
    trapezoid profiles a Gauss rule split at their corners; a wave its series
    by parts in 1/sqrt(4t); bump trains and small-t waves a Gauss rule a piece.
    """
    return _u_at_origin(expr, n, t, KernelFlavor.DATA)


def u_origin_from_H(h_expr, n: int, t):
    """u(0, t) = (2 omega_n / pi^{n/2}) int_0^inf e^{-z^2} z^{n+1} H(sqrt(4t) z) dz.

    The dual route to u_origin: it consumes the ball average instead of the
    data and must agree with u_origin(phi_from_H(H, n), n, t) within the
    combined quadrature tolerances.  t is a time or an array, as for u_origin.
    """
    return _u_at_origin(h_expr, n, t, KernelFlavor.AVERAGE)


def _u_at_origin(expr, n, t, flavor: KernelFlavor):
    coeff = flavor.coefficient(n)  # checks n
    ts, shape = _points(t, check_time)
    k, roots = flavor.power(n), np.sqrt(4.0 * ts)
    if _is_expression(expr):
        values = coeff * _weighted_value(expr, k, roots)[0]
    else:
        values = coeff * np.array([integrate_weighted(lambda z: expr(root * z), k).value
                                   for root in roots.tolist()])
    return float(values[0]) if shape is None else values.reshape(shape)


def _is_expression(expr) -> bool:
    """True for an InitialDataExpr, False for a plain callable, DomainError for
    anything else: the one check of the data of u_origin and u_offcenter_1d."""
    if not (isinstance(expr, InitialDataExpr) or callable(expr)):
        raise DomainError(
            f"expr must be an InitialDataExpr or a callable, got {type(expr).__name__}")
    return isinstance(expr, InitialDataExpr)


def u_offcenter_1d(expr, x: float, t: float) -> float:
    """u(x, t) in dimension one: convolution of phi(|.|) with the heat kernel.

    Splits the two-sided integral into the two half-lines,
    u(x, t) = pi^{-1/2} int_0^inf e^{-z^2} [phi(|x + s z|) + phi(|x - s z|)] dz
    with s = sqrt(4t).  Intended for slow (log-scale) data; fast periodic
    content would need the wave route that u_origin applies.
    """
    check_time(t)
    check_finite(x=x)
    root = math.sqrt(4.0 * t)
    if abs(x) + root * _Z_MAX > 1e308:
        raise RangeError(
            f"|x| + sqrt(4t) z_max overflows double precision at x = {x}, t = {t}")

    f = functools.partial(eval_phi, expr) if _is_expression(expr) else expr

    plus = integrate_weighted(lambda z: f(np.abs(x + root * z)), 0)
    minus = integrate_weighted(lambda z: f(np.abs(x - root * z)), 0)
    return (plus.value + minus.value) / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Band estimation


# A band_estimate sweep reads its trial points off a degree-8 interpolant
# through the 9 grid samples nearest each candidate: row o of _STENCILS is the
# inverse Vandermonde matrix of the nodes -o .. 8 - o, in grid steps from the
# candidate, so its monomial coefficients are _STENCILS[o] @ samples.
_STENCIL = 9
_POWERS = np.arange(_STENCIL)
_STENCILS = np.linalg.inv((_POWERS - _POWERS[:, None])[:, :, None] ** _POWERS)
# Newton converges quadratically from the candidate, at most a cell from the
# vertex; the third step lands where the fifth did on every corpus sweep
_NEWTON_STEPS = 3


def _vertex_trials(us, vals, covered: float) -> np.ndarray:
    """Trial points of both band ends, in the grid's uniform coordinate us.

    For each end (sign 1 for the least value, -1 for the greatest), the
    candidates are the grid's local extremes of sign * vals, an edge sample
    counting when it is no worse than its neighbour, and the best
    ceil(covered) + 1 of them are kept, so that every period's extremum is
    looked at.  Newton steps on p', from the candidate and where sign * p is
    convex, find the vertex of the interpolant p, clipped to the cells
    beside the candidate and to the window; the vertex is a trial point
    when p there beats the candidate's sample.  An end whose best sample
    agrees with its neighbours to rounding is flat and takes none.
    """
    size, keep = us.size, max(math.ceil(covered), 0) + 1
    rise = np.diff(vals)
    down = np.concatenate(([True], rise <= 0.0, [True]))
    up = np.concatenate(([True], rise >= 0.0, [True]))
    index, signs = [], []
    for sign, extreme in ((1.0, down[:-1] & up[1:]), (-1.0, up[:-1] & down[1:])):
        found = np.flatnonzero(extreme)
        ranked = found[np.argsort(sign * vals[found], kind="stable")[:keep]].tolist()
        best = ranked[0]
        least = sign * vals[best]
        near = max(sign * vals[max(best - 1, 0)], sign * vals[min(best + 1, size - 1)])
        if near - least > 8.0 * _EPS * max(1.0, abs(least)):
            index += ranked
            signs += [sign] * len(ranked)
    if not index:
        return np.empty(0)
    start = [min(max(i - _STENCIL // 2, 0), size - _STENCIL) for i in index]
    coef = np.einsum("cjk,ck->cj", _STENCILS[np.subtract(index, start)],
                     vals[np.add.outer(start, _POWERS)])
    lo, hi = np.array([[-(i > 0), i < size - 1] for i in index], dtype=float).T
    index, signs = np.array(index), np.array(signs)
    # rows p' and p'' of each candidate, by powers 0 .. 7 of s
    derivs = np.zeros((index.size, 2, _STENCIL - 1))
    derivs[:, 0] = coef[:, 1:] * _POWERS[1:]
    derivs[:, 1, :-1] = derivs[:, 0, 1:] * _POWERS[1:-1]
    s, (d1, d2) = np.zeros(index.size), derivs[:, :, 0].T  # at s = 0
    for step in range(_NEWTON_STEPS):
        s = np.minimum(np.maximum(s - d1 / np.where(signs * d2 > 0.0, d2, np.inf), lo), hi)
        if step < _NEWTON_STEPS - 1:
            d1, d2 = (derivs @ (s[:, None] ** _POWERS[:-1])[:, :, None])[:, :, 0].T
    at_s = np.einsum("cj,cj->c", coef, s[:, None] ** _POWERS)
    better = (signs * at_s < signs * vals[index]) & (s != 0.0)
    return us[index[better]] + s[better] * ((us[-1] - us[0]) / (size - 1))


def band_estimate(evaluator, m_hint) -> OscillationBand:
    """Oscillation band of evaluator(t) over verify's log-time window.

    The window is the one the prescriber's mode floor _M_FLOOR assumes:
    _SWEEP_PERIODS periods from t = _SWEEP_T_ANCHOR, cut at x = _X_CAP, with
    _POINTS_PER_PERIOD samples a period.  evaluator receives a 1-D float
    array of times and returns its values there, an array of that shape (a
    scalar broadcasts).  For a numeric m_hint the grid, one evaluator call,
    is uniform in x = log sqrt(4t) with periods 2 pi / m_hint; a frequency
    below _M_FLOOR covers fewer than
    _SWEEP_PERIODS periods before the cap and raises PartialBandError.  One
    more call evaluates the trial points that _vertex_trials reads off the
    grid: the vertices of its degree-8 interpolant beside the best
    ceil(periods) + 1 local extremes of each end, none for an end flat to
    rounding, so a sweep makes 1 or 2 calls.  Each end is the least or
    greatest sample of the grid and that call, never an interpolated value.
    m_hint = "log-log" sweeps a grid uniform in y = log log sqrt(4t)
    instead, and interpolates in y; double precision runs out long before 3
    such periods, so that mode always raises PartialBandError carrying the
    covered sub-band.  Values that are not reals of the times' shape raise
    DomainError, a non-finite value EvaluationError.
    """
    if not callable(evaluator):
        raise DomainError("evaluator must be callable")
    x0 = 0.5 * math.log(4.0 * _SWEEP_T_ANCHOR)
    loglog = isinstance(m_hint, str)
    if loglog:
        if m_hint != "log-log":
            raise DomainError(f"m_hint must be a frequency or 'log-log', got {m_hint!r}")
        u0 = math.log(x0)
        u1 = min(u0 + _SWEEP_PERIODS * TWO_PI, math.log(_X_CAP))
        covered = (u1 - u0) / TWO_PI
    else:
        check_positive(m_hint=m_hint)
        period = TWO_PI / float(m_hint)
        u0, u1, covered = x0, x0 + _SWEEP_PERIODS * period, _SWEEP_PERIODS
        if u1 > _X_CAP:
            u1, covered = _X_CAP, (_X_CAP - x0) / period
    us = np.linspace(u0, u1, max(int(math.ceil(_POINTS_PER_PERIOD * covered)) + 1, 9))
    xs = np.exp(us) if loglog else us

    def at_x(x):
        t = np.exp(2.0 * x) / 4.0  # one call for the times of the array x
        return _finite(evaluator(t), t, "evaluator", "t")

    vals = at_x(xs)
    trials = _vertex_trials(us, vals, covered)
    if trials.size:
        vals = np.concatenate([vals, at_x(np.exp(trials) if loglog else trials)])
    lower, upper = float(vals.min()), float(vals.max())

    band = OscillationBand(
        lower_est=lower, upper_est=upper,
        grid_lo=float(math.exp(2.0 * xs[0]) / 4.0),
        grid_hi=float(math.exp(2.0 * xs[-1]) / 4.0),
        points_per_period=_POINTS_PER_PERIOD,
        periods_covered=covered,
    )
    if covered < _SWEEP_PERIODS - 1e-12:
        raise PartialBandError(
            f"probe window exhausted double precision after {covered:.3f} of "
            f"{_SWEEP_PERIODS:g} required periods; partial band attached", band)
    return band


# ---------------------------------------------------------------------------
# Certificate verification


def _slow_taus(m: float) -> np.ndarray:
    """tau grid of 3 periods of frequency m on the log(tau + 1) axis from
    tau ~ 1e4, _POINTS_PER_PERIOD points a period."""
    x = np.linspace(math.log(1e4), math.log(1e4) + 3.0 * TWO_PI / m,
                    _POINTS_PER_PERIOD * 3 + 1)
    return np.expm1(x)


def _witness_taus(expr) -> np.ndarray:
    lo_w, hi_w = band_witnesses(expr)
    return np.concatenate([lo_w, hi_w]) if lo_w.size + hi_w.size else np.array([1.0])


def _measured_band(taus: np.ndarray, vals: np.ndarray) -> OscillationBand:
    """Band of vals on the radii taus, _POINTS_PER_PERIOD points a period;
    every window of verify's data and H probes counts as the nominal 3
    periods (see OscillationBand)."""
    return OscillationBand(
        lower_est=float(np.min(vals)), upper_est=float(np.max(vals)),
        grid_lo=float(np.min(taus[taus > 0])), grid_hi=float(np.max(taus)),
        points_per_period=_POINTS_PER_PERIOD, periods_covered=3.0)


def _measure_phi_band(expr, slow_m: float | None, loglog: bool) -> OscillationBand:
    taus = [_witness_taus(expr), np.geomspace(1e2, 1e12, 513)]
    if slow_m is not None:
        taus.append(_slow_taus(slow_m))
    if loglog:
        ys = np.linspace(1.0, 5.2, 129)
        taus.append(np.exp(np.exp(ys)) - 2.0)
    tau = np.unique(np.concatenate(taus))
    tau = tau[(tau >= 0) & np.isfinite(tau)]
    return _measured_band(tau, eval_phi(expr, tau))


def _measure_H_band(expr, n: int, slow_m: float | None, loglog: bool) -> OscillationBand:
    if loglog:
        # both extremizers of the doubly-log phase fit below tau ~ 1e79
        ys = np.linspace(1.2, 5.2, 129)
        taus = np.exp(np.exp(ys)) - 2.0
    elif slow_m is not None:
        taus = _slow_taus(slow_m)
    else:
        taus = np.geomspace(1e4, 1e8, 129)  # content averages to a constant
    return _measured_band(taus, numeric_H(expr, n, taus))


def verify_certificate(cert: PrescriptionCertificate,
                       tol_band: float = 0.02) -> VerificationReport:
    """Measure the phi, u and H bands of a certificate, in that order, and compare.

    phi is sampled at its analytic extremizer witnesses plus dense log
    grids; H through numeric ball averages on a log-tau grid; u through
    band_estimate driven by u_origin, on the one window that the
    prescriber's mode floor assumes, so every certificate it builds covers
    its periods.  Certificates with doubly-log content get a partial u band
    (the sweep cannot cover 3 periods in double precision) plus the envelope
    gaps at _GAP_TIMES as the convergence signal; a note says when there is
    no envelope formula (bumps alone).  The report records _ABS_TOL, the u
    target, and keeps _REL_TOL, of an adaptive rule that verify never runs.
    """
    _check_cert(cert)
    n = cert.target.n
    check_positive(tol_band=tol_band)

    split = _split_leaves(cert.data)
    slow_m, loglog = split.slow_m, split.loglog
    notes: list[str] = []

    phi_band = _measure_phi_band(cert.data, slow_m, loglog)

    u_at = functools.partial(u_origin, cert.data, n)
    u_partial = False
    if loglog:
        try:
            u_band = band_estimate(u_at, "log-log")
        except PartialBandError as err:
            u_band = err.band
            u_partial = True
            notes.append(
                f"u sweep covered {u_band.periods_covered:.3f} of "
                f"{_SWEEP_PERIODS:g} doubly-log periods before the "
                "double-precision cap; endpoint match relaxed to containment")
    else:
        if slow_m is None:
            notes.append("envelope is constant; sweep frequency 1.0 is nominal")
        u_band = band_estimate(u_at, 1.0 if slow_m is None else slow_m)

    u_gaps = u_at(np.array(_GAP_TIMES)).tolist()
    # H last: its window costs the most, and a u route may refuse first
    h_band = _measure_H_band(cert.data, n, slow_m, loglog)
    max_abs_u = max([abs(u_band.lower_est), abs(u_band.upper_est)]
                    + [abs(u_val) for u_val in u_gaps])
    try:
        envs = envelope_u(cert, np.array(_GAP_TIMES)).tolist()
    except UnsupportedExpression:
        notes.append("no envelope formula for this construction; gaps omitted")
        gaps = None
    else:
        gaps = tuple((t, abs(u_val - env)) for t, u_val, env in zip(_GAP_TIMES, u_gaps, envs))

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
        quad_rel_tol=_REL_TOL,
        quad_abs_tol=_ABS_TOL,
    )


# ---------------------------------------------------------------------------
# Report serialization (schema report/1)


def report_to_json(report: VerificationReport) -> dict:
    """The report/1 document: the fields, with the certificate as cert/1."""
    if not isinstance(report, VerificationReport):
        raise DomainError(f"report must be a VerificationReport, got {type(report).__name__}")
    doc = {f.name: _plain(getattr(report, f.name)) for f in fields(report) if f.name != "cert"}
    doc.update(schema=REPORT_SCHEMA_ID, cert=cert_to_json(report.cert))
    return doc


def report_dumps(report: VerificationReport) -> str:
    return _dumps(report_to_json(report))
