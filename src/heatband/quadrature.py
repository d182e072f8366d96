"""Every integration rule of the package with its a-priori bound, the one
error target of each integral, _ABS_TOL for u(0, t) and _H_TOL for H(tau),
and the one node budget _MAX_NODES.

u(0, t) is a multiple of int_0^inf z^k e^{-z^2} phi(root z) dz, root =
sqrt(4t), and H(tau) = n int_{-inf}^0 phi(tau e^s) e^{ns} ds.  The rules take
phi as an evaluator of radii, a table of linear pieces or a trapezoid wave,
never an expression: which rule serves which leaf and which point, only the
routers of initial_data (_weighted_value, _ball_average) decide.

Leaves that are finite sums of powers (1 + tau)^a (the log modes and the
trig profiles of log(tau + 1)) take two convergent residue series from
their reach on, in either kernel (_power_series, _power_sums).  Below it,
and for the doubly-log sine, leaves analytic in log tau take one fixed sum
on a log-radius axis, bounded through the strip where the integrand stays
analytic: a trapezoid sum on x = log z for u (_log_trapezoid_rule,
_log_window), Gauss-Legendre on s = log(r / tau) for H (_log_gauss_rule),
whose bounds the routers widen by the rounding of phi (_phi_rounding), which
grows with the log of the radius.  Trapezoid profiles of
log(tau + 1) take the Gauss layout split at their corners, radius by radius,
in either kernel (_split_gauss_weighted, _split_gauss_radial); one strip
search (_log_gauss_panels) sizes both Gauss layouts.  Waves and bump trains,
which would alias under fixed panels, are linear piece by piece, and one
Gauss rule on the pieces, in coordinates local to each, serves both kernels
(_pieces_weighted, _pieces_radial).  Far enough out a wave integrates by
parts against one cached model (_wave_primitives): in H after n steps
(_wave_radial_series), in u by a series whose remainder picks its length
(_wave_weighted_series).  A batch of points is one evaluation of phi on the
outer product of points and the nodes of a cached read-only layout, and one
matrix-vector product (_fixed_sums).  Every fixed
rule refuses with ConvergenceError, before it lays any, more nodes at a
point than _MAX_NODES (_check_nodes).

integrate_weighted(f, k) ~ int_0^inf exp(-z^2) z^k f(z) dz serves the plain
callables of u_origin and the off-centre probe by batched adaptive Simpson
with per-panel Richardson error estimates, within _REL_TOL, _ABS_TOL and
_MAX_NODES panels; integrate_log_oscillatory (on the log axis, at least 8
panels per period) and integrate_interval run the same engine but have no
caller in the package.  The tail of u beyond _Z_MAX is bounded
analytically, never sampled.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import loggamma, zeta

from .errors import (TWO_PI, _EPS, ConvergenceError, DomainError, _finite, check_finite,
                     check_integer, check_positive)

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

# Error targets of the u(0, t) integrals, which verify's report records; the
# one error target of every H(tau): numeric_H, verify's H window and the probe
# table; the node budget of the fixed rules and of the adaptive engine's panels
_REL_TOL = 1e-11
_ABS_TOL = 1e-13
_H_TOL = 1e-8
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
    A non-callable f raises DomainError: the one check of the integrand of
    the three entry points.
    """
    if not callable(f):
        raise DomainError(f"the integrand must be callable, got {type(f).__name__}")
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
    cap = (TWO_PI / m) / PANELS_PER_PERIOD
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
                       rel_tol: float = _REL_TOL, abs_tol: float = _ABS_TOL,
                       max_panels: int = _MAX_NODES,
                       max_width: float | None = None) -> IntegralResult:
    """Adaptive integral of a vectorized f over the finite interval [a, b].

    Same engine as the weighted entry points, exposed for finite-range work
    such as ball averages.  f receives a float array and must return one of
    the same shape.  rel_tol, abs_tol and max_width (or None) are positive.
    """
    check_finite(a=a, b=b)
    check_positive(rel_tol=rel_tol, abs_tol=abs_tol)
    check_integer(max_panels=max_panels)
    if max_width is not None:
        check_positive(max_width=max_width)
    value, err, counter = _adaptive_simpson(
        f, a, b, rel_tol=rel_tol, abs_tol=abs_tol, max_panels=max_panels,
        max_width=max_width)
    return IntegralResult(value, err, counter.n)


# ---------------------------------------------------------------------------
# Fixed rules of the expression leaves, each with its a-priori bound

# Most values of phi in one block of rows of a batch's outer product
_BLOCK = 1 << 20

# Most terms of the integration-by-parts series of a wave; where they cannot
# reach abs_tol / 2 (root below about 15 to 30, the more the larger k), the
# router integrates the wave piece by piece instead.
_IBP_TERMS = 60
_IBP_ORDERS = np.arange(1, _IBP_TERMS + 1)

# Widest z-panel of the Gauss-Legendre rule on linear pieces in u, and the
# constant (8!)^4 / (17 (16!)^3) of that 8-node rule's remainder
_PIECE_PANEL = 0.125
_GAUSS_REMAINDER = math.factorial(8) ** 4 / (17 * math.factorial(16) ** 3)

_FLOAT_TINY = float(np.finfo(float).tiny)  # least normal double


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


def _fixed_sums(phi, radii, scale, weights) -> np.ndarray:
    """sum_j weights_j phi(radii_i scale_j) for each radius, phi an evaluator
    of arrays of radii, in blocks of rows of at most _BLOCK values."""
    rows = max(1, _BLOCK // scale.size)
    out = np.empty(radii.size)
    for i in range(0, radii.size, rows):
        out[i:i + rows] = np.dot(phi(np.multiply.outer(radii[i:i + rows], scale)), weights)
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


def _split_gauss_sum(phi, sup: float, steep: float, phases, radii: np.ndarray, layout,
                     kernel) -> tuple[np.ndarray, np.ndarray]:
    """(values, error bounds) of int_{-D}^0 K(s) phi(radius e^s) ds at each
    radius of the 1-D array radii, phi a profile of log(r + 1) at most sup
    and steep in slope, kinked at the phases (mod 2 pi), by the Gauss layout
    (D, P, bound) of _log_gauss_panels split at its corners, which move with
    the radius, so radius by radius, within the node budget at each radius.

    kernel(s) gives K at the nodes and factors c_i with K_i right to 4 c_i eps
    relative.  The terms are summed exactly by math.fsum; the bound adds to
    the layout's their rounding, 4 eps sum_i c_i |term_i|, and
    2 (sup + steep) w_i K_i for each node near a corner, where both pieces'
    formulas stay within sup + steep of 0.
    """
    depth, panels, bound = layout
    near_bound = 2.0 * (sup + steep)
    values, bounds = np.empty(radii.size), np.empty(radii.size)
    for i, radius in enumerate(radii.tolist()):
        s, w, near = _split_gauss(-depth, depth / panels, panels, radius, phases)
        k_vals, cond = kernel(s)
        weights = w * k_vals
        terms = weights * phi(radius * np.exp(s))
        rounding = 4.0 * _EPS * float(np.sum(np.abs(terms) * cond))
        values[i] = math.fsum(terms)
        bounds[i] = bound + rounding + near_bound * float(np.sum(weights[near]))
    return values, bounds


def _split_gauss_weighted(phi, sup: float, steep: float, phases, k: int,
                          roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, error bounds) of int_0^inf z^k e^{-z^2} phi(root z) dz at each root
    of the 1-D array roots, phi as for _split_gauss_sum, on s = log(z / z_max):
    the kernel z^(k+1) e^{-z^2} is at most z_max^(k+1) e^{(k+1) Re s} for |Im s|
    <= pi/4, so the layout is that of n = k + 1, sup and steep times
    z_max^(k+1) / (k + 1) and tol _ABS_TOL / 2; the cut adds sup G_k(z_max)."""
    scale = _Z_MAX ** (k + 1) / (k + 1)

    def kernel(s):
        z = _Z_MAX * np.exp(s)
        return z ** (k + 1) * np.exp(-z * z), 2.0 + k + z * z

    layout = _log_gauss_panels(k + 1, sup * scale, 0.0, 0.5 * _ABS_TOL, steep * scale,
                               0.25 * math.pi)
    values, bounds = _split_gauss_sum(phi, sup, steep, phases, roots * _Z_MAX, layout, kernel)
    return values, bounds + sup * gaussian_power_tail(k, _Z_MAX)


def _split_gauss_radial(phi, sup: float, steep: float, phases, n: int, taus: np.ndarray,
                        tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(values, error bounds) of n int_{-inf}^0 e^{ns} phi(tau e^s) ds at each radius
    of the 1-D array taus > 0 within tol, phi as for _split_gauss_sum."""
    layout = _log_gauss_panels(n, sup, 0.0, tol, steep)
    return _split_gauss_sum(phi, sup, steep, phases, taus, layout,
                            lambda s: (n * np.exp(s) ** n, 2.0 + n))


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
    ConvergenceError.
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
             / (TWO_PI * lo))
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


def _phi_rounding(kernel_mass: float, mass: float, omega: float, radii) -> np.ndarray:
    """The most that rounding phi at the nodes moves a rule whose weights sum
    to kernel_mass (the kernel's mass: M_k for u within the rule's tolerance,
    and 1 for H, as the Gauss weights integrate e^{ns} from below), at each
    point whose largest node radius is in radii, for analytic leaves of strip
    mass mass and top log frequency omega: a phase omega log1p(r) rounds by
    at most 2 eps omega (log1p(r) + 1), the rounding of the node r included,
    and the arithmetic of the leaves and their sum adds 8 eps mass."""
    size = kernel_mass * _EPS * mass
    return 2.0 * omega * size * np.log1p(radii) + (2.0 * omega + 8.0) * size


# ---------------------------------------------------------------------------
# Residue series of the powers (1 + tau)^a, -1 <= Re a <= 0

# Most terms of one residue series; their bounds need fewer than 80
_SERIES_TERMS = 200


def _weighted_terms(a: complex, p: int, x: float):
    """(c, c_err, d, d_err) with int_0^inf z^k e^{-z^2} (1 + root z)^a dz =
    root^a sum_j c_j x^j + sum_i d_i x^i, x = 1 / root, k = p - 1, within
    root^(Re a) sum_j c_err_j x^j + sum_i d_err_i x^i below the given x:
    the residues of a Mellin-Barnes integral (Bleistein & Handelsman, ch. 4),
    c_j = C(a, j) Gamma((k + 1 + a - j) / 2) / 2 from two log-gammas and
    Gamma(w) = Gamma(w + 1) / w, and d_i = (-1)^l / l! Gamma(i) Gamma(-a - i)
    / Gamma(-a) at i = k + 1 + 2l, a finite product.  From j = k + 2 on,
    |c_(j+2) / c_j| = |a - j| |a - j - 1| 2 / ((j + 1) (j + 2) |k - 1 + a - j|)
    <= max(1, |a|^2) 2/3 <= x^-2 / 6, and |d_(i+2) / d_i| <= x^2 / (l + 1),
    so each tail is at most twice its first omitted terms, which the errors
    carry once they are below M_k eps / 8 at x; the errors also carry
    16 eps (1 + |log Gamma|) for the log-gamma, as kernel_moments, and 4 eps
    an operation after it.  a = 0 gives c = [M_k]."""
    k = p - 1
    scale = gaussian_power_tail(k, 0.0)
    if a == 0:
        return np.array([scale]), np.array([(k + 2) * _EPS * scale]), np.zeros(1), np.zeros(1)
    logs = [complex(loggamma(0.5 * (k + 1 + a))), complex(loggamma(0.5 * (k + a)))]
    gammas, c, binom = [cmath.exp(v) for v in logs], [], 1.0 + 0j
    for j in range(_SERIES_TERMS):
        if j >= 2:
            gammas.append(gammas[j - 2] / (0.5 * (k + 1 + a - j)))
        c.append(0.5 * binom * gammas[j])
        binom *= (a - j) / (j + 1)
        top = j - 1  # the first term left out
        if top >= k + 2 and 2.0 * (abs(c[top]) + abs(c[j]) * x) * x ** (top - a.real) \
                <= 0.125 * _EPS * scale:
            break
    c_err = 2.0 * np.abs(c)  # the tail at top and top + 1
    c_err[:top] *= 0.5 * _EPS * (16.0 * (1.0 + np.abs(logs)[np.arange(top) % 2])
                                 + 6.0 * np.arange(top) + 4.0)
    d, d_err = np.zeros((2, k + 2 * _SERIES_TERMS + 3), dtype=complex)
    term = math.factorial(k) / math.prod(-a - i for i in range(1, k + 2))
    for l in range(_SERIES_TERMS):
        i = k + 1 + 2 * l
        d[i], d_err[i] = term, 4.0 * _EPS * (k + 2 + 5 * l) * abs(term)
        term *= -i * (i + 1) / ((l + 1) * (a + i + 1) * (a + i + 2))
        if 2.0 * abs(term) * x ** (i + 2) <= 0.125 * _EPS * scale:
            break
    d_err[i + 2] = 2.0 * abs(term)
    return np.array(c[:top]), c_err, d[:i + 3], d_err[:i + 3].real


def _radial_terms(a: complex, n: int, x: float):
    """(e, e_err, f, f_err) as for _weighted_terms, of the ball average
    n int_0^1 s^(n-1) (1 + tau s)^a ds = tau^a sum_j e_j x^j + f_n x^n,
    x = 1 / tau: 2F1(-a, n; n + 1; -tau) (DLMF 15.8.2), e_j = C(a, j) n /
    (n + a - j) and f_n = n! / prod_(i<=n) (-a - i).  From j = n + 1 on,
    |e_(j+1) / e_j| <= max(1, |a|) <= 1 / (2x), so the tail is at most twice
    its first omitted term, kept below eps / 8 at x."""
    if a == 0:
        return np.ones(1), np.zeros(1), np.zeros(1), np.zeros(1)
    e, binom = [], 1.0 + 0j
    for j in range(_SERIES_TERMS):
        e.append(binom * n / (n + a - j))
        binom *= (a - j) / (j + 1)
        if j > n and 2.0 * abs(e[j]) * x ** (j - a.real) <= 0.125 * _EPS:
            break
    e_err = 2.0 * np.abs(e)
    e_err[:j] *= 0.5 * _EPS * (4.0 * np.arange(j) + 6.0)
    f = np.zeros(n + 1, dtype=complex)
    f[n] = math.factorial(n) / math.prod(-a - i for i in range(1, n + 1))
    return np.array(e[:j]), e_err, f, 4.0 * _EPS * (n + 1) * np.abs(f)


@lru_cache(maxsize=64)
def _power_series(powers, p: int, terms):
    """(reach, a, weights) of the residue series of Re sum_q beta_q
    (1 + tau)^(a_q), powers the pairs (beta_q, a_q), by terms (_weighted_terms,
    p = k + 1, or _radial_terms, p = n).  The reach, the least point they
    serve, is the largest 2 (|a| + p + 1), where the tails fall by half a
    step, and |a + 1|^(-1/p), where the terms x^p / |a + 1| that cancel near
    the pole a = -1 stay below 1.  Row j of weights multiplies x^j; its
    column blocks, one column a power, are Re and Im beta c_j (turned by
    point^a), 2 eps |a| |beta c_j| (the phase's rounding per |log point|), the
    error weights plus (j + size + count + 10) eps |beta c_j| for the sums,
    and last Re and the error weight of the terms no phase turns."""
    reach = max(max(2.0 * (abs(a) + p + 1), min(1.0, abs(a + 1.0)) ** (-1.0 / p))
                for _beta, a in powers)
    rows = [terms(a, p, 1.0 / reach) for _beta, a in powers]
    size, count = max(max(len(c_err), len(d)) for _c, c_err, d, _d_err in rows), len(powers)
    weights = np.zeros((size, 4 * count + 2))
    rounding = _EPS * (np.arange(size) + size + count + 10.0)
    for q, ((beta, a), (c, c_err, d, d_err)) in enumerate(zip(powers, rows)):
        turned, sizes, j, i = beta * c, abs(beta) * np.abs(c), c.size, d.size
        weights[:j, q], weights[:j, count + q] = turned.real, turned.imag
        weights[:j, 2 * count + q] = 2.0 * _EPS * abs(a) * sizes
        weights[:c_err.size, 3 * count + q] = abs(beta) * c_err
        weights[:j, 3 * count + q] += rounding[:j] * sizes
        weights[:i, -2] += (beta * d).real
        weights[:i, -1] += abs(beta) * (d_err + rounding[:i] * np.abs(d))
    a = np.array([a for _beta, a in powers])
    a.flags.writeable = weights.flags.writeable = False
    return reach, a, weights


def _power_sums(series, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, error bounds) of _power_series at each point of the 1-D array
    points past its reach: the powers x^j = point^-j by products, one matrix
    product and each point^a as |point^a| (cos + i sin)(Im a log point)."""
    _reach, a, weights = series
    count, logs = a.size, np.log(points)
    powers = np.empty((weights.shape[0], points.size))
    powers[0], powers[1:] = 1.0, 1.0 / points
    for j in range(2, powers.shape[0]):
        powers[j] *= powers[j - 1]
    sums, turns = powers.T @ weights, np.multiply.outer(logs, a.imag)
    sizes = np.exp(np.multiply.outer(logs, a.real))
    values = sizes * (np.cos(turns) * sums[:, :count] - np.sin(turns) * sums[:, count:2 * count])
    bounds = sizes * (np.abs(logs)[:, None] * sums[:, 2 * count:3 * count]
                      + sums[:, 3 * count:4 * count])
    return values.sum(axis=1) + sums[:, -2], bounds.sum(axis=1) + sums[:, -1]


@lru_cache(maxsize=64)
def _panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the 8-node Gauss-Legendre rule on `panels` equal
    panels of [0, 1], read-only."""
    nodes = (np.arange(panels)[:, None] + GL_NODES).ravel() / panels
    weights = np.tile(GL_WEIGHTS, panels) / panels
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _piece_layout(pieces, scales, cut: float, panels: int):
    """(x, weights, vals) of the 8-node Gauss-Legendre rule on `panels`
    equal panels of each piece of the table pieces (initial_data._linear_pieces)
    clipped to [0, cut scale], in x = tau / scale, at each scale of the 1-D
    array scales: shape (scales, pieces, nodes a piece).

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
    root of the 1-D array roots, v the linear pieces of the table, by the
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
    radius of the 1-D array taus > 0, v the linear pieces of the table,
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
def _wave_primitives(trap):
    """(mean, jump, at, at_zero), the model of a trapezoid wave w (read
    through its breakpoints and knot_values) in both kernels'
    integration-by-parts series.  mean is the mean of w over its
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


def _wave_weighted_series(trap, k: int, roots):
    """(values, error bounds, series) of int_0^inf f(z) w(root z) dz,
    f(z) = z^k e^{-z^2} and w the trapezoid wave trap, at each root of the
    1-D array roots where series is True, the roots the series serves.

    Integrating by parts P times against the zero-mean primitives W_j of
    w - mean (see _wave_primitives) gives

        mean M_k + sum_{j=1}^{P} (-1)^j f^(j-1)(0) W_j(0) / root^j + r_P,
        |r_P| <= sup|W_P| ||f^(P)||_1 / root^P,

    M_k = int_0^inf f, with every table cached per wave and per k
    (Iserles & Norsett, Proc. R. Soc. A 461, 2005).  The series takes, per
    root, the least P <= _IBP_TERMS whose bound on r_P is at most
    _ABS_TOL / 2, at a cost that does not depend on root, and returns
    that bound plus the rounding of the terms, which are summed exactly by
    math.fsum; a root where no P reaches _ABS_TOL / 2 is not served.  The
    remainder table and the terms of every root are one array expression.
    """
    mean, jump, _at, (w0, w_err) = _wave_primitives(trap)
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
    return values, bounds, series


def _wave_radial_series(trap, n: int, taus: np.ndarray):
    """(values, error bounds) of (1/tau^n) int_0^tau w(r) r^(n-1) dr at each
    radius of the 1-D array taus > 0, w the trapezoid wave trap.

    As (r^(n-1))^(n) = 0, n integrations by parts against the primitives W_j
    of w - mean (_wave_primitives) end exactly, theta = tau mod T exact:

        mean / n + sum_{j=1}^{n} (-1)^(j-1) (n-1)!/(n-j)! W_j(theta) / tau^j
                 - (-1)^(n-1) (n-1)! W_n(0) / tau^n,

    one array expression with powers (1/tau)^j, bounded by the rounding of
    each W_j times its weight and (n + 3) eps sum |terms|.  Near 2 pi the
    terms cancel and their weights are near 1, so the router keeps this sum
    for tau of four periods and more.
    """
    mean, _jump, at, (w0, w0_err) = _wave_primitives(trap)
    coeffs = np.array([(-1) ** j * math.perm(n - 1, j) for j in range(n)], dtype=float)
    w, w_err = at(np.mod(taus, TWO_PI), n)
    powers = (1.0 / taus)[:, None] ** np.arange(1, n + 1)
    last = math.factorial(n - 1) * powers[:, -1]
    terms = np.column_stack([coeffs * w * powers, (-1) ** n * w0[n - 1] * last])
    return (terms.sum(axis=1) + mean / n,
            (np.abs(coeffs) * w_err * powers).sum(axis=1) + w0_err[n - 1] * last
            + (n + 3) * _EPS * (np.abs(terms).sum(axis=1) + abs(mean / n)))
