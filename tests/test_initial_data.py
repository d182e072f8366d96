"""Tests for the initial-data expression family and its ball averages."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from heatband.errors import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    RangeError,
    UnsupportedExpression,
)
from heatband.initial_data import (
    BumpTrain,
    Constant,
    DoubleExpCenters,
    GeometricCenters,
    LogLogSine,
    LogSine,
    LogSineAvgPreimage,
    Negate,
    PeriodicOfLog,
    PeriodicZeroMean,
    SlowFromPeriodic,
    Sum,
    TrapezoidWave,
    TrigPolynomial,
    _ball_average,
    _linear_pieces,
    _phase_taus,
    _signed_leaves,
    _signed_sum,
    _split_leaves,
    analytic_band_phi,
    band_witnesses,
    closed_H,
    dumps,
    eval_phi,
    from_json,
    loads,
    negate,
    numeric_H,
    phi_from_H,
    sup_abs_phi,
    to_json,
)
from heatband.kernel_moments import KernelFlavor, kernel_moments
from heatband.prescriber import lemma_not_example, prescribe_data
from heatband.quadrature import _H_TOL, _Z_MAX, _log_gauss_panels, _log_gauss_rule, _pieces_radial
from reference import ref_H

# np.trapezoid is the NumPy 2.0 name of np.trapz; NumPy 2.4 removed np.trapz.
trapezoid_rule = getattr(np, "trapezoid", None) or np.trapz

TWO_PI = 2.0 * math.pi


def _trig_polys(seed):
    """Fixed trig polynomials (a zero derivative on grid points, a zero top
    harmonic, no harmonics) and 12 random ones drawn from seed."""
    rng = np.random.default_rng(seed)
    polys = [TrigPolynomial(0.0, (), (1.0, 1.0)),
             TrigPolynomial(0.3, (0.4, -0.2, 0.05), (0.9, 0.0, 0.3)),
             TrigPolynomial(0.1, (0.5, 0.2), (0.7,)),
             TrigPolynomial(0.5, (0.2,), (0.85, 0.1)),
             TrigPolynomial(0.1, (0.3, 0.0, 0.2), (0.5,)),
             TrigPolynomial(0.0, (1.0,)), TrigPolynomial(0.0, (0.0, 1.0), (0.0, 0.5)),
             TrigPolynomial(0.2), TrigPolynomial(0.0, (1.0, 0.0)),
             TrigPolynomial(0.7, (0.0,), (0.0,))]
    for _ in range(12):
        size = int(rng.integers(1, 6))
        polys.append(TrigPolynomial(
            float(rng.normal()),
            tuple(rng.normal(size=size) * (rng.random(size) < 0.7)),
            tuple(rng.normal(size=size) * (rng.random(size) < 0.7))))
    return polys


def _reference_extrema(poly):
    """(min, max) of poly to 40 digits, independently of its root call: p at
    0 and at each sign change of p' on a 65,537-point grid, solved in its
    cell by mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        terms = [(j, mpmath.mpf(c), mpmath.mpf(s)) for j, (c, s) in enumerate(
            itertools.zip_longest(poly.cos_coeffs, poly.sin_coeffs, fillvalue=0.0), start=1)]

        def p(t):
            return mpmath.mpf(poly.const) + mpmath.fsum(
                c * mpmath.cos(j * t) + s * mpmath.sin(j * t) for j, c, s in terms)

        def dp(t):
            return mpmath.fsum(j * (s * mpmath.cos(j * t) - c * mpmath.sin(j * t))
                               for j, c, s in terms)

        grid = np.linspace(0.0, TWO_PI, 65_537)
        dv = poly.derivative(grid)
        vals = [p(mpmath.mpf(0.0))]
        for i in np.flatnonzero((dv[:-1] > 0) != (dv[1:] > 0)).tolist():
            bracket = (mpmath.mpf(grid[i]), mpmath.mpf(grid[i + 1]))
            vals.append(p(mpmath.findroot(dp, bracket, solver="anderson")))
        return min(vals), max(vals)


def _assert_extrema_near_reference(extrema, poly):
    lo, hi = _reference_extrema(poly)
    scale = abs(poly.const) + sum(map(abs, poly.cos_coeffs)) + sum(map(abs, poly.sin_coeffs))
    tol = 4.0 * np.finfo(float).eps * scale
    assert abs(extrema[0] - float(lo)) <= tol and abs(extrema[1] - float(hi)) <= tol, \
        (poly, extrema, float(lo), float(hi))


class TestTrapezoidWave:
    def test_mean_is_zero(self):
        w = TrapezoidWave(1.35, -0.35)
        theta = np.linspace(0.0, TWO_PI, 2_000_001)
        mean = trapezoid_rule(w.value(theta), theta) / TWO_PI
        assert abs(mean) < 1e-12

    def test_plateaus_solve_the_linear_system(self):
        v_max, v_min, ramp = 1.35, -0.35, math.pi / 8
        w = TrapezoidWave(v_max, v_min, ramp)
        # independent solve of the two defining equations
        mat = np.array([[1.0, 1.0], [v_max, v_min]])
        rhs = np.array([TWO_PI - 4 * ramp, -ramp * (v_max + v_min)])
        p_plus, p_minus = np.linalg.solve(mat, rhs)
        bp = w.breakpoints
        assert bp[2] - bp[1] == pytest.approx(p_plus, abs=1e-12)
        assert bp[5] - bp[4] == pytest.approx(p_minus, abs=1e-12)

    def test_rejects_negative_plateau(self):
        with pytest.raises(DomainError, match="lopsided"):
            TrapezoidWave(10.0, -0.01)

    @pytest.mark.parametrize("v_max,v_min,ramp", [
        (0.0, -1.0, math.pi / 8),
        (1.0, 0.0, math.pi / 8),
        (1.0, -1.0, 0.0),
        (1.0, -1.0, math.pi / 4),
        (-1.0, -1.0, math.pi / 8),
    ])
    def test_rejects_bad_parameters(self, v_max, v_min, ramp):
        with pytest.raises(DomainError):
            TrapezoidWave(v_max, v_min, ramp)

    def test_periodicity(self):
        w = TrapezoidWave(2.0, -0.5)
        theta = np.linspace(0.0, TWO_PI, 1001)
        assert np.allclose(w.value(theta + TWO_PI), w.value(theta), atol=1e-12)
        assert np.allclose(w.value(theta + 14 * TWO_PI), w.value(theta), atol=1e-10)

    def test_derivative_matches_finite_differences(self):
        w = TrapezoidWave(1.0, -1.0)
        rng = np.random.default_rng(7)
        theta = rng.uniform(0.0, TWO_PI, 200)
        # keep clear of the breakpoints where the slope jumps
        bp = np.asarray(w.breakpoints)
        keep = np.min(np.abs(theta[:, None] - bp[None, :]), axis=1) > 1e-3
        theta = theta[keep]
        h = 1e-7
        fd = (w.value(theta + h) - w.value(theta - h)) / (2 * h)
        assert np.allclose(w.derivative(theta), fd, atol=1e-6)

    def test_extremizer_args_hit_extremes(self):
        w = TrapezoidWave(1.35, -0.35)
        arg_lo, arg_hi = w.extremizer_args()
        assert float(w.value(arg_lo)) == pytest.approx(-0.35, abs=1e-14)
        assert float(w.value(arg_hi)) == pytest.approx(1.35, abs=1e-14)

    def test_empty_plateau_has_no_piece(self):
        # v_max = 13, v_min = -1 leave the upper plateau zero long
        w = TrapezoidWave(13.0, -1.0)
        assert w.breakpoints[1] == w.breakpoints[2]
        assert len(w.pieces) == 5
        assert all(width > 0.0 for _start, width, _v, _rise in w.pieces)

    def test_derivative_of_empty_plateau_is_its_pieces_slopes(self):
        # a RuntimeWarning from 0/0 would fail here, as the pytest settings
        # make it an error
        w = TrapezoidWave(13.0, -1.0)
        assert np.all(np.isfinite(w.derivative(np.linspace(0.0, TWO_PI, 64))))
        for start, width, _v, rise in w.pieces:
            theta = np.array([start, start + 0.5 * width])
            assert np.array_equal(w.derivative(theta), np.full(2, rise / width))
        assert np.all(np.isfinite(eval_phi(SlowFromPeriodic(w, 2), np.geomspace(1.0, 1e6, 50))))

    @pytest.mark.parametrize("wave", [TrapezoidWave(13.0, -1.0), TrapezoidWave(1.35, -0.35),
                                      TrapezoidWave(1.0, -0.5, 0.4)])
    def test_linear_pieces_of_a_wave_read_its_pieces(self, wave):
        bp, kv = np.asarray(wave.breakpoints), np.asarray(wave.knot_values)
        block = np.array([bp[:-1], np.diff(bp), kv[:-1], np.diff(kv)])[:, np.diff(bp) > 0]
        pieces = _linear_pieces(PeriodicZeroMean(wave.v_max, wave.v_min, wave.ramp_width),
                                30.0)[0]
        want = np.concatenate([block + [[TWO_PI * q], [0.0], [0.0], [0.0]] for q in range(5)],
                              axis=1)
        assert np.array_equal(pieces, want)

    @given(v_max=st.floats(0.1, 5.0), v_min=st.floats(-5.0, -0.1))
    @settings(max_examples=40, deadline=None)
    def test_mean_zero_property(self, v_max, v_min):
        ramp = math.pi / 8
        length = TWO_PI - 4 * ramp
        p_plus = (-ramp * (v_max + v_min) - v_min * length) / (v_max - v_min)
        assume(0.0 < p_plus < length)
        w = TrapezoidWave(v_max, v_min, ramp)
        # exact mean from the piece decomposition, computed independently
        total = 0.0
        for (_start, width, v, rise) in w.pieces:
            total += width * (v + 0.5 * rise)
        assert abs(total) < 1e-12


class TestTrigPolynomial:
    def test_two_mode_extrema_match_reference(self):
        # extrema of sin(x) + sin(2x): critical points solve
        # cos x + 2 cos 2x = 0, giving -+ 1.760172593
        poly = TrigPolynomial(0.0, (), (1.0, 1.0))
        lo, hi = poly.extrema()
        assert lo == pytest.approx(-1.760172593, abs=1e-9)
        assert hi == pytest.approx(1.760172593, abs=1e-9)

    def test_extrema_match_dense_grid(self):
        poly = TrigPolynomial(0.3, (0.4, -0.2, 0.05), (0.9, 0.0, 0.3))
        theta = np.linspace(0.0, TWO_PI, 4_000_001)
        vals = poly.value(theta)
        lo, hi = poly.extrema()
        assert lo == pytest.approx(float(vals.min()), abs=1e-10)
        assert hi == pytest.approx(float(vals.max()), abs=1e-10)

    def test_derivative_poly_matches_finite_differences(self):
        poly = TrigPolynomial(0.1, (0.5, 0.2), (0.7,))
        dp = poly.derivative_poly()
        theta = np.linspace(0.0, TWO_PI, 97)
        h = 1e-6
        fd = (poly.value(theta + h) - poly.value(theta - h)) / (2 * h)
        assert np.allclose(dp.value(theta), fd, atol=1e-8)
        assert np.allclose(poly.derivative(theta), fd, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_sign_change_of_the_derivative_has_a_critical_point(self, seed):
        # z^J p' has degree 2J, J the highest nonzero harmonic, and each
        # sign change of p' on a fine grid has a root angle within a cell
        grid = np.linspace(0.0, TWO_PI, 65_537)
        h = grid[1]
        for poly in _trig_polys(seed):
            crits = poly._critical_points()
            top = max((j for j, (c, s) in enumerate(itertools.zip_longest(
                poly.cos_coeffs, poly.sin_coeffs, fillvalue=0.0), start=1) if c or s),
                default=0)
            assert crits.shape == (2 * top,), poly
            assert np.all((crits >= 0.0) & (crits <= TWO_PI)), poly
            dv = poly.derivative(grid)
            cells = (dv[:-1] > 0) != (dv[1:] > 0)
            mids = (grid[:-1] + 0.5 * h)[cells]
            gaps = np.abs((crits - mids[:, None] + math.pi) % TWO_PI - math.pi)
            assert np.all(gaps.min(axis=1, initial=math.inf) <= 1.5 * h), poly

    @pytest.mark.parametrize("seed", range(4))
    def test_extrema_match_40_digit_reference(self, seed):
        for poly in _trig_polys(seed):
            _assert_extrema_near_reference(poly.extrema(), poly)

    def test_two_mode_example_bands_match_40_digit_reference(self):
        cert = lemma_not_example()
        mom1 = kernel_moments(1, 1.0, KernelFlavor.AVERAGE)
        mom2 = kernel_moments(1, 2.0, KernelFlavor.AVERAGE)
        envelope = TrigPolynomial(0.0, (mom1.b_value, mom2.b_value),
                                  (mom1.a_value, mom2.a_value))
        # the phi profile: sum_j sin(j x) + (j / n) cos(j x), n = 1
        profile = TrigPolynomial(0.0, (1.0, 2.0), (1.0, 1.0))
        for band, poly in ((cert.expected_H_band, TrigPolynomial(0.0, (), (1.0, 1.0))),
                           (cert.expected_u_band, envelope),
                           (cert.expected_phi_band, profile)):
            assert tuple(band) == poly.extrema()
            _assert_extrema_near_reference(band, poly)

    def test_refuses_a_harmonic_above_the_threshold_before_solving(self, monkeypatch):
        def no_solve(*_args):
            raise AssertionError("eigenvalue solve reached")

        monkeypatch.setattr(np, "roots", no_solve)
        monkeypatch.setattr(np.linalg, "eigvals", no_solve)
        poly = TrigPolynomial(0.0, (0.0,) * 500 + (1.0,))
        with pytest.raises(ConvergenceError, match="501"):
            poly.extrema()
        monkeypatch.undo()
        # trailing zero harmonics do not count toward the threshold
        assert TrigPolynomial(0.0, (1.0,) + (0.0,) * 600).extrema() == (-1.0, 1.0)

    def test_constant_polynomial(self):
        poly = TrigPolynomial(0.7)
        assert poly.extrema() == (0.7, 0.7)
        assert poly.mean() == 0.7

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(DomainError):
            TrigPolynomial(math.inf)
        with pytest.raises(DomainError):
            TrigPolynomial(0.0, (math.nan,))
        with pytest.raises(DomainError):
            TrigPolynomial(0.0, (), (True,))
        with pytest.raises(DomainError):
            TrigPolynomial(0.0, ("2",))


class TestValidation:
    @pytest.mark.parametrize("bad", [
        lambda: Constant(math.inf),
        lambda: LogSine(0.0, 1.0),
        lambda: LogSine(-1.0, 1.0),
        lambda: LogSine(1.0, 0.0),
        lambda: LogSine(1.0, 1.0, math.nan),
        lambda: LogSine(True, 1.0),
        lambda: LogSine(10**400, 1),
        lambda: LogSineAvgPreimage(1.0, 1.0, 0.0, 0),
        lambda: LogSineAvgPreimage(1.0, 1.0, 0.0, 2.5),
        lambda: LogLogSine(-0.5),
        lambda: LogLogSine(1.0, False),
        lambda: Constant(True),
        lambda: PeriodicZeroMean(True, -1.0),
        lambda: BumpTrain(0.0, 0.3, 0.0, GeometricCenters()),
        lambda: BumpTrain(1.0, -0.3, 0.0, GeometricCenters()),
        lambda: BumpTrain(1.0, 2.0, 0.0, GeometricCenters(1.5)),
        lambda: GeometricCenters(1.0),
        lambda: GeometricCenters(0.5),
        lambda: GeometricCenters(10**400),
        lambda: DoubleExpCenters("sideways"),
        lambda: DoubleExpCenters(np.array([1.0, 2.0])),
        lambda: Sum(()),
        lambda: Sum((1.0, 2.0)),
        lambda: Sum(None),
        lambda: Sum(5),
        lambda: TrigPolynomial(0.0, None),
        lambda: TrigPolynomial(0.0, True),
        lambda: TrigPolynomial(0.0, 1j),
        lambda: TrigPolynomial(0.0, math.nan),
        lambda: TrigPolynomial(0.0, (), None),
        lambda: Negate("x"),
        lambda: SlowFromPeriodic(TrigPolynomial(0.0, (), (1.0,)), 0),
    ])
    def test_rejected(self, bad):
        with pytest.raises(DomainError):
            bad()

    def test_geometric_base_near_one_refused_before_allocating(self):
        # floor(log(DBL_MAX) / log(base)) centers: about 7.1e11 here, which
        # would be 5.7 TB of doubles
        with pytest.raises(DomainError, match="centers"):
            GeometricCenters(1.0 + 1e-9)
        with pytest.raises(DomainError, match="centers"):
            from_json({"schema": "idexpr/1", "expr": {
                "variant": "bump_train", "height": 1.0, "half_width": 1e-12,
                "baseline": 0.0, "centers": {"law": "geometric", "base": 1.0001}}})
        GeometricCenters(1.001)  # about 7.1e5 centers, below the 1e6 cap

    def test_bump_overlap_threshold(self):
        # geometric base 2: consecutive gaps are c, 2c, ...; the smallest is
        # centers 2 and 4, so half_width just under 1 passes and over fails
        BumpTrain(1.0, 0.99, 0.0, GeometricCenters(2.0))
        with pytest.raises(DomainError, match="overlap"):
            BumpTrain(1.0, 1.01, 0.0, GeometricCenters(2.0))


class TestEvalPhi:
    def test_scalar_in_scalar_out(self):
        out = eval_phi(Constant(0.4), 3.0)
        assert isinstance(out, float)
        assert out == 0.4

    def test_array_shape_preserved(self):
        tau = np.linspace(0.0, 10.0, 17)
        out = eval_phi(LogSine(1.0, 2.0), tau)
        assert out.shape == tau.shape

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            eval_phi(Constant(1.0), -0.5)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_unrepresentable_points_at_band_api(self, bad):
        with pytest.raises(RangeError, match="analytic_band_phi"):
            eval_phi(LogSine(1.0, 1.0), bad)

    @pytest.mark.parametrize("bad", ["2", True, [True, False], None, 1j, np.array([1.0 + 0j])])
    def test_rejects_points_that_are_not_reals(self, bad):
        # numeric_H refuses the same points (errors._points); none may be
        # read as a number, nor end in a RangeError or a bare TypeError
        with pytest.raises(DomainError, match="tau must be a real"):
            eval_phi(LogSine(1.0, 1.0), bad)

    def test_integer_points_are_reals(self):
        expr = LogSine(1.0, 1.0)
        assert eval_phi(expr, 2) == eval_phi(expr, 2.0)
        assert np.array_equal(eval_phi(expr, np.array([0, 3])), eval_phi(expr, np.array([0.0, 3.0])))

    def test_log_sine_peak_value(self):
        m = 2.5
        tau = math.exp(math.pi / (2 * m)) - 1.0
        assert eval_phi(LogSine(0.8, m, 0.1), tau) == pytest.approx(0.9, abs=1e-12)

    def test_bump_train_shape(self):
        bt = BumpTrain(0.7, 0.3, 0.2, GeometricCenters(math.e))
        c = math.e
        assert eval_phi(bt, c) == pytest.approx(0.9, abs=1e-12)
        assert eval_phi(bt, c - 0.3) == pytest.approx(0.2, abs=1e-12)
        assert eval_phi(bt, c + 0.15) == pytest.approx(0.55, abs=1e-12)
        # far from every center, including beyond the last representable one
        assert eval_phi(bt, 2.0 * c) == pytest.approx(0.2, abs=1e-12)
        last = bt.centers.representable_centers()[-1]
        assert eval_phi(bt, last * (1 + 1e-8)) == pytest.approx(0.2, abs=1e-12)

    def test_first_bump_left_shoulder_not_doubled(self):
        bt = BumpTrain(1.0, 0.5, 0.0, GeometricCenters(math.e))
        c = math.e
        assert eval_phi(bt, c - 0.25) == pytest.approx(0.5, abs=1e-12)

    def test_periodic_wave_evaluation(self):
        pzm = PeriodicZeroMean(1.35, -0.35)
        tau = np.array([0.0, 1.0, 7.0, 400.0])
        expected = pzm.wave.value(np.mod(tau, TWO_PI))
        assert np.allclose(eval_phi(pzm, tau), expected, atol=1e-12)

    def test_negate_is_pointwise(self):
        expr = LogSineAvgPreimage(0.8, 1.7, 0.3, 2)
        tau = np.linspace(0.0, 30.0, 301)
        assert np.allclose(eval_phi(Negate(expr), tau), -eval_phi(expr, tau))

    def test_negate_helper_unwraps(self):
        expr = LogLogSine(0.5, 0.1)
        assert negate(negate(expr)) == expr
        assert negate(Constant(2.0)) == Constant(-2.0)


class TestAveragingIdentity:
    """phi = H + (tau/n) H' links every expression to its ball average."""

    @pytest.mark.parametrize("expr,n", [
        (LogSineAvgPreimage(0.85, 3.7, 0.5, 2), 2),
        (LogSine(1.0, 1.3, 0.2), 1),
        (SlowFromPeriodic(TrigPolynomial(0.5, (0.2,), (0.85, 0.1)), 3), 3),
        (LogLogSine(0.5, 0.5), 2),
    ])
    def test_ode_identity(self, expr, n, quad_constants):
        quad_constants(_H_TOL=1e-10)
        for tau in (2.3, 17.9, 400.1):
            h = tau * 1e-5
            h_mid = numeric_H(expr, n, tau)
            h_plus = numeric_H(expr, n, tau + h)
            h_minus = numeric_H(expr, n, tau - h)
            derivative = (h_plus - h_minus) / (2 * h)
            reconstructed = h_mid + (tau / n) * derivative
            assert reconstructed == pytest.approx(eval_phi(expr, tau), abs=2e-5)


class TestClosedH:
    def test_preimage_averages_to_log_sine(self):
        pre = LogSineAvgPreimage(0.85, 3.7, 0.5, 2)
        assert closed_H(pre, 2) == LogSine(0.85, 3.7, 0.5)

    def test_dimension_mismatch_gives_none(self):
        pre = LogSineAvgPreimage(0.85, 3.7, 0.5, 2)
        assert closed_H(pre, 3) is None

    def test_no_closed_form_cases(self):
        assert closed_H(LogLogSine(1.0), 2) is None
        assert closed_H(PeriodicZeroMean(1.0, -1.0), 1) is None
        assert closed_H(Sum((Constant(1.0), LogLogSine(1.0))), 1) is None

    def test_constant_and_structure_mapping(self):
        pre = LogSineAvgPreimage(0.6, 2.0, 0.0, 1)
        expr = Sum((Negate(pre), Constant(0.3)))
        assert closed_H(expr, 1) == Sum((Negate(LogSine(0.6, 2.0, 0.0)),
                                         Constant(0.3)))

    def test_slow_from_periodic_averages_to_profile(self):
        g = TrigPolynomial(0.5, (0.2,), (0.85, 0.1))
        assert closed_H(SlowFromPeriodic(g, 3), 3) == PeriodicOfLog(g)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_closed_matches_numeric(self, n, quad_constants):
        pre = LogSineAvgPreimage(0.85, 3.7, 0.5, n)
        h_expr = closed_H(pre, n)
        quad_constants(_H_TOL=1e-10)
        for tau in (1.0, 10.0, 1e3):
            assert numeric_H(pre, n, tau) == pytest.approx(
                eval_phi(h_expr, tau), abs=1e-8)

    def test_trapezoid_slow_term_closed_average(self, quad_constants):
        wave = TrapezoidWave(1.0, -1.0)
        expr = SlowFromPeriodic(wave, 2)
        h_expr = closed_H(expr, 2)
        assert h_expr == PeriodicOfLog(wave)
        quad_constants(_H_TOL=1e-9)
        for tau in (7.0, 200.0):
            assert numeric_H(expr, 2, tau) == pytest.approx(
                eval_phi(h_expr, tau), abs=1e-7)


class TestPhiFromH:
    def test_round_trip_through_average(self):
        h_expr = Sum((LogSine(0.85, 3.7, 0.0), Constant(0.5)))
        pre = phi_from_H(h_expr, 2)
        assert closed_H(pre, 2) == h_expr

    def test_periodic_profile_round_trip(self):
        h_expr = PeriodicOfLog(TrapezoidWave(1.0, -1.0))
        assert closed_H(phi_from_H(h_expr, 4), 4) == h_expr

    def test_unsupported_forms_raise(self):
        with pytest.raises(UnsupportedExpression):
            phi_from_H(LogLogSine(1.0), 2)
        with pytest.raises(UnsupportedExpression):
            phi_from_H(PeriodicZeroMean(1.0, -1.0), 2)

    def test_rejects_bad_dimension(self):
        with pytest.raises(DomainError):
            phi_from_H(Constant(1.0), 0)


class TestNumericH:
    def test_at_zero_returns_phi(self):
        for expr in (LogSine(1.0, 2.0, 0.3), PeriodicZeroMean(1.0, -1.0),
                     LogLogSine(0.5, 0.5)):
            assert numeric_H(expr, 3, 0.0) == eval_phi(expr, 0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            numeric_H(Constant(1.0), 1, -1.0)
        with pytest.raises(DomainError):
            numeric_H(Constant(1.0), 1, math.inf)
        with pytest.raises(DomainError):
            numeric_H(Constant(1.0), 0, 1.0)
        with pytest.raises(DomainError):
            numeric_H(LogSine(1.0, 1.0), 2, True)
        with pytest.raises(DomainError):
            numeric_H(LogSine(1.0, 1.0), 2, 10**400)

    @pytest.mark.parametrize("tau", [0.7, 3.0, 97.0, 1e5])
    def test_log_sine_matches_independent_closed_form(self, tau, quad_constants):
        expr = LogSine(0.9, 2.6, 0.15)
        quad_constants(_H_TOL=1e-10)
        assert numeric_H(expr, 1, tau) == pytest.approx(
            ref_H(expr, 1, tau), abs=1e-9)

    def test_constant_average_is_constant(self):
        assert numeric_H(Constant(0.8), 5, 123.4) == pytest.approx(0.8, abs=1e-14)

    @pytest.mark.parametrize("n,tau", [(1, 3.0), (2, 50.0), (4, 11.0)])
    def test_periodic_wave_exact_route_vs_reference(self, n, tau):
        pzm = PeriodicZeroMean(1.35, -0.35)
        assert numeric_H(pzm, n, tau) == pytest.approx(ref_H(pzm, n, tau), abs=1e-7)

    @pytest.mark.parametrize("n,tau", [(1, 5.0), (3, 100.0)])
    def test_bump_train_exact_route_vs_reference(self, n, tau):
        bt = BumpTrain(0.7, 0.3, 0.2, GeometricCenters(math.e))
        assert numeric_H(bt, n, tau) == pytest.approx(ref_H(bt, n, tau), abs=1e-6)

    def test_kinked_route_vs_reference(self, quad_constants):
        # the trapezoid profile jumps in slope, so it takes the Gauss layout
        # split at its corners next to the Gauss sum of the doubly-log sine
        expr = Sum((LogLogSine(0.5, 0.5), PeriodicOfLog(TrapezoidWave(1.0, -1.0))))
        quad_constants(_H_TOL=1e-10)
        assert numeric_H(expr, 3, 50.0) == pytest.approx(
            ref_H(expr, 3, 50.0), abs=1e-8)

    def test_periodic_wave_average_decays(self):
        # zero mean forces H = O(1/tau); the exact route must not lose this
        # to cancellation even at huge tau
        pzm = PeriodicZeroMean(1.35, -0.35)
        assert abs(numeric_H(pzm, 1, 1e8)) < 1e-6
        assert abs(numeric_H(pzm, 2, 1e10)) < 1e-8

    def test_bump_train_average_approaches_baseline(self):
        bt = BumpTrain(0.7, 0.3, 0.2, GeometricCenters(math.e))
        assert numeric_H(bt, 1, 1e12) == pytest.approx(0.2, abs=1e-6)

    def test_tau_inside_a_bump_is_clipped_exactly(self):
        bt = BumpTrain(0.7, 0.3, 0.2, GeometricCenters(math.e))
        c = float(math.e**3)
        assert numeric_H(bt, 2, c) == pytest.approx(ref_H(bt, 2, c), abs=1e-6)

    def test_sum_and_negate_are_linear(self, quad_constants):
        # the wave's routes have no tolerance, so b's value does not move
        a = LogSine(0.6, 1.3, 0.1)
        b = PeriodicZeroMean(1.0, -1.0)
        tau = 37.0
        quad_constants(_H_TOL=1e-10)
        combined = numeric_H(Sum((a, Negate(b))), 2, tau)
        separate = numeric_H(a, 2, tau) - numeric_H(b, 2, tau)
        assert combined == pytest.approx(separate, abs=1e-10)

    @given(a=st.floats(0.1, 2.0), m=st.floats(0.3, 5.0),
           c=st.floats(-1.0, 1.0), tau=st.floats(0.5, 50.0))
    # every example runs at the same H target, so the fixture may be shared
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_log_sine_average_property(self, a, m, c, tau, quad_constants):
        quad_constants(_H_TOL=1e-9)
        got = numeric_H(LogSine(a, m, c), 1, tau)
        assert got == pytest.approx(ref_H(LogSine(a, m, c), 1, tau), abs=1e-7)


# ---------------------------------------------------------------------------
# Ball averages of log-analytic data on the s = log(r / tau) axis


def log_gauss_cases(n):
    """(label, expression) for every analytic leaf kind and a sum of two."""
    g = TrigPolynomial(0.1, (0.3, 0.0, 0.2), (0.5,))
    preimage = LogSineAvgPreimage(0.6, 2.3, -0.1, n)
    log_log = LogLogSine(0.5, 0.1)
    return [
        ("log-sine", LogSine(0.8, 0.7, 0.2)),
        ("preimage", preimage),
        ("doubly-log", log_log),
        ("profile", PeriodicOfLog(g)),
        ("slow-profile", SlowFromPeriodic(g, n)),
        ("sum", Sum((preimage, Negate(log_log)))),
    ]


class TestLogGaussAverage:
    TAUS = (1e-6, 2.3, 1e4, 1e12)

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    @pytest.mark.parametrize("tau", TAUS)
    def test_against_mpmath(self, n, tau, quad_constants):
        quad_constants(_H_TOL=1e-11)
        for label, expr in log_gauss_cases(n):
            want = ref_H(expr, n, tau, dps=30)
            assert numeric_H(expr, n, tau) == pytest.approx(
                want, abs=1e-10), label

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("tau", TAUS)
    def test_bound_covers_observed_error(self, n, tau, quad_constants):
        for label, expr in log_gauss_cases(n):
            want = ref_H(expr, n, tau, dps=30)
            for tol in (1e-5, 1e-8, 1e-11):
                quad_constants(_H_TOL=tol)
                value, bound = _ball_average(expr, n, tau)
                assert abs(value - want) <= bound, (label, tol)
                # tol / 2 for the window, tol / 2 for the panels, and the
                # rounding of a sum of at most a thousand terms
                assert bound <= tol + 1e3 * 2.3e-16 * 3.0, (label, tol)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("tau", [2.3, 1e4, 1e8])
    def test_agrees_with_adaptive_route(self, n, tau, quad_constants):
        for label, expr in log_gauss_cases(n):
            want = ref_H(expr, n, tau, dps=30)
            for tol in (1e-6, 1e-8, 1e-10):
                quad_constants(_H_TOL=tol)
                assert abs(numeric_H(expr, n, tau) - want) <= tol, \
                    (label, tol)

    def test_one_evaluation_with_nodes_independent_of_tau(self, monkeypatch):
        import heatband.initial_data as idata

        sizes = []

        def counting_eval(expr, tau):
            sizes.append(np.size(tau))
            return eval_phi(expr, tau)

        monkeypatch.setattr(idata, "eval_phi", counting_eval)
        expr = Sum((LogSineAvgPreimage(0.6, 2.3, -0.1, 2), Constant(0.3),
                    Negate(LogLogSine(0.5, 0.1))))
        for tau in (1e2, 1e12):
            numeric_H(expr, 2, tau)
        assert len(sizes) == 2
        assert sizes[0] == sizes[1] > 1

    def test_non_finite_values_raise(self, monkeypatch):
        import heatband.initial_data as idata

        monkeypatch.setattr(idata, "eval_phi", lambda expr, tau: np.full_like(tau, np.nan))
        with pytest.raises(EvaluationError):  # below the reach 6 of the series
            numeric_H(LogSine(1.0, 1.0, 0.0), 1, 2.0)

    def test_node_cap_raises(self):
        with pytest.raises(ConvergenceError):
            numeric_H(LogSine(1.0, 1e6, 0.0), 1, 10.0)

    def test_window_covers_the_tail(self):
        # the weights integrate n e^{ns} over [-D, 0], 1 - e^{-nD}, and the
        # tail below s = -D drops mass e^{-nD} = tol / 2
        scale, weights, bound = _log_gauss_rule(2, 1.5, 2.0, 1e-8)
        assert float(np.sum(weights)) == pytest.approx(1.0 - 0.5e-8 / 1.5, abs=1e-14)
        assert 0.5e-8 < bound <= 1e-8
        assert np.all(np.diff(scale) > 0) and 0.0 < scale[0] and scale[-1] < 1.0

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("omega", [0.06, 1.7, 20.0])
    def test_rule_on_exact_phi_is_within_its_bound(self, n, omega):
        # phi in 30 digits at the rule's own nodes, so that only the rule errs
        mpmath = pytest.importorskip("mpmath")
        leaf, tau = LogSine(0.7, omega, 0.2), 1e4
        want = ref_H(leaf, n, tau, dps=30)
        with mpmath.workdps(30):
            for tol in (1e-8, 1e-4):
                scale, weights, bound = _log_gauss_rule(n, *leaf.strip_bound(), tol)
                got = mpmath.fsum(
                    w * (0.7 * mpmath.sin(omega * mpmath.log1p(mpmath.mpf(r))) + 0.2)
                    for w, r in zip(weights.tolist(), (tau * scale).tolist()))
                assert abs(got - want) <= bound, tol

    @pytest.mark.parametrize("n", [1, 3])
    def test_mixed_sum_is_the_sum_of_its_parts(self, n):
        # analytic leaves keep their own rule beside kinked ones; at m = 300
        # a strip shared with the kinked leaves needed over 1e5 nodes in n = 1
        taus = np.geomspace(1e2, 1e8, 21)
        profile = TrapezoidWave(1.0, -0.5, 0.4)
        for analytic, kinked in ((LogSine(1.0, 300.0), PeriodicOfLog(profile)),
                                 (LogSine(0.7, 2.0, 0.1), negate(SlowFromPeriodic(profile, n)))):
            total, bound = _ball_average(Sum((analytic, kinked)), n, taus)
            part_a, bound_a = _ball_average(analytic, n, taus)
            part_k, bound_k = _ball_average(kinked, n, taus)
            assert np.all(np.abs(total - (part_a + part_k)) <= bound + bound_a + bound_k)
            assert np.all(bound <= _H_TOL)

    def test_wide_strip_needs_few_nodes(self):
        # data-single-mode, n = 1; the strip pi/8 took 272 nodes
        assert _log_gauss_rule(1, 0.612, 1.354, 1e-8)[0].size <= 120

    def test_an_analytic_rule_adds_one_panel_layout(self):
        # the strip is chosen inside one call, so it cannot evict the
        # cached layouts of kinked leaves
        _log_gauss_panels.cache_clear()
        _log_gauss_rule.__wrapped__(3, 0.7, 2.5, 1e-9)
        assert _log_gauss_panels.cache_info().currsize == 1

    @pytest.mark.parametrize("args,layout", [
        ((1, 0.612, 1.354, 1e-8), ("0x1.29f7024cdbaecp+4", 11, "0x1.a9b7608a957a7p-28")),
        ((3, 0.7, 2.5, 1e-9), ("0x1.c1463fe15bb63p+2", 6, "0x1.0cf8f66151bcap-30")),
        ((2, 1.5, 2.0, 1e-8), ("0x1.384f063602546p+3", 7, "0x1.d2dc2d517d313p-28")),
        ((1, 1.0, 300.0, 5e-9), ("0x1.3ce95eba4f8b4p+4", 697, "0x1.5420dc7617f90p-28")),
        ((10, 0.7, 20.0, 1e-4), ("0x1.e8cbfb72fe45dp-1", 2, "0x1.21c4ff104660cp-14")),
    ], ids=["data-single-mode", "n3", "n2", "m300", "n10"])
    def test_analytic_layouts_are_pinned(self, args, layout):
        # with steep = 0 the strip search does the analytic leaves' own
        # arithmetic, so their layouts (D, P, bound) keep every bit they had
        # before the kinked leaves shared the search
        n, mass, omega, tol = args
        depth, panels, bound = _log_gauss_panels(n, mass, omega, tol)
        assert (depth.hex(), panels, bound.hex()) == layout

    def test_kinked_layouts_search_their_strip(self):
        # PeriodicOfLog(TrapezoidWave(1, -0.5, 0.4)) in H (n = 1, tol 1e-8)
        # and in u (k = 0: mass and steep times z_max, tol abs_tol / 2, reach
        # pi/4); the fixed strip pi/8 took 39 and 163 panels
        leaves = _split_leaves(PeriodicOfLog(TrapezoidWave(1.0, -0.5, 0.4)))
        sup, steep = leaves.kink_sup, leaves.kink_steep
        assert _log_gauss_panels(1, sup, 0.0, 1e-8, steep)[1] <= 14
        assert _log_gauss_panels(1, _Z_MAX * sup, 0.0, 0.5e-13, _Z_MAX * steep,
                                 0.25 * math.pi)[1] <= 90


class TestStripBound:
    """|phi(rho e^{iy})| <= mass e^{omega |y|} for |y| < pi/2, the contract of
    strip_bound on which both fixed rules of the analytic leaves rest."""

    G = TrigPolynomial(0.1, (0.3, 0.0, 0.2), (0.5,))
    Y = np.linspace(-0.49 * math.pi, 0.49 * math.pi, 99)
    TAU = np.multiply.outer(np.logspace(-3.0, 12.0, 61), np.exp(1j * Y))

    def complex_profile(self, slope):
        """g(L) + slope (tau / (tau + 1)) g'(L) at TAU in complex arithmetic,
        L = log(tau + 1); TrigPolynomial.value casts to float."""
        ell, g, ratio = np.log1p(self.TAU), self.G, slope * self.TAU / (self.TAU + 1.0)
        out = np.full_like(self.TAU, g.const)
        for j, c in enumerate(g.cos_coeffs, start=1):
            out += c * (np.cos(j * ell) - ratio * j * np.sin(j * ell))
        for j, c in enumerate(g.sin_coeffs, start=1):
            out += c * (np.sin(j * ell) + ratio * j * np.cos(j * ell))
        return out

    @pytest.mark.parametrize("leaf", [
        LogSine(0.8, 0.7, 0.2), LogSine(1.0, 20.0, -0.5),
        LogSineAvgPreimage(0.6, 2.3, -0.1, 1), LogSineAvgPreimage(1.0, 5.0, 0.3, 3),
        LogLogSine(0.5, 0.1), LogLogSine(1.0, -2.0),
        PeriodicOfLog(G), SlowFromPeriodic(G, 1), SlowFromPeriodic(G, 4),
    ], ids=repr)
    def test_holds_on_the_strip(self, leaf):
        mass, omega = leaf.strip_bound()
        if isinstance(leaf, (PeriodicOfLog, SlowFromPeriodic)):
            values = self.complex_profile(leaf._slope)
        else:
            values = leaf._values(self.TAU)
        assert np.all(np.abs(values) <= mass * np.exp(omega * np.abs(self.Y)) * (1.0 + 1e-12))


def bump_radial(train: BumpTrain, n: int, tau: float) -> tuple[float, float]:
    """(value, bound) of the piece route for the bumps of train at one radius."""
    pieces, sup, _steep = _linear_pieces(train, tau)
    values, bounds = _pieces_radial(pieces, sup, n, np.array([tau]))
    return float(values[0]), float(bounds[0])


class TestExactRoutesFarOut:
    """The exact wave and bump ball averages at tau far beyond tau^n's range:
    the H windows of data-mode-plus-wave and data-slow-plus-bumps
    certificates reach 8.5e169 and 5.3e78."""

    WAVES = (PeriodicZeroMean(0.0105, -0.0005, 0.13089969389957531),
             PeriodicZeroMean(1.0, -1.0))
    BUMPS = (BumpTrain(1.7, 1.0, 0.0, DoubleExpCenters("peak")),
             BumpTrain(1.0, 0.5, 0.2, GeometricCenters(1e6)),
             # wider than its first centre: the rising piece reaches below 0
             BumpTrain(1.0, 40.0, 0.0, GeometricCenters(10.0)))

    @pytest.mark.parametrize("tau", [1e-6, 0.3, 1.0, 6.28, TWO_PI, 6.3,
                                     37.0, 1e6, 8.5e169, 1e300])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_wave_against_mpmath(self, n, tau):
        # |error| <= bound <= n 1e-14 in H on both sides of the router's
        # switch at four periods: nearer 2 pi the integration-by-parts sum
        # would carry the rounding bounds of W_1 .. W_n at weights
        # (n-1)!/(n-j)! / tau^j of order 1 (up to 3.2e-13 for n = 10), and
        # the pieces serve
        for wave in self.WAVES:
            value, bound = _ball_average(wave, n, np.array([tau]))
            error = abs(float(value[0]) - ref_H(wave, n, tau, dps=60))
            assert error <= min(float(bound[0]), n * 1e-14), (wave, error, bound)
            assert bound[0] <= n * 1e-14, (wave, bound)

    @pytest.mark.parametrize("tau", [8.0 * math.pi, 26.0, 31.0, 40.0, 47.5, 59.0, 60.0])
    def test_amplitude_two_waves_within_their_bound(self, tau):
        # from four periods to about 60 the series bound of a wave of
        # amplitude 2 passes n 1e-14 (the rounding bounds of W_j scale with
        # its jump), so only error <= bound is asserted: the bound is real
        for n in range(1, 11):
            wave_plus_constant = prescribe_data(-1.0, 0.0, 0.0, 2.0, n).data
            for wave in (PeriodicZeroMean(2.0, -0.5, 0.3), wave_plus_constant.terms[0]):
                value, bound = _ball_average(wave, n, np.array([tau]))
                error = abs(float(value[0]) - ref_H(wave, n, tau, dps=60))
                assert error <= float(bound[0]), (wave, n, error, bound)

    def test_wave_batch_matches_single_radii(self):
        # both sides of the switch in one array give the values of single calls
        taus = np.array([0.3, 1e3, 6.0, TWO_PI, 1e300])
        for n in (1, 4, 10):
            values, bounds = _ball_average(self.WAVES[1], n, taus)
            for tau, value, bound in zip(taus, values, bounds):
                single = _ball_average(self.WAVES[1], n, np.array([tau]))
                assert (value, bound) == (single[0][0], single[1][0])

    @pytest.mark.parametrize("tau", [5.0, 121.0, 1e4, 5.3e78, 1e300])
    def test_bumps_against_mpmath(self, tau):
        # the bumps alone: the piece route leaves the baseline to the constants
        for train in self.BUMPS:
            bumps = dataclasses.replace(train, baseline=0.0)
            for n in range(1, 11):
                value, bound = bump_radial(train, n, tau)
                error = abs(value - ref_H(bumps, n, tau, dps=30) / n)
                assert error <= bound <= 1e-14, (train, n, error, bound)


class TestAnalyticBands:
    def test_atomic_bands(self):
        assert analytic_band_phi(Constant(0.3)) == (0.3, 0.3)
        assert analytic_band_phi(LogSine(0.8, 2.0, 0.1)) == pytest.approx((-0.7, 0.9))
        assert analytic_band_phi(LogLogSine(0.5, 0.5)) == pytest.approx((0.0, 1.0))
        assert analytic_band_phi(PeriodicZeroMean(1.35, -0.35)) == (-0.35, 1.35)

    def test_preimage_band_widening(self):
        pre = LogSineAvgPreimage(0.85, 2.0, 0.5, 1)
        lo, hi = analytic_band_phi(pre)
        half = 0.85 * math.sqrt(1.0 + 4.0)
        assert hi == pytest.approx(0.5 + half, abs=1e-12)
        assert lo == pytest.approx(0.5 - half, abs=1e-12)

    def test_band_is_asymptotically_sharp(self):
        # sample one full slow period at large tau: never outside the band,
        # and the extremes are approached
        pre = LogSineAvgPreimage(0.85, 2.0, 0.5, 1)
        lo, hi = analytic_band_phi(pre)
        t0 = 1e8
        tau = np.geomspace(t0, t0 * math.exp(TWO_PI / 2.0), 200_001)
        vals = eval_phi(pre, tau)
        assert vals.max() <= hi + 1e-9
        assert vals.min() >= lo - 1e-9
        assert vals.max() > hi - 1e-6
        assert vals.min() < lo + 1e-6

    def test_bump_train_band(self):
        up = BumpTrain(0.7, 0.3, 0.2, GeometricCenters())
        down = BumpTrain(-0.7, 0.3, 0.2, GeometricCenters())
        assert analytic_band_phi(up) == pytest.approx((0.2, 0.9))
        assert analytic_band_phi(down) == pytest.approx((-0.5, 0.2))

    def test_sum_slow_plus_wave(self):
        s = Sum((LogSine(0.6, 1.97, 0.1), PeriodicZeroMean(1.35, -0.35)))
        lo, hi = analytic_band_phi(s)
        assert lo == pytest.approx(0.1 - 0.6 - 0.35, abs=1e-12)
        assert hi == pytest.approx(0.1 + 0.6 + 1.35, abs=1e-12)

    def test_sum_loglog_plus_peak_bumps(self):
        s = Sum((LogLogSine(1.0, 0.0),
                 BumpTrain(0.8, 10.0, 0.0, DoubleExpCenters("peak"))))
        assert analytic_band_phi(s) == pytest.approx((-1.0, 1.8))

    def test_commensurate_two_mode_band_matches_dense_profile(self):
        expr = Sum((LogSineAvgPreimage(1.0, 1.0, 0.0, 1),
                    LogSineAvgPreimage(1.0, 2.0, 0.0, 1)))
        lo, hi = analytic_band_phi(expr)
        x = np.linspace(0.0, TWO_PI, 4_000_001)
        prof = np.sin(x) + np.cos(x) + np.sin(2 * x) + 2.0 * np.cos(2 * x)
        assert lo == pytest.approx(float(prof.min()), abs=1e-9)
        assert hi == pytest.approx(float(prof.max()), abs=1e-9)

    def test_incommensurate_modes_unsupported(self):
        expr = Sum((LogSine(1.0, 1.0, 0.0), LogSine(1.0, math.sqrt(2.0), 0.0)))
        with pytest.raises(UnsupportedExpression):
            analytic_band_phi(expr)

    @pytest.mark.parametrize("expr", [
        Sum((LogSine(1.0, 1.0, 0.0), LogLogSine(1.0, 0.0))),
        Sum((LogLogSine(1.0, 0.0), PeriodicOfLog(TrigPolynomial(0.0, (0.5,))))),
        Sum((LogSine(1.0, 1.0, 0.0), PeriodicOfLog(TrapezoidWave(1.0, -0.5, 0.4)))),
        Sum((PeriodicOfLog(TrigPolynomial(0.0, (0.5,))),
             Negate(SlowFromPeriodic(TrapezoidWave(1.0, -1.0), 2)))),
    ], ids=repr)
    def test_mixed_slow_types_unsupported(self, expr):
        # a doubly-log sine or a trapezoid profile declares no powers, so a
        # sum of several slow leaves with one of them has no joint profile
        with pytest.raises(UnsupportedExpression):
            analytic_band_phi(expr)
        with pytest.raises(UnsupportedExpression):
            band_witnesses(expr)

    def test_cancelled_modes_keep_a_flat_band(self):
        # every beta cancels, so the split keeps no powers; the joint profile
        # is then the zero polynomial, not an undeclared one
        expr = Sum((LogSine(1.0, 1.0), Negate(LogSine(1.0, 1.0))))
        assert _split_leaves(expr).powers is None
        assert analytic_band_phi(expr) == (0.0, 0.0)

    @pytest.mark.parametrize("expr, profile", [
        (Sum((LogSine(0.6, 1.0, 0.1),
              PeriodicOfLog(TrigPolynomial(0.2, (0.3, 0.0, 0.1), (0.0, 0.5))))),
         lambda x: (0.1 + 0.6 * np.sin(x) + 0.2 + 0.3 * np.cos(x) + 0.1 * np.cos(3 * x)
                    + 0.5 * np.sin(2 * x))),
        (Sum((LogSineAvgPreimage(0.7, 2.0, -0.2, 2),
              Negate(SlowFromPeriodic(TrigPolynomial(0.1, (0.4,), (0.0, 0.0, 0.3)), 2)))),
         lambda x: (-0.2 + 0.7 * (np.sin(2 * x) + np.cos(2 * x))
                    - (0.1 + 0.4 * np.cos(x) + 0.3 * np.sin(3 * x)
                       + 0.5 * (-0.4 * np.sin(x) + 0.9 * np.cos(3 * x))))),
    ])
    def test_mode_plus_trig_profile_band_matches_dense_profile(self, expr, profile):
        lo, hi = analytic_band_phi(expr)
        prof = profile(np.linspace(0.0, TWO_PI, 4_000_001))
        assert lo == pytest.approx(float(prof.min()), abs=1e-9)
        assert hi == pytest.approx(float(prof.max()), abs=1e-9)

    def test_negate_swaps_band(self):
        expr = Sum((LogSine(0.6, 1.97, 0.1), PeriodicZeroMean(1.35, -0.35)))
        lo, hi = analytic_band_phi(expr)
        assert analytic_band_phi(Negate(expr)) == (-hi, -lo)

    @pytest.mark.parametrize("expr", [
        LogSine(0.8, 2.3, 0.1),
        LogSineAvgPreimage(0.85, 3.7, 0.5, 2),
        PeriodicZeroMean(1.35, -0.35),
        Sum((LogSine(0.6, 2.0, 0.1), PeriodicZeroMean(1.0, -1.0))),
        SlowFromPeriodic(TrigPolynomial(0.5, (0.2,), (0.85, 0.1)), 3),
        BumpTrain(0.7, 0.3, -0.2, GeometricCenters()),
    ])
    def test_sup_bound_dominates_samples(self, expr):
        tau = np.geomspace(1e-2, 1e10, 300_001)
        bound = sup_abs_phi(expr)
        assert float(np.abs(eval_phi(expr, tau)).max()) <= bound + 1e-9

    def test_slow_from_trapezoid_band_includes_ramp_correction(self):
        wave = TrapezoidWave(1.0, -1.0)
        expr = SlowFromPeriodic(wave, 2)
        lo, hi = analytic_band_phi(expr)
        # on the ramps the derivative term adds slope / n
        slope = max(abs(rise) / width for (_start, width, _v, rise) in wave.pieces)
        assert hi == pytest.approx(1.0 + slope / 2.0, abs=1e-12)
        assert lo == pytest.approx(-1.0 - slope / 2.0, abs=1e-12)


class TestLimitU:
    """The per-leaf limit of u(0, t), at y = log sqrt(4t)."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_preimage_of_its_own_dimension_takes_the_average_kernel(self, n):
        leaf = LogSineAvgPreimage(0.7, 2.5, 0.3, n)
        mom = kernel_moments(n, 2.5, KernelFlavor.AVERAGE)
        for y in (0.5, 7.0, 40.0):
            expected = 0.7 * (mom.a_value * math.sin(2.5 * y)
                              + mom.b_value * math.cos(2.5 * y)) + 0.3
            assert leaf.limit_u(y, n) == pytest.approx(expected, abs=1e-14)

    def test_log_sine_takes_the_data_kernel(self):
        mom = kernel_moments(3, 1.5, KernelFlavor.DATA)
        y = 11.0
        expected = 0.4 * (mom.a_value * math.sin(1.5 * y)
                          + mom.b_value * math.cos(1.5 * y)) - 0.2
        assert LogSine(0.4, 1.5, -0.2).limit_u(y, 3) == expected

    @pytest.mark.parametrize("amplitude, m, offset",
                             [(1.0, 1.0, 0.0), (0.85, 3.7, 0.2), (2.5, 0.3, -1.25)])
    def test_log_sine_rules_are_their_closed_formulas(self, amplitude, m, offset):
        # LogSine shares its rules with the average preimage, with cosine
        # weight m / inf = 0: each must still be its own formula to the bit
        leaf = LogSine(amplitude, m, offset)
        assert leaf.band() == (offset - amplitude, offset + amplitude)
        assert leaf.sup_abs() == abs(offset) + amplitude
        assert leaf.strip_bound() == (amplitude + abs(offset), m)
        lo_w, hi_w = leaf.witnesses()
        assert np.array_equal(lo_w, _phase_taus(m, 1.5 * math.pi))
        assert np.array_equal(hi_w, _phase_taus(m, 0.5 * math.pi))
        for n, y in ((1, 2.0), (3, 11.0)):
            mom = kernel_moments(n, m, KernelFlavor.DATA)
            assert leaf.limit_u(y, n) == amplitude * (
                mom.a_value * math.sin(m * y) + mom.b_value * math.cos(m * y)) + offset

    def test_cached_moments_still_check_the_dimension(self):
        leaf = LogSine(0.4, 1.5)
        leaf.limit_u(1.0, 1)
        with pytest.raises(DomainError):
            leaf.limit_u(1.0, True)

    def test_flat_leaves(self):
        assert Constant(0.25).limit_u(3.0, 2) == 0.25
        assert PeriodicZeroMean(1.0, -1.0).limit_u(3.0, 2) == 0.0
        assert BumpTrain(0.7, 0.3, 0.2, GeometricCenters()).limit_u(3.0, 2) == 0.2

    def test_doubly_log_sine_needs_positive_y(self):
        assert LogLogSine(0.5, 0.1).limit_u(math.e, 1) == pytest.approx(
            0.5 * math.sin(1.0) + 0.1)
        with pytest.raises(DomainError):
            LogLogSine(0.5, 0.1).limit_u(0.0, 1)

    def test_other_leaves_have_no_rule(self):
        with pytest.raises(UnsupportedExpression):
            PeriodicOfLog(TrigPolynomial(0.0, (), (1.0,))).limit_u(3.0, 1)


class TestSignedLeaves:
    """Every rule combines the signed leaves, however the tree nests them."""

    NESTED = Sum((LogSine(1.0, 2.0),
                  Negate(Sum((Constant(0.25), PeriodicZeroMean(1.0, -1.0))))))

    def test_walk_is_depth_first_with_signs(self):
        wave = PeriodicZeroMean(1.0, -1.0)
        assert _signed_leaves(self.NESTED) == [
            (1.0, LogSine(1.0, 2.0)), (-1.0, Constant(0.25)), (-1.0, wave)]
        assert _signed_leaves(Negate(Negate(wave))) == [(1.0, wave)]

    def test_nested_negated_sum_has_the_flat_band(self):
        assert analytic_band_phi(self.NESTED) == (-2.25, 1.75)

    def test_nested_wave_still_aligns_the_slow_witnesses(self):
        lo_w, hi_w = band_witnesses(self.NESTED)
        # each witness is shifted onto the plateau where the negated wave
        # takes the matching extreme, so phi reaches both band ends there
        lo, hi = analytic_band_phi(self.NESTED)
        assert float(eval_phi(self.NESTED, hi_w).max()) >= hi - 1e-3
        assert float(eval_phi(self.NESTED, lo_w).min()) <= lo + 1e-3

    @pytest.mark.parametrize("call", [
        lambda: numeric_H(np.cos, 1, 1.0),
        lambda: eval_phi(np.cos, 1.0),
        lambda: analytic_band_phi(np.cos),
        lambda: band_witnesses(np.cos),
        lambda: sup_abs_phi(np.cos),
        lambda: closed_H(np.cos, 1),
        lambda: phi_from_H(np.cos, 1),
    ])
    def test_a_plain_callable_is_refused(self, call):
        with pytest.raises(DomainError, match="InitialDataExpr"):
            call()

    def test_deep_negation_chain_does_not_recurse(self):
        expr = Constant(0.5)
        for _ in range(5000):
            expr = Negate(expr)
        assert _signed_leaves(expr) == [(1.0, Constant(0.5))]


_LEAVES = st.sampled_from([
    Constant(0.25), Constant(-1.0), Constant(0.0),
    LogSine(1.0, 2.0, 0.5), LogSine(0.5, 1.0),
    LogSineAvgPreimage(0.6, 1.0, -0.1, 2), LogSineAvgPreimage(0.3, 3.0, 0.0, 1),
    LogLogSine(0.5, 0.5),
    PeriodicZeroMean(1.0, -1.0), PeriodicZeroMean(1.35, -0.35),
    BumpTrain(0.7, 0.3, 0.2, GeometricCenters()),
    BumpTrain(-0.8, 1.0, 0.0, DoubleExpCenters("peak")),
    PeriodicOfLog(TrigPolynomial(0.1, (0.5,), (0.0, 0.3))),
    SlowFromPeriodic(TrapezoidWave(1.0, -1.0), 2),
])

_TREES = st.recursive(
    _LEAVES,
    lambda inner: st.builds(Negate, inner)
    | st.lists(inner, min_size=1, max_size=3).map(lambda ts: Sum(tuple(ts))),
    max_leaves=4)


def _outcome(fn, *args):
    """fn(*args), or the type of the error it raised."""
    try:
        return fn(*args)
    except UnsupportedExpression as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(tree=_TREES)
def test_nested_trees_match_their_flat_signed_form(tree):
    leaves = _signed_leaves(tree)
    assume(len(leaves) <= 4)
    flat = _signed_sum(leaves)
    assert _outcome(analytic_band_phi, tree) == _outcome(analytic_band_phi, flat)
    assert sup_abs_phi(tree) == sup_abs_phi(flat)
    assert _split_leaves(tree) == _split_leaves(flat)
    nested_w = _outcome(band_witnesses, tree)
    flat_w = _outcome(band_witnesses, flat)
    if isinstance(nested_w, tuple):
        assert all(np.array_equal(a, b) for a, b in zip(nested_w, flat_w))
    else:
        assert nested_w == flat_w
    for n in (1, 2):
        h_tree, h_flat = closed_H(tree, n), closed_H(flat, n)
        assert (h_tree is None) == (h_flat is None)
        if h_tree is not None:
            assert _signed_sum(_signed_leaves(h_tree)) == h_flat


class TestBandWitnesses:
    @pytest.mark.parametrize("expr", [
        LogSine(0.85, 3.7, 0.2),
        LogSineAvgPreimage(0.85, 2.0, 0.5, 1),
        PeriodicZeroMean(1.35, -0.35),
        Sum((LogSine(0.6, 1.97, 0.1), PeriodicZeroMean(1.35, -0.35))),
        Sum((LogSineAvgPreimage(1.0, 1.0, 0.0, 1),
             LogSineAvgPreimage(1.0, 2.0, 0.0, 1))),
        SlowFromPeriodic(TrapezoidWave(1.0, -1.0), 2),
        Sum((LogSine(0.6, 1.0, 0.1),
             Negate(SlowFromPeriodic(TrigPolynomial(0.2, (0.3,), (0.0, 0.5)), 3)))),
    ])
    def test_witnesses_touch_the_band(self, expr):
        lo, hi = analytic_band_phi(expr)
        lo_w, hi_w = band_witnesses(expr)
        assert lo_w.size > 0 and hi_w.size > 0
        v_lo = eval_phi(expr, lo_w)
        v_hi = eval_phi(expr, hi_w)
        width = hi - lo
        assert float(v_lo.min()) <= lo + 1e-3 * max(width, 1.0)
        assert float(v_hi.max()) >= hi - 1e-3 * max(width, 1.0)
        assert float(v_lo.min()) >= lo - 1e-9
        assert float(v_hi.max()) <= hi + 1e-9

    @pytest.mark.parametrize("m", [0.0552, 0.15, 0.2765, 0.3, 0.304, 0.5])
    def test_phase_with_no_solution_inside_takes_the_nearest_outside(self, m):
        # [1e3, 1e12] spans 20.7 m radians of phase, so below m ~ 0.304 some
        # phases have no solution inside; the one nearest outside on
        # m log(tau + 1), at tau >= 0, then stands in
        x_lo, x_hi = m * math.log1p(1e3), m * math.log1p(1e12)
        for phase in np.linspace(0.0, TWO_PI, 97)[:-1].tolist():
            xs = [phase + TWO_PI * k for k in range(4)]
            inside = [x for x in xs if x_lo <= x <= x_hi]
            if m >= 0.304:
                assert inside, phase
            want = inside or [min(xs, key=lambda x: max(x_lo - x, x - x_hi))]
            got = _phase_taus(m, phase)
            assert got == pytest.approx(np.expm1(np.array(want) / m), rel=1e-12), phase

    def test_loglog_witnesses_are_the_known_turning_points(self):
        lo_w, hi_w = band_witnesses(LogLogSine(0.5, 0.5))
        assert hi_w.size == 1 and lo_w.size == 1
        assert hi_w[0] == pytest.approx(math.exp(math.exp(math.pi / 2)) - 2.0)
        assert lo_w[0] == pytest.approx(math.exp(math.exp(3 * math.pi / 2)) - 2.0,
                                        rel=1e-12)

    def test_loglog_plus_bumps_includes_bump_centers(self):
        bumps = BumpTrain(0.8, 10.0, 0.0, DoubleExpCenters("peak"))
        s = Sum((LogLogSine(1.0, 0.0), bumps))
        _lo_w, hi_w = band_witnesses(s)
        center = bumps.centers.representable_centers()[0]
        assert np.any(np.isclose(hi_w, center))
        # at that witness the sum really reaches loglog peak + bump height
        assert eval_phi(s, center) == pytest.approx(1.8, abs=1e-3)


class TestSerialization:
    EXPRESSIONS = [
        Constant(0.5),
        LogSine(0.85, 3.7, 0.2),
        LogSineAvgPreimage(0.85, 3.7, 0.5, 2),
        LogLogSine(0.5, 0.5),
        PeriodicZeroMean(1.35, -0.35),
        BumpTrain(0.7, 0.3, 0.2, GeometricCenters(math.e)),
        BumpTrain(0.8, 10.0, 0.0, DoubleExpCenters("trough")),
        SlowFromPeriodic(TrigPolynomial(0.5, (0.2,), (0.85, 0.1)), 3),
        PeriodicOfLog(TrapezoidWave(1.0, -1.0)),
        Sum((LogSine(0.6, 1.97, 0.1), PeriodicZeroMean(1.35, -0.35))),
        Negate(LogSineAvgPreimage(0.85, 3.7, 0.5, 2)),
    ]

    @pytest.mark.parametrize("expr", EXPRESSIONS)
    def test_round_trip_equality(self, expr):
        assert loads(dumps(expr)) == expr

    @pytest.mark.parametrize("expr", EXPRESSIONS)
    def test_round_trip_preserves_values(self, expr):
        restored = loads(dumps(expr))
        tau = np.array([0.0, 1.0, 7.3, 1e5])
        assert np.array_equal(eval_phi(restored, tau), eval_phi(expr, tau))

    def test_dumps_is_deterministic(self):
        expr = Sum((LogSine(0.6, 1.97, 0.1), Constant(0.2)))
        assert dumps(expr) == dumps(loads(dumps(expr)))

    @pytest.mark.parametrize("expr", [
        LogSine(np.float32(1.0), 1.0),
        LogSine(np.float32(0.85), np.float64(3.7), np.int64(0)),
        BumpTrain(np.int32(1), 0.5, 0.0, GeometricCenters(np.float16(3.0))),
    ])
    def test_numpy_reals_round_trip(self, expr):
        assert loads(dumps(expr)) == expr

    def test_python_float_bytes_are_unchanged(self):
        assert dumps(Sum((LogSine(0.6, 1.97, 0.1), Constant(1)))) == (
            '{"expr": {"terms": [{"amplitude": 0.6, "m": 1.97, "offset": 0.1, '
            '"variant": "log_sine"}, {"c": 1, "variant": "constant"}], "variant": "sum"}, '
            '"schema": "idexpr/1"}')

    def test_schema_is_checked(self):
        doc = to_json(Constant(1.0))
        doc["schema"] = "idexpr/0"
        with pytest.raises(DomainError, match="schema"):
            from_json(doc)

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError, match="variant"):
            from_json({"schema": "idexpr/1", "expr": {"variant": "mystery"}})

    @pytest.mark.parametrize("doc", [
        [],
        {"schema": "idexpr/1"},
        {"schema": "idexpr/1", "expr": {"variant": "constant"}},
        {"schema": "idexpr/1", "expr": {"variant": "constant", "c": "2"}},
        {"schema": "idexpr/1", "expr": {"variant": "sum", "terms": 3}},
        {"schema": "idexpr/1", "expr": {"variant": "periodic_of_log", "g": []}},
        {"schema": "idexpr/1", "expr": {"variant": "log_sine_avg_preimage",
                                        "amplitude": 1.0, "m": 1.0,
                                        "offset": 0.0, "n": "2"}},
        {"schema": "idexpr/1", "expr": {"variant": "log_sine_avg_preimage",
                                        "amplitude": 1.0, "m": 1.0,
                                        "offset": 0.0, "n": True}},
        {"schema": "idexpr/1", "expr": {"variant": "constant", "c": 10**400}},
        {"schema": "idexpr/1", "expr": {"variant": "log_sine", "amplitude": True,
                                        "m": 1.0, "offset": 0.0}},
        {"schema": "idexpr/1", "expr": {"variant": "log_sine", "amplitude": 10**400,
                                        "m": 1.0, "offset": 0.0}},
        {"schema": "idexpr/1", "expr": {"variant": "periodic_of_log", "g": {
            "kind": "trig_poly", "const": 0.0, "cos": ["2"], "sin": []}}},
        {"schema": "idexpr/1", "expr": {"variant": "bump_train", "height": 1.0,
                                        "half_width": True, "baseline": 0.0,
                                        "centers": {"law": "geometric", "base": 3.0}}},
        # an array where one node belongs
        {"schema": "idexpr/1", "expr": {"variant": "bump_train", "height": 1.0,
                                        "half_width": 0.5, "baseline": 0.0,
                                        "centers": [{"law": "geometric", "base": 3.0}]}},
        {"schema": "idexpr/1", "expr": {"variant": "periodic_of_log", "g": [
            {"kind": "trapezoid", "v_max": 1.0, "v_min": -1.0, "ramp_width": 0.5}]}},
        {"schema": "idexpr/1", "expr": {"variant": "negate", "term": [
            {"variant": "constant", "c": 1.0}]}},
        {"schema": "idexpr/1", "expr": {"variant": "sum", "terms": {
            "variant": "constant", "c": 1.0}}},
    ])
    def test_malformed_documents_raise_domain_error(self, doc):
        with pytest.raises(DomainError):
            from_json(doc)

    def test_deep_nesting_is_a_domain_error(self):
        node = {"variant": "constant", "c": 1.0}
        for _ in range(6000):
            node = {"variant": "negate", "term": node}
        with pytest.raises(DomainError, match="deeply"):
            from_json({"schema": "idexpr/1", "expr": node})

    def test_unknown_center_law_rejected(self):
        doc = to_json(BumpTrain(0.7, 0.3, 0.2, GeometricCenters()))
        doc["expr"]["centers"] = {"law": "fibonacci"}
        with pytest.raises(DomainError, match="law"):
            from_json(doc)

    def test_idexpr_bytes_are_pinned(self):
        # literal parameters only, so the bytes hold on every platform
        expr = Sum((
            Constant(0.25),
            LogSine(0.5, 1.5, 0.125),
            LogSineAvgPreimage(0.75, 2.0, -0.25, 3),
            LogLogSine(0.5, 0.5),
            PeriodicZeroMean(1.5, -0.5, 0.25),
            BumpTrain(0.5, 0.25, 0.0, GeometricCenters(3.0)),
            Negate(BumpTrain(-0.75, 1.0, 0.5, DoubleExpCenters("trough"))),
            SlowFromPeriodic(TrigPolynomial(0.5, (0.25, 0.0), (0.125, -0.5)), 2),
            PeriodicOfLog(TrapezoidWave(1.0, -1.0, 0.5)),
        ))
        assert dumps(expr) == (
            '{"expr": {"terms": ['
            '{"c": 0.25, "variant": "constant"}, '
            '{"amplitude": 0.5, "m": 1.5, "offset": 0.125, "variant": "log_sine"}, '
            '{"amplitude": 0.75, "m": 2.0, "n": 3, "offset": -0.25, '
            '"variant": "log_sine_avg_preimage"}, '
            '{"amplitude": 0.5, "offset": 0.5, "variant": "log_log_sine"}, '
            '{"ramp_width": 0.25, "v_max": 1.5, "v_min": -0.5, '
            '"variant": "periodic_zero_mean"}, '
            '{"baseline": 0.0, "centers": {"base": 3.0, "law": "geometric"}, '
            '"half_width": 0.25, "height": 0.5, "variant": "bump_train"}, '
            '{"term": {"baseline": 0.5, "centers": {"law": "double_exp", '
            '"parity": "trough"}, "half_width": 1.0, "height": -0.75, '
            '"variant": "bump_train"}, "variant": "negate"}, '
            '{"g": {"const": 0.5, "cos": [0.25, 0.0], "kind": "trig_poly", '
            '"sin": [0.125, -0.5]}, "n": 2, "variant": "slow_from_periodic"}, '
            '{"g": {"kind": "trapezoid", "ramp_width": 0.5, "v_max": 1.0, '
            '"v_min": -1.0}, "variant": "periodic_of_log"}'
            '], "variant": "sum"}, "schema": "idexpr/1"}')
        assert loads(dumps(expr)) == expr

    def test_every_concrete_class_has_a_tag(self):
        from heatband.initial_data import (
            _TAGS, CenterLaw, InitialDataExpr, PeriodicFunction)

        def concrete(base):
            for cls in base.__subclasses__():
                if cls.__module__ == "heatband.initial_data" and dataclasses.is_dataclass(cls):
                    yield cls
                yield from concrete(cls)

        classes = {cls for base in (InitialDataExpr, PeriodicFunction, CenterLaw)
                   for cls in concrete(base)}
        assert len(classes) == 14
        assert classes == set(_TAGS)

    def test_an_untagged_subclass_is_refused(self):
        class Stray(Constant):
            pass

        with pytest.raises(DomainError, match="unserializable Stray"):
            to_json(Stray(1.0))

    @pytest.mark.parametrize("wrap,inner", [
        (lambda node: {"variant": "negate", "term": node}, lambda doc: doc["term"]),
        (lambda node: {"variant": "sum", "terms": [node]}, lambda doc: doc["terms"][0]),
    ], ids=["negate", "sum"])
    def test_the_deepest_accepted_document_writes_back(self, wrap, inner):
        def document(depth):
            node = {"variant": "constant", "c": 1.0}
            for _ in range(depth):
                node = wrap(node)
            return {"schema": "idexpr/1", "expr": node}

        lo, hi = 0, 4096  # from_json accepts depth lo and refuses depth hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                from_json(document(mid))
                lo = mid
            except DomainError:
                hi = mid
        assert lo > 400
        doc = document(lo)
        out, node = to_json(from_json(doc))["expr"], doc["expr"]
        # walked in a loop: comparing the two trees whole would recurse
        for _ in range(lo):
            assert out.keys() == node.keys()
            out, node = inner(out), inner(node)
        assert out == node
