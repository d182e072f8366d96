"""Tests for the initial-data expression family and its ball averages."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    _bump_radial_integral,
    _log_gauss_rule,
    _signed_leaves,
    _signed_sum,
    _split_leaves,
    _wave_radial_integral,
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

# np.trapezoid is the NumPy 2.0 name of np.trapz; NumPy 2.4 removed np.trapz.
trapezoid_rule = getattr(np, "trapezoid", None) or np.trapz

TWO_PI = 2.0 * math.pi


def logsine_average_1d(a: float, m: float, c: float, tau: float) -> float:
    """Independent closed form for the n = 1 ball average of
    a sin(m log(tau+1)) + c, from the antiderivative
    int sin(mu) e^u du = e^u (sin(mu) - m cos(mu)) / (1 + m^2)."""
    theta = m * math.log1p(tau)
    num = (tau + 1.0) * (math.sin(theta) - m * math.cos(theta)) + m
    return c + a * num / (tau * (1.0 + m * m))


def dense_average_oracle(expr, n, tau, points=2_000_001):
    """Brute-force H(tau) by trapezoid rule on a uniform radial grid."""
    r = np.linspace(0.0, tau, points)[1:]
    return (n / tau**n) * trapezoid_rule(eval_phi(expr, r) * r ** (n - 1), r)


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

    @given(v_max=st.floats(0.1, 5.0), v_min=st.floats(-5.0, -0.1))
    @settings(max_examples=40, deadline=None)
    def test_mean_zero_property(self, v_max, v_min):
        ramp = math.pi / 8
        length = TWO_PI - 4 * ramp
        p_plus = (-ramp * (v_max + v_min) - v_min * length) / (v_max - v_min)
        assume(0.0 < p_plus < length)
        w = TrapezoidWave(v_max, v_min, ramp)
        # exact mean from the segment decomposition, computed independently
        total = 0.0
        for (t0, t1, a, b) in w.segments():
            total += a * (t1 - t0) + 0.5 * b * (t1 * t1 - t0 * t0)
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
    def test_critical_points_are_the_scalar_bisection(self, seed):
        # the cell-by-cell bisection that the batched one replaced, same
        # midpoints and comparisons; the polynomials with a zero derivative
        # on grid points take its exact branch
        def scalar_bisection(poly):
            grid = np.linspace(0.0, TWO_PI, 4097)
            dv = poly.derivative(grid)
            roots = []
            for i in range(len(grid) - 1):
                a, b, fa, fb = grid[i], grid[i + 1], dv[i], dv[i + 1]
                if fa == 0.0:
                    roots.append(a)
                    continue
                if (fa > 0) == (fb > 0):
                    continue
                for _ in range(60):
                    mid = 0.5 * (a + b)
                    fm = float(poly.derivative(mid))
                    if fm == 0.0:
                        a = b = mid
                        break
                    if (fm > 0) == (fa > 0):
                        a, fa = mid, fm
                    else:
                        b = mid
                roots.append(0.5 * (a + b))
            return np.asarray(roots)

        rng = np.random.default_rng(seed)
        polys = [TrigPolynomial(0.0, (1.0,)), TrigPolynomial(0.0, (0.0, 1.0), (0.0, 0.5)),
                 TrigPolynomial(0.2)]
        for _ in range(12):
            size = int(rng.integers(1, 6))
            polys.append(TrigPolynomial(
                float(rng.normal()),
                tuple(rng.normal(size=size) * (rng.random(size) < 0.7)),
                tuple(rng.normal(size=size) * (rng.random(size) < 0.7))))
        for poly in polys:
            want = scalar_bisection(poly)
            got = poly._critical_points()
            assert got.shape == want.shape and np.array_equal(got, want), poly

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
        lambda: Sum(()),
        lambda: Sum((1.0, 2.0)),
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
    def test_ode_identity(self, expr, n):
        for tau in (2.3, 17.9, 400.1):
            h = tau * 1e-5
            h_mid = numeric_H(expr, n, tau, tol=1e-10)
            h_plus = numeric_H(expr, n, tau + h, tol=1e-10)
            h_minus = numeric_H(expr, n, tau - h, tol=1e-10)
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
    def test_closed_matches_numeric(self, n):
        pre = LogSineAvgPreimage(0.85, 3.7, 0.5, n)
        h_expr = closed_H(pre, n)
        for tau in (1.0, 10.0, 1e3):
            assert numeric_H(pre, n, tau, tol=1e-10) == pytest.approx(
                eval_phi(h_expr, tau), abs=1e-8)

    def test_trapezoid_slow_term_closed_average(self):
        wave = TrapezoidWave(1.0, -1.0)
        expr = SlowFromPeriodic(wave, 2)
        h_expr = closed_H(expr, 2)
        assert h_expr == PeriodicOfLog(wave)
        for tau in (7.0, 200.0):
            assert numeric_H(expr, 2, tau, tol=1e-9) == pytest.approx(
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
            numeric_H(Constant(1.0), 1, 1.0, tol=0.0)
        with pytest.raises(DomainError):
            numeric_H(Constant(1.0), 0, 1.0)
        with pytest.raises(DomainError):
            numeric_H(LogSine(1.0, 1.0), 2, True)
        with pytest.raises(DomainError):
            numeric_H(LogSine(1.0, 1.0), 2, 10**400)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -math.inf, True, False, "1e-8"])
    def test_rejects_non_finite_or_boolean_tol(self, tol):
        with pytest.raises(DomainError, match="tol"):
            numeric_H(LogSine(1.0, 3.0, 0.2), 1, 1e8, tol=tol)

    @pytest.mark.parametrize("tau", [0.7, 3.0, 97.0, 1e5])
    def test_log_sine_matches_independent_closed_form(self, tau):
        a, m, c = 0.9, 2.6, 0.15
        expected = logsine_average_1d(a, m, c, tau)
        assert numeric_H(LogSine(a, m, c), 1, tau, tol=1e-10) == pytest.approx(
            expected, abs=1e-9)

    def test_constant_average_is_constant(self):
        assert numeric_H(Constant(0.8), 5, 123.4) == pytest.approx(0.8, abs=1e-14)

    @pytest.mark.parametrize("n,tau", [(1, 3.0), (2, 50.0), (4, 11.0)])
    def test_periodic_wave_exact_route_vs_dense(self, n, tau):
        pzm = PeriodicZeroMean(1.35, -0.35)
        dense = dense_average_oracle(pzm, n, tau)
        assert numeric_H(pzm, n, tau) == pytest.approx(dense, abs=1e-7)

    @pytest.mark.parametrize("n,tau", [(1, 5.0), (3, 100.0)])
    def test_bump_train_exact_route_vs_dense(self, n, tau):
        bt = BumpTrain(0.7, 0.3, 0.2, GeometricCenters(math.e))
        dense = dense_average_oracle(bt, n, tau, points=6_000_001)
        assert numeric_H(bt, n, tau) == pytest.approx(dense, abs=1e-6)

    def test_generic_route_vs_dense(self):
        # the trapezoid profile jumps in slope, so it stays on adaptive
        # quadrature next to the Gauss sum of the doubly-log sine
        expr = Sum((LogLogSine(0.5, 0.5), PeriodicOfLog(TrapezoidWave(1.0, -1.0))))
        dense = dense_average_oracle(expr, 3, 50.0)
        assert numeric_H(expr, 3, 50.0, tol=1e-10) == pytest.approx(dense, abs=1e-8)

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
        dense = dense_average_oracle(bt, 2, c, points=6_000_001)
        assert numeric_H(bt, 2, c) == pytest.approx(dense, abs=1e-6)

    def test_sum_and_negate_are_linear(self):
        a = LogSine(0.6, 1.3, 0.1)
        b = PeriodicZeroMean(1.0, -1.0)
        tau = 37.0
        combined = numeric_H(Sum((a, Negate(b))), 2, tau, tol=1e-10)
        separate = numeric_H(a, 2, tau, tol=1e-10) - numeric_H(b, 2, tau)
        assert combined == pytest.approx(separate, abs=1e-10)

    @given(a=st.floats(0.1, 2.0), m=st.floats(0.3, 5.0),
           c=st.floats(-1.0, 1.0), tau=st.floats(0.5, 50.0))
    @settings(max_examples=25, deadline=None)
    def test_log_sine_average_property(self, a, m, c, tau):
        expected = logsine_average_1d(a, m, c, tau)
        got = numeric_H(LogSine(a, m, c), 1, tau, tol=1e-9)
        assert got == pytest.approx(expected, abs=1e-7)


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


@functools.lru_cache(maxsize=None)
def mp_ball_average(kind: str, n: int, tau: float) -> float:
    """H(tau) of the log_gauss_cases(n) entry labelled kind, by mpmath.

    With L = log(r + 1), the averages of e^{i mu L} and of
    (r / (r + 1)) e^{i mu L} are Euler integrals (DLMF 15.6.1):
        n int_0^1 t^(n-1) (1 + tau t)^(i mu) dt = 2F1(-i mu, n; n + 1; -tau),
        n tau int_0^1 t^n (1 + tau t)^(i mu - 1) dt
            = n tau / (n + 1) 2F1(1 - i mu, n + 1; n + 2; -tau),
    which cover every log-periodic leaf.  The doubly-log sine has no such
    form; it is integrated by mpmath quadrature on s = log(r / tau),
    H = n int_{-inf}^0 phi(tau e^s) e^{ns} ds.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        t = mpmath.mpf(tau)

        def plain(mu):
            return mpmath.hyp2f1(-1j * mu, n, n + 1, -t)

        def damped(mu):
            return n * t / (n + 1) * mpmath.hyp2f1(1 - 1j * mu, n + 1, n + 2, -t)

        def profile(slope):
            # g(L) + slope (r / (r + 1)) g'(L), g = 0.1 + 0.3 cos L + 0.2 cos 3L + 0.5 sin L
            out = 0.1
            for j, c, s in ((1, 0.3, 0.5), (3, 0.2, 0.0)):
                out += c * mpmath.re(plain(j)) + s * mpmath.im(plain(j))
                out += slope * j * (s * mpmath.re(damped(j)) - c * mpmath.im(damped(j)))
            return out

        def log_log():
            def f(s):
                return (0.5 * mpmath.sin(mpmath.log(mpmath.log(t * mpmath.exp(s) + 2)))
                        + 0.1) * mpmath.exp(n * s)
            return n * mpmath.quad(f, mpmath.linspace(-70.0 / n, 0, 9))

        def preimage():
            return 0.6 * (mpmath.im(plain(2.3)) + 2.3 / n * mpmath.re(damped(2.3))) - 0.1

        value = {
            "log-sine": lambda: 0.8 * mpmath.im(plain(0.7)) + 0.2,
            "preimage": preimage,
            "doubly-log": log_log,
            "profile": lambda: profile(0.0),
            "slow-profile": lambda: profile(1.0 / n),
            "sum": lambda: preimage() - log_log(),
        }[kind]()
        return float(value)


class TestLogGaussAverage:
    TAUS = (1e-6, 2.3, 1e4, 1e12)

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    @pytest.mark.parametrize("tau", TAUS)
    def test_against_mpmath(self, n, tau):
        for label, expr in log_gauss_cases(n):
            want = mp_ball_average(label, n, tau)
            assert numeric_H(expr, n, tau, tol=1e-11) == pytest.approx(
                want, abs=1e-10), label

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("tau", TAUS)
    def test_bound_covers_observed_error(self, n, tau):
        for label, expr in log_gauss_cases(n):
            want = mp_ball_average(label, n, tau)
            for tol in (1e-5, 1e-8, 1e-11):
                value, bound = _ball_average(expr, n, tau, tol)
                assert abs(value - want) <= bound, (label, tol)
                # tol / 2 for the window, tol / 2 for the panels, and the
                # rounding of a sum of at most a thousand terms
                assert bound <= tol + 1e3 * 2.3e-16 * 3.0, (label, tol)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("tau", [2.3, 1e4, 1e8])
    def test_agrees_with_adaptive_route(self, n, tau):
        for label, expr in log_gauss_cases(n):
            want = mp_ball_average(label, n, tau)
            for tol in (1e-6, 1e-8, 1e-10):
                assert abs(numeric_H(expr, n, tau, tol=tol) - want) <= tol, \
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
        with pytest.raises(EvaluationError):
            numeric_H(LogSine(1.0, 1.0, 0.0), 1, 10.0)

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


def mp_wave_radial(trap: TrapezoidWave, n: int, tau: float) -> float:
    """(1/tau^n) int_0^tau wave(r) r^(n-1) dr in 60-digit arithmetic.

    The wave is the float wave: linear between its float knots, with the
    float period 2 pi of TrapezoidWave.  Each linear piece's integral over
    period q is a polynomial in q, summed over the N full periods by
    mpmath's Bernoulli polynomials; the partial period follows.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        period, tau = mpmath.mpf(TWO_PI), mpmath.mpf(tau)
        full = mpmath.floor(tau / period)
        rem = tau - full * period
        total = mpmath.mpf(0)
        knots = [(mpmath.mpf(t), mpmath.mpf(v))
                 for t, v in zip(trap.breakpoints, trap.knot_values)]
        for (t0, v0), (t1, v1) in zip(knots, knots[1:]):
            if t1 == t0:
                continue
            b = (v1 - v0) / (t1 - t0)
            a = v0 - b * t0

            def moment(i, lo, hi):  # int_lo^hi (a + b y) y^i dy
                return (a * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
                        + b * (hi ** (i + 2) - lo ** (i + 2)) / (i + 2))
            for i in range(n):
                p = n - 1 - i
                power_sum = (mpmath.bernpoly(p + 1, full) - mpmath.bernpoly(p + 1, 0)) / (p + 1)
                total += math.comb(n - 1, i) * moment(i, t0, t1) * period ** p * power_sum
                if min(t1, rem) > t0:
                    total += (math.comb(n - 1, i) * moment(i, t0, min(t1, rem))
                              * (full * period) ** p)
        return float(total / tau ** n)


def mp_bump_radial(train: BumpTrain, n: int, tau: float) -> float:
    """(1/tau^n) int_0^tau train(r) r^(n-1) dr, each bump by mpmath.quad in
    the offset s = r - c from its centre, with r^(n-1) / tau^n formed as
    ((c + s) / c)^(n-1) times (c / tau)^(n-1) / tau in 30-digit arithmetic,
    so that the integrand quad sees is near 1 however far out tau lies
    (its stopping test is absolute)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        w, tau_mp = mpmath.mpf(train.half_width), mpmath.mpf(tau)
        total = mpmath.mpf(0)
        for c in train.centers.representable_centers():
            if c - train.half_width >= tau:
                break
            c = mpmath.mpf(c)
            lo, hi = max(-w, -c), min(w, tau_mp - c)
            cuts = [lo, mpmath.mpf(0), hi] if lo < 0 < hi else [lo, hi]
            total += mpmath.quad(lambda s: (1 - abs(s) / w) * ((c + s) / c) ** (n - 1), cuts) \
                * (c / tau_mp) ** (n - 1) / tau_mp
        return float(train.baseline / n + train.height * total)


class TestExactRoutesFarOut:
    """The exact wave and bump ball averages at tau far beyond tau^n's range:
    the H windows of data-mode-plus-wave and data-slow-plus-bumps
    certificates reach 8.5e169 and 5.3e78."""

    WAVES = (PeriodicZeroMean(0.0105, -0.0005, 0.13089969389957531),
             PeriodicZeroMean(1.0, -1.0))
    BUMPS = (BumpTrain(1.7, 1.0, 0.0, DoubleExpCenters("peak")),
             BumpTrain(1.0, 0.5, 0.2, GeometricCenters(1e6)))

    @pytest.mark.parametrize("tau", [1e-6, 0.3, 1.0, 6.28, TWO_PI, 6.3,
                                     37.0, 1e6, 8.5e169, 1e300])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_wave_against_mpmath(self, n, tau):
        # |error| <= bound; the bound reaches 1e-14 only from about tau = 20
        # on the integration-by-parts side: just above 2 pi it carries the
        # rounding bounds of W_1 .. W_n, 1e-14 to 3e-13 each, at weights
        # (n-1)!/(n-j)! / tau^j of order 1 (up to 1.6e-13 for n = 10)
        for wave in self.WAVES:
            value, bound = _wave_radial_integral(wave, n, np.array([tau]))
            error = abs(float(value[0]) - mp_wave_radial(wave.wave, n, tau))
            assert error <= min(float(bound[0]), 1e-14), (wave, error, bound)
            assert bound[0] <= (1e-12 if TWO_PI <= tau < 37.0 else 1e-14), (wave, bound)

    def test_wave_batch_matches_single_radii(self):
        # both sides of 2 pi in one array give the values of single calls
        taus = np.array([0.3, 1e3, 6.0, TWO_PI, 1e300])
        for n in (1, 4, 10):
            values, bounds = _wave_radial_integral(self.WAVES[1], n, taus)
            for tau, value, bound in zip(taus, values, bounds):
                single = _wave_radial_integral(self.WAVES[1], n, np.array([tau]))
                assert (value, bound) == (single[0][0], single[1][0])

    @pytest.mark.parametrize("tau", [121.0, 1e4, 5.3e78, 1e300])
    def test_bumps_against_mpmath(self, tau):
        for train in self.BUMPS:
            for n in range(1, 11):
                value, bound = _bump_radial_integral(train, n, tau)
                error = abs(value - mp_bump_radial(train, n, tau))
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

    def test_mixed_slow_types_unsupported(self):
        expr = Sum((LogSine(1.0, 1.0, 0.0), LogLogSine(1.0, 0.0)))
        with pytest.raises(UnsupportedExpression):
            analytic_band_phi(expr)

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
        slope = max(abs(b) for (_t0, _t1, _a, b) in wave.segments())
        assert hi == pytest.approx(1.0 + slope / 2.0, abs=1e-12)
        assert lo == pytest.approx(-1.0 - slope / 2.0, abs=1e-12)


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
        lo_w, hi_w = band_witnesses(self.NESTED, 1e6, 1e12)
        # each witness is shifted onto the plateau where the negated wave
        # takes the matching extreme, so phi reaches both band ends there
        lo, hi = analytic_band_phi(self.NESTED)
        assert float(eval_phi(self.NESTED, hi_w).max()) >= hi - 1e-3
        assert float(eval_phi(self.NESTED, lo_w).min()) <= lo + 1e-3

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
    nested_w = _outcome(band_witnesses, tree, 1e3, 1e12)
    flat_w = _outcome(band_witnesses, flat, 1e3, 1e12)
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
    ])
    def test_witnesses_touch_the_band(self, expr):
        lo, hi = analytic_band_phi(expr)
        lo_w, hi_w = band_witnesses(expr, 1e6, 1e12)
        assert lo_w.size > 0 and hi_w.size > 0
        v_lo = eval_phi(expr, lo_w)
        v_hi = eval_phi(expr, hi_w)
        width = hi - lo
        assert float(v_lo.min()) <= lo + 1e-3 * max(width, 1.0)
        assert float(v_hi.max()) >= hi - 1e-3 * max(width, 1.0)
        assert float(v_lo.min()) >= lo - 1e-9
        assert float(v_hi.max()) <= hi + 1e-9

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
