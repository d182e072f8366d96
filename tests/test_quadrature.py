"""Quadrature engine tests.

Oracles:
  - closed forms for Gaussian moments (sqrt(pi)/4, sqrt(pi)/2)
  - a dense trapezoid rule on the log axis, written independently of the
    adaptive engine, for the oscillatory cross-checks
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatband.errors import ConvergenceError, DomainError, EvaluationError
from heatband.quadrature import (
    IntegralResult,
    _ABS_TOL,
    _LEFT_EDGE,
    _Z_MAX,
    gaussian_power_tail,
    integrate_interval,
    integrate_log_oscillatory,
    integrate_weighted,
)
from reference import ref_gaussian_tail


def log_axis_trapezoid_oracle(power, m, trig, x_lo=-40.0, x_hi=math.log(12.0),
                              points=2_000_001):
    """Dense trapezoid value of int exp(-z^2) z^power trig(m log z) dz.

    Fixed uniform grid on x = log z; completely independent of the adaptive
    panel machinery under test.
    """
    x = np.linspace(x_lo, x_hi, points)
    amp = np.exp(-np.exp(2.0 * x) + (power + 1) * x)
    tr = np.cos if trig == "cos" else np.sin
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(amp * tr(m * x), x))


def ones(z):
    return np.ones_like(z)


class TestWeighted:
    def test_constant_k2_gaussian_moment(self):
        r = integrate_weighted(ones, 2)
        assert r.value == pytest.approx(math.sqrt(math.pi) / 4, abs=1e-12)
        assert abs(r.value - math.sqrt(math.pi) / 4) <= r.abs_error_est + 1e-13

    def test_constant_k0_gaussian_moment(self):
        r = integrate_weighted(ones, 0)
        assert r.value == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-12)

    def test_cos_log_k2_against_dense_oracle(self):
        oracle = log_axis_trapezoid_oracle(2, 1.0, "cos")
        r = integrate_weighted(lambda z: np.cos(np.log(z)), 2)
        assert r.value == pytest.approx(oracle, abs=1e-8)
        # indicative magnitude from the damped-oscillation closed product
        assert r.value == pytest.approx(0.395371, abs=5e-6)

    def test_result_fields(self):
        r = integrate_weighted(ones, 3)
        assert isinstance(r, IntegralResult)
        assert r.abs_error_est >= 0
        assert r.evaluations >= 1

    def test_rejects_negative_power(self):
        with pytest.raises(DomainError):
            integrate_weighted(ones, -1)

    def test_rejects_fractional_power(self):
        with pytest.raises(DomainError):
            integrate_weighted(ones, 1.5)

    def test_non_finite_sample_names_the_point(self):
        def bad(z):
            out = np.ones_like(z)
            out[z > 3.0] = np.nan
            return out

        with pytest.raises(EvaluationError) as exc:
            integrate_weighted(bad, 2)
        assert exc.value.point > 3.0
        assert repr(exc.value.point) in str(exc.value)

    def test_budget_exhaustion_carries_best_value(self):
        # integrate_weighted's engine and window, at a budget of its first 16 panels
        with pytest.raises(ConvergenceError) as exc:
            integrate_interval(lambda z: np.cos(5 * z) / (1 + z) * np.exp(-z * z),
                               _LEFT_EDGE, _Z_MAX, rel_tol=1e-15, abs_tol=1e-300,
                               max_panels=16)
        assert exc.value.best_value is not None
        assert math.isfinite(exc.value.best_value)

    def test_truncation_soundness(self):
        """Halving the tolerances never moves the value by more than the
        previous error estimate (integrate_weighted's engine and window, k = 1)."""
        f = lambda z: np.sin(z) / (1 + z * z) * z * np.exp(-z * z)
        r1 = integrate_interval(f, _LEFT_EDGE, _Z_MAX, rel_tol=1e-8, abs_tol=1e-10)
        r2 = integrate_interval(f, _LEFT_EDGE, _Z_MAX, rel_tol=5e-9, abs_tol=5e-11)
        assert abs(r1.value - r2.value) <= r1.abs_error_est

    @given(a=st.floats(-5, 5, allow_nan=False), b=st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, a, b):
        f = lambda z: np.cos(np.log(z))
        g = lambda z: 1.0 / (1.0 + z)
        rf = integrate_weighted(f, 2).value
        rg = integrate_weighted(g, 2).value
        combo = integrate_weighted(lambda z: a * f(z) + b * g(z), 2).value
        tol = 1e-10 * (1 + abs(a) + abs(b))
        assert combo == pytest.approx(a * rf + b * rg, abs=tol)


class TestLogOscillatory:
    def test_zero_amplitude_is_exactly_zero(self):
        r = integrate_log_oscillatory(lambda x: np.zeros_like(x), 3.0, "cos")
        assert r.value == 0.0

    def test_riemann_lebesgue_at_m200(self):
        F = lambda x: np.exp(-np.exp(2.0 * x) + 3.0 * x)
        r = integrate_log_oscillatory(F, 200.0, "cos")
        assert abs(r.value) < 1e-3

    def test_change_of_variables_m1(self):
        F = lambda x: np.exp(-np.exp(2.0 * x) + 3.0 * x)
        r_log = integrate_log_oscillatory(F, 1.0, "cos")
        r_z = integrate_weighted(lambda z: np.cos(np.log(z)), 2)
        assert abs(r_log.value - r_z.value) <= r_log.abs_error_est + r_z.abs_error_est

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("trig", ["cos", "sin"])
    def test_change_of_variables_grid(self, n, m, trig):
        """Both quadrature routes to the same kernel moment agree."""
        power = n + 1
        F = lambda x: np.exp(-np.exp(2.0 * x) + (power + 1) * x)
        r_log = integrate_log_oscillatory(F, m, trig)
        tr = np.cos if trig == "cos" else np.sin
        r_z = integrate_weighted(lambda z: tr(m * np.log(z)), power)
        assert abs(r_log.value - r_z.value) <= r_log.abs_error_est + r_z.abs_error_est

    @pytest.mark.parametrize("m", [0.7, 3.0])
    def test_against_dense_oracle(self, m):
        F = lambda x: np.exp(-np.exp(2.0 * x) + 4.0 * x)
        r = integrate_log_oscillatory(F, m, "sin")
        oracle = log_axis_trapezoid_oracle(3, m, "sin", x_lo=-10.0)
        assert r.value == pytest.approx(oracle, abs=1e-8)

    def test_rejects_nonpositive_m(self):
        F = lambda x: np.exp(-np.exp(2.0 * x) + 3.0 * x)
        with pytest.raises(DomainError):
            integrate_log_oscillatory(F, 0.0, "cos")
        with pytest.raises(DomainError):
            integrate_log_oscillatory(F, -2.0, "cos")

    @pytest.mark.parametrize("m", [True, np.array([2.0]), "2", None, math.nan, math.inf])
    def test_rejects_malformed_m(self, m):
        F = lambda x: np.exp(-np.exp(2.0 * x) + 3.0 * x)
        with pytest.raises(DomainError, match="m must be a finite real"):
            integrate_log_oscillatory(F, m, "cos")

    def test_refuses_extreme_frequency(self):
        F = lambda x: np.exp(-np.exp(2.0 * x) + 3.0 * x)
        with pytest.raises(ConvergenceError):
            integrate_log_oscillatory(F, 501.0, "cos")

    def test_rejects_unknown_trig(self):
        F = lambda x: np.exp(-np.exp(2.0 * x) + 3.0 * x)
        with pytest.raises(DomainError):
            integrate_log_oscillatory(F, 1.0, "tan")


class TestSpecValidation:
    def test_z_max_keeps_weight_below_abs_tol(self):
        for k in range(0, 13):
            assert math.exp(-_Z_MAX**2) * _Z_MAX**k <= _ABS_TOL


class TestGaussianPowerTail:
    @pytest.mark.parametrize("k,closed", [
        (0, 0.5 * math.sqrt(math.pi) * math.erfc(2.0)),
        (1, 0.5 * math.exp(-4.0)),
        (3, 0.5 * math.exp(-4.0) * (4.0 + 1.0)),
    ])
    def test_small_cut_closed_forms(self, k, closed):
        # int_2^inf z^3 e^{-z^2} dz = (z^2+1)/2 e^{-z^2} at z=2
        assert gaussian_power_tail(k, 2.0) == pytest.approx(closed, rel=1e-14)

    @pytest.mark.parametrize("k", range(9))
    @pytest.mark.parametrize("z_cut", [0.0, 0.5, 3.0, 8.0])
    def test_matches_the_incomplete_gamma_function(self, k, z_cut):
        # Gamma((k+1)/2, z_cut^2) / 2 with mpmath's upper incomplete gamma
        # at 30 digits, independent of the recurrence
        assert gaussian_power_tail(k, z_cut) == pytest.approx(
            ref_gaussian_tail(k, z_cut, dps=30), rel=1e-12, abs=1e-300)

    def test_complements_to_full_moment(self, monkeypatch):
        # int_0^inf z^4 e^{-z^2} = 3 sqrt(pi) / 8
        import heatband.quadrature as quadrature

        monkeypatch.setattr(quadrature, "_Z_MAX", 2.5)
        full = 3 * math.sqrt(math.pi) / 8
        r = integrate_weighted(ones, 4)
        assert r.value + gaussian_power_tail(4, 2.5) == pytest.approx(full, abs=1e-10)
