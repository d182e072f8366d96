"""Tests for heat solution probing: point values, bands, verification.

The high-precision references of u(0, t) and H(tau) come from
tests/reference.py; the dense-scan oracles of the wave primitives come first
here.  The exact wave and bump routes are also checked against adaptive
quadrature where both converge and against an integration-by-parts prediction
where only the exact route survives, and point solutions against the
classical closed form for cosine data.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatband as hb
from heatband import (
    BumpTrain,
    Constant,
    ConvergenceError,
    DomainError,
    DoubleExpCenters,
    EvaluationError,
    GeometricCenters,
    KernelFlavor,
    LogSine,
    LogSineAvgPreimage,
    Negate,
    OscillationBand,
    PartialBandError,
    PeriodicZeroMean,
    RangeError,
    Sum,
    band_estimate,
    eval_phi,
    moment_norm,
    numeric_H,
    prescribe_average,
    prescribe_data,
    report_dumps,
    report_to_json,
    u_offcenter_1d,
    u_origin,
    u_origin_from_H,
    verify_certificate,
)
from heatband.initial_data import (
    _ball_average,
    _linear_pieces,
    _split_leaves,
    _weighted_value,
)
from heatband.prescriber import balanced_ramp_width
from heatband.quadrature import (
    GL_WEIGHTS,
    _ABS_TOL,
    _REL_TOL,
    _Z_MAX,
    _gauss_derivatives,
    _log_gauss_rule,
    _fixed_sums,
    _log_trapezoid_rule,
    _pieces_weighted,
    _power_series,
    _split_gauss,
    _wave_primitives,
    _weighted_terms,
    gaussian_power_tail,
    integrate_weighted,
)
from heatband.solution_probe import REPORT_SCHEMA_ID
from reference import ref_H, ref_u


# ---------------------------------------------------------------------------
# Oracles


def primitive_mean_oracle(trap) -> float:
    """Mean over one period of the wave's running integral, by dense sums.

    Written against the raw wave values only, so it shares nothing with the
    segment bookkeeping inside the exact integration route.
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, 400_001)
    vals = np.asarray(trap.value(thetas))
    dth = thetas[1] - thetas[0]
    running = np.concatenate(
        ([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * dth)))
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(running, thetas) / (2.0 * math.pi))


def primitives_dense_oracle(trap, count: int, points: int = 200_001):
    """(thetas, rows) with rows[j-1] = W_j on a uniform grid of one period,
    W_j the zero-mean j-th primitive of the wave minus its mean: repeated
    cumulative trapezoid sums, each shifted to mean zero.  Written against
    the raw wave values only, so it shares nothing with the Bernoulli form
    of the route."""
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    thetas = np.linspace(0.0, 2.0 * math.pi, points)
    dth = thetas[1] - thetas[0]
    level = np.asarray(trap.value(thetas), dtype=float)
    rows = []
    for _ in range(count + 1):
        level = level - trapezoid(level, thetas) / (2.0 * math.pi)
        rows.append(level)
        level = np.concatenate(([0.0], np.cumsum(0.5 * (level[1:] + level[:-1]) * dth)))
    return thetas, np.asarray(rows[1:])


STANDARD_WAVE = PeriodicZeroMean(1.0, -1.0)
LOPSIDED_WAVE = PeriodicZeroMean(2.0, -0.5, 0.3)
# the standard, the lopsided and the wave of prescribe_data(-1, 0, 0, 2, n)
TEST_WAVES = (STANDARD_WAVE, LOPSIDED_WAVE,
              PeriodicZeroMean(2.0, -1.0, balanced_ramp_width(2.0, -1.0)))
WAVE_POWERS = (0, 1, 2, 4, 11)


# ---------------------------------------------------------------------------
# Band container


class TestOscillationBand:
    def test_fields_and_frozenness(self):
        band = OscillationBand(-1.0, 2.0, 10.0, 1e6, 64, 3.0)
        assert band.lower_est == -1.0
        assert band.upper_est == 2.0
        with pytest.raises(AttributeError):
            band.lower_est = 0.0

    def test_rejects_unordered_estimates(self):
        with pytest.raises(DomainError):
            OscillationBand(2.0, -1.0, 10.0, 1e6, 64, 3.0)

    def test_rejects_non_finite_estimates(self):
        with pytest.raises(DomainError):
            OscillationBand(math.nan, 1.0, 10.0, 1e6, 64, 3.0)

    def test_rejects_bad_grid_range(self):
        with pytest.raises(DomainError):
            OscillationBand(0.0, 1.0, -5.0, 1e6, 64, 3.0)
        with pytest.raises(DomainError):
            OscillationBand(0.0, 1.0, 1e7, 1e6, 64, 3.0)

    def test_rejects_bad_sampling_metadata(self):
        with pytest.raises(DomainError):
            OscillationBand(0.0, 1.0, 10.0, 1e6, 0, 3.0)
        with pytest.raises(DomainError):
            OscillationBand(0.0, 1.0, 10.0, 1e6, 64, -1.0)


# ---------------------------------------------------------------------------
# Exact wave route


def wave_at_root(wave, k, root):
    """(value, bound) of the router's wave route at one root: the series, or
    the pieces where the series does not serve."""
    values, bounds = _weighted_value(wave, k, np.array([root]))
    return float(values[0]), float(bounds[0])


class TestWaveWeightedIntegral:
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("root", [2.0, 20.0])
    def test_agrees_with_adaptive_quadrature(self, k, root):
        exact, err = wave_at_root(STANDARD_WAVE, k, root)
        adaptive = integrate_weighted(
            lambda z: eval_phi(STANDARD_WAVE, root * z), k).value
        assert exact == pytest.approx(adaptive, abs=1e-10)
        assert err >= 0

    def test_symmetric_wave_odd_moment_vanishes(self):
        # For k = 1 the weight z e^{-z^2} varies slowly across each period
        # at moderate root, so the zero-mean wave nearly cancels.
        exact, _ = wave_at_root(STANDARD_WAVE, 1, 20.0)
        assert abs(exact) < 1e-10

    @pytest.mark.parametrize("root", [2e3, 2e4])
    def test_matches_parts_prediction_at_large_root(self, root):
        # Integration by parts gives mean(W) / root + O(root^-2) for k = 0,
        # W the running integral of the wave.
        w_mean = primitive_mean_oracle(STANDARD_WAVE.wave)
        exact, _ = wave_at_root(STANDARD_WAVE, 0, root)
        assert exact == pytest.approx(w_mean / root, rel=2e-3)

    @pytest.mark.parametrize("wave", [STANDARD_WAVE, LOPSIDED_WAVE], ids=["standard", "lopsided"])
    def test_primitives_against_dense_scan(self, wave):
        # W_1 .. W_P at 0 and at every phase of the scan, and their
        # a-priori sup bound zeta(j+2) jump / pi
        import mpmath

        _mean, jump, at, (w0, _err) = _wave_primitives(wave.wave)
        thetas, dense = primitives_dense_oracle(wave.wave, w0.size)
        assert w0 == pytest.approx(dense[:, 0], abs=1e-8)
        for lo in range(0, thetas.size, 10_000):
            got = at(thetas[lo:lo + 10_000], w0.size)[0]
            assert np.max(np.abs(got - dense[:, lo:lo + 10_000].T)) <= 1e-8, lo
        zeta = np.array([float(mpmath.zeta(j + 2)) for j in range(1, w0.size + 1)])
        bound = zeta * jump / math.pi
        assert np.all(np.max(np.abs(dense), axis=1) <= bound + 1e-8)

    @pytest.mark.parametrize("root", [2.0, 10.0, 20.0, 60.0, 200.0, 2e4, 2e8])
    @pytest.mark.parametrize("wave", TEST_WAVES, ids=["standard", "lopsided", "wave-plus-constant"])
    def test_against_mpmath(self, wave, root):
        # |error| <= bound <= abs_tol; at k = 11 the piecewise route, which
        # serves root <= 20 there, rounds terms of total size near
        # M_11 = 60, and its honest bound reaches about 5e-13
        for k in WAVE_POWERS:
            value, bound = wave_at_root(wave, k, root)
            assert abs(value - ref_u(wave, k, root, dps=40)) <= bound, (k, value, bound)
            assert bound <= (_ABS_TOL if k < 11 or root > 20.0 else 1e-12), (k, bound)

    def test_cancellation_at_root_200_is_inside_the_bound(self):
        # the segment sums of the old route erred here by 5.1e-13 while
        # returning a bound of about 1e-62
        value, bound = wave_at_root(STANDARD_WAVE, 4, 200.0)
        error = abs(value - ref_u(STANDARD_WAVE, 4, 200.0, dps=40))
        assert error <= bound <= _ABS_TOL

    @pytest.mark.parametrize("t", [1e2, 1e4, 1e6, 1e8, 1e10])
    def test_wave_plus_constant_wave_in_dimension_three(self, t):
        # the wave of prescribe_data(-1, 0, 0, 2, n=3), k = n - 1; the old
        # route read -1.18e-10 at t = 1e8, against -3.8e-13 on the t^(-3/2) trend
        wave = TEST_WAVES[2]
        root = math.sqrt(4.0 * t)
        value, bound = wave_at_root(wave, 2, root)
        assert abs(value - ref_u(wave, 2, root, dps=40)) <= bound
        assert bound <= _ABS_TOL

    @pytest.mark.parametrize("k", [0, 11])
    def test_series_enumerates_no_piece(self, k, monkeypatch):
        import heatband.initial_data as initial_data

        calls = []
        pieces = initial_data._pieces_weighted

        def counted(*args):
            calls.append(args)
            return pieces(*args)

        monkeypatch.setattr(initial_data, "_pieces_weighted", counted)
        for root in (60.0, 200.0, 2e4, 2e8, 2e150):
            wave_at_root(STANDARD_WAVE, k, root)
        assert calls == []
        wave_at_root(STANDARD_WAVE, k, 2.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("root", [20.0, 25.0, 60.0, 1e4])
    def test_tall_wave_series_yields_to_the_pieces(self, root):
        # the wave of prescribe_data(-0.05, 0, 0, 50, n) at k = 0: the
        # rounding of its series grows with its summed slope jump (6.4e4),
        # to bounds of 3.6e-11, 2.9e-11 and 1.2e-11 at roots 20, 25 and 60,
        # so the piece rule serves there; at root 1e4 its 916,752 nodes
        # exceed the budget, and the series keeps its bound of 1.1e-13
        wave = PeriodicZeroMean(50.0, -0.05, balanced_ramp_width(50.0, -0.05))
        value, bound = wave_at_root(wave, 0, root)
        assert abs(value - ref_u(wave, 0, root, dps=40)) <= bound
        assert (bound <= _ABS_TOL) == (root < 1e3)

    def test_too_fine_tolerance_raises_instead_of_allocating(self, quad_constants):
        quad_constants(_ABS_TOL=1e-300)
        assert wave_at_root(STANDARD_WAVE, 0, 2.0)[1] > 1e-300
        with pytest.raises(ConvergenceError):
            u_origin(STANDARD_WAVE, 1, 1e8)


def bump_at_root(train, k: int, root: float) -> tuple[float, float]:
    """(value, bound) of the piece route for the bumps of train at one root."""
    pieces = _linear_pieces(train, _Z_MAX * root)
    values, bounds = _pieces_weighted(*pieces, k, np.array([root]))
    return float(values[0]), float(bounds[0])


class TestBumpWeightedIntegral:
    BUMPS = BumpTrain(1.0, 0.5, 0.2, GeometricCenters(math.e))

    @pytest.mark.parametrize("root", [0.5, 2.0, 7.0, 30.0, 1e3, 1e6])
    @pytest.mark.parametrize("train", [
        BUMPS, BumpTrain(-0.7, 1.0, 0.3, DoubleExpCenters("peak")),
        BumpTrain(1.0, 40.0, 0.0, GeometricCenters(10.0))], ids=["geometric", "peak", "wide"])
    def test_against_mpmath(self, train, root):
        # the Gaussian tail alone, about 1e-64 at root 2 and k = 0, does not
        # cover the 2.8e-17 that the rule's rounding errs by there; the wide
        # bump reaches below tau = 0, and its bound must not grow with
        # half_width / root while its error does not; the piece route leaves
        # the baseline to the constants
        bumps = dataclasses.replace(train, baseline=0.0)
        for k in (0, 1, 2):
            value, bound = bump_at_root(train, k, root)
            error = abs(value - ref_u(bumps, k, root, dps=40))
            assert error <= bound <= _ABS_TOL, (k, error, bound)

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("root", [2.0, 50.0])
    def test_agrees_with_adaptive_quadrature(self, k, root):
        exact, err = (float(a[0]) for a in _weighted_value(self.BUMPS, k, np.array([root])))
        adaptive = integrate_weighted(
            lambda z: eval_phi(self.BUMPS, root * z), k).value
        assert exact == pytest.approx(adaptive, abs=1e-12)
        assert err >= 0

    def test_window_below_first_center_gives_baseline_only(self):
        exact = float(_weighted_value(self.BUMPS, 0, np.array([0.1]))[0][0])
        assert exact == pytest.approx(0.2 * gaussian_power_tail(0, 0.0), rel=1e-12)

    def test_downward_bumps_lower_the_integral(self):
        up = BumpTrain(1.0, 0.5, 0.0, GeometricCenters(math.e))
        down = BumpTrain(-1.0, 0.5, 0.0, GeometricCenters(math.e))
        v_up, _ = bump_at_root(up, 0, 5.0)
        v_down, _ = bump_at_root(down, 0, 5.0)
        assert v_up > 0
        assert v_down == pytest.approx(-v_up, rel=1e-12)


class TestPieceRule:
    @pytest.mark.parametrize("root", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("leaf", [
        PeriodicZeroMean(50.0, -0.05, balanced_ramp_width(50.0, -0.05)),
        BumpTrain(1.0, 1e-3, 0.0, GeometricCenters(math.e))], ids=["tall-wave", "narrow-bumps"])
    def test_bound_covers_steep_pieces(self, leaf, root):
        # steep pieces at small roots, where the rule's remainder
        # c z_cut H^16 (sup S_16 + 16 steep root S_15) is largest
        pieces = _linear_pieces(leaf, _Z_MAX * root)
        for k in (0, 2, 11):
            values, bounds = _pieces_weighted(*pieces, k, np.array([root]))
            assert abs(values[0] - ref_u(leaf, k, root, dps=40)) <= bounds[0], k

    @pytest.mark.parametrize("k", range(12))
    def test_sups_bound_the_kernel_derivatives(self, k):
        # f = z^k e^{-z^2}: by Leibniz and the Hermite polynomials H_m,
        # f^(j) = sum_i C(j, i) k!/(k-i)! z^(k-i) (-1)^(j-i) H_(j-i)(z) e^{-z^2}
        from numpy.polynomial.hermite import hermval

        sups = _gauss_derivatives(k)[2]
        z = np.linspace(0.0, 12.0, 24_001)
        for j in (15, 16):
            poly = sum(math.comb(j, i) * math.perm(k, i) * (-1) ** (j - i) * z ** (k - i)
                       * hermval(z, [0] * (j - i) + [1]) for i in range(min(j, k) + 1))
            assert sups[j - 1] >= np.max(np.abs(poly * np.exp(-z * z))), j


class TestSplitFastTerms:
    def test_mixed_sum_splits(self):
        slow = LogSine(1.0, 2.0, 0.5)
        wave = PeriodicZeroMean(1.0, -1.0)
        bumps = BumpTrain(1.0, 0.5, 0.0, GeometricCenters(math.e))
        leaves = _split_leaves(Sum((slow, wave, Negate(bumps))))
        assert leaves.analytic == ((1.0, slow),)
        assert (leaves.mass, leaves.omega) == (1.5, 2.0)
        assert leaves.waves == ((1.0, wave),) and leaves.bumps == ((-1.0, bumps),)
        assert leaves.constant == 0.0 and leaves.kinked == ()

    def test_pure_wave_has_no_smooth_part(self):
        wave = PeriodicZeroMean(1.0, -1.0)
        leaves = _split_leaves(wave)
        assert leaves.analytic == () and leaves.kinked == ()
        assert leaves.waves == ((1.0, wave),) and leaves.bumps == ()

    def test_negated_sum_distributes_sign(self):
        wave = PeriodicZeroMean(1.0, -1.0)
        profile = hb.PeriodicOfLog(hb.TrapezoidWave(1.0, -0.5, 0.4))
        leaves = _split_leaves(Negate(Sum((Constant(3.0), wave, profile))))
        assert leaves.waves == ((-1.0, wave),) and leaves.bumps == ()
        assert leaves.constant == -3.0
        assert leaves.kinked == ((-1.0, profile),)


class TestLeafOrder:
    """A wave and a bump train in either order: the routers add the waves
    before the bumps, so the order of the leaves moves a sum at most by the
    rounding of adding its parts in another order, 4 eps sup|phi| (|u| and
    |H| are at most sup|phi|, and each part at most its leaf's sup)."""

    WAVE = PeriodicZeroMean(1.0, -1.0)
    BUMPS = BumpTrain(1.0, 0.5, 0.2, GeometricCenters(math.e))

    def pairs(self):
        for bumps in (self.BUMPS, Negate(self.BUMPS)):
            yield Sum((self.WAVE, bumps)), Sum((bumps, self.WAVE))

    def allowance(self, expr):
        return 4.0 * np.finfo(float).eps * hb.sup_abs_phi(expr)

    @pytest.mark.parametrize("n", [1, 3])
    def test_u_and_H_agree(self, n):
        ts, taus = np.array([0.5, 30.0, 1e3, 1e8]), np.array([1.0, 10.0, 100.0, 1e4])
        for first, second in self.pairs():
            ok = self.allowance(first)
            assert np.all(np.abs(u_origin(first, n, ts) - u_origin(second, n, ts)) <= ok)
            assert np.all(np.abs(numeric_H(first, n, taus) - numeric_H(second, n, taus)) <= ok)

    def test_bands_and_witnesses_agree(self):
        for first, second in self.pairs():
            assert hb.analytic_band_phi(first) == hb.analytic_band_phi(second)
            for a, b in zip(hb.band_witnesses(first), hb.band_witnesses(second)):
                assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Solution values at the origin


class TestUOrigin:
    def test_cosine_data_closed_form(self):
        # data cos(|x|) in dimension one evolves to e^{-t} cos(x)
        assert u_origin(np.cos, 1, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-11)
        assert u_origin(np.cos, 1, 0.25) == pytest.approx(math.exp(-0.25), abs=1e-11)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e8])
    def test_constant_data_is_preserved(self, n, t):
        assert u_origin(Constant(1.7), n, t) == pytest.approx(1.7, rel=1e-11)

    def test_tracks_envelope_for_prescribed_average(self):
        cert = prescribe_average(-1.0, -0.3, 0.3, 1.0, n=2)
        got = u_origin(cert.data, 2, 1e8)
        assert got == pytest.approx(hb.envelope_u(cert, 1e8), abs=2e-4)

    def test_fast_wave_content_averages_out(self):
        expr = Sum((PeriodicZeroMean(1.0, -1.0), Constant(0.7)))
        for n in (1, 2, 3):
            assert u_origin(expr, n, 1e6) == pytest.approx(0.7, abs=1e-2)

    def test_rejects_bad_time(self):
        with pytest.raises(DomainError):
            u_origin(Constant(1.0), 1, 0.0)
        with pytest.raises(DomainError):
            u_origin(Constant(1.0), 1, -2.0)
        with pytest.raises(DomainError):
            u_origin(Constant(1.0), 1, math.inf)
        with pytest.raises(RangeError):
            u_origin(Constant(1.0), 1, 1e308)
        with pytest.raises(DomainError):
            u_origin(LogSine(1.0, 1.0), 2, True)
        with pytest.raises(DomainError):
            u_origin(LogSine(1.0, 1.0), 2, 10**400)

    def test_rejects_bad_dimension_and_expr(self):
        with pytest.raises(DomainError):
            u_origin(Constant(1.0), 0, 1.0)
        with pytest.raises(DomainError):
            u_origin("not data", 1, 1.0)

    @given(
        amp=st.floats(min_value=0.1, max_value=3.0),
        m=st.floats(min_value=0.5, max_value=8.0),
        off=st.floats(min_value=-2.0, max_value=2.0),
        n=st.integers(min_value=1, max_value=3),
        log_t=st.floats(min_value=-3.0, max_value=12.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_maximum_principle(self, amp, m, off, n, log_t):
        u = u_origin(LogSine(amp, m, off), n, 10.0 ** log_t)
        assert off - amp - 1e-8 <= u <= off + amp + 1e-8

    def test_log_time_increments_stay_bounded(self):
        # the solution drifts on the log clock; absolute time steps of one
        # percent move it by at most m * (band halfwidth) * log(1.01) / 2
        cert = prescribe_average(-1.0, -0.3, 0.3, 1.0, n=2)
        step = math.log(1.01)
        for t in (1e2, 1e4, 1e6, 1e8):
            jump = abs(u_origin(cert.data, 2, 1.01 * t) - u_origin(cert.data, 2, t))
            assert jump / step < 2.0


class TestUOriginFromH:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_constant_average_is_preserved(self, n):
        assert u_origin_from_H(Constant(-0.4), n, 1e3) == pytest.approx(-0.4, rel=1e-11)

    def test_both_formulas_agree_for_single_mode(self):
        H = LogSine(1.0, 2.0, 0.5)
        phi = hb.phi_from_H(H, 1)
        assert u_origin_from_H(H, 1, 1e6) == pytest.approx(
            u_origin(phi, 1, 1e6), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t", [1.0, 1e3, 1e9])
    def test_both_formulas_agree_across_families(self, n, t):
        families = [
            Constant(1.7),
            LogSine(1.0, 2.0, 0.5),
            Sum((LogSine(1.0, 1.0, 0.0), LogSine(0.5, 3.0, 0.0))),
            hb.PeriodicOfLog(hb.TrapezoidWave(1.0, -0.5, 0.4)),
        ]
        for H in families:
            phi = hb.phi_from_H(H, n)
            assert u_origin_from_H(H, n, t) == pytest.approx(
                u_origin(phi, n, t), abs=1e-9)

    def test_rejects_bad_time(self):
        with pytest.raises(DomainError):
            u_origin_from_H(Constant(1.0), 1, -1.0)


class TestPeriodicAveraging:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_mean_wave_leaves_only_the_offset(self, n):
        expr = Sum((PeriodicZeroMean(1.0, -1.0), Constant(0.7)))
        assert abs(u_origin(expr, n, 1e6) - 0.7) < 1e-2
        assert abs(numeric_H(expr, n, 1e4) - 0.7) < 1e-2


# ---------------------------------------------------------------------------
# Log-axis trapezoid route against mpmath


def log_analytic_cases(n):
    """(label, expression, top log frequency) for dimension n."""
    trig = hb.TrigPolynomial(0.1, (0.3, 0.0, 0.2), (0.5,))
    return [
        ("log-sine", LogSine(0.8, 0.7, 0.2), 0.7),
        ("preimage", LogSineAvgPreimage(0.6, 2.3, -0.1, n), 2.3),
        ("doubly-log", hb.LogLogSine(0.5, 0.1), 1.5),
        ("two-mode", hb.phi_from_H(Sum((LogSine(1.0, 1.0, 0.0), LogSine(1.0, 2.0, 0.0))), n),
         2.0),
        ("trig-profile", Negate(hb.PeriodicOfLog(trig)), 3.0),
    ]


def u_coefficients(n):
    """(k, coeff) of u_origin and of u_origin_from_H in dimension n."""
    return {u_origin: (n - 1, 2.0 / math.gamma(n / 2.0)),
            u_origin_from_H: (n + 1, 2.0 / math.gamma(n / 2.0 + 1.0))}


class TestLogAxisRoute:
    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    @pytest.mark.parametrize("route", [u_origin, u_origin_from_H])
    @pytest.mark.parametrize("t", [1e-2, 1e6, 1e30])
    def test_against_mpmath(self, n, route, t):
        k, coeff = u_coefficients(n)[route]
        for label, expr, _ in log_analytic_cases(n):
            want = coeff * ref_u(expr, k, math.sqrt(4.0 * t))
            assert route(expr, n, t) == pytest.approx(want, abs=1e-12), label

    @pytest.mark.parametrize("n,route,t", [(2, u_origin, 1e6), (2, u_origin_from_H, 1e30)])
    def test_high_frequency_against_mpmath(self, n, route, t):
        k, coeff = u_coefficients(n)[route]
        want = coeff * ref_u(LogSine(1.0, 100.0, 0.3), k, math.sqrt(4.0 * t))
        assert route(LogSine(1.0, 100.0, 0.3), n, t) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t", [1e-2, 1.0, 1e4, 1e12, 1e30])
    def test_agrees_with_adaptive_route(self, n, t):
        root = math.sqrt(4.0 * t)
        for route, (k, coeff) in u_coefficients(n).items():
            for label, expr, _ in log_analytic_cases(n):
                adaptive = coeff * integrate_weighted(
                    lambda z: eval_phi(expr, root * z), k).value
                assert route(expr, n, t) == pytest.approx(adaptive, abs=1e-10), label

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_error_bound_covers_mpmath(self, k):
        expr = LogSineAvgPreimage(0.6, 2.3, -0.1, 2)
        value, bound = _weighted_value(expr, k, 2e3)
        want = ref_u(expr, k, 2e3)
        assert abs(value - want) <= bound
        assert bound < 1e-12

    def test_constant_is_exact(self):
        for k in range(6):
            assert _weighted_value(Constant(0.3), k, 7.0)[0] \
                == 0.3 * gaussian_power_tail(k, 0.0)

    def test_routing(self):
        assert Constant(1.0).strip_bound() is None
        assert hb.PeriodicOfLog(hb.TrapezoidWave(1.0, -0.5, 0.4)).strip_bound() is None
        assert LogSineAvgPreimage(1.0, 2.0, -0.5, 4).strip_bound() == (2.0, 2.0)

    def test_non_finite_values_raise(self, monkeypatch):
        import heatband.initial_data as idata

        monkeypatch.setattr(idata, "eval_phi", lambda expr, tau: np.full_like(tau, np.nan))
        with pytest.raises(EvaluationError):
            u_origin(LogSine(1.0, 1.0, 0.0), 1, 1.0)

    def test_node_budget_raises(self):
        with pytest.raises(hb.ConvergenceError):
            u_origin(LogSine(1.0, 1e6, 0.0), 1, 1.0)

    @pytest.mark.parametrize("n,t", [(1, 1e-2), (2, 1.0), (3, 10.0)])
    def test_is_the_documented_sum_to_the_last_bit(self, n, t):
        # roots below the reach of the residue series (about 11 and 13 for n = 2, 3)
        # nodes x_j = log z_max - h j on [-40/(k+1), log z_max], with the
        # step count floor(L log(2 + 4M/abs_tol) / (2 pi a)) + 1 at the strip
        # a in (0, pi/4) with (k+1)(a tan 2a + log(cos 2a) / 2) = log(4 mass M_k / abs_tol),
        # here to full precision
        leaf = LogSineAvgPreimage(0.6, 2.3, -0.1, n)
        k = n - 1
        mass, omega = leaf.strip_bound()
        log_mass = math.log(4.0 * mass * gaussian_power_tail(k, 0.0) / _ABS_TOL)
        lo, hi = 0.0, math.pi / 4.0
        while hi - lo > 1e-15:
            a = 0.5 * (lo + hi)
            if (k + 1) * (a * math.tan(2.0 * a) + 0.5 * math.log(math.cos(2.0 * a))) < log_mass:
                lo = a
            else:
                hi = a
        a = lo
        big_m = (mass * math.exp(omega * a) * gaussian_power_tail(k, 0.0)
                 * math.cos(2.0 * a) ** (-(k + 1) / 2.0))
        x_lo, x_hi = -40.0 / (k + 1), math.log(_Z_MAX)
        count = int((x_hi - x_lo) * math.log(2.0 + 4.0 * big_m / _ABS_TOL)
                    / (2.0 * math.pi * a)) + 2
        h = (x_hi - x_lo) / (count - 1)
        x = x_hi - h * np.arange(count)
        phi = eval_phi(leaf, math.sqrt(4.0 * t) * np.exp(x))
        want = KernelFlavor.DATA.coefficient(n) * (
            h * float(np.dot(np.exp((k + 1) * x - np.exp(2.0 * x)), phi)))
        assert u_origin(leaf, n, t) == want

    def test_one_sweep_builds_the_series_once(self):
        # the sweep's roots lie past the reach of the residue series, which
        # is built at the first call and read at the next; no rule is laid
        _log_trapezoid_rule.cache_clear()
        _power_series.cache_clear()
        cert = prescribe_average(-1.0, -0.3, 0.3, 1.0, n=2)
        calls = []

        def evaluator(t):
            calls.append(t.size)
            return u_origin(cert.data, 2, t)

        band_estimate(evaluator, cert.m_used)
        info = _power_series.cache_info()
        assert info.misses == 1
        assert info.hits == len(calls) - 1 > 0
        assert _log_trapezoid_rule.cache_info().misses == 0

    def test_one_verify_builds_the_H_series_once(self):
        # one series for u and one for H; the Gauss rule of H is never laid
        _log_gauss_rule.cache_clear()
        _power_series.cache_clear()
        assert verify_certificate(prescribe_average(-1.0, -0.3, 0.3, 1.0, n=2)).chain_ok
        assert _power_series.cache_info().misses == 2
        assert _log_gauss_rule.cache_info().misses == 0

    def test_wide_strip_needs_few_nodes(self):
        # data-single-mode, n = 1; the strip pi/8 took 542 nodes
        assert _log_trapezoid_rule(0, 0.612, 1.354)[0].size <= 320

    @pytest.mark.parametrize("k", range(10))
    @pytest.mark.parametrize("omega", [0.06, 1.7, 20.0])
    def test_rule_on_exact_phi_is_within_its_bound(self, k, omega, quad_constants):
        # phi in 25 digits at the rule's own nodes, so that only the rule errs
        mpmath = pytest.importorskip("mpmath")
        leaf, root = LogSine(0.7, omega, 0.2), 2e3
        want = ref_u(leaf, k, root, dps=25)

        def phi(tau):
            return 0.7 * mpmath.sin(omega * mpmath.log1p(tau)) + 0.2

        for abs_tol in (1e-13, 1e-6):
            quad_constants(_ABS_TOL=abs_tol)
            scale, weights, h, bound = _log_trapezoid_rule(k, *leaf.strip_bound())
            with mpmath.workdps(25):
                got = h * mpmath.fsum(w * phi(mpmath.mpf(tau)) for w, tau in
                                      zip(weights.tolist(), (root * scale).tolist()))
                assert abs(got - want) <= bound, abs_tol

    @pytest.mark.parametrize("amplitude,abs_tol", [(1e5, 1e-13), (1e8, 1e-13), (1.0, 1e-20)])
    def test_bound_meets_abs_tol_at_any_amplitude(self, amplitude, abs_tol, quad_constants):
        # the window reaches down until the mass it cuts off is abs_tol / 4;
        # at -40/(k+1) alone the k = 0 bounds were 4.7e-13, 4.2e-10 and 4.25e-18
        expr = LogSine(amplitude, 1.0)
        quad_constants(_ABS_TOL=abs_tol)
        for k in (0, 11):
            assert _weighted_value(expr, k, [2.0])[1][0] <= abs_tol, k

    @pytest.mark.parametrize("abs_tol", [1e-60, 1e-70, 1e-100])
    def test_fixed_cut_meets_abs_tol_or_refuses(self, abs_tol, quad_constants):
        # the cut at z_max = 12 drops up to G_0(12) = 1.2e-64 of LogSine(1, 1),
        # which the rule returned as its bound at 1e-70 and 1e-100
        expr = LogSine(1.0, 1.0)
        quad_constants(_ABS_TOL=abs_tol)
        if abs_tol >= 1e-60:
            assert np.all(_weighted_value(expr, 0, [2.0])[1] <= abs_tol)
        else:
            with pytest.raises(ConvergenceError, match="cut at z = 12"):
                _weighted_value(expr, 0, [2.0])

    def test_bound_covers_the_rounding_of_phi(self):
        # k = 9 (n = 10): the rule on 25-digit phi erred by at most 9e-15, but
        # sin and cos of 5 log1p(tau) at tau up to 1e11 round by up to about
        # 1e-13, which its bound left out; these roots take the residue
        # series, whose bound counts the rounding of the phase m log root
        k, roots, expr = 9, np.logspace(3.0, 10.0, 16), LogSineAvgPreimage(0.6, 5.0, 0.05, 1)
        values, bounds = _weighted_value(expr, k, roots)
        want = [ref_u(expr, k, root, dps=25) for root in roots.tolist()]
        assert np.all(np.abs(values - np.array(want)) <= bounds)


# ---------------------------------------------------------------------------
# The residue series of the log modes: the routers choose it per point


SWEEP_X0 = 0.5 * math.log(4e6)  # x = log sqrt(4t) at the sweep anchor t = 1e6


def sweep_roots(grid):
    """The roots sqrt(4t) that u_origin takes for the times t = e^{2x} / 4 of
    x = np.linspace(*grid), as band_estimate builds them."""
    return np.sqrt(4.0 * (np.exp(2.0 * np.linspace(*grid)) / 4.0))


def power_cases(n):
    """The cases of log_analytic_cases(n) that are sums of powers (1 + tau)^a,
    and a tall log sine: (label, expression, top log frequency)."""
    cases = [case for case in log_analytic_cases(n) if _split_leaves(case[1]).powers]
    return cases + [("tall log-sine", LogSine(1e5, 0.7, 0.2), 0.7)]


def u_rule(expr, k, roots):
    """(values, bound) of the analytic leaves of expr by the trapezoid rule at
    every root, whichever route the router would choose."""
    leaves = _split_leaves(expr)
    scale, weights, h, bound = _log_trapezoid_rule(k, leaves.mass, leaves.omega)
    return h * _fixed_sums(leaves.analytic_phi, roots, scale, weights), bound


def H_rule(expr, n, taus):
    """(values, bound) of the analytic leaves of expr by the Gauss rule of H
    at every radius, whichever route the router would choose."""
    import heatband.initial_data as idata

    leaves = _split_leaves(expr)
    scale, weights, bound = _log_gauss_rule(n, leaves.mass, leaves.omega, idata._H_TOL)
    return _fixed_sums(leaves.analytic_phi, taus, scale, weights), bound


@pytest.fixture
def rule_spy(monkeypatch):
    """One entry per fixed rule that the routers of u and H lay for the log
    modes: an empty spy after a call means the series served every point."""
    import heatband.initial_data as idata

    laid = []
    for name in ("_log_trapezoid_rule", "_log_gauss_rule"):
        real = getattr(idata, name)
        monkeypatch.setattr(idata, name,
                            lambda *args, name=name, real=real: laid.append(name) or real(*args))
    return laid


class TestSeriesRoute:
    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_u_agrees_with_the_rule(self, n, rule_spy):
        # weighted units (u = coeff * value) past the reach; phi rounds by
        # about mass omega sigma eps at log radius sigma, which the rule's
        # bound does not count
        k, eps = n - 1, float(np.finfo(float).eps)
        roots = sweep_roots((SWEEP_X0, SWEEP_X0 + 12.0, 193))
        for label, expr, omega in power_cases(n):
            series, series_bound = _weighted_value(expr, k, roots)
            assert rule_spy == [], label
            rule, rule_bound = u_rule(expr, k, roots)
            sigma = np.log(roots) + math.log(_Z_MAX)
            rounding = 16.0 * eps * _split_leaves(expr).mass * (1.0 + omega * sigma)
            assert series.shape == (193,)
            assert np.all(np.abs(series - rule) <= series_bound + rule_bound + rounding), label

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_H_agrees_with_the_rule(self, n, rule_spy):
        # verify's H window starts at tau = 1e4
        eps = float(np.finfo(float).eps)
        taus = np.geomspace(1e4, 1e12, 97)
        for label, expr, omega in power_cases(n):
            series, series_bound = _ball_average(expr, n, taus)
            assert rule_spy == [], label
            rule, rule_bound = H_rule(expr, n, taus)
            rounding = 16.0 * eps * _split_leaves(expr).mass * (1.0 + omega * np.log(taus))
            assert np.all(np.abs(series - rule) <= series_bound + rule_bound + rounding), label

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_u_error_bound_covers_mpmath(self, n, rule_spy):
        k = n - 1
        roots = sweep_roots((SWEEP_X0, SWEEP_X0 + 12.0, 25))
        # one root a case, from the first of the grid to its last
        for i, (label, expr, _) in zip((0, 6, 12, 18, 24), power_cases(n)):
            values, bounds = _weighted_value(expr, k, roots)
            assert rule_spy == [], label
            want = ref_u(expr, k, float(roots[i]))
            assert abs(values[i] - want) <= bounds[i], (label, i)

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_H_error_bound_covers_mpmath(self, n, rule_spy):
        for label, expr, _ in power_cases(n):
            for tau in (1e4, 1e8, 1e12):
                (value,), (bound,) = _ball_average(expr, n, tau)
                assert abs(value - ref_H(expr, n, tau)) <= bound, (label, tau)
        assert rule_spy == []

    def test_series_takes_no_phi(self, monkeypatch):
        # past the reach no phi is evaluated; below it the rule names the
        # tau whose phi is not finite
        import heatband.initial_data as idata

        real = idata.eval_phi
        monkeypatch.setattr(idata, "eval_phi",
                            lambda expr, tau: np.full_like(real(expr, tau), np.nan))
        expr = LogSine(1.0, 1.0, 0.0)
        values, bounds = _weighted_value(expr, 0, sweep_roots((SWEEP_X0, SWEEP_X0 + 3.0, 13)))
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(bounds))
        assert np.all(np.isfinite(_ball_average(expr, 1, np.geomspace(1e4, 1e12, 9))[0]))
        with pytest.raises(EvaluationError) as err:
            _weighted_value(expr, 0, [2.0])
        assert repr(err.value.point) in str(err.value)

    @pytest.mark.parametrize("roots", [
        np.geomspace(20.0, 2e8, 25),  # a probe grid
        np.sqrt(4.0 * np.geomspace(1e2, 1e16, 9)),
        sweep_roots((SWEEP_X0, SWEEP_X0 + 3.0, 31))[::-1],  # descending
        np.array([2.0, 3.0, 5.0, 8.0]),  # both sides of the reach 5.4
        np.sqrt(4.0 * np.array(hb.solution_probe._GAP_TIMES)),
        sweep_roots((SWEEP_X0, SWEEP_X0 + 1.0, 1)),
        sweep_roots((SWEEP_X0, SWEEP_X0 + 1.0, 2)),
    ], ids=["geomspace", "geomspace-times", "descending", "both-sides", "gap-times",
            "one-root", "two-roots"])
    def test_batches_are_served_point_by_point(self, roots):
        # the route of a root rests on the root alone: a batch agrees with
        # its roots one at a time, in any order and count
        expr = LogSine(0.8, 0.7, 0.2)
        values, bounds = _weighted_value(expr, 0, roots)
        assert values.shape == roots.shape
        for i in range(roots.size):
            one, one_bound = _weighted_value(expr, 0, roots[i:i + 1])
            assert abs(values[i] - one[0]) <= bounds[i] + one_bound[0]

    def test_other_leaves_take_their_routes_at_the_same_roots(self, monkeypatch):
        # with the log sine's sums set to zero on both routes, what is left is
        # the constant, the wave (pieces at small roots, its series further
        # out) and the bump train, to the last bit of the sum without the sine
        import heatband.initial_data as idata

        others = (PeriodicZeroMean(1.0, -0.5, 0.3),
                  BumpTrain(0.7, 0.5, 0.1, GeometricCenters(3.0)), Constant(0.2))
        roots = sweep_roots((1.0, 8.0, 57))  # from 2.7, below the reach 5.4, to 3e3
        want = _weighted_value(Sum(others), 0, roots)
        monkeypatch.setattr(idata, "_power_sums", lambda _series, points: np.zeros((2, points.size)))
        monkeypatch.setattr(idata, "_fixed_sums", lambda _phi, radii, *_: np.zeros(radii.size))
        got = _weighted_value(Sum((LogSine(0.5, 0.7, 0.1),) + others), 0, roots)
        assert np.array_equal(got[0], want[0]) and np.all(got[1] >= want[1])
        assert np.any(got[0] != 0.2 * gaussian_power_tail(0, 0.0))

    @pytest.mark.parametrize("m", np.geomspace(0.0552, 60.0, 25).tolist())
    def test_sweep_roots_take_the_series(self, m, rule_spy):
        # band_estimate's grid and trial roots, from the lowest mode to the
        # highest, all lie past the reach of the mode's series
        times = []

        def evaluator(t):
            times.append(t)
            return u_origin(LogSine(1.0, m), 2, t)

        with contextlib.suppress(PartialBandError):
            band_estimate(evaluator, m)
        assert times and rule_spy == []
        reach = _power_series(_split_leaves(LogSine(1.0, m)).powers, 2, _weighted_terms)[0]
        assert min(np.sqrt(4.0 * t).min() for t in times) >= reach


# ---------------------------------------------------------------------------
# Trapezoid profiles of log(tau + 1): split Gauss rules against mpmath


TRAPEZOID = hb.TrapezoidWave(1.0, -0.5, 0.4)


def trapezoid_cases(n):
    """(label, leaf) for dimension n."""
    return [("profile", hb.PeriodicOfLog(TRAPEZOID)),
            ("slow-profile", hb.SlowFromPeriodic(TRAPEZOID, n))]


class TestTrapezoidProfiles:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t", [1.0, 1e3, 1e9, 1e20])
    def test_u_against_mpmath(self, n, t):
        k, coeff = n - 1, 2.0 / math.gamma(n / 2.0)
        root = math.sqrt(4.0 * t)
        for label, leaf in trapezoid_cases(n):
            want = coeff * ref_u(leaf, k, root)
            value, bound = _weighted_value(leaf, k, root)
            assert bound <= _ABS_TOL, label
            assert abs(coeff * value - want) <= coeff * bound, label
            assert abs(u_origin(leaf, n, t) - want) <= coeff * bound, label

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("tau", [2.3, 1e4, 1e8, 1e12])
    def test_ball_average_against_mpmath(self, n, tau, quad_constants):
        for label, leaf in trapezoid_cases(n):
            want = ref_H(leaf, n, tau)
            for tol in (1e-5, 1e-8, 1e-11):
                quad_constants(_H_TOL=tol)
                value, bound = _ball_average(leaf, n, tau)
                assert abs(value - want) <= bound, (label, tol)
                # tol / 2 for the window, tol / 2 for the panels, and the
                # rounding of a sum of at most two thousand terms
                assert bound <= tol + 2e3 * 2.3e-16 * 6.0, (label, tol)

    def test_mixed_with_analytic_leaves(self, quad_constants):
        slow = LogSine(0.8, 0.7, 0.2)
        profile = hb.PeriodicOfLog(TRAPEZOID)
        mixed = Sum((slow, Negate(profile)))
        for t in (1e3, 1e12):
            assert u_origin(mixed, 2, t) == pytest.approx(
                u_origin(slow, 2, t) - u_origin(profile, 2, t), abs=1e-12)
        quad_constants(_H_TOL=1e-10)
        for tau in (2.3, 1e6):
            assert numeric_H(mixed, 2, tau) == pytest.approx(
                numeric_H(slow, 2, tau) - numeric_H(profile, 2, tau), abs=3e-10)

    @pytest.mark.parametrize("radius", [2.3, 1e4, 1e12])
    def test_panels_split_at_every_corner(self, radius):
        phases = hb.PeriodicOfLog(TRAPEZOID)._piece_bound()[-1]
        nodes, weights, near = _split_gauss(-20.0, 0.5, 44, radius, phases)
        ell = np.log1p(radius * np.exp(nodes))
        # index of the piece each node lies on, counted along the L axis
        piece = (np.searchsorted(phases, np.mod(ell, 2.0 * math.pi), side="right")
                 + len(phases) * np.floor(ell / (2.0 * math.pi)))
        per_panel = piece.reshape(-1, len(GL_WEIGHTS))
        assert np.all(per_panel == per_panel[:, :1])
        assert np.unique(piece).size >= 5
        assert float(np.sum(weights)) == pytest.approx(22.0, rel=1e-14)
        assert not near.any()

    def test_unroutable_leaf_is_refused(self):
        class Opaque(hb.InitialDataExpr):
            def _values(self, tau):
                return np.ones_like(tau)

        with pytest.raises(hb.UnsupportedExpression):
            u_origin(Opaque(), 1, 1.0)
        with pytest.raises(hb.UnsupportedExpression):
            numeric_H(Opaque(), 1, 1.0)


# ---------------------------------------------------------------------------
# Bump trains far out, against mpmath


class TestBumpTrainFarOut:
    BUMPS = BumpTrain(1.0, 0.5, 0.0, GeometricCenters(math.e))

    @pytest.mark.parametrize("t", [3.2e11, 1e21, 1e30])
    def test_against_mpmath(self, t):
        got = u_origin(self.BUMPS, 2, t)
        want = 2.0 * ref_u(self.BUMPS, 1, math.sqrt(4.0 * t), dps=40)  # n = 2: 2 / Gamma(1)
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)


class TestNodeBudget:
    """_MAX_NODES is the one node budget of every fixed rule,
    checked at each point before any node is laid."""

    # 355,246 centres 0.2 % apart: 10,094 linear pieces, so 80,752 Gauss
    # nodes, for one u point at t = 1e6, and 26,230 pieces at t = 1e20
    FINE_BUMPS = BumpTrain(1.0, 1e-3, 0.0, GeometricCenters(1.002))

    def test_kinked_u_route_reads_the_budget(self, quad_constants):
        # its corner-split layout takes 752 nodes at t = 1e6 (its 84 panels
        # and the corners inside the window), refused under a budget of 16
        # and the log sine's trapezoid rule below the reach of its series
        quad_constants(_MAX_NODES=16)
        with pytest.raises(ConvergenceError, match="node budget 16"):
            u_origin(hb.PeriodicOfLog(TRAPEZOID), 1, 1e6)
        with pytest.raises(ConvergenceError, match="node budget 16"):
            u_origin(LogSine(1.0, 1.0), 1, 1.0)

    def test_corner_panels_count_against_the_budget(self, quad_constants):
        # 84 panels and the 10 corners inside the window that split them
        profile = hb.PeriodicOfLog(TRAPEZOID)
        default = u_origin(profile, 1, 1e6)
        quad_constants(_MAX_NODES=672)
        with pytest.raises(ConvergenceError, match="752 nodes"):
            u_origin(profile, 1, 1e6)
        quad_constants(_MAX_NODES=752)
        value = u_origin(profile, 1, 1e6)
        assert value == default
        assert value == pytest.approx(0.5210266875205084, rel=1e-14)

    @pytest.mark.parametrize("integral", ["H", "u"])
    @pytest.mark.parametrize("leaf", [LogSine(1.0, 1.0), hb.PeriodicOfLog(TRAPEZOID)],
                             ids=["analytic", "kinked"])
    @pytest.mark.parametrize("tol", [1e-308, 1e-320, 5e-324])
    def test_too_fine_a_tolerance_is_refused_or_met(self, integral, leaf, tol, quad_constants):
        # the windows and targets are taken in log space, so neither
        # 2 mass / tol overflows nor tol / 2 rounds to 0 into a bare error
        try:
            if integral == "H":
                quad_constants(_H_TOL=tol)
                value = numeric_H(leaf, 1, 10.0)
            else:
                quad_constants(_ABS_TOL=tol)
                value = u_origin(leaf, 1, 10.0)
        except ConvergenceError as exc:
            assert math.isfinite(float(str(exc).split("needs at least ")[1].split()[0]))
        else:
            assert math.isfinite(value)

    def test_verify_refuses_before_it_measures_the_H_window(self, monkeypatch):
        import dataclasses

        import heatband.initial_data as idata

        cert = dataclasses.replace(prescribe_data(0.0, 0.0, 0.0, 1.0, n=2), data=self.FINE_BUMPS)
        assert cert.construction_tag == "data-sparse-bumps"

        def no_ball_average(*args):
            raise AssertionError("the H window was measured before the u sweep")

        monkeypatch.setattr(idata, "_ball_average", no_ball_average)
        with pytest.raises(ConvergenceError, match="exceeding the node budget 200000"):
            verify_certificate(cert)

    def test_bump_train_past_the_budget_raises_before_any_layout(self, monkeypatch):
        from heatband import quadrature

        # unchanged below the budget (up to SIMD rounding of exp)
        assert u_origin(self.FINE_BUMPS, 1, 1e6) == pytest.approx(0.0020645402441245827,
                                                                  rel=1e-14)
        monkeypatch.setattr(quadrature, "_piece_layout", None)
        with pytest.raises(ConvergenceError, match="209840 nodes"):
            u_origin(self.FINE_BUMPS, 1, 1e20)

    def test_bump_train_ball_average_past_the_budget_raises(self):
        assert numeric_H(self.FINE_BUMPS, 1, 1e8) == pytest.approx(9.219e-08, rel=1e-14)
        # 27,658 pieces below tau = 1e12, one 8-node panel each
        with pytest.raises(ConvergenceError, match="221264 nodes"):
            numeric_H(self.FINE_BUMPS, 1, 1e12)


# ---------------------------------------------------------------------------
# Layering


def test_solution_probe_imports_only_the_router_from_initial_data():
    import ast
    import pathlib

    source = pathlib.Path(hb.solution_probe.__file__).read_text()
    private = {alias.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[-1] == "initial_data"
               for alias in node.names if alias.name.startswith("_")}
    assert private <= {"_weighted_value", "_split_leaves"}


def test_quadrature_imports_no_module_above_it():
    # the rules take evaluators, piece tables and wave models; a rule that
    # routed a leaf kind itself would need initial_data or a module above it
    import ast
    import pathlib

    tree = ast.parse(pathlib.Path(hb.quadrature.__file__).read_text())
    modules = {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    above = {"initial_data", "prescriber", "solution_probe", "cli"}
    assert not {module.split(".")[-1] for module in modules} & above


def test_one_verify_splits_its_data_once(monkeypatch):
    # every reader of leaf kinds (routers, bands, witnesses, verify's slow
    # content, envelope_u) reads the split kept on the expression object
    import heatband.initial_data as idata

    cert = hb.cert_loads(hb.cert_dumps(prescribe_data(-1.0, -0.5, 0.5, 1.5, n=2)))
    assert cert.construction_tag == "data-mode-plus-wave"
    splits, walks = [], []
    split, walk = idata._Leaves.of, idata._signed_leaves

    def counted_split(expr):
        splits.append(expr)
        return split(expr)

    def counted_walk(expr, sign=1.0, out=None):
        if out is None:
            walks.append(expr)
        return walk(expr, sign, out)

    monkeypatch.setattr(idata._Leaves, "of", counted_split)
    monkeypatch.setattr(idata, "_signed_leaves", counted_walk)
    verify_certificate(cert)
    assert splits == [cert.data] and walks == [cert.data]
    for t in np.geomspace(1e2, 1e10, 49).tolist():
        hb.envelope_u(cert, t)
    assert len(splits) == 1 and len(walks) == 1


def test_routers_read_the_evaluators_of_the_split(monkeypatch):
    # the analytic and kinked groups are summed into one evaluator each when
    # the expression is split, never again at a call of either router
    import heatband.initial_data as idata

    expr = Sum((LogSine(0.7, 2.0, 0.1), hb.PeriodicOfLog(TRAPEZOID), Constant(0.3)))
    leaves = _split_leaves(expr)
    built = []
    monkeypatch.setattr(idata, "_signed_sum", lambda pairs: built.append(pairs))
    for _ in range(2):
        _weighted_value(expr, 1, np.array([1.0, 30.0]))
        _ball_average(expr, 2, np.array([5.0, 1e6]))
    assert built == [] and _split_leaves(expr) is leaves
    tau = np.geomspace(1.0, 1e6, 7)
    assert np.array_equal(leaves.analytic_phi(tau), eval_phi(LogSine(0.7, 2.0, 0.1), tau))
    assert np.array_equal(leaves.kinked_phi(tau), eval_phi(hb.PeriodicOfLog(TRAPEZOID), tau))
    assert leaves.slows == leaves.analytic + leaves.kinked and leaves.slow_m == 1.0


TRIG = hb.TrigPolynomial(0.1, (0.3,), (0.2,))


@pytest.mark.parametrize("expr, slow_m", [
    (LogSine(0.7, 2.5, 0.1), 2.5),
    (LogSineAvgPreimage(0.7, 1.5, 0.1, 2), 1.5),
    (hb.PeriodicOfLog(TRIG), 1.0),
    (hb.SlowFromPeriodic(TRIG, 3), 1.0),
    (hb.PeriodicOfLog(TRAPEZOID), 1.0),
    (hb.SlowFromPeriodic(TRAPEZOID, 2), 1.0),
    (hb.LogLogSine(0.5, 0.1), None),
    (Constant(0.3), None),
    (PeriodicZeroMean(1.0, -1.0), None),
    (BumpTrain(0.7, 0.3, 0.2, GeometricCenters()), None),
    # a mode beside a trapezoid profile: the lower of m and 1
    (Sum((LogSine(0.7, 2.0, 0.1), hb.PeriodicOfLog(TRAPEZOID))), 1.0),
    (Sum((LogSine(0.7, 0.4, 0.1), Negate(hb.PeriodicOfLog(TRAPEZOID)))), 0.4),
    # a trig profile whose first harmonics are zero: its lowest nonzero one
    (hb.PeriodicOfLog(hb.TrigPolynomial(0.1, (0.0, 0.0, 0.3), (0.0, 0.0, 0.0, 0.2))), 3.0),
    (hb.SlowFromPeriodic(hb.TrigPolynomial(0.1, (0.0,), (0.0, -0.4)), 2), 2.0),
    (hb.PeriodicOfLog(hb.TrigPolynomial(0.5, (0.0,), (0.0,))), None),
    (Sum((hb.LogLogSine(0.5, 0.1), LogSine(1.0, 0.6))), 0.6),
    # cancelled modes keep the frequency of each
    (Sum((LogSine(1.0, 1.0), Negate(LogSine(1.0, 1.0)))), 1.0),
], ids=repr)
def test_slow_m_is_the_lowest_log_frequency(expr, slow_m):
    assert _split_leaves(expr).slow_m == slow_m


def _corpus_certificates():
    from test_prescriber import _CORPUS

    scope: dict = {}
    exec(_CORPUS, scope)
    return scope["certs"]


CORPUS = _corpus_certificates()


@pytest.mark.parametrize("index", range(len(CORPUS)),
                         ids=[f"{c.construction_tag}-{c.target.n}" for c in CORPUS])
def test_verify_H_band_is_numeric_H_on_its_window(index, monkeypatch):
    # verify's H window meets the one H target, as the probe table does: its
    # band ends are the least and the greatest numeric_H on its own radii
    from heatband import solution_probe

    cert, windows = CORPUS[index], []

    def spy(expr, n, taus, *args, **kwargs):
        windows.append(np.array(taus))
        return numeric_H(expr, n, taus, *args, **kwargs)

    monkeypatch.setattr(solution_probe, "numeric_H", spy)
    band = verify_certificate(cert).measured_H_band
    (taus,) = windows
    values = numeric_H(cert.data, cert.target.n, taus)
    assert (band.lower_est, band.upper_est) == (float(values.min()), float(values.max()))


def test_probe_and_cli_call_the_integrals_once_per_grid():
    # a whole sweep or table is one call of u_origin, numeric_H or eval_phi,
    # never one call per point inside a loop or a comprehension
    import ast
    import pathlib

    import heatband.cli

    batched = {"u_origin", "numeric_H", "eval_phi"}
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)
    found = []
    for module in (hb.solution_probe, heatband.cli):
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        for loop in (node for node in ast.walk(tree) if isinstance(node, loops)):
            for node in ast.walk(loop):
                func = getattr(node, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(node, ast.Call) and name in batched:
                    found.append(f"{module.__name__}:{node.lineno} {name}")
    assert found == []


# ---------------------------------------------------------------------------
# Batched points: an array of times or radii is the scalar calls at once


def _batched_cases(n):
    """(label, expr) covering every route of u(0, t) and H(tau)."""
    return [
        ("constant", Constant(0.7)),
        ("analytic", Sum((LogSineAvgPreimage(0.6, 2.3, -0.1, n), LogSine(0.3, 1.0, 0.2)))),
        ("kinked", hb.PeriodicOfLog(hb.TrapezoidWave(1.0, -0.5, 0.4))),
        ("wave", Sum((PeriodicZeroMean(1.0, -1.0), Constant(0.2)))),
        ("bumps", BumpTrain(1.0, 0.5, 0.2, GeometricCenters(math.e))),
        ("mixed", Sum((LogSine(0.8, 0.7, 0.2), Negate(PeriodicZeroMean(2.0, -0.5, 0.3))))),
    ]


# t = 1e-2 and 1 put the wave's root below the series' reach (the route by
# pieces), 1e3 and up above it (the series)
BATCH_TIMES = np.array([1e-2, 1.0, 10.0, 1e3, 1e8, 1e20])
BATCH_RADII = np.array([0.0, 0.5, 2.3, 1e4, 1e8, 1e12])


def _agree(batched, scalars, size):
    # the analytic rows differ from the one-row sums by the order of
    # summation only: within 4 eps sum_i |term_i| <= 4 eps sup|phi|
    assert np.all(np.abs(batched - scalars) <= 4.0 * 2.3e-16 * size + 1e-16)


class TestBatchedPoints:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("route", [u_origin, u_origin_from_H])
    def test_u_array_is_the_scalar_calls(self, n, route):
        cases = _batched_cases(n) + [("callable", lambda tau: 1.0 / (1.0 + np.log1p(tau)))]
        for label, expr in cases:
            got = route(expr, n, BATCH_TIMES)
            want = np.array([route(expr, n, float(t)) for t in BATCH_TIMES])
            size = 1.0 if label == "callable" else hb.sup_abs_phi(expr)
            assert got.shape == BATCH_TIMES.shape, label
            _agree(got, want, size)
            if label == "wave":
                # the wave series of all roots is the one-root series, term
                # for term, and math.fsum sums each root's terms exactly
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_H_array_is_the_scalar_calls(self, n):
        for label, expr in _batched_cases(n):
            got = numeric_H(expr, n, BATCH_RADII)
            want = np.array([numeric_H(expr, n, float(tau)) for tau in BATCH_RADII])
            assert got.shape == BATCH_RADII.shape, label
            assert got[0] == eval_phi(expr, 0.0), label
            _agree(got, want, hb.sup_abs_phi(expr))

    def test_shape_in_shape_out(self):
        expr = _batched_cases(2)[-1][1]
        grid = BATCH_TIMES.reshape(2, 3)
        assert u_origin(expr, 2, grid).shape == (2, 3)
        assert numeric_H(expr, 2, BATCH_RADII.reshape(3, 2)).shape == (3, 2)
        assert u_origin(expr, 2, [1e3]).shape == (1,)
        assert u_origin(expr, 2, np.empty(0)).shape == (0,)
        for point in (np.array(1e3), np.float64(1e3), 1000):
            assert type(u_origin(expr, 2, point)) is float
            assert type(u_origin_from_H(expr, 2, point)) is float
            assert type(numeric_H(expr, 2, point)) is float
        assert u_origin(expr, 2, np.array(1e3)) == u_origin(expr, 2, 1e3)

    @pytest.mark.parametrize("times,error", [
        (np.array([1.0, 0.0]), DomainError),
        (np.array([1.0, -2.0]), DomainError),
        (np.array([1.0, math.inf]), DomainError),
        (np.array([math.nan, 1.0]), DomainError),
        (np.array([1.0, 1e308]), RangeError),
        (np.array([True, False]), DomainError),
        ([1.0, 10**400], DomainError),
        (np.array(["1.0"]), DomainError),
    ])
    def test_bad_time_in_an_array_is_refused_as_alone(self, times, error):
        with pytest.raises(error):
            u_origin(LogSine(1.0, 1.0), 2, times)

    @pytest.mark.parametrize("radii", [
        np.array([1.0, -1.0]), np.array([math.inf, 1.0]), np.array([1.0, math.nan]),
        [1.0, 10**400], np.array([True]),
    ])
    def test_bad_radius_in_an_array_is_refused(self, radii):
        with pytest.raises(DomainError):
            numeric_H(LogSine(1.0, 1.0), 2, radii)

    def test_non_finite_value_names_its_radius(self, monkeypatch):
        import heatband.initial_data as idata

        real_eval = idata.eval_phi

        def broken(expr, tau):
            vals = real_eval(expr, tau)
            return np.where(tau == tau.ravel()[-1], np.nan, vals)

        monkeypatch.setattr(idata, "eval_phi", broken)
        # radii below the reach 6 of the log sine's series, which takes no phi
        with pytest.raises(EvaluationError) as err:
            numeric_H(LogSine(1.0, 1.0, 0.0), 1, np.array([2.0, 4.0]))
        assert err.value.point == 4.0 * _log_gauss_rule(1, 1.0, 1.0, 1e-8)[0][-1]

    def test_row_blocks_give_the_same_sums(self, monkeypatch):
        from heatband import quadrature

        expr = _batched_cases(2)[1][1]
        whole = u_origin(expr, 2, BATCH_TIMES)
        monkeypatch.setattr(quadrature, "_BLOCK", 1)
        _agree(u_origin(expr, 2, BATCH_TIMES), whole, hb.sup_abs_phi(expr))


# ---------------------------------------------------------------------------
# Off-center values in dimension one


class TestUOffcenter1d:
    @pytest.mark.parametrize("x,t", [(0.0, 1.0), (1.0, 0.3), (2.5, 1.0)])
    def test_cosine_data_closed_form(self, x, t):
        want = math.exp(-t) * math.cos(x)
        assert u_offcenter_1d(np.cos, x, t) == pytest.approx(want, abs=1e-11)

    def test_constant_data_everywhere(self):
        assert u_offcenter_1d(Constant(0.3), 123.0, 2.0) == pytest.approx(0.3, rel=1e-11)

    def test_far_from_origin_tracks_local_data(self):
        # at small t the solution near x is set by the data near |x|
        data = LogSineAvgPreimage(1.0, 1.0, 0.0, 1)
        diffs = []
        for x in (1e3, 1e4, 1e5):
            target = math.sin(math.log(x)) + math.cos(math.log(x))
            diffs.append(abs(u_offcenter_1d(data, x, 1.0) - target))
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 1e-4

    def test_off_center_band_exceeds_origin_envelope(self):
        # at the origin the data averages down to a narrow band; away from
        # the origin the solution sees full data oscillations
        data = LogSineAvgPreimage(1.0, 1.0, 0.0, 1)
        origin_halfwidth = moment_norm(1, 1.0, KernelFlavor.AVERAGE)
        assert origin_halfwidth < 1.0
        log_xs = np.linspace(math.log(1e3), math.log(1e6), 65)
        us = [u_offcenter_1d(data, float(math.exp(s)), 1.0) for s in log_xs]
        data_halfwidth = math.sqrt(2.0)  # sup of |sin + cos| on the log scale
        assert max(us) > 1.39
        assert max(us) <= data_halfwidth + 1e-6
        assert min(us) < -1.39
        assert min(us) >= -data_halfwidth - 1e-6

    def test_rejects_bad_position(self):
        with pytest.raises(DomainError):
            u_offcenter_1d(Constant(1.0), math.inf, 1.0)
        with pytest.raises(DomainError):
            u_offcenter_1d(Constant(1.0), math.nan, 1.0)
        with pytest.raises(RangeError):
            u_offcenter_1d(Constant(1.0), 1.5e308, 1.0)

    def test_rejects_bad_expr(self):
        with pytest.raises(DomainError):
            u_offcenter_1d(42, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Band estimation


def newton_vertices(us, vals, covered, steps=5):
    """The trial points of solution_probe._vertex_trials as it read them with
    five Newton steps from each candidate: the reference its three steps
    must meet.  Candidates: the local extremes of sign * vals (an edge one
    no worse than its neighbour), the best ceil(covered) + 1 of each end, none
    for an end flat to 8 eps."""
    from heatband.solution_probe import _POWERS, _STENCIL, _STENCILS

    eps, size = float(np.finfo(float).eps), us.size
    out = []
    for sign in (1.0, -1.0):
        f = sign * vals
        found = [i for i in range(size) if (i == 0 or f[i] <= f[i - 1])
                 and (i == size - 1 or f[i] <= f[i + 1])]
        found = sorted(found, key=lambda i: f[i])[:max(math.ceil(covered), 0) + 1]
        best = found[0]
        if max(f[max(best - 1, 0)], f[min(best + 1, size - 1)]) - f[best] \
                <= 8.0 * eps * max(1.0, abs(f[best])):
            continue
        for i in found:
            start = min(max(i - _STENCIL // 2, 0), size - _STENCIL)
            coef = _STENCILS[i - start] @ vals[start:start + _STENCIL]
            poly = np.polynomial.Polynomial(coef)
            s = 0.0
            for _ in range(steps):
                if sign * poly.deriv(2)(s) > 0.0:
                    s = min(max(s - poly.deriv(1)(s) / poly.deriv(2)(s), -(i > 0)), i < size - 1)
            if sign * poly(s) < sign * vals[i] and s != 0.0:
                out.append(us[i] + s * (us[-1] - us[0]) / (size - 1))
    return np.sort(out)


class TestBandEstimate:
    def test_trial_points_are_the_five_step_vertices(self, monkeypatch):
        # every corpus sweep: the three Newton steps land within 1e-10 of a
        # cell of where five steps did
        import heatband.solution_probe as probe

        sweeps, trials = [], probe._vertex_trials
        monkeypatch.setattr(probe, "_vertex_trials",
                            lambda *args: sweeps.append(args) or trials(*args))
        for cert in CORPUS:
            verify_certificate(cert)
        assert len(sweeps) == len(CORPUS)
        for us, vals, covered in sweeps:
            got, want = np.sort(trials(us, vals, covered)), newton_vertices(us, vals, covered)
            cell = (us[-1] - us[0]) / (us.size - 1)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-10 * cell)

    def test_recovers_analytic_envelope(self):
        a, b = 0.21, -0.17
        off = 0.05

        def envelope(t):
            y = 0.5 * np.log(4.0 * t)
            return a * np.sin(2.0 * y) + b * np.cos(2.0 * y) + off

        band = band_estimate(envelope, 2.0)
        half = math.hypot(a, b)
        assert band.lower_est == pytest.approx(off - half, abs=1e-9)
        assert band.upper_est == pytest.approx(off + half, abs=1e-9)
        assert band.periods_covered == pytest.approx(3.0)

    @pytest.mark.parametrize("m", [1.5, 4.5])
    def test_uncapped_window_holds_the_periods_exactly(self, m):
        # (x1 - x0) / period rounds to 3.0000000000000004 for these m; the
        # grid still takes 64 * 3 + 1 points and records 3 periods
        grids = []

        def wave(t):
            grids.append(t)
            return np.sin(m * 0.5 * np.log(4.0 * t))

        band = band_estimate(wave, m)
        assert grids[0].size == 193
        assert band.periods_covered == 3.0

    def test_average_certificate_sweeps_three_periods(self):
        report = verify_certificate(prescribe_average(-1.0, -0.3, 0.3, 1.0, n=2))
        assert report.measured_u_band.periods_covered == 3.0

    def test_constant_evaluator_degenerates(self):
        band = band_estimate(lambda t: 0.42, 1.0)
        assert band.lower_est == pytest.approx(0.42, abs=1e-12)
        assert band.upper_est == pytest.approx(0.42, abs=1e-12)

    def test_recovers_two_mode_example_band(self):
        cert = hb.lemma_not_example()
        band = band_estimate(lambda t: u_origin(cert.data, 1, t), 1.0)
        assert band.lower_est == pytest.approx(cert.expected_u_band[0], abs=1e-4)
        assert band.upper_est == pytest.approx(cert.expected_u_band[1], abs=1e-4)

    def test_doubly_log_sweep_reports_partial_band(self):
        def slow(t):
            return np.sin(np.log(0.5 * np.log(4.0 * t)))

        with pytest.raises(PartialBandError) as err:
            band_estimate(slow, "log-log")
        band = err.value.band
        assert band.periods_covered == pytest.approx(0.6096, abs=1e-3)
        assert band.lower_est == pytest.approx(-1.0, abs=1e-6)
        assert 0.88 < band.upper_est < 0.92

    def test_default_window_holds_three_periods_from_the_floor_up(self):
        # the constructions refuse mode frequencies below _M_FLOOR
        from heatband.kernel_moments import _M_FLOOR

        band = band_estimate(lambda t: 0.0, _M_FLOOR * (1.0 + 1e-9))
        assert band.periods_covered >= 3.0 - 1e-12
        with pytest.raises(PartialBandError):
            band_estimate(lambda t: 0.0, _M_FLOOR * (1.0 - 1e-6))

    def test_rejects_bad_hints(self):
        with pytest.raises(DomainError):
            band_estimate(lambda t: 0.0, "weird")
        with pytest.raises(DomainError):
            band_estimate(lambda t: 0.0, -1.0)
        with pytest.raises(DomainError):
            band_estimate(lambda t: 0.0, 0.0)
        with pytest.raises(DomainError):
            band_estimate(0.5, 1.0)

    def test_non_finite_evaluator_raises(self):
        def broken(t):
            return np.where(t > 1e7, np.nan, 0.0)

        with pytest.raises(EvaluationError) as err:
            band_estimate(broken, 1.0)
        # the point is the time the evaluator failed at, not its log sqrt(4t)
        assert err.value.point > 1e7
        assert repr(err.value.point) in str(err.value)

    def test_sweep_is_one_grid_call_then_one_trial_call(self):
        # one call for the grid, then at most one call of at most
        # ceil(periods) + 1 trial points for each band end
        sizes = []

        def envelope(t):
            sizes.append(t.shape)
            return np.sin(np.log(4.0 * t))

        def doubly_log(t):
            sizes.append(t.shape)
            return np.sin(np.log(0.5 * np.log(4.0 * t)))

        with pytest.raises(PartialBandError):  # 0.61 periods: 2 points an end
            band_estimate(doubly_log, "log-log")
        assert len(sizes) == 2 and sizes[1][0] <= 2 * (1 + 1), sizes
        sizes.clear()
        band = band_estimate(envelope, 2.0)
        assert sizes[0] == (193,)
        assert len(sizes) <= 2
        assert all(len(size) == 1 and 1 <= size[0] <= 2 * (3 + 1) for size in sizes[1:]), sizes
        assert band.lower_est == pytest.approx(-1.0, abs=1e-14)
        assert band.upper_est == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("amp,m,phase,off", [
        (1.0, 1.0, 0.05, 0.0), (0.37, 2.0, -0.43, 0.25), (2.5, 0.7, 2.9, -1.5),
        (1e-3, 1.3, 3.5, 0.4),
    ])
    def test_off_grid_extremum(self, amp, m, phase, off):
        # the phase at both window edges keeps them far from the extremes,
        # which fall between grid points, 0.35-0.49 of a cell off
        x0 = 0.5 * math.log(4e6)

        def wave(t):
            return amp * np.sin(m * (0.5 * np.log(4.0 * t) - x0) + phase) + off

        band = band_estimate(wave, m)
        assert band.lower_est == pytest.approx(off - amp, abs=1e-14)
        assert band.upper_est == pytest.approx(off + amp, abs=1e-14)

    def test_extremum_at_the_window_edge_is_the_edge_sample(self):
        calls = []

        def rising(t):
            calls.append((t, np.log(t) ** 2))
            return calls[-1][1]

        band = band_estimate(rising, 1.0)
        grid_values = calls[0][1]
        assert band.lower_est == grid_values[0]
        assert band.upper_est == grid_values[-1]
        assert len(calls) <= 50

    def test_interior_peak_beats_a_higher_edge_sample(self):
        # sin(x + 0.3) from t = 1e6 starts just past a peak: the edge sample
        # 0.99894 beats the samples beside the three interior peaks, whose
        # vertices still reach 1
        def wave(t):
            return np.sin(0.5 * np.log(4.0 * t) + 0.3)

        band = band_estimate(wave, 1.0)
        assert band.upper_est == pytest.approx(1.0, abs=1e-14)
        assert band.lower_est == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("w", [0.995, 1.003, 1.007])
    def test_upper_end_is_the_peak_of_the_right_period(self, w):
        # a slowly growing amplitude puts the greatest peak in the last
        # period, higher than the others by less than the grid's sampling
        # error; every period's peak is refined, so the end is the window's
        # maximum
        x0, eps = 0.5 * math.log(4e6), 2e-5
        misses = []
        for phase in np.linspace(0.0, 2.0 * math.pi, 41):
            def wave(x, phase=phase):
                # value, first and second derivative in x
                g, c, s = 1.0 + eps * x, np.cos(w * x + phase), np.sin(w * x + phase)
                return g * s, eps * s + g * w * c, 2.0 * eps * w * c - g * w * w * s

            band = band_estimate(lambda t: wave(0.5 * np.log(4.0 * t) - x0)[0], 1.0)
            want = dense_maximum(wave, 3.0 * 2.0 * math.pi)
            if abs(band.upper_est - want) > 1e-9:
                misses.append((float(phase), band.upper_est - want))
        assert not misses

    @pytest.mark.parametrize("noise", [0.0, 2.2e-16, 1e-13])
    def test_flat_and_noisy_evaluators_stay_in_the_window(self, noise):
        # rounding-level noise: the ends stop on flat samples or on width,
        # within the cap, and never leave the window
        times = []

        def flat(t):
            times.append(t)
            return 0.42 + noise * np.sin(1e9 * np.log(t))

        band = band_estimate(flat, 1.0)
        grid = times[0]
        trials = np.concatenate(times[1:]) if len(times) > 1 else np.empty(0)
        assert len(times) <= 50
        assert np.all((trials >= grid[0]) & (trials <= grid[-1]))
        assert 0.42 - noise <= band.lower_est <= band.upper_est <= 0.42 + noise
        if noise == 0.0:
            assert len(times) == 1

    @pytest.mark.parametrize("which", ["lemma", "average", "data", "wave"])
    def test_ends_match_a_golden_section_reference(self, which):
        certs = {
            "lemma": (hb.lemma_not_example, 1),
            "average": (lambda: prescribe_average(-1.0, -0.3, 0.3, 1.0, n=2), 2),
            "data": (lambda: prescribe_data(-1.0, -0.3, 0.3, 1.0, n=1), 1),
            "wave": (lambda: prescribe_data(-1.0, -0.5, 0.3, 2.0, n=3), 3),
        }
        make, n = certs[which]
        cert = make()
        m_hint = _split_leaves(cert.data).slow_m

        def u_at(t):
            return u_origin(cert.data, n, t)

        band = verify_certificate(cert).measured_u_band
        lower, upper = golden_band_reference(u_at, m_hint)
        assert band.lower_est == pytest.approx(lower, abs=1e-14)
        assert band.upper_est == pytest.approx(upper, abs=1e-14)


def dense_maximum(f, span, count=6001):
    """Maximum over [0, span] of f, which gives values, first and second
    derivatives: the local maxima of a dense grid, each refined by Newton
    steps on f' within its two cells, and both edges."""
    xs = np.linspace(0.0, span, count)
    vals = f(xs)[0]
    inner = np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
    x, lo, hi = xs[inner], xs[inner - 1], xs[inner + 1]
    for _ in range(30):
        _, slope, curve = f(x)
        x = np.clip(x - slope / curve, lo, hi)
    return float(max(vals[0], vals[-1], *f(x)[0]))


def golden_band_reference(evaluator, m, t_anchor=1e6, points_per_period=64, periods=3.0):
    """Band ends by the earlier sweep: the grid of band_estimate, then 48
    golden-section steps about the lowest and the highest grid value."""
    x0 = 0.5 * math.log(4.0 * t_anchor)
    period = 2.0 * math.pi / m
    x1 = x0 + periods * period
    xs = np.linspace(x0, x1, max(int(math.ceil(points_per_period * periods)) + 1, 9))

    def at_x(x):
        return np.asarray(evaluator(np.exp(2.0 * x) / 4.0), dtype=float)

    vals = at_x(xs)
    ends = []
    for sign, i in ((1.0, int(np.argmin(vals))), (-1.0, int(np.argmax(vals)))):
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
        fc, fd = sign * at_x(np.array([c, d]))
        for _ in range(48):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = sign * at_x(np.array([c]))[0]
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = sign * at_x(np.array([d]))[0]
        ends.append(sign * min(fc, fd))
    return min(float(vals.min()), ends[0]), max(float(vals.max()), ends[1])


# ---------------------------------------------------------------------------
# Certificate verification


@pytest.fixture(scope="module")
def average_report():
    cert = prescribe_average(-1.0, -0.3, 0.3, 1.0, n=2)
    return verify_certificate(cert)


@pytest.fixture(scope="module")
def slow_oscillation_report():
    cert = prescribe_data(0.0, 0.0, 1.0, 1.0, n=2)
    return verify_certificate(cert)


class TestVerifyCertificate:
    def test_average_certificate_chain_holds(self, average_report):
        rep = average_report
        assert rep.chain_ok
        assert not rep.u_partial
        assert rep.notes == ()
        assert rep.measured_u_band.lower_est == pytest.approx(-0.3, abs=5e-4)
        assert rep.measured_u_band.upper_est == pytest.approx(0.3, abs=5e-4)
        assert rep.measured_H_band.lower_est == pytest.approx(-1.0, abs=5e-3)
        assert rep.measured_H_band.upper_est == pytest.approx(1.0, abs=5e-3)
        expected_phi = rep.cert.expected_phi_band
        assert rep.measured_phi_band.lower_est == pytest.approx(
            expected_phi[0], abs=1e-6)
        assert rep.measured_phi_band.upper_est == pytest.approx(
            expected_phi[1], abs=1e-6)

    def test_average_certificate_envelope_gaps_decay(self, average_report):
        gaps = average_report.envelope_gaps
        assert gaps is not None and len(gaps) == 4
        assert gaps[-1][0] == 1e16
        assert gaps[-1][1] < 1e-6
        assert average_report.max_abs_u < 0.32

    def test_constant_certificate_is_trivial(self):
        cert = prescribe_data(2.0, 2.0, 2.0, 2.0, n=1)
        rep = verify_certificate(cert)
        assert rep.chain_ok
        assert rep.measured_u_band.lower_est == pytest.approx(2.0, abs=1e-9)
        assert rep.measured_u_band.upper_est == pytest.approx(2.0, abs=1e-9)
        assert any("constant" in note for note in rep.notes)

    def test_slow_oscillation_band_is_partial(self, slow_oscillation_report):
        rep = slow_oscillation_report
        assert rep.chain_ok
        assert rep.u_partial
        assert rep.measured_u_band.periods_covered < 1.0
        assert any("containment" in note for note in rep.notes)
        assert rep.envelope_gaps is not None and len(rep.envelope_gaps) == 4

    def test_bump_certificate_omits_gaps(self):
        cert = prescribe_data(0.0, 0.0, 0.0, 1.0, n=1)
        rep = verify_certificate(cert)
        assert rep.chain_ok
        assert rep.envelope_gaps is None
        assert any("omitted" in note for note in rep.notes)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("quad,tag", [
        ((-1.0, 0.0, 0.0, 2.0), "data-wave-plus-constant"),
        ((-2.0, 0.0, 0.0, 1.0), "data-wave-plus-constant-reflected"),
        ((-1.0, -0.5, 0.3, 2.0), "data-mode-plus-wave"),
        ((-2.0, -0.3, 0.5, 1.0), "data-mode-plus-wave-reflected"),
    ])
    def test_wave_certificates_verify(self, quad, tag, n):
        cert = prescribe_data(*quad, n=n)
        assert cert.construction_tag == tag
        assert verify_certificate(cert).chain_ok

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("quad", [(-0.65, -0.2, 1.93, 1.94), (-1.82, -1.73, 0.34, 2.06),
                                      (-0.69, 1.25, 2.84, 2.86), (-1.27, -1.23, 0.01, 1.28)])
    def test_slow_mode_plus_wave_certificates_verify(self, quad, n):
        # at n = 5, 1, 2 and 1 the modes (m = 0.277, 0.266, 0.247, 0.229)
        # have no phase of one band end in the witness window [1e3, 1e12],
        # and the phi band missed the wave's plateau there by 0.06 to 1.3
        # until the nearest phase outside stood in
        cert = prescribe_data(*quad, n=n)
        assert cert.construction_tag.startswith("data-mode-plus-wave")
        assert verify_certificate(cert).chain_ok

    @pytest.mark.parametrize("kwargs", [
        {"tol_band": 0.0},
    ])
    def test_bad_arguments_rejected(self, kwargs):
        cert = prescribe_average(-1.0, -0.3, 0.3, 1.0, n=2)
        with pytest.raises(DomainError):
            verify_certificate(cert, **kwargs)

    @pytest.mark.parametrize("call,expected", [
        (verify_certificate, "PrescriptionCertificate"), (report_dumps, "VerificationReport"),
        (report_to_json, "VerificationReport")])
    def test_what_is_not_a_certificate_or_report_is_refused(self, call, expected):
        with pytest.raises(DomainError, match=expected):
            call(None)

    def test_quadrature_settings_recorded(self, average_report):
        assert average_report.quad_rel_tol == _REL_TOL == 1e-11
        assert average_report.quad_abs_tol == _ABS_TOL == 1e-13

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="_measure_H_band samples doubly-log data only on log log tau in "
               "[1.2, 5.2]; in n = 1 the ball average there still lags its limit "
               "by about 0.025 x amplitude, so H_lo reads -0.8655 against -0.886 "
               "at tol_band 0.02.  Reaching the limit needs log-domain "
               "evaluation past double range.",
    )
    def test_doubly_log_H_band_in_dimension_one(self):
        cert = prescribe_data(-1.737, -0.886, 0.758, 0.758, n=1)
        rep = verify_certificate(cert)
        assert rep.measured_H_band.lower_est == pytest.approx(
            cert.expected_H_band[0], abs=rep.tol_band)
        assert rep.chain_ok

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the one representable bump of a data-slow-plus-bumps "
               "certificate sits at tau ~ 121, inside the doubly-log H window "
               "log log tau in [1.2, 5.2], where it lifts the ball average by "
               "about n/c; in n = 3 with bump height 1, H_hi reads 1.0207 "
               "against 1.0 at tol_band 0.02.  The fix belongs with the "
               "log-domain H window.",
    )
    def test_slow_plus_bumps_H_band_in_dimension_three(self):
        cert = prescribe_data(0.0, 0.0, 1.0, 2.0, n=3)
        rep = verify_certificate(cert)
        assert rep.measured_H_band.upper_est == pytest.approx(
            cert.expected_H_band[1], abs=rep.tol_band)
        assert rep.chain_ok


# ---------------------------------------------------------------------------
# Report serialization


class TestReportSerialization:
    def test_schema_and_core_fields(self, average_report):
        doc = report_to_json(average_report)
        assert doc["schema"] == REPORT_SCHEMA_ID
        assert doc["chain_ok"] is True
        assert doc["cert"]["schema"] == "cert/1"
        for key in ("measured_u_band", "measured_H_band", "measured_phi_band"):
            band = doc[key]
            assert set(band) == {
                "lower_est", "upper_est", "grid_lo", "grid_hi",
                "points_per_period", "periods_covered",
            }
        assert isinstance(doc["envelope_gaps"], list)
        assert all(len(pair) == 2 for pair in doc["envelope_gaps"])

    def test_dumps_is_deterministic_json(self, average_report):
        text = report_dumps(average_report)
        assert text == report_dumps(average_report)
        parsed = json.loads(text)
        assert parsed["schema"] == REPORT_SCHEMA_ID

    def test_partial_flag_round_trips(self, slow_oscillation_report):
        doc = report_to_json(slow_oscillation_report)
        assert doc["u_partial"] is True
        assert doc["notes"]
