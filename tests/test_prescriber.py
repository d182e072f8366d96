"""Tests for the prescription constructors and their certificates."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatband import (
    AverageQuad,
    BumpTrain,
    Constant,
    DataQuad,
    DomainError,
    KernelFlavor,
    LogLogSine,
    LogSine,
    LogSineAvgPreimage,
    Negate,
    PeriodicZeroMean,
    PrescriptionCertificate,
    PrescriptionTarget,
    RangeError,
    Sum,
    UnsupportedExpression,
    analytic_band_phi,
    balanced_ramp_width,
    cert_dumps,
    cert_from_json,
    cert_loads,
    cert_to_json,
    envelope_u,
    eval_phi,
    kernel_moments,
    lemma_not_example,
    moment_norm,
    prescribe_average,
    prescribe_data,
    u_origin,
)

# ---------------------------------------------------------------------------
# Oracles


def two_mode_extreme_oracle():
    """Extremes of sin(x) + sin(2x), closed form.

    Critical points solve cos x + 2 cos 2x = 0, i.e. 4 c^2 + c - 2 = 0 with
    c = cos x; the max comes from c = (-1 + sqrt(33)) / 8 and the curve is
    odd, so the min is its negation.
    """
    c = (-1.0 + math.sqrt(33.0)) / 8.0
    s = math.sqrt(1.0 - c * c)
    peak = s + 2.0 * s * c
    return -peak, peak


def envelope_extremes_oracle(amplitude, a_val, b_val, offset):
    """Extremes over y of offset + amplitude (a sin(my) + b cos(my))."""
    radius = amplitude * math.hypot(a_val, b_val)
    return offset - radius, offset + radius


def quad_scale(*vals):
    return max(1.0, *(abs(v) for v in vals))


def prescribe_data_or_floor(r, a, b, s, n):
    """prescribe_data, or None where it refuses a mode frequency below the
    floor of verify's u sweep; any other refusal fails the test."""
    try:
        return prescribe_data(r, a, b, s, n)
    except DomainError as exc:
        if "cannot cover 3 of its periods" not in str(exc):
            raise
        return None


ordered_quads = st.tuples(
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.01, max_value=50.0),
).map(lambda t: (t[0], t[0] + t[1], t[0] + t[1] + t[2], t[0] + t[1] + t[2] + t[3]))


# ---------------------------------------------------------------------------
# Prescription input types


class TestPrescriptionTypes:
    def test_average_quad_requires_strict_order(self):
        with pytest.raises(DomainError):
            AverageQuad(0.0, 0.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            AverageQuad(0.0, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            AverageQuad(2.0, 0.0, 1.0, 3.0)

    def test_average_quad_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            AverageQuad(-math.inf, 0.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            AverageQuad(0.0, math.nan, 1.0, 2.0)

    def test_data_quad_allows_equalities(self):
        DataQuad(0.0, 0.0, 0.0, 0.0)
        DataQuad(0.0, 0.0, 1.0, 1.0)

    def test_data_quad_rejects_disorder(self):
        with pytest.raises(DomainError):
            DataQuad(1.0, 0.0, 2.0, 3.0)
        with pytest.raises(DomainError):
            DataQuad(0.0, 2.0, 1.0, 3.0)

    def test_target_validates_dimension(self):
        kind = DataQuad(0.0, 1.0, 2.0, 3.0)
        with pytest.raises(DomainError):
            PrescriptionTarget(kind, 0)
        with pytest.raises(DomainError):
            PrescriptionTarget(kind, 2.5)

    def test_target_validates_kind(self):
        with pytest.raises(DomainError):
            PrescriptionTarget("data", 1)

    def test_certificate_rejects_broken_chain(self):
        target = PrescriptionTarget(DataQuad(0.0, 1.0, 2.0, 3.0), 1)
        with pytest.raises(DomainError):
            PrescriptionCertificate(
                target=target, data=Constant(1.0), construction_tag="x",
                m_used=None, expected_phi_band=(0.0, 3.0),
                expected_H_band=(2.5, 2.6), expected_u_band=(1.0, 2.0))

    @pytest.mark.parametrize("m_used", [math.nan, math.inf, True, "1.0"])
    def test_certificate_rejects_non_finite_mode_frequency(self, m_used):
        target = PrescriptionTarget(DataQuad(0.0, 1.0, 2.0, 3.0), 1)
        with pytest.raises(DomainError):
            PrescriptionCertificate(
                target=target, data=Constant(1.0), construction_tag="x",
                m_used=m_used, expected_phi_band=(0.0, 3.0),
                expected_H_band=None, expected_u_band=(1.0, 2.0))

    def test_certificate_rejects_disordered_band(self):
        target = PrescriptionTarget(DataQuad(0.0, 1.0, 2.0, 3.0), 1)
        with pytest.raises(DomainError):
            PrescriptionCertificate(
                target=target, data=Constant(1.0), construction_tag="x",
                m_used=None, expected_phi_band=(3.0, 0.0),
                expected_H_band=None, expected_u_band=(1.0, 2.0))


# ---------------------------------------------------------------------------
# Average-side prescription


class TestPrescribeAverage:
    def test_example_dimension_two(self):
        cert = prescribe_average(-1.0, -0.3, 0.3, 1.0, 2)
        assert cert.construction_tag == "average-single-mode"
        assert cert.expected_H_band == (-1.0, 1.0)
        assert cert.expected_u_band == (-0.3, 0.3)
        assert isinstance(cert.data, LogSineAvgPreimage)
        assert cert.data.amplitude == pytest.approx(1.0)
        assert cert.data.offset == pytest.approx(0.0)
        assert cert.data.n == 2
        assert cert.m_used == pytest.approx(4.282871491110412, abs=1e-9)

    def test_known_frequency_dimension_one(self):
        cert = prescribe_average(-1.0, -0.3, 0.3, 1.0, 1)
        assert cert.m_used == pytest.approx(3.6777654845443376, abs=1e-9)

    def test_solved_frequency_reproduces_ratio(self):
        cert = prescribe_average(0.0, 1.0, 2.0, 3.0, 3)
        ratio = (2.0 - 1.0) / (3.0 - 0.0)
        assert moment_norm(3, cert.m_used, KernelFlavor.AVERAGE) == pytest.approx(
            ratio, abs=1e-9)

    def test_offset_prescription(self):
        cert = prescribe_average(0.0, 1.0, 2.0, 3.0, 1)
        assert cert.data.offset == pytest.approx(1.5)
        assert cert.data.amplitude == pytest.approx(1.5)
        assert cert.expected_H_band == (0.0, 3.0)

    def test_symmetry_violation_rejected(self):
        with pytest.raises(DomainError, match="p \\+ q = alpha \\+ beta"):
            prescribe_average(-1.0, -0.5, 0.3, 1.0, 2)

    def test_symmetry_tolerance_is_tight(self):
        prescribe_average(-1.0, -0.3, 0.3, 1.0 + 5e-13, 1)
        with pytest.raises(DomainError):
            prescribe_average(-1.0, -0.3, 0.3, 1.0 + 1e-11, 1)

    def test_full_width_is_out_of_scope(self):
        with pytest.raises(DomainError, match="out of scope"):
            prescribe_average(-1.0, -1.0, 0.3, 1.0, 1)
        with pytest.raises(DomainError, match="out of scope"):
            prescribe_average(-1.0, -0.3, 1.0, 1.0, 1)

    def test_phi_band_covers_average_band(self):
        cert = prescribe_average(-1.0, -0.3, 0.3, 1.0, 2)
        lo, hi = cert.expected_phi_band
        assert lo < -1.0 < 1.0 < hi

    @given(mid=st.floats(min_value=-10.0, max_value=10.0),
           half_h=st.floats(min_value=0.1, max_value=20.0),
           inner=st.floats(min_value=0.01, max_value=0.95),
           n=st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_certificate_invariants(self, mid, half_h, inner, n):
        p, q = mid - half_h, mid + half_h
        a, b = mid - inner * half_h, mid + inner * half_h
        cert = prescribe_average(p, a, b, q, n)
        assert cert.m_used > 0
        assert cert.expected_H_band == (p, q)
        assert cert.expected_u_band == (a, b)
        assert moment_norm(n, cert.m_used, KernelFlavor.AVERAGE) == pytest.approx(
            inner, abs=1e-8)
        r, s = cert.expected_phi_band
        assert r <= p and q <= s


# ---------------------------------------------------------------------------
# Data-side prescription: dispatch and exact bands


class TestPrescribeDataDispatch:
    def test_ordering_rejected(self):
        with pytest.raises(DomainError):
            prescribe_data(1.0, 0.0, 2.0, 3.0, 1)

    def test_dimension_rejected(self):
        with pytest.raises(DomainError):
            prescribe_data(0.0, 1.0, 2.0, 3.0, 0)

    def test_all_equal_gives_constant(self):
        cert = prescribe_data(2.0, 2.0, 2.0, 2.0, 3)
        assert cert.construction_tag == "data-constant"
        assert isinstance(cert.data, Constant)
        assert cert.expected_phi_band == (2.0, 2.0)
        assert cert.expected_H_band == (2.0, 2.0)

    def test_symmetric_interior_gives_single_mode(self):
        cert = prescribe_data(0.0, 1.0, 2.0, 3.0, 2)
        assert cert.construction_tag == "data-single-mode"
        assert isinstance(cert.data, LogSine)
        assert cert.data.offset == pytest.approx(1.5)
        assert cert.data.amplitude == pytest.approx(1.5)
        assert cert.expected_H_band is None
        assert moment_norm(2, cert.m_used, KernelFlavor.DATA) == pytest.approx(
            1.0 / 3.0, abs=1e-9)

    def test_surplus_interior_gives_mode_plus_wave(self):
        cert = prescribe_data(0.0, 1.0, 1.5, 3.0, 1)
        assert cert.construction_tag == "data-mode-plus-wave"
        mode, wave = cert.data.terms
        assert isinstance(mode, LogSine)
        assert isinstance(wave, PeriodicZeroMean)
        # eps = (sol_lower - data_lower) / 2, delta = sol_upper + eps
        eps = 0.5
        delta = 2.0
        assert mode.offset - mode.amplitude == pytest.approx(0.0 + eps)
        assert mode.offset + mode.amplitude == pytest.approx(delta)
        assert wave.v_max == pytest.approx(3.0 - delta)
        assert wave.v_min == pytest.approx(-eps)
        # the shrunk mode is strictly interior on both sides
        assert 0.0 < 0.0 + eps < 1.0 < 1.5 < delta < 3.0

    def test_mode_plus_wave_solves_shrunk_ratio(self):
        cert = prescribe_data(0.0, 1.0, 1.5, 3.0, 1)
        mode = cert.data.terms[0]
        ratio = (1.5 - 1.0) / (2.0 * mode.amplitude)
        assert moment_norm(1, cert.m_used, KernelFlavor.DATA) == pytest.approx(
            ratio, abs=1e-9)

    def test_deficit_interior_reflects(self):
        cert = prescribe_data(-2.0, -0.3, 0.3, 1.0, 1)
        assert cert.construction_tag == "data-mode-plus-wave-reflected"
        assert cert.expected_phi_band == pytest.approx((-2.0, 1.0))
        assert cert.expected_u_band == (-0.3, 0.3)
        assert cert.m_used == pytest.approx(1.4183791546206041, abs=1e-9)

    def test_reflection_is_pointwise_negation(self):
        cert = prescribe_data(-2.0, -0.3, 0.3, 1.0, 1)
        mirror = prescribe_data(-1.0, -0.3, 0.3, 2.0, 1)
        tau = np.geomspace(1e-3, 1e12, 400)
        np.testing.assert_array_equal(eval_phi(cert.data, tau),
                                      -eval_phi(mirror.data, tau))

    def test_collapsed_solution_band_gives_wave(self):
        cert = prescribe_data(0.0, 1.0, 1.0, 3.0, 1)
        assert cert.construction_tag == "data-wave-plus-constant"
        wave, const = cert.data.terms
        assert isinstance(wave, PeriodicZeroMean)
        assert isinstance(const, Constant)
        assert const.c == pytest.approx(1.0)
        assert wave.v_max == pytest.approx(2.0)
        assert wave.v_min == pytest.approx(-1.0)
        assert cert.expected_H_band == (1.0, 1.0)

    def test_touching_both_ends_gives_slow_oscillation(self):
        cert = prescribe_data(0.0, 0.0, 1.0, 1.0, 3)
        assert cert.construction_tag == "data-slow-oscillation"
        assert isinstance(cert.data, LogLogSine)
        assert cert.data.amplitude == pytest.approx(0.5)
        assert cert.data.offset == pytest.approx(0.5)
        assert cert.expected_H_band == (0.0, 1.0)

    def test_touching_bottom_gives_slow_plus_bumps(self):
        cert = prescribe_data(0.0, 0.0, 1.0, 2.0, 1)
        assert cert.construction_tag == "data-slow-plus-bumps"
        slow, bumps = cert.data.terms
        assert isinstance(slow, LogLogSine)
        assert isinstance(bumps, BumpTrain)
        assert bumps.height == pytest.approx(1.0)
        assert bumps.baseline == 0.0
        assert cert.expected_H_band == (0.0, 1.0)

    def test_pinned_solution_point_gives_sparse_bumps(self):
        cert = prescribe_data(1.0, 1.0, 1.0, 3.0, 2)
        assert cert.construction_tag == "data-sparse-bumps"
        assert isinstance(cert.data, BumpTrain)
        assert cert.data.height == pytest.approx(2.0)
        assert cert.data.baseline == pytest.approx(1.0)
        assert cert.expected_H_band == (1.0, 1.0)

    def test_touching_top_routes_through_reflection(self):
        cert = prescribe_data(-3.0, 0.0, 1.0, 1.0, 1)
        assert cert.construction_tag == "data-slow-plus-bumps-reflected"
        assert cert.expected_phi_band == pytest.approx((-3.0, 1.0))
        assert cert.expected_H_band == pytest.approx((0.0, 1.0))

    def test_pinned_top_point_routes_through_reflection(self):
        cert = prescribe_data(-3.0, 1.0, 1.0, 1.0, 2)
        assert cert.construction_tag == "data-sparse-bumps-reflected"
        assert isinstance(cert.data, Negate)
        assert cert.expected_H_band == pytest.approx((1.0, 1.0))

    def test_lopsided_wave_extremes_stay_feasible(self):
        # the default ramp width cannot balance a tall spike against a
        # shallow trough; the adaptive width must
        cert = prescribe_data(0.0, 1.0, 1.0, 1001.0, 1)
        wave = cert.data.terms[0]
        assert wave.wave.mean() == pytest.approx(0.0, abs=1e-9)
        assert cert.expected_phi_band == pytest.approx((0.0, 1001.0))

    def test_phi_band_matches_analytic_exactly(self):
        quads = [(0.0, 1.0, 2.0, 3.0, 2), (0.0, 1.0, 1.5, 3.0, 1),
                 (-2.0, -0.3, 0.3, 1.0, 1), (0.0, 1.0, 1.0, 3.0, 1),
                 (0.0, 0.0, 1.0, 1.0, 3), (0.0, 0.0, 1.0, 2.0, 1),
                 (1.0, 1.0, 1.0, 3.0, 2)]
        for r, a, b, s, n in quads:
            cert = prescribe_data(r, a, b, s, n)
            assert cert.expected_phi_band == analytic_band_phi(cert.data)

    @given(quad=ordered_quads, n=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_interior_band_invariants(self, quad, n):
        r, a, b, s = quad
        cert = prescribe_data_or_floor(r, a, b, s, n)
        if cert is None:
            return
        scale = quad_scale(r, a, b, s)
        lo, hi = cert.expected_phi_band
        assert lo == pytest.approx(r, abs=1e-9 * scale)
        assert hi == pytest.approx(s, abs=1e-9 * scale)
        assert cert.expected_u_band == (a, b)
        if cert.expected_H_band is not None:
            p, q = cert.expected_H_band
            assert r - 1e-9 * scale <= p <= a + 1e-9 * scale
            assert b - 1e-9 * scale <= q <= s + 1e-9 * scale

    @given(quad=ordered_quads, n=st.integers(min_value=1, max_value=3),
           pattern=st.sampled_from(["rA", "AB", "BS", "rAB", "ABS", "rABS"]))
    @settings(max_examples=60, deadline=None)
    def test_equality_pattern_invariants(self, quad, n, pattern):
        r, a, b, s = quad
        if "r" in pattern:
            r = a
        if "AB" in pattern:
            b = a
        if "S" in pattern:
            s = b
        cert = prescribe_data(r, a, b, s, n)
        scale = quad_scale(r, a, b, s)
        lo, hi = cert.expected_phi_band
        assert lo == pytest.approx(r, abs=1e-9 * scale)
        assert hi == pytest.approx(s, abs=1e-9 * scale)
        assert cert.expected_u_band == (a, b)

    @given(quad=ordered_quads, n=st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_data_stays_inside_band_pointwise(self, quad, n):
        r, a, b, s = quad
        cert = prescribe_data_or_floor(r, a, b, s, n)
        if cert is None:
            return
        scale = quad_scale(r, a, b, s)
        tau = np.geomspace(1e-2, 1e10, 600)
        vals = eval_phi(cert.data, tau)
        assert np.all(vals >= cert.expected_phi_band[0] - 1e-9 * scale)
        assert np.all(vals <= cert.expected_phi_band[1] + 1e-9 * scale)


class TestBalancedRampWidth:
    def test_symmetric_extremes_keep_default(self):
        assert balanced_ramp_width(1.0, -1.0) == pytest.approx(math.pi / 8.0)

    def test_rejects_bad_signs(self):
        with pytest.raises(DomainError):
            balanced_ramp_width(-1.0, -2.0)
        with pytest.raises(DomainError):
            balanced_ramp_width(1.0, 0.0)
        with pytest.raises(DomainError, match="v_max must be a finite real"):
            balanced_ramp_width("1", -1.0)
        with pytest.raises(DomainError, match="v_max must be a finite real"):
            balanced_ramp_width(math.inf, -1.0)

    @given(v_max=st.floats(min_value=1e-3, max_value=1e6),
           v_min=st.floats(min_value=-1e6, max_value=-1e-3))
    @settings(max_examples=80, deadline=None)
    def test_wave_always_constructible_and_zero_mean(self, v_max, v_min):
        w = balanced_ramp_width(v_max, v_min)
        assert 0.0 < w <= math.pi / 8.0
        wave = PeriodicZeroMean(v_max, v_min, w)
        scale = max(v_max, -v_min)
        assert wave.wave.mean() == pytest.approx(0.0, abs=1e-9 * scale)


# ---------------------------------------------------------------------------
# The asymmetric two-mode example


class TestLemmaNotExample:
    def test_average_band_matches_closed_form(self):
        cert = lemma_not_example()
        lo, hi = two_mode_extreme_oracle()
        assert cert.expected_H_band[0] == pytest.approx(lo, abs=1e-12)
        assert cert.expected_H_band[1] == pytest.approx(hi, abs=1e-12)

    def test_solution_band_values(self):
        cert = lemma_not_example()
        assert cert.expected_u_band[0] == pytest.approx(-1.369211838, abs=2e-9)
        assert cert.expected_u_band[1] == pytest.approx(1.328017887, abs=2e-9)

    def test_solution_band_is_asymmetric(self):
        cert = lemma_not_example()
        p, q = cert.expected_H_band
        u_lo, u_hi = cert.expected_u_band
        assert p + q == pytest.approx(0.0, abs=1e-12)
        assert u_lo + u_hi == pytest.approx(-0.0411939509, abs=1e-8)

    def test_solution_band_matches_moment_envelope(self):
        cert = lemma_not_example()
        mom1 = kernel_moments(1, 1.0, KernelFlavor.AVERAGE)
        mom2 = kernel_moments(1, 2.0, KernelFlavor.AVERAGE)
        y = np.linspace(0.0, 2.0 * math.pi, 200001)
        env = (mom1.a_value * np.sin(y) + mom1.b_value * np.cos(y)
               + mom2.a_value * np.sin(2 * y) + mom2.b_value * np.cos(2 * y))
        assert env.min() == pytest.approx(cert.expected_u_band[0], abs=1e-8)
        assert env.max() == pytest.approx(cert.expected_u_band[1], abs=1e-8)

    def test_data_is_two_mode_preimage_sum(self):
        cert = lemma_not_example()
        assert cert.construction_tag == "average-two-mode-example"
        assert isinstance(cert.data, Sum)
        ms = sorted(t.m for t in cert.data.terms)
        assert ms == [1.0, 2.0]
        assert all(isinstance(t, LogSineAvgPreimage) for t in cert.data.terms)
        assert cert.target.n == 1

    def test_chain_holds(self):
        cert = lemma_not_example()
        r, s = cert.expected_phi_band
        p, q = cert.expected_H_band
        u_lo, u_hi = cert.expected_u_band
        assert r <= p <= u_lo <= u_hi <= q <= s


# ---------------------------------------------------------------------------
# Envelope of the origin solution


class TestEnvelopeU:
    def test_constant_certificate(self):
        cert = prescribe_data(2.0, 2.0, 2.0, 2.0, 1)
        for t in (1e-3, 1.0, 1e8):
            assert envelope_u(cert, t) == pytest.approx(2.0)

    def test_wave_certificate_is_flat(self):
        cert = prescribe_data(0.0, 1.0, 1.0, 3.0, 1)
        for t in (0.5, 1e2, 1e9):
            assert envelope_u(cert, t) == pytest.approx(1.0)

    def test_average_mode_formula(self):
        cert = prescribe_average(-1.0, -0.3, 0.3, 1.0, 2)
        mom = kernel_moments(2, cert.m_used, KernelFlavor.AVERAGE)
        for t in (1.0, 50.0, 1e7):
            y = 0.5 * math.log(4.0 * t)
            expected = (mom.a_value * math.sin(cert.m_used * y)
                        + mom.b_value * math.cos(cert.m_used * y))
            assert envelope_u(cert, t) == pytest.approx(expected, abs=1e-12)

    def test_average_mode_envelope_band_is_prescribed(self):
        cert = prescribe_average(0.0, 1.0, 2.0, 3.0, 3)
        mom = kernel_moments(3, cert.m_used, KernelFlavor.AVERAGE)
        lo, hi = envelope_extremes_oracle(cert.data.amplitude,
                                          mom.a_value, mom.b_value,
                                          cert.data.offset)
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(2.0, abs=1e-9)

    def test_data_mode_envelope_band_is_prescribed(self):
        cert = prescribe_data(0.0, 1.0, 2.0, 3.0, 2)
        mom = kernel_moments(2, cert.m_used, KernelFlavor.DATA)
        lo, hi = envelope_extremes_oracle(cert.data.amplitude,
                                          mom.a_value, mom.b_value,
                                          cert.data.offset)
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(2.0, abs=1e-9)

    def test_mode_plus_wave_envelope_ignores_wave(self):
        cert = prescribe_data(0.0, 1.0, 1.5, 3.0, 1)
        mode = cert.data.terms[0]
        mom = kernel_moments(1, mode.m, KernelFlavor.DATA)
        lo, hi = envelope_extremes_oracle(mode.amplitude, mom.a_value,
                                          mom.b_value, mode.offset)
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(1.5, abs=1e-9)
        y = 0.5 * math.log(4.0 * 1e5)
        expected = (mode.offset + mode.amplitude
                    * (mom.a_value * math.sin(mode.m * y)
                       + mom.b_value * math.cos(mode.m * y)))
        assert envelope_u(cert, 1e5) == pytest.approx(expected, abs=1e-12)

    def test_slow_oscillation_formula(self):
        cert = prescribe_data(0.0, 0.0, 1.0, 1.0, 2)
        for y in (1.0, math.exp(math.pi / 2.0), 40.0):
            t = math.exp(2.0 * y) / 4.0
            expected = 0.5 + 0.5 * math.sin(math.log(y))
            assert envelope_u(cert, t) == pytest.approx(expected, abs=1e-12)

    def test_slow_oscillation_needs_large_time(self):
        cert = prescribe_data(0.0, 0.0, 1.0, 1.0, 2)
        with pytest.raises(DomainError):
            envelope_u(cert, 0.2)

    def test_slow_plus_bumps_keeps_slow_envelope(self):
        cert = prescribe_data(0.0, 0.0, 1.0, 2.0, 1)
        plain = prescribe_data(0.0, 0.0, 1.0, 1.0, 1)
        for t in (10.0, 1e6):
            assert envelope_u(cert, t) == pytest.approx(envelope_u(plain, t))

    def test_bump_only_certificate_unsupported(self):
        cert = prescribe_data(1.0, 1.0, 1.0, 3.0, 2)
        with pytest.raises(UnsupportedExpression):
            envelope_u(cert, 1e4)

    def test_reflected_certificate_negates(self):
        cert = prescribe_data(-2.0, -0.3, 0.3, 1.0, 1)
        mirror = prescribe_data(-1.0, -0.3, 0.3, 2.0, 1)
        for t in (1.0, 1e3, 1e9):
            assert envelope_u(cert, t) == pytest.approx(-envelope_u(mirror, t),
                                                        abs=1e-12)

    def test_rejects_bad_time(self):
        cert = prescribe_data(0.0, 1.0, 2.0, 3.0, 1)
        with pytest.raises(DomainError):
            envelope_u(cert, 0.0)
        with pytest.raises(DomainError):
            envelope_u(cert, math.inf)
        with pytest.raises(DomainError):
            envelope_u(cert, True)
        with pytest.raises(DomainError):
            envelope_u(cert, 10**400)
        with pytest.raises(DomainError, match="PrescriptionCertificate"):
            envelope_u(None, 1.0)
        with pytest.raises(RangeError):
            envelope_u(cert, 1e308)

    def test_preimage_built_for_another_dimension(self):
        # a hand-written certificate may hold an average preimage built for
        # n = 1 under an n = 3 target; its limit takes the n = 3 data kernel
        data = LogSineAvgPreimage(1.0, 1.0, 0.0, 1)
        lo, hi = analytic_band_phi(data)
        cert = PrescriptionCertificate(
            PrescriptionTarget(DataQuad(lo, -0.5, 0.5, hi), 3), data,
            "hand-written", None, (lo, hi), None, (-0.5, 0.5))
        gaps = [abs(u_origin(data, 3, t) - envelope_u(cert, t))
                for t in (1e8, 1e12, 1e16)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-9

    def test_lemma_envelope_band(self):
        cert = lemma_not_example()
        mom1 = kernel_moments(1, 1.0, KernelFlavor.AVERAGE)
        mom2 = kernel_moments(1, 2.0, KernelFlavor.AVERAGE)
        ys = np.linspace(10.0, 10.0 + 6.0 * math.pi, 120001)
        vals = (mom1.a_value * np.sin(ys) + mom1.b_value * np.cos(ys)
                + mom2.a_value * np.sin(2 * ys) + mom2.b_value * np.cos(2 * ys))
        spot = envelope_u(cert, math.exp(2.0 * ys[7]) / 4.0)
        assert spot == pytest.approx(vals[7], abs=1e-12)
        assert vals.min() >= cert.expected_u_band[0] - 1e-6
        assert vals.max() <= cert.expected_u_band[1] + 1e-6


# ---------------------------------------------------------------------------
# Certificate serialization


class TestCertSerialization:
    certs = [
        lambda: prescribe_average(-1.0, -0.3, 0.3, 1.0, 2),
        lambda: prescribe_data(0.0, 1.0, 2.0, 3.0, 2),
        lambda: prescribe_data(0.0, 1.0, 1.5, 3.0, 1),
        lambda: prescribe_data(-2.0, -0.3, 0.3, 1.0, 1),
        lambda: prescribe_data(0.0, 1.0, 1.0, 3.0, 1),
        lambda: prescribe_data(0.0, 0.0, 1.0, 1.0, 3),
        lambda: prescribe_data(0.0, 0.0, 1.0, 2.0, 1),
        lambda: prescribe_data(1.0, 1.0, 1.0, 3.0, 2),
        lambda: lemma_not_example(),
    ]

    @pytest.mark.parametrize("make", certs)
    def test_round_trip(self, make):
        cert = make()
        again = cert_loads(cert_dumps(cert))
        assert again == cert

    def test_schema_field(self):
        doc = cert_to_json(prescribe_data(0.0, 1.0, 2.0, 3.0, 1))
        assert doc["schema"] == "cert/1"
        assert doc["target"]["kind"] == "data"
        assert doc["target"]["n"] == 1

    def test_average_target_fields(self):
        doc = cert_to_json(prescribe_average(-1.0, -0.3, 0.3, 1.0, 2))
        assert doc["target"] == {"kind": "average", "avg_lower": -1.0,
                                 "sol_lower": -0.3, "sol_upper": 0.3,
                                 "avg_upper": 1.0, "n": 2}

    @pytest.mark.parametrize("call", [cert_dumps, cert_to_json])
    def test_what_is_not_a_certificate_is_refused(self, call):
        with pytest.raises(DomainError, match="PrescriptionCertificate"):
            call(None)

    def test_unknown_schema_rejected(self):
        doc = cert_to_json(prescribe_data(0.0, 1.0, 2.0, 3.0, 1))
        doc["schema"] = "cert/2"
        with pytest.raises(DomainError):
            cert_from_json(doc)

    def test_unknown_kind_rejected(self):
        doc = cert_to_json(prescribe_data(0.0, 1.0, 2.0, 3.0, 1))
        doc["target"]["kind"] = "mystery"
        with pytest.raises(DomainError):
            cert_from_json(doc)

    # the fields of a cert/1 document and of its targets in the order the decoder reads them
    TOP_KEYS = ("target", "data", "construction_tag", "m_used",
                "expected_phi_band", "expected_H_band", "expected_u_band")
    TARGET_KEYS = {"average": ("avg_lower", "sol_lower", "sol_upper", "avg_upper", "n"),
                   "data": ("data_lower", "sol_lower", "sol_upper", "data_upper", "n")}

    @staticmethod
    def _lacking(key):
        return {"schema": "expected schema 'cert/1', got None",
                "kind": "unknown target kind None"}.get(key, f"lacks the field {key!r}")

    @pytest.mark.parametrize("make", [lambda: prescribe_average(-1.0, -0.3, 0.3, 1.0, 2),
                                      lambda: prescribe_data(0.0, 1.0, 2.0, 3.0, 1)])
    def test_each_missing_key_is_named(self, make):
        valid = cert_to_json(make())
        kind = valid["target"]["kind"]
        assert sorted(valid) == sorted(("schema",) + self.TOP_KEYS)
        assert sorted(valid["target"]) == sorted(("kind",) + self.TARGET_KEYS[kind])
        for key in valid:
            doc = json.loads(json.dumps(valid))
            del doc[key]
            with pytest.raises(DomainError, match=re.escape(self._lacking(key))):
                cert_from_json(doc)
        for key in valid["target"]:
            doc = json.loads(json.dumps(valid))
            del doc["target"][key]
            with pytest.raises(DomainError, match=re.escape(self._lacking(key))):
                cert_from_json(doc)
        # without several keys, the first that the decoder reads is named
        for i, key in enumerate(self.TOP_KEYS):
            doc = {k: v for k, v in valid.items() if k not in self.TOP_KEYS[i:]}
            with pytest.raises(DomainError, match=re.escape(self._lacking(key))):
                cert_from_json(doc)
        for i, key in enumerate(self.TARGET_KEYS[kind]):
            doc = json.loads(json.dumps(valid))
            doc["target"] = {k: v for k, v in valid["target"].items()
                             if k not in self.TARGET_KEYS[kind][i:]}
            with pytest.raises(DomainError, match=re.escape(self._lacking(key))):
                cert_from_json(doc)

    def test_null_h_band_round_trips(self):
        cert = prescribe_data(0.0, 1.0, 2.0, 3.0, 2)
        doc = json.loads(cert_dumps(cert))
        assert doc["expected_H_band"] is None
        assert cert_loads(cert_dumps(cert)).expected_H_band is None

    def test_dumps_is_deterministic(self):
        cert = lemma_not_example()
        assert cert_dumps(cert) == cert_dumps(cert)

    def test_numpy_reals_round_trip(self):
        cert = prescribe_data(np.int64(-1), -0.3, 0.3, 1, 2)
        text = cert_dumps(cert)
        assert cert_loads(text) == cert
        # the same bytes as for the Python number
        assert text == cert_dumps(prescribe_data(-1, -0.3, 0.3, 1, 2))

    def test_numpy_dimension_gives_the_same_bytes(self):
        # check_dimension alone decides, and it admits NumPy integers, as do
        # the leaves and the JSON writers
        text = cert_dumps(prescribe_data(-1, -0.3, 0.3, 1, np.int64(2)))
        assert text == cert_dumps(prescribe_data(-1, -0.3, 0.3, 1, 2))


# The cert/1 bytes of every construction that solves no frequency, in n = 2:
# they need neither solve_m nor SciPy, so they hold on every platform.
PINNED_CERTS = {
    (1.0, 1.0, 1.0, 1.0): (
        '{"construction_tag": "data-constant", "data": {"expr": {"c": 1.0, '
        '"variant": "constant"}, "schema": "idexpr/1"}, "expected_H_band": [1.0, '
        '1.0], "expected_phi_band": [1.0, 1.0], "expected_u_band": [1.0, 1.0], '
        '"m_used": null, "schema": "cert/1", "target": {"data_lower": 1.0, '
        '"data_upper": 1.0, "kind": "data", "n": 2, "sol_lower": 1.0, '
        '"sol_upper": 1.0}}'
    ),
    (0.0, 0.0, 1.0, 1.0): (
        '{"construction_tag": "data-slow-oscillation", '
        '"data": {"expr": {"amplitude": 0.5, "offset": 0.5, '
        '"variant": "log_log_sine"}, "schema": "idexpr/1"}, '
        '"expected_H_band": [0.0, 1.0], "expected_phi_band": [0.0, 1.0], '
        '"expected_u_band": [0.0, 1.0], "m_used": null, "schema": "cert/1", '
        '"target": {"data_lower": 0.0, "data_upper": 1.0, "kind": "data", "n": 2, '
        '"sol_lower": 0.0, "sol_upper": 1.0}}'
    ),
    (1.0, 1.0, 1.0, 3.0): (
        '{"construction_tag": "data-sparse-bumps", '
        '"data": {"expr": {"baseline": 1.0, "centers": {"base": 2.718281828459045, '
        '"law": "geometric"}, "half_width": 0.5, "height": 2.0, '
        '"variant": "bump_train"}, "schema": "idexpr/1"}, "expected_H_band": [1.0, '
        '1.0], "expected_phi_band": [1.0, 3.0], "expected_u_band": [1.0, 1.0], '
        '"m_used": null, "schema": "cert/1", "target": {"data_lower": 1.0, '
        '"data_upper": 3.0, "kind": "data", "n": 2, "sol_lower": 1.0, '
        '"sol_upper": 1.0}}'
    ),
    (0.0, 0.0, 1.0, 2.0): (
        '{"construction_tag": "data-slow-plus-bumps", '
        '"data": {"expr": {"terms": [{"amplitude": 0.5, "offset": 0.5, '
        '"variant": "log_log_sine"}, {"baseline": 0.0, '
        '"centers": {"law": "double_exp", "parity": "peak"}, "half_width": 1.0, '
        '"height": 1.0, "variant": "bump_train"}], "variant": "sum"}, '
        '"schema": "idexpr/1"}, "expected_H_band": [0.0, 1.0], '
        '"expected_phi_band": [0.0, 2.0], "expected_u_band": [0.0, 1.0], '
        '"m_used": null, "schema": "cert/1", "target": {"data_lower": 0.0, '
        '"data_upper": 2.0, "kind": "data", "n": 2, "sol_lower": 0.0, '
        '"sol_upper": 1.0}}'
    ),
    (0.0, 1.0, 1.0, 3.0): (
        '{"construction_tag": "data-wave-plus-constant", '
        '"data": {"expr": {"terms": [{"ramp_width": 0.39269908169872414, '
        '"v_max": 2.0, "v_min": -1.0, "variant": "periodic_zero_mean"}, {"c": 1.0, '
        '"variant": "constant"}], "variant": "sum"}, "schema": "idexpr/1"}, '
        '"expected_H_band": [1.0, 1.0], "expected_phi_band": [0.0, 3.0], '
        '"expected_u_band": [1.0, 1.0], "m_used": null, "schema": "cert/1", '
        '"target": {"data_lower": 0.0, "data_upper": 3.0, "kind": "data", "n": 2, '
        '"sol_lower": 1.0, "sol_upper": 1.0}}'
    ),
    (0.0, 1.0, 1.0, 1.0): (
        '{"construction_tag": "data-sparse-bumps-reflected", '
        '"data": {"expr": {"term": {"baseline": -1.0, '
        '"centers": {"base": 2.718281828459045, "law": "geometric"}, '
        '"half_width": 0.5, "height": 1.0, "variant": "bump_train"}, '
        '"variant": "negate"}, "schema": "idexpr/1"}, "expected_H_band": [1.0, '
        '1.0], "expected_phi_band": [0.0, 1.0], "expected_u_band": [1.0, 1.0], '
        '"m_used": null, "schema": "cert/1", "target": {"data_lower": 0.0, '
        '"data_upper": 1.0, "kind": "data", "n": 2, "sol_lower": 1.0, '
        '"sol_upper": 1.0}}'
    ),
    (0.0, 1.0, 2.0, 2.0): (
        '{"construction_tag": "data-slow-plus-bumps-reflected", '
        '"data": {"expr": {"terms": [{"term": {"amplitude": 0.5, "offset": -1.5, '
        '"variant": "log_log_sine"}, "variant": "negate"}, '
        '{"term": {"baseline": 0.0, "centers": {"law": "double_exp", '
        '"parity": "peak"}, "half_width": 1.0, "height": 1.0, '
        '"variant": "bump_train"}, "variant": "negate"}], "variant": "sum"}, '
        '"schema": "idexpr/1"}, "expected_H_band": [1.0, 2.0], '
        '"expected_phi_band": [0.0, 2.0], "expected_u_band": [1.0, 2.0], '
        '"m_used": null, "schema": "cert/1", "target": {"data_lower": 0.0, '
        '"data_upper": 2.0, "kind": "data", "n": 2, "sol_lower": 1.0, '
        '"sol_upper": 2.0}}'
    ),
    (0.0, 2.0, 2.0, 3.0): (
        '{"construction_tag": "data-wave-plus-constant-reflected", '
        '"data": {"expr": {"terms": [{"term": {"ramp_width": 0.39269908169872414, '
        '"v_max": 2.0, "v_min": -1.0, "variant": "periodic_zero_mean"}, '
        '"variant": "negate"}, {"c": 2.0, "variant": "constant"}], '
        '"variant": "sum"}, "schema": "idexpr/1"}, "expected_H_band": [2.0, 2.0], '
        '"expected_phi_band": [0.0, 3.0], "expected_u_band": [2.0, 2.0], '
        '"m_used": null, "schema": "cert/1", "target": {"data_lower": 0.0, '
        '"data_upper": 3.0, "kind": "data", "n": 2, "sol_lower": 2.0, '
        '"sol_upper": 2.0}}'
    ),
}


@pytest.mark.parametrize("quad", list(PINNED_CERTS))
def test_frequency_free_certificates_keep_their_bytes(quad):
    assert cert_dumps(prescribe_data(*quad, 2)) == PINNED_CERTS[quad]


# Every construction tag: eleven data-side targets in n = 1 to 3, the
# average-side single mode in n = 1 to 3 and the two-mode example
_CORPUS = """
from heatband.prescriber import (cert_dumps, lemma_not_example, prescribe_average,
                                 prescribe_data)
quads = [(0.3, 0.3, 0.3, 0.3), (-1, -1, 1, 1), (0, 0, 0, 1), (-1, 0, 0, 0), (0, 0, 1, 2),
         (-2, -1, 0, 0), (-1, 0, 0, 2), (-2, 0, 0, 1), (-1, -0.3, 0.3, 1),
         (-1, -0.5, 0.5, 1.5), (-1.5, -0.5, 0.5, 1)]
certs = [prescribe_data(*quad, n=n) for quad in quads for n in (1, 2, 3)]
certs += [prescribe_average(-1, -0.3, 0.3, 1, n=n) for n in (1, 2, 3)]
certs.append(lemma_not_example())
tags = {cert.construction_tag for cert in certs}
out = "\\n".join(cert_dumps(cert) for cert in certs)
"""


def test_cert_bytes_do_not_depend_on_numpy_simd_dispatch():
    # cert/1 holds only closed forms and solve_m's roots, so its bytes must
    # not move when NumPy dispatches narrower SIMD kernels; report/1 may
    import os
    import subprocess
    import sys

    import heatband

    here: dict = {}
    exec(_CORPUS, here)
    assert len(here["tags"]) == 13
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join(
                   [os.path.dirname(os.path.dirname(heatband.__file__)),
                    os.environ.get("PYTHONPATH", "")]))
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip(f"NumPy does not start with the features off: {probe.stderr.strip()}")
    child = subprocess.run(
        [sys.executable, "-c", _CORPUS + "import sys\nsys.stdout.write(out)"],
        env=env, capture_output=True, text=True, check=True)
    assert child.stdout == here["out"]
