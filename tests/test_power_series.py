"""The residue series of the powers (1 + tau)^a: the route of the log modes.

LogSine, LogSineAvgPreimage and the trig-polynomial profiles of
log(tau + 1) are finite sums Re sum beta (1 + tau)^a, and past the reach of
their series (quadrature._power_series) u(0, t) and H(tau) take two
convergent residue series in place of the trapezoid and Gauss rules.  The
audit draws leaves and small sums of them, points on both sides of the
reach, and checks each value against tests/reference.py within its bound
and which route served it; the sweep test checks that verify's log-mode
sweeps never leave the series.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import heatband.initial_data as idata
from heatband import (
    KernelFlavor,
    LogSine,
    LogSineAvgPreimage,
    Negate,
    PeriodicOfLog,
    SlowFromPeriodic,
    Sum,
    TrigPolynomial,
    verify_certificate,
)
from heatband.initial_data import _ball_average, _split_leaves, _weighted_value
from heatband.kernel_moments import _M_FLOOR
from heatband.quadrature import (
    _H_TOL,
    _fixed_sums,
    _log_gauss_rule,
    _log_trapezoid_rule,
    _power_series,
    _power_sums,
    _radial_terms,
    _weighted_terms,
    gaussian_power_tail,
)
from reference import ref_H, ref_u

reals = st.floats(min_value=-1.0, max_value=1.0)
frequencies = st.floats(min_value=_M_FLOOR, max_value=60.0)
dimensions = st.integers(min_value=1, max_value=10)
trig = st.builds(lambda const, cos, sin: TrigPolynomial(const, tuple(cos), tuple(sin)), reals,
                 st.lists(reals, max_size=3), st.lists(reals, min_size=1, max_size=3))
leaves = st.one_of(
    st.builds(LogSine, st.floats(min_value=0.1, max_value=2.0), frequencies, reals),
    st.builds(LogSineAvgPreimage, st.floats(min_value=0.1, max_value=2.0), frequencies, reals,
              dimensions),
    st.builds(PeriodicOfLog, trig),
    st.builds(SlowFromPeriodic, trig, dimensions),
)
expressions = st.one_of(leaves, st.builds(lambda a, b, neg: Sum((a, Negate(b) if neg else b)),
                                          leaves, leaves, st.booleans()))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(expr=expressions, n=dimensions, near=st.floats(min_value=0.3, max_value=0.95),
       far=st.floats(min_value=0.0, max_value=8.0))
def test_series_values_are_within_their_bounds(expr, n, near, far):
    # one point below the reach, which the rule serves, and one above it, up
    # to 1e8 reaches, in both integrals: the router's (value, bound) is the
    # rule's at the first and the series' at the second, and the series'
    # value lies within its bound of the reference.  The rules' bounds leave
    # out the rounding of phi, which reaches past them at large m and k
    # (CHANGES.md), so only the route is checked below the reach
    leaves, k = _split_leaves(expr), n - 1
    assume(leaves.powers is not None)
    scale, weights, h_bound = _log_gauss_rule(n, leaves.mass, leaves.omega, _H_TOL)
    trapezoid = _log_trapezoid_rule(k, leaves.mass, leaves.omega)
    for order, terms, integral, reference, rule in (
            (k, _weighted_terms, _weighted_value, ref_u,
             lambda r: (trapezoid[2] * _fixed_sums(leaves.analytic_phi, r, *trapezoid[:2]),
                        trapezoid[3])),
            (n, _radial_terms, _ball_average, ref_H,
             lambda r: (_fixed_sums(leaves.analytic_phi, r, scale, weights), h_bound))):
        series = _power_series(leaves.powers, n, terms)
        points = np.array([near * series[0], series[0] * 10.0 ** far])
        values, bounds = integral(expr, order, points)
        (r_val, r_bound), (s_val, s_bound) = rule(points[:1]), _power_sums(series, points[1:])
        assert values.tolist() == [r_val[0], s_val[0]]
        assert bounds.tolist() == [r_bound, s_bound[0]]
        # the reference's 20 digits, on the scale of the kernel's mass: its
        # quadrature errs by 4e-5 relative on a constant 1.2e-38 (CHANGES.md)
        slack = 1e-18 * (gaussian_power_tail(k, 0.0) if order == k else 1.0)
        want = reference(expr, order, float(points[1]))
        assert abs(values[1] - want) <= bounds[1] + slack, (points[1], values[1] - want, bounds[1])


@pytest.mark.parametrize("leaf", [LogSine(0.8, 0.7, 0.2), LogSineAvgPreimage(0.6, 2.3, -0.1, 3),
                                  LogSine(1.3, _M_FLOOR, -0.4), LogSineAvgPreimage(0.5, 60.0, 0.0, 7)])
@pytest.mark.parametrize("n", [1, 3, 10])
def test_leading_terms_are_the_limit_of_each_mode(leaf, n):
    # the j = 0 terms of the powers with Re a = 0 are kernel_moments' pair
    # times root^(im) and the offset: the leaf's limit_u, which envelope_u sums
    series = _power_series(_split_leaves(leaf).powers, n, _weighted_terms)
    _reach, a, weights = series
    lead_terms = weights[0, :a.size] + 1j * weights[0, a.size:2 * a.size]  # beta c_0
    coeff = KernelFlavor.DATA.coefficient(n)
    for y in (7.6, 20.0, 300.0):
        lead = (lead_terms * np.exp(a * y))[a.real == 0.0].real.sum()
        assert coeff * lead == pytest.approx(leaf.limit_u(y, n), abs=1e-14)


def test_verify_sweeps_take_the_series(monkeypatch):
    # every root of the grid call and of the trial call of verify's u sweep,
    # for each corpus certificate made of log modes, takes the series; the
    # gap times below the reach may take the rule
    import heatband.solution_probe as probe
    from test_solution_probe import CORPUS

    ruled, sweep = [], probe.band_estimate
    real_rule = idata._log_trapezoid_rule  # every fixed rule of the log modes in u
    monkeypatch.setattr(idata, "_log_trapezoid_rule",
                        lambda *args: ruled.append(args) or real_rule(*args))

    def checked(evaluator, m_hint):
        def at(t):
            before = len(ruled)
            values = evaluator(t)
            assert len(ruled) == before, cert.construction_tag
            calls.append(t.size)
            return values
        return sweep(at, m_hint)

    monkeypatch.setattr(probe, "band_estimate", checked)
    swept = 0
    for cert in CORPUS:
        leaves = _split_leaves(cert.data)
        if not leaves.analytic or leaves.loglog:
            continue
        assert leaves.powers, cert.construction_tag
        calls = []
        verify_certificate(cert)
        assert calls[0] == 193 and len(calls) <= 2, cert.construction_tag
        swept += 1
    assert swept == 13  # single modes, modes plus waves, the two-mode example


def test_reach_depends_on_the_power_and_the_kernel_only():
    # 2 (|a| + p + 1), and |a + 1|^(-1/p) near the pole a = -1
    for beta in (1.0, 1e6, 1j):
        assert _power_series(((beta, 2j),), 3, _weighted_terms)[0] == 2.0 * (2.0 + 4)
        assert _power_series(((beta, 2j),), 3, _radial_terms)[0] == 2.0 * (2.0 + 4)
    assert _power_series(((1.0, -1 + 1e-4j),), 1, _weighted_terms)[0] == pytest.approx(1e4)
    assert math.isclose(_power_series(((1.0, -1 + 1e-4j),), 2, _radial_terms)[0], 100.0)
