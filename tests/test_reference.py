"""Guards of tests/reference.py: exact identities its methods must meet, and
its independence of the code it checks."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import mpmath
import pytest

from heatband import (
    BumpTrain,
    Constant,
    GeometricCenters,
    LogLogSine,
    LogSine,
    LogSineAvgPreimage,
    Negate,
    PeriodicOfLog,
    PeriodicZeroMean,
    Sum,
    TrapezoidWave,
    TrigPolynomial,
)
from reference import _leaf_H, _leaf_u, _pieces_u, _walk, _wave_series_u, ref_u


def _u(expr, k, root, dps):
    return _walk(_leaf_u, expr, k, root, dps)


def _H(expr, n, tau, dps):
    return _walk(_leaf_H, expr, n, tau, dps)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 11])
def test_constant_u_is_its_gamma_moment(k):
    assert ref_u(Constant(0.3), k, 7.0) == pytest.approx(
        0.3 * math.gamma((k + 1) / 2) / 2, rel=1e-15)


def test_tiny_analytic_data_keeps_its_relative_digits():
    # mpmath.quad controls absolute error, so the reference integrates phi / sup |phi|
    c = 1.1754943508222875e-38
    got = ref_u(PeriodicOfLog(TrigPolynomial(c, (), (0.0,))), 0, 4.0)
    assert got == pytest.approx(c * math.sqrt(math.pi) / 2, rel=1e-15, abs=0.0)
    assert _H(LogLogSine(c, 0.0), 2, 1e3, 20) == pytest.approx(
        c * _H(LogLogSine(1.0, 0.0), 2, 1e3, 20), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 5, 10])
@pytest.mark.parametrize("tau", [1e-6, 2.3, 1e4, 1e12])
def test_average_preimage_averages_to_its_log_sine(n, tau):
    # the identity that defines the preimage, through both 2F1 forms
    with mpmath.workdps(30):
        want = 0.6 * mpmath.sin(2.3 * mpmath.log1p(mpmath.mpf(tau))) - 0.1
        got = _H(LogSineAvgPreimage(0.6, 2.3, -0.1, n), n, tau, 30)
        assert abs(got - want) <= 1e-25


@pytest.mark.parametrize("left,right", [
    (LogSine(0.8, 0.7, 0.2), LogLogSine(0.5, 0.1)),
    (PeriodicZeroMean(1.0, -1.0), BumpTrain(0.7, 0.5, 0.1, GeometricCenters(3.0))),
    (PeriodicOfLog(TrapezoidWave(1.0, -0.5, 0.4)), PeriodicOfLog(TrigPolynomial(0.1, (0.3,)))),
], ids=["analytic", "linear-pieces", "profiles"])
def test_sums_and_negations_are_signed_sums_of_parts(left, right):
    expr = Sum((left, Negate(Sum((right, Negate(Constant(0.25)))))))
    with mpmath.workdps(20):
        u_parts = _u(left, 1, 3.0, 20) - _u(right, 1, 3.0, 20) + _u(Constant(0.25), 1, 3.0, 20)
        h_parts = _H(left, 2, 5.0, 20) - _H(right, 2, 5.0, 20) + 0.25
    assert abs(_u(expr, 1, 3.0, 20) - u_parts) <= 1e-19
    assert abs(_H(expr, 2, 5.0, 20) - h_parts) <= 1e-19


@pytest.mark.parametrize("k", [0, 1, 2, 11])
@pytest.mark.parametrize("centre,root", [(1.0, 2.0), (5.0, 0.5), (1e6, 3e5), (0.3, 10.0)])
def test_bump_hat_moments_agree_with_quadrature(k, centre, root):
    # one hat of height 1.5 and half width 0.5, clipped at tau = 0 when it
    # reaches below, against mpmath.quad on z at 40 digits
    w = 0.5
    with mpmath.workdps(30):
        rising = (centre, -w, 0.0, 0.0, 1.5) if centre >= w else \
            (centre, -centre, 0.0, 1.5 * (1 - mpmath.mpf(centre) / w), 1.5)
        got = _pieces_u([rising, (centre, 0.0, w, 1.5, 0.0)], k, root, 30)
    with mpmath.workdps(40):
        big, c = mpmath.mpf(root), mpmath.mpf(centre)

        def hat(z):
            return z ** k * mpmath.exp(-z * z) * 1.5 * max(0, 1 - abs(big * z - c) / w)
        want = mpmath.quad(hat, [max(c - w, 0) / big, c / big, (c + w) / big])
        assert abs(got - want) <= 1e-30 * max(1, abs(want))


@pytest.mark.parametrize("k", [0, 1, 2, 4, 11])
def test_wave_pieces_agree_with_its_series(k):
    # the moments of the pieces and the integration-by-parts series,
    # independent of each other, at root 60
    wave = PeriodicZeroMean(2.0, -0.5, 0.3)
    with mpmath.workdps(40):
        assert abs(_u(wave, k, 60.0, 40) - _wave_series_u(wave.wave, k, 60.0)) < 1e-30


def test_reference_imports_no_private_name_of_heatband():
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("heatband")
                for alias in node.names]
    assert imported and not [name for _module, name in imported if name.startswith("_")]
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                and any(alias.name.startswith("heatband") for alias in node.names)]
