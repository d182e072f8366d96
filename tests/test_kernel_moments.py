"""Kernel moment tests.

Published reference constants (the n=1 worked example, 9 printed decimals):
    a(1) = 0.892253317   b(1) = 0.030945895
    a(2) = 0.649173672   b(2) = 0.099535090
Everything else is checked against closed forms or a test-local dense scan.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from heatband.errors import ConvergenceError, DomainError, SearchFailure
from heatband.kernel_moments import (
    MAX_DIMENSION,
    SCAN_GRID_HI,
    SCAN_GRID_LO,
    KernelFlavor,
    kernel_moments,
    moment_norm,
    solve_m,
    unit_ball_volume,
)

REF_A1 = 0.892253317
REF_B1 = 0.030945895
REF_A2 = 0.649173672
REF_B2 = 0.099535090


class TestUnitBallVolume:
    @pytest.mark.parametrize("n,vol", [
        (1, 2.0),
        (2, math.pi),
        (3, 4.0 * math.pi / 3.0),
    ])
    def test_closed_forms(self, n, vol):
        assert unit_ball_volume(n) == pytest.approx(vol, rel=1e-14)

    @pytest.mark.parametrize("n", [0, -1, 1.5, MAX_DIMENSION + 1, 342, 10**400])
    def test_rejects_bad_dimension(self, n):
        with pytest.raises(DomainError):
            unit_ball_volume(n)

    def test_ceiling_is_accepted(self):
        # pi^5 / 5! for n = 10
        assert unit_ball_volume(MAX_DIMENSION) == pytest.approx(math.pi ** 5 / 120.0,
                                                                rel=1e-14)


class TestNormalization:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("flavor", list(KernelFlavor))
    def test_weights_integrate_to_one(self, n, flavor):
        """coeff(n) * int_0^inf e^{-z^2} z^power dz = 1 exactly."""
        from heatband.quadrature import integrate_weighted

        power = flavor.power(n)
        r = integrate_weighted(lambda z: np.ones_like(z), power)
        assert flavor.coefficient(n) * r.value == pytest.approx(1.0, abs=1e-10)

    def test_flavor_powers(self):
        assert KernelFlavor.AVERAGE.power(3) == 4
        assert KernelFlavor.DATA.power(3) == 2


class TestWorkedExampleConstants:
    def test_first_mode(self):
        p = kernel_moments(1, 1.0, KernelFlavor.AVERAGE)
        assert p.a_value == pytest.approx(REF_A1, abs=1e-6)
        assert p.b_value == pytest.approx(REF_B1, abs=1e-6)

    def test_second_mode(self):
        p = kernel_moments(1, 2.0, KernelFlavor.AVERAGE)
        assert p.a_value == pytest.approx(REF_A2, abs=1e-6)
        assert p.b_value == pytest.approx(REF_B2, abs=1e-6)

    def test_error_estimate_covers_reference(self):
        p = kernel_moments(1, 1.0, KernelFlavor.AVERAGE)
        assert abs(p.a_value - REF_A1) <= p.abs_error_est + 5e-10


class TestMomentNorm:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_m_approaches_one_from_below(self, n):
        norm = moment_norm(n, 1e-3, KernelFlavor.AVERAGE)
        assert 0.995 <= norm < 1.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_large_m_riemann_lebesgue(self, n):
        assert moment_norm(n, 200.0, KernelFlavor.AVERAGE) < 1e-2

    def test_reference_norm_value(self):
        # sqrt(a(1)^2 + b(1)^2) from the printed constants
        ref = math.hypot(REF_A1, REF_B1)
        assert moment_norm(1, 1.0, KernelFlavor.AVERAGE) == pytest.approx(ref, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("flavor", list(KernelFlavor))
    def test_open_unit_interval(self, n, flavor):
        for m in np.geomspace(1e-3, 1e2, 17):
            norm = moment_norm(n, float(m), flavor)
            assert 0.0 < norm < 1.0

    def test_continuity_in_m(self):
        base = moment_norm(2, 1.7, KernelFlavor.DATA)
        deltas = [moment_norm(2, 1.7 + h, KernelFlavor.DATA) - base
                  for h in (1e-2, 1e-3, 1e-4)]
        assert abs(deltas[1]) < abs(deltas[0])
        assert abs(deltas[2]) < abs(deltas[1])

    def test_rejects_nonpositive_m(self):
        with pytest.raises(DomainError):
            moment_norm(1, 0.0, KernelFlavor.AVERAGE)


def dense_scan_oracle(n, ratio, flavor):
    """Test-local root finder: dense log grid + bisection on moment_norm."""
    grid = np.geomspace(SCAN_GRID_LO, SCAN_GRID_HI, 2000)
    vals = [moment_norm(n, float(m), flavor) - ratio for m in grid]
    for i in range(1, len(grid)):
        if (vals[i - 1] > 0) != (vals[i] > 0):
            lo, hi = float(grid[i - 1]), float(grid[i])
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if (moment_norm(n, mid, flavor) - ratio > 0) == (vals[i - 1] > 0):
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    raise AssertionError("oracle found no bracket")


class TestSolveM:
    def test_residual_within_tolerance(self):
        m = solve_m(2, 0.5, KernelFlavor.AVERAGE)
        assert abs(moment_norm(2, m, KernelFlavor.AVERAGE) - 0.5) <= 1e-10

    @pytest.mark.slow
    def test_against_dense_scan_oracle(self):
        m = solve_m(1, 0.3, KernelFlavor.DATA)
        oracle = dense_scan_oracle(1, 0.3, KernelFlavor.DATA)
        assert m == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_ratio_outside_open_interval(self, ratio):
        with pytest.raises(DomainError):
            solve_m(1, ratio, KernelFlavor.AVERAGE)

    @pytest.mark.parametrize("kwargs,name", [
        ({"ratio": "0.5"}, "ratio"),
        ({"ratio": np.array([0.5])}, "ratio"),
        ({"ratio": math.nan}, "ratio"),
    ])
    def test_rejects_malformed_reals(self, kwargs, name):
        args = {"ratio": 0.5, **kwargs}
        with pytest.raises(DomainError, match=f"{name} must be a finite real"):
            solve_m(1, flavor=KernelFlavor.AVERAGE, **args)

    @pytest.mark.parametrize("call", [
        lambda: kernel_moments(1, 1.0, "data"),
        lambda: solve_m(1, 0.5, "data"),
        lambda: moment_norm(1, 1.0, None),
    ])
    def test_rejects_a_flavor_that_is_not_a_kernel_flavor(self, call):
        with pytest.raises(DomainError, match="flavor must be a KernelFlavor"):
            call()

    def test_unreachable_ratio_fails_searching(self):
        # norm(1e-3) is around 1 - 1e-7; a ratio above it has no bracket
        with pytest.raises(SearchFailure):
            solve_m(1, 1.0 - 1e-12, KernelFlavor.AVERAGE)


# ---------------------------------------------------------------------------
# Closed form against independent mpmath oracles


def mpmath_moment_quad(p: int, m: float) -> complex:
    """int_0^inf e^{-z^2} z^p e^{i m log z} dz / (Gamma((p+1)/2) / 2) by mpmath.quad.

    Integrated on x = log z, split into pieces shorter than one period so
    the quadrature never spans many oscillations.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        lo, hi = -50.0 / (p + 1), 3.0
        pieces = max(8, math.ceil((hi - lo) * m / 3.0))
        cuts = [lo + (hi - lo) * j / pieces for j in range(pieces + 1)]
        val = mpmath.quad(
            lambda x: mpmath.exp((p + 1) * x - mpmath.exp(2 * x) + 1j * m * x),
            cuts, method="gauss-legendre")
        return complex(val / (mpmath.gamma(mpmath.mpf(p + 1) / 2) / 2))


def mpmath_moment_gamma(p: int, m: float) -> complex:
    """Gamma(s + i m/2) / Gamma(s), s = (p+1)/2, in mpmath's own Gamma."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        s = mpmath.mpf(p + 1) / 2
        return complex(mpmath.gamma(s + 0.5j * m) / mpmath.gamma(s))


class TestClosedFormMoments:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("flavor", list(KernelFlavor))
    @pytest.mark.parametrize("m", [1e-3, 0.9, 6.0])
    def test_against_mpmath_quadrature(self, n, flavor, m):
        want = mpmath_moment_quad(flavor.power(n), m)
        got = kernel_moments(n, m, flavor)
        assert got.a_value == pytest.approx(want.real, abs=1e-13)
        assert got.b_value == pytest.approx(want.imag, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("flavor", list(KernelFlavor))
    @pytest.mark.parametrize("m", [1e-3, 2.5, 60.0, 200.0, 500.0])
    def test_against_mpmath_gamma(self, n, flavor, m):
        want = mpmath_moment_gamma(flavor.power(n), m)
        got = kernel_moments(n, m, flavor)
        miss = abs(complex(got.a_value, got.b_value) - want)
        assert miss <= 1e-12 * abs(want)
        assert miss <= got.abs_error_est

    @pytest.mark.parametrize("m", [500.0001, 501.0, 1e4])
    def test_refuses_frequencies_above_500(self, m):
        with pytest.raises(ConvergenceError):
            kernel_moments(2, m, KernelFlavor.DATA)

    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("flavor", list(KernelFlavor))
    def test_norm_strictly_decreasing(self, n, flavor):
        norms = [moment_norm(n, float(m), flavor) for m in np.geomspace(1e-3, 1e2, 400)]
        assert all(b < a for a, b in zip(norms, norms[1:]))


class TestSolveMBracket:
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    @pytest.mark.parametrize("flavor", list(KernelFlavor))
    @pytest.mark.parametrize("ratio", [1e-20, 0.05, 0.5, 0.95, 0.9999])
    def test_root_solves_the_gamma_ratio(self, n, flavor, ratio):
        m = solve_m(n, ratio, flavor)
        assert SCAN_GRID_LO <= m <= SCAN_GRID_HI
        assert abs(moment_norm(n, m, flavor) - ratio) <= 1e-10
        assert abs(mpmath_moment_gamma(flavor.power(n), m)) == pytest.approx(ratio, rel=1e-9)

    @pytest.mark.parametrize("flavor", list(KernelFlavor))
    def test_ratio_below_bracket_fails_searching(self, flavor):
        below = 0.5 * moment_norm(2, SCAN_GRID_HI, flavor)
        with pytest.raises(SearchFailure):
            solve_m(2, below, flavor)

    @pytest.mark.parametrize("flavor", list(KernelFlavor))
    def test_ratio_above_bracket_fails_searching(self, flavor):
        above = 0.5 * (1.0 + moment_norm(2, SCAN_GRID_LO, flavor))
        with pytest.raises(SearchFailure):
            solve_m(2, above, flavor)

    def test_bracket_ends_are_roots(self):
        for m in (SCAN_GRID_LO, SCAN_GRID_HI):
            ratio = moment_norm(3, m, KernelFlavor.AVERAGE)
            assert solve_m(3, ratio, KernelFlavor.AVERAGE) == pytest.approx(m, rel=1e-9)
