"""Tests of the benchmark's own references and checks.

Run from the root of the checkout:  python3 -m pytest bench -q
"""

import json
import math
import sys
import time
from pathlib import Path

import mpmath
import pytest

import oracle

mpmath.mp.dps = 30


def _mp_data_u(phi, n, t):
    """coeff * int_0^inf e^{-z^2} z^{n-1} phi(sqrt(4t) z) dz with mpmath."""
    root = mpmath.sqrt(4 * mpmath.mpf(t))
    coeff = 2 / mpmath.gamma(mpmath.mpf(n) / 2)

    def integrand(x):  # z = e^x
        z = mpmath.exp(x)
        return mpmath.exp(-z * z + n * x) * phi(root * z)

    return float(coeff * mpmath.quad(integrand, [-60.0 / n, -10, -3, 0, 1, 4]))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("flavor", ["data", "average"])
@pytest.mark.parametrize("m", [0.3, 1.7, 6.0])
def test_kernel_pair_matches_the_defining_integral(n, flavor, m):
    p = oracle.weight_power(n, flavor)

    def moment(trig):
        f = lambda z: mpmath.exp(-z * z) * z ** p * trig(m * mpmath.log(z))
        return mpmath.quad(f, [0, 0.5, 1, 2, 4, 8, 12])

    norm = mpmath.gamma(mpmath.mpf(p + 1) / 2) / 2
    a, b = oracle.kernel_pair(n, m, flavor)
    assert a == pytest.approx(float(moment(mpmath.cos) / norm), abs=1e-12)
    assert b == pytest.approx(float(moment(mpmath.sin) / norm), abs=1e-12)
    assert oracle.kernel_norm(n, m, flavor) == pytest.approx(math.hypot(a, b), abs=1e-14)


SLOW_LEAVES = [
    {"variant": "log_sine", "amplitude": 0.7, "m": 1.3, "offset": 0.1},
    {"variant": "log_sine_avg_preimage", "amplitude": 0.8, "m": 2.1, "offset": -0.2, "n": 2},
    {"variant": "log_log_sine", "amplitude": 0.5, "offset": 0.2},
]


def _mp_phi(node):
    v = node["variant"]
    if v == "log_sine":
        return lambda tau: node["amplitude"] * mpmath.sin(node["m"] * mpmath.log1p(tau)) \
            + node["offset"]
    if v == "log_sine_avg_preimage":
        def f(tau):
            th = node["m"] * mpmath.log1p(tau)
            lam = node["m"] * tau / (node["n"] * (tau + 1))
            return node["amplitude"] * (mpmath.sin(th) + lam * mpmath.cos(th)) + node["offset"]
        return f
    return lambda tau: node["amplitude"] * mpmath.sin(mpmath.log(mpmath.log(tau + 2))) \
        + node["offset"]


@pytest.mark.parametrize("node", SLOW_LEAVES, ids=lambda d: d["variant"])
@pytest.mark.parametrize("n,t", [(1, 1e2), (2, 1e9), (3, 1e25)])
def test_slow_u_reference_matches_mpmath(node, n, t):
    lo, hi = oracle.u_enclosure(node, n, t)
    assert lo == hi
    assert lo == pytest.approx(_mp_data_u(_mp_phi(node), n, t), abs=1e-12)


WAVE = {"variant": "periodic_zero_mean", "v_max": 0.8, "v_min": -0.5, "ramp_width": 0.3}


def test_wave_primitive_max_matches_a_dense_primitive():
    grid = [oracle.TWO_PI * i / 20000 for i in range(20001)]
    vals = [float(oracle.phi(WAVE, x)[0]) for x in grid]
    running, peak = 0.0, 0.0
    for left, right, x0, x1 in zip(vals, vals[1:], grid, grid[1:]):
        running += 0.5 * (left + right) * (x1 - x0)
        peak = max(peak, abs(running))
    assert abs(running) < 1e-7  # zero mean, to the dense rule's accuracy
    assert oracle.wave_primitive_max(0.8, -0.5, 0.3) == pytest.approx(peak, rel=1e-6)


@pytest.mark.parametrize("n,t", [(1, 1e2), (2, 1e3), (3, 3e2)])
def test_wave_bound_covers_mpmath(n, t):
    root = math.sqrt(4 * t)
    period = oracle.TWO_PI

    def wave(tau):
        return float(oracle.phi(WAVE, float(tau))[0])

    coeff = 2 / math.gamma(n / 2)
    cuts = [k * period / root for k in range(int(7 * root / period) + 2)]
    exact = coeff * float(mpmath.quad(
        lambda z: mpmath.exp(-z * z) * z ** (n - 1) * wave(root * z), cuts))
    lo, hi = oracle.u_enclosure(WAVE, n, t)
    assert lo <= exact <= hi


BUMPS = {"variant": "bump_train", "height": 1.0, "half_width": 0.5, "baseline": 0.25,
         "centers": {"law": "geometric", "base": math.e}}


@pytest.mark.parametrize("n,t", [(1, 1e2), (2, 1e4), (3, 1e6)])
def test_bump_enclosure_covers_mpmath(n, t):
    root = math.sqrt(4 * t)
    coeff = 2 / math.gamma(n / 2)
    total = 0.25
    for c in oracle.bump_centers(BUMPS):
        if c - 0.5 > 12 * root:
            break
        tri = lambda z, c=c: max(0.0, 1 - abs(root * z - c) / 0.5)
        total += coeff * float(mpmath.quad(
            lambda z: mpmath.exp(-z * z) * z ** (n - 1) * tri(z),
            [(c - 0.5) / root, c / root, (c + 0.5) / root]))
    lo, hi = oracle.u_enclosure(BUMPS, n, t)
    assert lo <= total <= hi
    assert hi - lo < 0.2 * (total - 0.25)


@pytest.mark.parametrize("tau", [3.0, 150.0, 2e5])
def test_closed_average_matches_mpmath(tau):
    node = SLOW_LEAVES[1]
    n = node["n"]
    f = _mp_phi(node)
    avg = n / mpmath.mpf(tau) ** n * mpmath.quad(lambda r: f(r) * r ** (n - 1),
                                                  mpmath.linspace(0, tau, 40))
    assert oracle.closed_average(node, n, tau) == pytest.approx(float(avg), abs=1e-12)


def test_two_mode_quadruple_matches_published_constants():
    # the four constants `heatband reproduce` prints for the two-mode example
    h_lo, u_lo, u_hi, h_hi = oracle.two_mode_quadruple()
    assert h_lo == pytest.approx(-1.760172593, abs=1e-8)
    assert h_hi == pytest.approx(1.760172593, abs=1e-8)
    assert u_lo == pytest.approx(-1.369211837, abs=1e-8)
    assert u_hi == pytest.approx(1.328017886, abs=1e-8)
    a1, b1 = oracle.kernel_pair(1, 1.0, "average")
    assert (a1, b1) == pytest.approx((0.892253317, 0.030945895), abs=1e-9)


@pytest.fixture(scope="module")
def bump_report():
    """A real certificate and report for the target (0, 0, 0, 1) in n = 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    hb = pytest.importorskip("heatband")
    cert = hb.prescribe_data(0.0, 0.0, 0.0, 1.0, n=1)
    return json.loads(hb.report_dumps(hb.verify_certificate(cert)))


TARGET = {"kind": "data", "quad": (0.0, 0.0, 0.0, 1.0), "phi_band": None}


def test_report_of_the_requested_target_passes(bump_report):
    assert oracle.check_report(bump_report, TARGET) == []


@pytest.mark.parametrize("band", ["measured_phi_band", "measured_u_band"])
@pytest.mark.parametrize("end", ["lower_est", "upper_est"])
def test_report_shifted_by_twice_tol_band_is_flagged(bump_report, band, end):
    shifted = json.loads(json.dumps(bump_report))
    shifted[band][end] += 2 * shifted["tol_band"]
    assert oracle.check_report(shifted, TARGET)


def test_m_used_off_by_a_little_is_flagged():
    m = 1.234
    ratio = oracle.kernel_norm(2, m, "data")
    assert oracle.check_m_used(m, 2, ratio, "data") == []
    assert oracle.check_m_used(m * (1 + 1e-6), 2, ratio, "data")


def test_clock_scales_wall_time_to_the_reference_speed(monkeypatch):
    import run

    clock = run.Clock()
    kernel_times = iter([2 * run.REFERENCE_S, 2 * run.REFERENCE_S, 4 * run.REFERENCE_S])
    monkeypatch.setattr(clock, "reference", lambda: next(kernel_times))
    wall = 0.05
    _, first = clock.time(lambda: time.sleep(wall))
    _, second = clock.time(lambda: time.sleep(wall))
    # a kernel twice as slow as the reference halves the time; the runs after
    # the first call are the runs before the second
    assert wall / 2 <= first < wall
    assert wall / 3 <= second < 2 * wall / 3
