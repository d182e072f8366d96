"""Every certificate the prescriber builds should verify: a fixed sweep of
the construction space.

One np.random.default_rng(SEED) draws DATA_DRAWS data-side quadruples
(every other one from GRID, so that equalities occur, the rest uniform on
[-2, 2], each sorted) and AVERAGE_DRAWS average-side ones (midline
U[-1, 1], half-width U[0.2, 2], solution half-gap U[0.001, 0.999] of it),
each with a dimension n from 1 to 3 with probability 0.8 and from 4 to 10
otherwise.  Each runs prescribe_data or prescribe_average and then
verify_certificate.  The (quadruple, n) pairs that the prescriber refuses or
that fail to verify must be exactly those of KNOWN, each tagged with its
cause: a new failure fails the test, and so does a listed one that now
passes, so the list can only shrink.  Never re-draw or drop a quadruple to
get a pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from heatband import DomainError, prescribe_average, prescribe_data, verify_certificate

SEED = 20260
DATA_DRAWS, AVERAGE_DRAWS = 300, 100
GRID = (-2.0, -1.0, -0.5, 0.0, 0.3, 0.5, 1.0, 2.0)


def _dimension(rng) -> int:
    return int(rng.integers(1, 4) if rng.random() < 0.8 else rng.integers(4, 11))


def draws() -> list[tuple[str, tuple[float, ...], int]]:
    """(side, quadruple, n) of every draw, in the order of the one generator."""
    rng = np.random.default_rng(SEED)
    out = []
    for i in range(DATA_DRAWS):
        values = rng.choice(GRID, 4) if i % 2 == 0 else rng.uniform(-2.0, 2.0, 4)
        out.append(("data", tuple(sorted(values.tolist())), _dimension(rng)))
    for _ in range(AVERAGE_DRAWS):
        mid, half = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 2.0)
        gap = half * rng.uniform(0.001, 0.999)
        out.append(("average", (mid - half, mid - gap, mid + gap, mid + half), _dimension(rng)))
    return out


def _off(band, want, tol: float, contain: bool = False) -> bool:
    if contain:
        return band.lower_est < want[0] - tol or band.upper_est > want[1] + tol
    return abs(band.lower_est - want[0]) > tol or abs(band.upper_est - want[1]) > tol


def outcome(side: str, quad: tuple[float, ...], n: int) -> str | None:
    """None when the quadruple's certificate verifies; else the cause: the
    prescriber's refusal, or the construction tag and the checks of verify
    that fail."""
    prescribe = prescribe_data if side == "data" else prescribe_average
    try:
        cert = prescribe(*quad, n=n)
    except DomainError as exc:
        return f"refused: {exc}"
    report = verify_certificate(cert)
    if report.chain_ok:
        return None
    tol = report.tol_band
    checks = [name for name, band, want, contain in (
        ("phi band", report.measured_phi_band, cert.expected_phi_band, False),
        ("H band", report.measured_H_band, cert.expected_H_band, False),
        ("u band", report.measured_u_band, cert.expected_u_band, report.u_partial))
        if want is not None and _off(band, want, tol, contain)]
    return f"{cert.construction_tag}: {', '.join(checks) or 'band chain'}"


# (side, quadruple, n): cause.  Every one is an H band of
# data-slow-plus-bumps, one of the H window faults that Direction 3 of
# ROADMAP.md mends, shrinking this list.
KNOWN: dict[tuple[str, tuple[float, ...], int], str] = {
    ("data", (-2.0, -2.0, -1.0, 0.5), 3): "data-slow-plus-bumps: H band",
    ("data", (-2.0, -2.0, -0.5, 2.0), 2): "data-slow-plus-bumps: H band",
    ("data", (-2.0, -2.0, 0.3, 2.0), 1): "data-slow-plus-bumps: H band",
    ("data", (-2.0, -2.0, 0.3, 2.0), 3): "data-slow-plus-bumps: H band",
    ("data", (-2.0, -1.0, 0.0, 0.0), 3): "data-slow-plus-bumps-reflected: H band",
    ("data", (-2.0, -1.0, 1.0, 1.0), 1): "data-slow-plus-bumps-reflected: H band",
    ("data", (-1.0, -1.0, -0.5, 0.3), 4): "data-slow-plus-bumps: H band",
    ("data", (-1.0, -1.0, -0.5, 1.0), 5): "data-slow-plus-bumps: H band",
    ("data", (-1.0, -1.0, -0.5, 1.0), 6): "data-slow-plus-bumps: H band",
    ("data", (-1.0, -1.0, -0.5, 2.0), 2): "data-slow-plus-bumps: H band",
    ("data", (-1.0, -0.5, 2.0, 2.0), 1): "data-slow-plus-bumps-reflected: H band",
    ("data", (-1.0, 0.0, 0.3, 0.3), 3): "data-slow-plus-bumps-reflected: H band",
    ("data", (-1.0, 0.3, 0.5, 0.5), 7): "data-slow-plus-bumps-reflected: H band",
    ("data", (-0.5, -0.5, 0.5, 1.0), 7): "data-slow-plus-bumps: H band",
    ("data", (-0.5, 1.0, 2.0, 2.0), 5): "data-slow-plus-bumps-reflected: H band",
    ("data", (-0.5, 1.0, 2.0, 2.0), 9): "data-slow-plus-bumps-reflected: H band",
    ("data", (0.0, 1.0, 2.0, 2.0), 3): "data-slow-plus-bumps-reflected: H band",
    ("data", (0.3, 0.3, 0.5, 2.0), 3): "data-slow-plus-bumps: H band",
    ("data", (0.3, 0.3, 0.5, 2.0), 5): "data-slow-plus-bumps: H band",
}


def test_the_sweep_fails_exactly_where_it_is_known_to():
    found = {}
    for side, quad, n in draws():
        cause = outcome(side, quad, n)
        if cause is not None:
            found[(side, quad, n)] = cause
    new = {key: cause for key, cause in found.items() if key not in KNOWN}
    mended = sorted(key for key in KNOWN if key not in found)
    moved = {key: (KNOWN[key], cause) for key, cause in found.items()
             if key in KNOWN and cause != KNOWN[key]}
    assert not new, f"new failures: {new}"
    assert not mended, f"listed failures that now pass; shrink KNOWN: {mended}"
    assert not moved, f"failures whose cause moved (listed, found): {moved}"
