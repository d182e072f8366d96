"""Malformed arguments over the public API.

Each public callable is called once with valid arguments, then with None,
True, "1", 1j, nan, inf and object() in each argument position, one at a
time: the call either returns or raises a HeatbandError, never any other
exception.  A second table hands u_origin, u_offcenter_1d and band_estimate
functions whose values are not reals of the points' shape, which end in
DomainError.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import heatband as hb
from heatband import initial_data, quadrature, solution_probe

BAD = (None, True, "1", 1j, math.nan, math.inf, object())

CERT = hb.prescribe_average(-1.0, -0.3, 0.3, 1.0, 2)
REPORT = hb.verify_certificate(CERT, 0.02)
BAND = REPORT.measured_u_band
SLOW = hb.LogSine(1.0, 0.7, 0.1)
WAVE = hb.TrapezoidWave(1.0, -0.5, 0.3)


def smooth(z):
    return np.exp(-z)


# (label, callable, positional arguments, keyword arguments)
CALLS = [
    ("ConvergenceError", hb.ConvergenceError, ("m", 1.0, 0.1), {}),
    ("DomainError", hb.DomainError, ("m",), {}),
    ("EvaluationError", hb.EvaluationError, ("m", 1.0), {}),
    ("HeatbandError", hb.HeatbandError, ("m",), {}),
    ("PartialBandError", hb.PartialBandError, ("m", BAND), {}),
    ("RangeError", hb.RangeError, ("m",), {}),
    ("SearchFailure", hb.SearchFailure, ("m",), {}),
    ("UnsupportedExpression", hb.UnsupportedExpression, ("m",), {}),
    ("BumpTrain", hb.BumpTrain, (1.0, 0.5, 0.1, hb.GeometricCenters(3.0)), {}),
    ("Constant", hb.Constant, (0.5,), {}),
    ("DoubleExpCenters", hb.DoubleExpCenters, ("trough",), {}),
    ("GeometricCenters", hb.GeometricCenters, (3.0,), {}),
    ("InitialDataExpr", hb.InitialDataExpr, (), {}),
    ("LogLogSine", hb.LogLogSine, (1.0, 0.1), {}),
    ("LogSine", hb.LogSine, (1.0, 0.7, 0.1), {}),
    ("LogSineAvgPreimage", hb.LogSineAvgPreimage, (1.0, 0.7, 0.1, 2), {}),
    ("Negate", hb.Negate, (SLOW,), {}),
    ("PeriodicOfLog", hb.PeriodicOfLog, (WAVE,), {}),
    ("PeriodicZeroMean", hb.PeriodicZeroMean, (1.0, -0.5, 0.3), {}),
    ("SlowFromPeriodic", hb.SlowFromPeriodic, (WAVE, 2), {}),
    ("Sum", hb.Sum, ((SLOW, hb.Constant(0.2)),), {}),
    ("TrapezoidWave", hb.TrapezoidWave, (1.0, -0.5, 0.3), {}),
    ("TrigPolynomial", hb.TrigPolynomial, (0.0, (1.0,), (0.5,)), {}),
    ("analytic_band_phi", hb.analytic_band_phi, (SLOW,), {}),
    ("band_witnesses", hb.band_witnesses, (SLOW,), {}),
    ("closed_H", hb.closed_H, (SLOW, 2), {}),
    ("eval_phi", hb.eval_phi, (SLOW, 10.0), {}),
    ("numeric_H", hb.numeric_H, (SLOW, 2, 10.0), {}),
    ("phi_from_H", hb.phi_from_H, (SLOW, 2), {}),
    ("sup_abs_phi", hb.sup_abs_phi, (SLOW,), {}),
    ("KernelFlavor", hb.KernelFlavor, ("data",), {}),
    ("MomentPair", hb.MomentPair, (0.5, 0.1, 1.0, 2, hb.KernelFlavor.DATA, 1e-16), {}),
    ("kernel_moments", hb.kernel_moments, (2, 1.0, hb.KernelFlavor.DATA), {}),
    ("moment_norm", hb.moment_norm, (2, 1.0, hb.KernelFlavor.DATA), {}),
    ("solve_m", hb.solve_m, (2, 0.5, hb.KernelFlavor.DATA), {}),
    ("unit_ball_volume", hb.unit_ball_volume, (2,), {}),
    ("AverageQuad", hb.AverageQuad, (-1.0, -0.3, 0.3, 1.0), {}),
    ("DataQuad", hb.DataQuad, (-1.0, -0.3, 0.3, 1.0), {}),
    ("PrescriptionCertificate", hb.PrescriptionCertificate,
     (CERT.target, CERT.data, CERT.construction_tag, CERT.m_used, CERT.expected_phi_band,
      CERT.expected_H_band, CERT.expected_u_band), {}),
    ("PrescriptionTarget", hb.PrescriptionTarget, (CERT.target.kind, 2), {}),
    ("balanced_ramp_width", hb.balanced_ramp_width, (1.0, -0.5), {}),
    ("cert_dumps", hb.cert_dumps, (CERT,), {}),
    ("cert_from_json", hb.cert_from_json, (hb.cert_to_json(CERT),), {}),
    ("cert_loads", hb.cert_loads, (hb.cert_dumps(CERT),), {}),
    ("cert_to_json", hb.cert_to_json, (CERT,), {}),
    ("envelope_u", hb.envelope_u, (CERT, 1e4), {}),
    ("lemma_not_example", hb.lemma_not_example, (), {}),
    ("prescribe_average", hb.prescribe_average, (-1.0, -0.3, 0.3, 1.0, 2), {}),
    ("prescribe_data", hb.prescribe_data, (-1.0, -0.3, 0.3, 1.0, 2), {}),
    ("OscillationBand", hb.OscillationBand, (-0.3, 0.3, 1e6, 1e9, 64, 3.0), {}),
    ("VerificationReport", hb.VerificationReport,
     (CERT, BAND, BAND, BAND, 0.3, True, 0.02, False, None, (), 1e-11, 1e-13), {}),
    ("band_estimate", hb.band_estimate, (lambda t: np.sin(np.log(t)), 1.0), {}),
    ("report_dumps", hb.report_dumps, (REPORT,), {}),
    ("report_to_json", solution_probe.report_to_json, (REPORT,), {}),
    ("u_offcenter_1d", hb.u_offcenter_1d, (SLOW, 0.5, 10.0), {}),
    ("u_origin", hb.u_origin, (SLOW, 2, 10.0), {}),
    ("u_origin_from_H", hb.u_origin_from_H, (SLOW, 2, 10.0), {}),
    ("verify_certificate", hb.verify_certificate, (CERT, 0.02), {}),
    ("IntegralResult", hb.IntegralResult, (1.0, 1e-12, 10), {}),
    ("integrate_interval", hb.integrate_interval, (smooth, 0.0, 1.0),
     {"rel_tol": 1e-11, "abs_tol": 1e-13, "max_panels": 1000, "max_width": 0.5}),
    ("integrate_log_oscillatory", hb.integrate_log_oscillatory,
     (lambda x: np.exp(x - np.exp(2.0 * x)), 1.0, "sin"), {}),
    ("integrate_weighted", hb.integrate_weighted, (smooth, 0), {}),
    ("initial_data.loads", initial_data.loads, (initial_data.dumps(SLOW),), {}),
    ("initial_data.dumps", initial_data.dumps, (SLOW,), {}),
    ("initial_data.to_json", initial_data.to_json, (SLOW,), {}),
    ("initial_data.from_json", initial_data.from_json, (initial_data.to_json(SLOW),), {}),
    ("quadrature.gaussian_power_tail", quadrature.gaussian_power_tail, (2, 1.5), {}),
]


def test_every_public_callable_is_in_the_table():
    public = {name for name in dir(hb)
              if not name.startswith("_") and callable(getattr(hb, name))}
    assert public <= {label for label, *_ in CALLS}


@pytest.mark.parametrize("label, fn, args, kwargs", CALLS, ids=[c[0] for c in CALLS])
def test_malformed_argument_returns_or_raises_heatband_error(label, fn, args, kwargs):
    fn(*args, **kwargs)
    positions = [*range(len(args)), *kwargs]
    for position in positions:
        for bad in BAD:
            bad_args, bad_kwargs = list(args), dict(kwargs)
            if isinstance(position, int):
                bad_args[position] = bad
            else:
                bad_kwargs[position] = bad
            try:
                fn(*bad_args, **bad_kwargs)
            except hb.HeatbandError:
                pass
            except Exception as exc:  # noqa: BLE001 - the escape is the failure
                pytest.fail(f"{label} with {bad!r} at {position!r} raised "
                            f"{type(exc).__name__}: {exc}")


@pytest.mark.parametrize("field, value", [("target", None), ("data", None),
                                          ("construction_tag", 5)])
def test_certificate_fields_are_checked(field, value):
    # each would fail later in cert_dumps, verify_certificate or envelope_u,
    # or write a file that cert_from_json refuses
    with pytest.raises(hb.DomainError, match=field):
        dataclasses.replace(CERT, **{field: value})


# functions whose values are not reals of the points' shape
BAD_VALUES = {
    "None": lambda x: None,
    "string": lambda x: "1",
    "complex": lambda x: x * 1j,
    "wrong length": lambda x: np.ones(np.size(x) + 1),
}

PROBES = {
    "u_origin": lambda f: hb.u_origin(f, 1, 1.0),
    "u_offcenter_1d": lambda f: hb.u_offcenter_1d(f, 0.5, 1.0),
    "band_estimate": lambda f: hb.band_estimate(f, 1.0),
}


@pytest.mark.parametrize("values", BAD_VALUES.values(), ids=list(BAD_VALUES))
@pytest.mark.parametrize("probe", PROBES.values(), ids=list(PROBES))
def test_function_values_that_are_not_reals_of_the_points_shape(probe, values):
    with pytest.raises(hb.DomainError):
        probe(values)


def test_a_scalar_value_still_broadcasts():
    def half(x):
        return 0.5

    assert hb.u_origin(half, 1, 1.0) == pytest.approx(0.5)
    assert hb.u_offcenter_1d(half, 0.5, 1.0) == pytest.approx(0.5)
    band = hb.band_estimate(half, 1.0)
    assert band.lower_est == band.upper_est == 0.5
