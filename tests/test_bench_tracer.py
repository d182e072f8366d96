"""The benchmark's tracer patches heatband functions by name.

bench/tracing.py lists them in TRACED; a rename or deletion in heatband
would make `bench/run.py --trace 1` fail with AttributeError.  The first
test reads the list without installing the tracer; the second installs it
around one verify and checks what the benchmark sees of its sweep.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("heatband_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = _tracing().TRACED
    assert traced
    for module_name, attr, _span, _count in traced:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_verify_sweeps_through_band_estimate_and_u_origin():
    # a log-periodic certificate: one sweep, whose grid call and trial call
    # both reach u_origin, so band_estimate.calls and u_per_sweep count them
    import heatband

    cert = heatband.prescribe_average(-1.0, -0.3, 0.3, 1.0, n=2)
    with _tracing().Tracer() as tracer:
        heatband.verify_certificate(cert)
    assert tracer.metrics()["solution_probe.band_estimate.calls"] == 1
    assert tracer.nested("solution_probe.u_origin", "solution_probe.band_estimate") == 2
