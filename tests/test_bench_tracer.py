"""The benchmark's tracer patches heatband functions by name.

bench/tracing.py lists them in TRACED; a rename or deletion in heatband
would make `bench/run.py --trace 1` fail with AttributeError.  This test
reads the list without installing the tracer.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("heatband_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for module_name, attr, _span, _count in traced:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
