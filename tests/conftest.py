"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest


@pytest.fixture
def quad_constants(monkeypatch):
    """Sets quadrature's _ABS_TOL, _H_TOL or _MAX_NODES in every module that
    reads it, with the cached layouts cleared before and after, so that a
    rule can be checked at another tolerance or node budget."""
    from heatband import initial_data, quadrature, solution_probe

    caches = (quadrature._log_trapezoid_rule, quadrature._log_gauss_panels,
              quadrature._log_gauss_rule)

    def set_constants(**values):
        for cache in caches:
            cache.cache_clear()
        for name, value in values.items():
            for module in (quadrature, initial_data, solution_probe):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, value)

    yield set_constants
    for cache in caches:
        cache.cache_clear()
