"""Spans around heatband's public functions, recorded from outside.

Tracer.install replaces each traced function in every heatband module that
holds a reference to it (``from .x import f`` copies the reference, so the
caller's namespace is the one to patch; the package attribute
``heatband.kernel_moments`` is the function, not the module).  Spans close
on exceptions too, since PartialBandError is the normal path of doubly-log
certificates.  Spans stay in memory until metrics() summarises them.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function, span name, what the span counts)
TRACED = (
    ("heatband.quadrature", "integrate_weighted", "quadrature.weighted", "evals"),
    ("heatband.quadrature", "integrate_log_oscillatory", "quadrature.log_osc", "evals"),
    ("heatband.quadrature", "integrate_interval", "quadrature.interval", "evals"),
    ("heatband.kernel_moments", "kernel_moments", "kernel_moments.moments", None),
    ("heatband.kernel_moments", "solve_m", "kernel_moments.solve_m", None),
    ("heatband.initial_data", "eval_phi", "initial_data.eval_phi", "points"),
    ("heatband.initial_data", "numeric_H", "initial_data.numeric_H", None),
    ("heatband.initial_data", "analytic_band_phi", "initial_data.bands", None),
    ("heatband.initial_data", "band_witnesses", "initial_data.bands", None),
    ("heatband.prescriber", "prescribe_average", "prescriber.prescribe", None),
    ("heatband.prescriber", "prescribe_data", "prescriber.prescribe", None),
    ("heatband.prescriber", "lemma_not_example", "prescriber.prescribe", None),
    ("heatband.prescriber", "envelope_u", "prescriber.envelope", None),
    ("heatband.prescriber", "cert_to_json", "prescriber.codec", None),
    ("heatband.prescriber", "cert_from_json", "prescriber.codec", None),
    ("heatband.prescriber", "cert_dumps", "prescriber.codec", None),
    ("heatband.prescriber", "cert_loads", "prescriber.codec", None),
    ("heatband.solution_probe", "u_origin", "solution_probe.u_origin", None),
    ("heatband.solution_probe", "band_estimate", "solution_probe.band_estimate", None),
    ("heatband.solution_probe", "verify_certificate", "solution_probe.verify", None),
    ("heatband.solution_probe", "report_to_json", "solution_probe.report_codec", None),
    ("heatband.solution_probe", "report_dumps", "solution_probe.report_codec", None),
    ("heatband.cli", "main", "cli", None),
)

_NAME, _START, _END, _PARENT, _COUNT = range(5)


def _count(kind, result, args):
    if kind == "evals":
        return result.evaluations
    if kind == "points":
        shape = getattr(args[1], "shape", ())
        size = 1
        for dim in shape:
            size *= dim
        return size
    return 0


class Tracer:
    """Records [name, start_ns, end_ns, parent index, count] per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, kind):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if kind is not None:
                    span[_COUNT] = _count(kind, result, args)
                return result
            finally:
                span[_END] = clock()
                stack.pop()

        return traced

    def install(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "heatband" or key.startswith("heatband.")]
        for module_name, attr, name, kind in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self) -> dict[str, float]:
        """Per-group calls, inclusive seconds, self seconds and counts.

        calls and s count outermost spans only, so recursion (a reflected
        prescribe_data calls itself) and nested codec calls are not counted
        twice; self_s subtracts every direct child.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child_ns[span[_PARENT]] += span[_END] - span[_START]
        out: dict[str, float] = {}
        for i, span in enumerate(spans):
            name = span[_NAME]
            dur = span[_END] - span[_START]
            outer = True
            p = span[_PARENT]
            while p >= 0:
                if spans[p][_NAME] == name:
                    outer = False
                    break
                p = spans[p][_PARENT]
            if outer:
                out[name + ".calls"] = out.get(name + ".calls", 0) + 1
                out[name + ".s"] = out.get(name + ".s", 0.0) + dur * 1e-9
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (dur - child_ns[i]) * 1e-9
            out[name + ".count"] = out.get(name + ".count", 0) + span[_COUNT]
        return out

    def nested(self, inner: str, outer: str) -> int:
        """Spans named inner that run inside a span named outer."""
        spans = self.spans
        total = 0
        for span in spans:
            if span[_NAME] != inner:
                continue
            p = span[_PARENT]
            while p >= 0:
                if spans[p][_NAME] == outer:
                    total += 1
                    break
                p = spans[p][_PARENT]
        return total
