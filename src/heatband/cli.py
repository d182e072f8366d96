"""Command-line front-end for heatband.

Four subcommands cover the workflow end to end:

  prescribe   build a certificate for target bands and write it as JSON
  probe       tabulate u(0,t), the limiting envelope, phi, and ball averages
  verify      measure the bands of a stored certificate and judge the chain
  reproduce   recompute the reference constants of the two-mode example

verify measures on the one window that the prescriber's mode floor
assumes, so its band tolerance is the only setting of the measurement.

The front-end holds no validator of its own.  argparse checks the
subcommand, the types and the choices; every value then goes to the library,
whose checks refuse it with DomainError.  The one exception is the probe
grid, which no library function takes, and _log_grid checks it, at most
MAX_GRID_POINTS points a grid.

Artifacts are deterministic: fixed grids, floats in shortest round-trip
decimal, JSON with sorted keys.  Exit status 0 means success, 1 a failed
verification, 2 an argument or input problem, 3 a numerical convergence
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    HeatbandError,
    UnsupportedExpression,
    check_finite,
)
from .initial_data import closed_H, eval_phi, numeric_H
from .kernel_moments import KernelFlavor, kernel_moments
from .prescriber import (
    cert_dumps,
    cert_loads,
    envelope_u,
    lemma_not_example,
    prescribe_average,
    prescribe_data,
)
from .solution_probe import report_dumps, u_origin, verify_certificate

OUT_DIR_ENV = "HEATBAND_OUT_DIR"

# most points of one probe grid; a larger count is refused before any array is made
MAX_GRID_POINTS = 2 ** 20

# reference values for the two-mode example constants, printed by reproduce
REFERENCE_CONSTANTS = (
    ("cos_moment_m1", 0.892253317),
    ("sin_moment_m1", 0.030945895),
    ("cos_moment_m2", 0.649173672),
    ("sin_moment_m2", 0.099535090),
    ("average_band_lower", -1.760172593),
    ("solution_band_lower", -1.369211837),
    ("solution_band_upper", 1.328017886),
)


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _table(x: float) -> str:
    """Fixed 9-decimal rendering for printed tables."""
    return f"{x:.9f}"


def _out_dir(ns: argparse.Namespace) -> str:
    if ns.out_dir is not None:
        return ns.out_dir
    return os.environ.get(OUT_DIR_ENV, ".")


def _out_path(ns: argparse.Namespace, default_name: str) -> str:
    if ns.out is not None:
        return ns.out
    return os.path.join(_out_dir(ns), default_name)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# prescribe


def _print_chain(cert) -> None:
    phi, sol, avg = cert.expected_phi_band, cert.expected_u_band, cert.expected_H_band
    print(f"initial data band  [{_table(phi[0])}, {_table(phi[1])}]")
    if avg is None:
        print("ball average band  not pinned by this construction")
    else:
        print(f"ball average band  [{_table(avg[0])}, {_table(avg[1])}]")
    print(f"solution band      [{_table(sol[0])}, {_table(sol[1])}]")
    print("chain " + " <= ".join(_table(v) for v in cert._expected_chain))


def _cmd_prescribe(ns: argparse.Namespace) -> int:
    if ns.average is not None:
        cert = prescribe_average(*ns.average, n=ns.n)
    else:
        cert = prescribe_data(*ns.data, n=ns.n)
    path = _out_path(ns, "cert.json")
    _write_text(path, cert_dumps(cert) + "\n")
    print(f"construction {cert.construction_tag}"
          + (f", mode frequency {_fmt(cert.m_used)}" if cert.m_used is not None else ""))
    _print_chain(cert)
    print(f"certificate written to {path}")
    return 0


# ---------------------------------------------------------------------------
# probe


def _load_cert(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read certificate file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"certificate file {path} is not UTF-8 text: {exc}") from exc
    try:
        return cert_loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"certificate file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DomainError(f"certificate file {path} nests too deeply") from exc


def _log_grid(name: str, lo: float, hi: float, count: float) -> np.ndarray:
    """The log-spaced probe grid of --t-range or --tau-range: finite
    bounds 0 < lo <= hi and a whole number of 2 to MAX_GRID_POINTS points."""
    check_finite(**{f"{name} start": lo, f"{name} end": hi, f"{name} count": count})
    if not (0 < lo <= hi and 2 <= count <= MAX_GRID_POINTS and count == int(count)):
        raise DomainError(
            f"{name} needs bounds 0 < lo <= hi and a whole number of 2 to "
            f"{MAX_GRID_POINTS} points, got ({lo!r}, {hi!r}, {count!r})")
    return np.geomspace(lo, hi, int(count))


def _probe_u_rows(cert, ts: np.ndarray) -> list[tuple]:
    """One row per time; u(0, t) of the whole grid is one call."""
    us = u_origin(cert.data, cert.target.n, ts).tolist()
    rows = []
    for t, u in zip(ts.tolist(), us):
        try:
            env = envelope_u(cert, t)
            gap = abs(u - env)
        except (UnsupportedExpression, DomainError):
            env = None
            gap = None
        rows.append((t, 0.5 * math.log(4.0 * t), u, env, gap))
    return rows


def _probe_phi_rows(cert, taus: np.ndarray) -> list[tuple]:
    """One row per radius; each column of the grid is one call."""
    h_expr = closed_H(cert.data, cert.target.n)
    closed = [None] * taus.size if h_expr is None else eval_phi(h_expr, taus).tolist()
    return list(zip(taus.tolist(), eval_phi(cert.data, taus).tolist(),
                    numeric_H(cert.data, cert.target.n, taus).tolist(), closed))


def _csv_text(header: str, rows: list[tuple]) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join("" if v is None else _fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(columns: Sequence[str], rows: list[tuple]) -> str:
    doc = {"columns": list(columns), "rows": [list(row) for row in rows]}
    return json.dumps(doc, sort_keys=True) + "\n"


def _cmd_probe(ns: argparse.Namespace) -> int:
    ts = _log_grid("t-range", *ns.t_range)
    taus = _log_grid("tau-range", *ns.tau_range)
    cert = _load_cert(ns.cert)
    u_rows = _probe_u_rows(cert, ts)
    phi_rows = _probe_phi_rows(cert, taus)
    ext = ns.format
    out_dir = _out_dir(ns)
    u_path = os.path.join(out_dir, f"probe_u.{ext}")
    phi_path = os.path.join(out_dir, f"probe_phi.{ext}")
    u_columns = ("t", "log_sqrt4t", "u_origin", "envelope", "abs_gap")
    phi_columns = ("tau", "phi", "H_numeric", "H_closed")
    if ext == "csv":
        _write_text(u_path, _csv_text(",".join(u_columns), u_rows))
        _write_text(phi_path, _csv_text(",".join(phi_columns), phi_rows))
    else:
        _write_text(u_path, _json_text(u_columns, u_rows))
        _write_text(phi_path, _json_text(phi_columns, phi_rows))
    print(f"wrote {len(u_rows)} solution rows to {u_path}")
    print(f"wrote {len(phi_rows)} data rows to {phi_path}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(ns: argparse.Namespace) -> int:
    cert = _load_cert(ns.cert)
    report = verify_certificate(cert, tol_band=ns.tol_band)
    path = _out_path(ns, "report.json")
    _write_text(path, report_dumps(report) + "\n")

    def line(label, measured, expected):
        exp = ("unpinned" if expected is None
               else f"[{_table(expected[0])}, {_table(expected[1])}]")
        print(f"{label:<14} measured [{_table(measured.lower_est)}, "
              f"{_table(measured.upper_est)}]  expected {exp}")

    line("initial data", report.measured_phi_band, cert.expected_phi_band)
    line("ball average", report.measured_H_band, cert.expected_H_band)
    line("solution", report.measured_u_band, cert.expected_u_band)
    if report.u_partial:
        print(f"solution sweep is partial "
              f"({report.measured_u_band.periods_covered:.3f} periods covered)")
    for note in report.notes:
        print(f"note: {note}")
    print(f"report written to {path}")
    if not report.chain_ok:
        print("verify: measured bands violate the certificate chain "
              f"at tolerance {_fmt(report.tol_band)}", file=sys.stderr)
        return 1
    print("chain holds at tolerance " + _fmt(report.tol_band))
    return 0


# ---------------------------------------------------------------------------
# reproduce


def _reproduce_values() -> dict[str, float]:
    mom1 = kernel_moments(1, 1.0, KernelFlavor.AVERAGE)
    mom2 = kernel_moments(1, 2.0, KernelFlavor.AVERAGE)
    cert = lemma_not_example()
    assert cert.expected_H_band is not None
    return {
        "cos_moment_m1": mom1.a_value,
        "sin_moment_m1": mom1.b_value,
        "cos_moment_m2": mom2.a_value,
        "sin_moment_m2": mom2.b_value,
        "average_band_lower": cert.expected_H_band[0],
        "solution_band_lower": cert.expected_u_band[0],
        "solution_band_upper": cert.expected_u_band[1],
    }


def _cmd_reproduce(ns: argparse.Namespace) -> int:
    del ns
    computed = _reproduce_values()
    name_w = max(len(name) for name, _ in REFERENCE_CONSTANTS)
    print(f"{'constant':<{name_w}}  {'computed':>14}  {'reference':>14}  {'abs diff':>12}")
    for name, ref in REFERENCE_CONSTANTS:
        got = computed[name]
        print(f"{name:<{name_w}}  {_table(got):>14}  {_table(ref):>14}  "
              f"{abs(got - ref):>12.3e}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatband",
        description="Construct and verify radial heat-equation initial data "
                    "with prescribed oscillation bands.")
    sub = parser.add_subparsers(dest="command", required=True)

    pre = sub.add_parser(
        "prescribe",
        help="build a certificate for target bands and write it as JSON")
    target = pre.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--average", nargs=4, type=float, metavar=("P", "A", "B", "Q"),
        help="average band [P, Q] and solution band [A, B]; needs P + Q = A + B")
    target.add_argument(
        "--data", nargs=4, type=float, metavar=("R", "A", "B", "S"),
        help="data band [R, S] and solution band [A, B]")
    pre.add_argument("--n", type=int, default=1, help="space dimension (default 1)")
    pre.add_argument("--out", help="certificate path (default OUT_DIR/cert.json)")
    pre.add_argument("--out-dir", help="output directory (default $HEATBAND_OUT_DIR or .)")
    pre.set_defaults(run=_cmd_prescribe)

    probe = sub.add_parser(
        "probe",
        help="tabulate solution values, envelope, data, and ball averages")
    probe.add_argument("--cert", required=True, help="certificate JSON file")
    probe.add_argument(
        "--t-range", nargs=3, type=float, default=[1e2, 1e10, 33],
        metavar=("T0", "T1", "COUNT"),
        help="log-spaced solution time grid (default 1e2 1e10 33)")
    probe.add_argument(
        "--tau-range", nargs=3, type=float, default=[1e2, 1e10, 33],
        metavar=("TAU0", "TAU1", "COUNT"),
        help="log-spaced data radius grid (default 1e2 1e10 33)")
    probe.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="artifact format (default csv)")
    probe.add_argument("--out-dir", help="output directory (default $HEATBAND_OUT_DIR or .)")
    probe.set_defaults(run=_cmd_probe)

    ver = sub.add_parser(
        "verify",
        help="measure the bands of a stored certificate and judge the chain")
    ver.add_argument("--cert", required=True, help="certificate JSON file")
    ver.add_argument("--tol-band", type=float, default=0.02,
                     help="band tolerance (default 0.02)")
    ver.add_argument("--out", help="report path (default OUT_DIR/report.json)")
    ver.add_argument("--out-dir", help="output directory (default $HEATBAND_OUT_DIR or .)")
    ver.set_defaults(run=_cmd_verify)

    sub.add_parser(
        "reproduce",
        help="recompute the reference constants of the two-mode example",
    ).set_defaults(run=_cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; fold --help into success
        return 0 if exc.code in (0, None) else 2
    try:
        return ns.run(ns)
    except (ConvergenceError, EvaluationError) as exc:
        print(f"heatband {ns.command}: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (HeatbandError, OSError) as exc:
        print(f"heatband {ns.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
