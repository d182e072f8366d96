"""Reference values and checks computed apart from heatband.

Nothing here imports heatband.  Certificates and reports are read as the
JSON documents the command line writes (cert/1, report/1 and the idexpr/1
tree inside a certificate), and every reference comes from the
mathematics:

* kernel moments from DLMF 5.9.1: with p the weight power,
  a(m) + i b(m) = Gamma((p+1)/2 + i m/2) / Gamma((p+1)/2);
* the slow part of u(0, t) from the uniform trapezoid rule on the axis
  x = log z, which converges exponentially for integrands analytic in a
  strip (Trefethen & Weideman, SIAM Rev. 56 (2014) 385-458);
* a-priori enclosures for zero-mean trapezoid waves (one integration by
  parts) and for triangular bump trains (mean-value bounds per bump);
* the maximum principle inf phi <= u, H <= sup phi.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import gammaln, loggamma

TWO_PI = 2.0 * math.pi

# Slack of the maximum-principle checks, as in the library's criterion 8.
MAX_PRINCIPLE_SLACK = 1e-6
# Allowed distance of u(0, t) from its reference enclosure.  The library's
# quadrature targets rel 1e-11 / abs 1e-13, so 1e-9 leaves a wide margin.
U_TOL = 1e-9
# Allowed distance of a numeric ball average from its closed form; the probe
# tables call numeric_H with its default tolerance 1e-8.
H_TOL = 1e-7
# Pointwise evaluation of phi, envelopes and closed-form H.
EVAL_TOL = 1e-9
# |moment norm(m_used) - requested ratio|; solve_m stops at a residual of
# 1e-10 on top of a quadrature error near 1e-11.
RATIO_TOL = 1e-8


# ---------------------------------------------------------------------------
# Kernel moments (DLMF 5.9.1)


def weight_power(n: int, flavor: str) -> int:
    """Power of z in the kernel: n + 1 for the average kernel, n - 1 for data."""
    return n + 1 if flavor == "average" else n - 1


def kernel_pair(n: int, m: float, flavor: str) -> tuple[float, float]:
    """(a, b) with a + i b = Gamma(x + i m/2) / Gamma(x), x = (p + 1)/2."""
    x = 0.5 * (weight_power(n, flavor) + 1)
    w = np.exp(loggamma(complex(x, 0.5 * m)) - gammaln(x))
    return float(w.real), float(w.imag)


def kernel_norm(n: int, m: float, flavor: str) -> float:
    """|Gamma(x + i m/2)| / Gamma(x), the moment norm the frequency solves."""
    x = 0.5 * (weight_power(n, flavor) + 1)
    return float(math.exp(loggamma(complex(x, 0.5 * m)).real - gammaln(x)))


def data_coefficient(n: int) -> float:
    """n omega_n / pi^(n/2) = 2 / Gamma(n/2): normalises the data kernel."""
    return 2.0 / math.gamma(0.5 * n)


# ---------------------------------------------------------------------------
# Expression leaves


def leaves(node: dict, sign: float = 1.0) -> list[tuple[float, dict]]:
    """Flatten an idexpr/1 node into (sign, leaf) pairs."""
    variant = node["variant"]
    if variant == "sum":
        out = []
        for term in node["terms"]:
            out.extend(leaves(term, sign))
        return out
    if variant == "negate":
        return leaves(node["term"], -sign)
    return [(sign, node)]


def _geometric_centers(base: float) -> np.ndarray:
    k_max = int(math.floor(math.log(np.finfo(float).max) / math.log(base)))
    with np.errstate(over="ignore"):
        cs = np.power(base, np.arange(1, k_max + 1, dtype=float))
    return cs[np.isfinite(cs)]


def bump_centers(node: dict) -> np.ndarray:
    law = node["centers"]
    if law["law"] != "geometric":
        raise ValueError(f"no reference for center law {law['law']!r}")
    return _geometric_centers(float(law["base"]))


def wave_primitive_max(v_max: float, v_min: float, ramp_width: float) -> float:
    """max |int_0^tau w| for the zero-mean trapezoid wave.

    The running integral peaks where the positive lobe ends.  With lobe
    lengths A+ and A- (plateau plus one ramp width each) the zero-mean
    condition v_max A+ + v_min A- = 0 and A+ + A- = 2 pi - 2 w give
    A+ = -v_min (2 pi - 2 w) / (v_max - v_min).
    """
    a_plus = -v_min * (TWO_PI - 2.0 * ramp_width) / (v_max - v_min)
    return v_max * a_plus


def phi_values(node: dict, tau: np.ndarray) -> np.ndarray:
    """phi(tau) of one slow or constant leaf."""
    v = node["variant"]
    if v == "constant":
        return np.full_like(tau, float(node["c"]))
    if v == "log_sine":
        return node["amplitude"] * np.sin(node["m"] * np.log1p(tau)) + node["offset"]
    if v == "log_sine_avg_preimage":
        theta = node["m"] * np.log1p(tau)
        lam = node["m"] * tau / (node["n"] * (tau + 1.0))
        return node["amplitude"] * (np.sin(theta) + lam * np.cos(theta)) + node["offset"]
    if v == "log_log_sine":
        return node["amplitude"] * np.sin(np.log(np.log(tau + 2.0))) + node["offset"]
    if v == "periodic_zero_mean":
        return _trapezoid(node, tau)
    if v == "bump_train":
        cs = bump_centers(node)
        out = np.full_like(tau, float(node["baseline"]))
        for c in cs:
            out += node["height"] * np.maximum(0.0, 1.0 - np.abs(tau - c) / node["half_width"])
        return out
    raise ValueError(f"no reference for variant {v!r}")


def _trapezoid(node: dict, tau: np.ndarray) -> np.ndarray:
    v_max, v_min, w = node["v_max"], node["v_min"], node["ramp_width"]
    a_plus = -v_min * (TWO_PI - 2.0 * w) / (v_max - v_min)
    a_minus = TWO_PI - 2.0 * w - a_plus
    p_plus, p_minus = a_plus - w, a_minus - w
    bp = [0.0, w, w + p_plus, 2 * w + p_plus, 3 * w + p_plus,
          3 * w + p_plus + p_minus, TWO_PI]
    kv = [0.0, v_max, v_max, 0.0, v_min, v_min, 0.0]
    return np.interp(np.mod(tau, TWO_PI), bp, kv)


def phi(doc: dict, tau) -> np.ndarray:
    """phi of a whole idexpr/1 tree."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    out = np.zeros_like(tau)
    for sign, node in leaves(doc):
        out += sign * phi_values(node, tau)
    return out


def phi_range(doc: dict) -> tuple[float, float]:
    """Bounds of phi over all tau >= 0 (sum of per-leaf bounds)."""
    lo = hi = 0.0
    for sign, node in leaves(doc):
        v = node["variant"]
        if v == "constant":
            a = b = float(node["c"])
        elif v in ("log_sine", "log_log_sine"):
            a, b = node["offset"] - node["amplitude"], node["offset"] + node["amplitude"]
        elif v == "log_sine_avg_preimage":
            half = node["amplitude"] * math.hypot(1.0, node["m"] / node["n"])
            a, b = node["offset"] - half, node["offset"] + half
        elif v == "periodic_zero_mean":
            a, b = node["v_min"], node["v_max"]
        elif v == "bump_train":
            a = node["baseline"] + min(node["height"], 0.0)
            b = node["baseline"] + max(node["height"], 0.0)
        else:
            raise ValueError(f"no range rule for variant {v!r}")
        if sign < 0:
            a, b = -b, -a
        lo += a
        hi += b
    return lo, hi


# ---------------------------------------------------------------------------
# u(0, t)


def _slow_u(nodes: list[tuple[float, dict]], n: int, root: float,
            h: float = 0.02) -> float:
    """coeff * int exp(-e^{2x}) e^{n x} phi(root e^x) dx by the trapezoid rule.

    The grid runs from where e^{n x} < 1e-19 to where exp(-e^{2x}) < 1e-300.
    """
    x = np.arange(-44.0 / n, 3.5, h)
    z = np.exp(x)
    weight = np.exp(-z * z + n * x)
    vals = np.zeros_like(x)
    for sign, node in nodes:
        vals += sign * phi_values(node, root * z)
    return data_coefficient(n) * h * float(np.sum(weight * vals))


def _wave_bound(node: dict, n: int, root: float) -> float:
    """|coeff int z^{n-1} e^{-z^2} w(root z) dz| <= coeff max|W| TV(f) / root.

    One integration by parts against W, the running integral of the wave;
    TV(f) is the total variation of f = z^{n-1} e^{-z^2} on (0, inf).
    """
    if n == 1:
        tv = 1.0
    else:
        zs = 0.5 * (n - 1)
        tv = 2.0 * zs ** zs * math.exp(-zs)
    w_max = wave_primitive_max(node["v_max"], node["v_min"], node["ramp_width"])
    return data_coefficient(n) * w_max * tv / root


def _bump_enclosure(node: dict, n: int, root: float) -> tuple[float, float]:
    """[lo, hi] for coeff * sum_c int tri_c(root z) z^{n-1} e^{-z^2} dz.

    Each unit triangle has area half_width / root in z; the weight is
    unimodal, so its range over the support bounds the bump's integral.
    The baseline is added exactly.
    """
    hw = node["half_width"]
    cs = bump_centers(node)
    with np.errstate(over="ignore"):  # far centers at small t: z = inf, weight 0
        lo_z = np.maximum(cs - hw, 0.0) / root
        hi_z = (cs + hw) / root

    def f(z):
        # beyond z = 40 the weight is below 1e-690: zero in double precision
        z = np.minimum(z, 40.0)
        return np.where(z < 40.0, z ** (n - 1) * np.exp(-z * z), 0.0)

    z_peak = math.sqrt(0.5 * (n - 1))
    f_max = f(np.clip(z_peak, lo_z, hi_z))
    f_min = np.minimum(f(lo_z), f(hi_z))
    area = hw / root
    coeff = data_coefficient(n)
    small = coeff * area * float(np.sum(f_min))
    large = coeff * area * float(np.sum(f_max))
    h = node["height"]
    pair = (h * small, h * large) if h > 0 else (h * large, h * small)
    return node["baseline"] + pair[0], node["baseline"] + pair[1]


def u_enclosure(doc: dict, n: int, t: float) -> tuple[float, float]:
    """Interval that contains u(0, t), to within the trapezoid-rule error."""
    root = math.sqrt(4.0 * t)
    slow = []
    lo = hi = 0.0
    for sign, node in leaves(doc):
        v = node["variant"]
        if v == "constant":
            lo += sign * node["c"]
            hi += sign * node["c"]
        elif v == "periodic_zero_mean":
            b = _wave_bound(node, n, root)
            lo -= b
            hi += b
        elif v == "bump_train":
            a, b = _bump_enclosure(node, n, root)
            if sign < 0:
                a, b = -b, -a
            lo += a
            hi += b
        else:
            slow.append((sign, node))
    if slow:
        s = _slow_u(slow, n, root)
        lo += s
        hi += s
    return lo, hi


def envelope(doc: dict, n: int, t: float) -> float | None:
    """Limiting profile of u(0, t); None when the content is bumps alone."""
    y = 0.5 * math.log(4.0 * t)
    total = 0.0
    slow_seen = bumps_seen = False
    for sign, node in leaves(doc):
        v = node["variant"]
        if v == "constant":
            total += sign * node["c"]
        elif v in ("log_sine", "log_sine_avg_preimage"):
            slow_seen = True
            if v == "log_sine":
                a, b = kernel_pair(n, node["m"], "data")
            else:
                a, b = kernel_pair(node["n"], node["m"], "average")
            m = node["m"]
            total += sign * (node["amplitude"] * (a * math.sin(m * y) + b * math.cos(m * y))
                             + node["offset"])
        elif v == "log_log_sine":
            if y <= 0.0:
                return None  # sin(log y) needs log sqrt(4t) > 0
            slow_seen = True
            total += sign * (node["amplitude"] * math.sin(math.log(y)) + node["offset"])
        elif v == "bump_train":
            bumps_seen = True
            total += sign * node["baseline"]
    if bumps_seen and not slow_seen:
        return None
    return total


def closed_average(doc: dict, n: int, tau: float) -> float | None:
    """Closed-form ball average when every leaf is a preimage or a constant."""
    total = 0.0
    for sign, node in leaves(doc):
        v = node["variant"]
        if v == "constant":
            total += sign * node["c"]
        elif v == "log_sine_avg_preimage" and node["n"] == n:
            total += sign * (node["amplitude"] * math.sin(node["m"] * math.log1p(tau))
                             + node["offset"])
        else:
            return None
    return total


# ---------------------------------------------------------------------------
# Probe-table checks


def check_u_row(doc: dict, n: int, row: dict) -> list[str]:
    """Problems with one row of probe_u.csv; an empty list means it passed."""
    errors = []
    t, u = row["t"], row["u_origin"]
    if abs(row["log_sqrt4t"] - 0.5 * math.log(4.0 * t)) > EVAL_TOL:
        errors.append(f"log_sqrt4t {row['log_sqrt4t']!r} at t={t!r}")
    lo, hi = u_enclosure(doc, n, t)
    if not (lo - U_TOL <= u <= hi + U_TOL):
        errors.append(f"u={u!r} outside reference [{lo!r}, {hi!r}] at t={t!r}")
    p_lo, p_hi = phi_range(doc)
    if not (p_lo - MAX_PRINCIPLE_SLACK <= u <= p_hi + MAX_PRINCIPLE_SLACK):
        errors.append(f"u={u!r} breaks the maximum principle [{p_lo}, {p_hi}] at t={t!r}")
    env = envelope(doc, n, t)
    if env is None:
        if row["envelope"] is not None or row["abs_gap"] is not None:
            errors.append(f"envelope given where none is defined, at t={t!r}")
    elif row["envelope"] is None or abs(row["envelope"] - env) > EVAL_TOL * max(1.0, abs(env)):
        errors.append(f"envelope {row['envelope']!r} != {env!r} at t={t!r}")
    elif abs(row["abs_gap"] - abs(u - row["envelope"])) > EVAL_TOL:
        errors.append(f"abs_gap {row['abs_gap']!r} at t={t!r}")
    return errors


def check_h_row(doc: dict, n: int, row: dict) -> list[str]:
    """Problems with one row of probe_phi.csv."""
    errors = []
    tau = row["tau"]
    ref_phi = float(phi(doc, tau)[0])
    if abs(row["phi"] - ref_phi) > EVAL_TOL * max(1.0, abs(ref_phi)):
        errors.append(f"phi={row['phi']!r} != {ref_phi!r} at tau={tau!r}")
    h = row["H_numeric"]
    p_lo, p_hi = phi_range(doc)
    if not (p_lo - MAX_PRINCIPLE_SLACK <= h <= p_hi + MAX_PRINCIPLE_SLACK):
        errors.append(f"H={h!r} outside the data range [{p_lo}, {p_hi}] at tau={tau!r}")
    ref_h = closed_average(doc, n, tau)
    if ref_h is not None:
        if abs(h - ref_h) > H_TOL:
            errors.append(f"H={h!r} != closed form {ref_h!r} at tau={tau!r}")
        if row["H_closed"] is None or abs(row["H_closed"] - ref_h) > EVAL_TOL:
            errors.append(f"H_closed={row['H_closed']!r} != {ref_h!r} at tau={tau!r}")
    return errors


# ---------------------------------------------------------------------------
# Certificate and report checks


@functools.cache
def two_mode_quadruple() -> tuple[float, float, float, float]:
    """(H_lo, u_lo, u_hi, H_hi) of H = sin x + sin 2x in dimension 1.

    The solution envelope is sum_j a_j sin(j y) + b_j cos(j y) with the
    average-kernel moments at m = 1, 2.
    """
    x = np.linspace(0.0, TWO_PI, 400_001)
    h = np.sin(x) + np.sin(2.0 * x)
    a1, b1 = kernel_pair(1, 1.0, "average")
    a2, b2 = kernel_pair(1, 2.0, "average")
    u = a1 * np.sin(x) + b1 * np.cos(x) + a2 * np.sin(2.0 * x) + b2 * np.cos(2.0 * x)
    return float(h.min()), float(u.min()), float(u.max()), float(h.max())


@functools.cache
def two_mode_phi_band() -> tuple[float, float]:
    """Band of phi = H + tau H' for H = sin x + sin 2x, n = 1, x = log(tau+1)."""
    x = np.linspace(0.0, TWO_PI, 400_001)
    p = np.sin(x) + np.sin(2.0 * x) + np.cos(x) + 2.0 * np.cos(2.0 * x)
    return float(p.min()), float(p.max())


def check_report(report: dict, target: dict) -> list[str]:
    """Measured bands against the requested target, plus the chain.

    target holds 'kind' ('data' or 'average'), 'quad' (the requested
    quadruple) and, for average targets, 'phi_band', the data band the
    construction implies.
    """
    errors = []
    tol = report["tol_band"]
    phi_b = report["measured_phi_band"]
    h_b = report["measured_H_band"]
    u_b = report["measured_u_band"]
    lo_q, a, b, hi_q = target["quad"]

    def near(name, band, lo, hi):
        if abs(band["lower_est"] - lo) > tol or abs(band["upper_est"] - hi) > tol:
            errors.append(f"{name} band [{band['lower_est']!r}, {band['upper_est']!r}] "
                          f"not within {tol} of [{lo!r}, {hi!r}]")

    if target["kind"] == "data":
        near("phi", phi_b, lo_q, hi_q)
    else:
        near("H", h_b, lo_q, hi_q)
        near("phi", phi_b, *target["phi_band"])
    if report["u_partial"]:
        if u_b["lower_est"] < a - tol or u_b["upper_est"] > b + tol:
            errors.append(f"partial u band [{u_b['lower_est']!r}, {u_b['upper_est']!r}] "
                          f"not inside [{a!r}, {b!r}] +- {tol}")
    else:
        near("u", u_b, a, b)
    chain = (phi_b["lower_est"], h_b["lower_est"], u_b["lower_est"],
             u_b["upper_est"], h_b["upper_est"], phi_b["upper_est"])
    if not all(left <= right + tol for left, right in zip(chain, chain[1:])):
        errors.append(f"measured chain {chain} out of order at tolerance {tol}")
    if not report["chain_ok"]:
        errors.append("report says chain_ok = false")
    return errors


def check_m_used(m_used, n: int, ratio: float | None, flavor: str | None) -> list[str]:
    """m_used must solve |Gamma(x + i m/2)| / Gamma(x) = ratio."""
    if ratio is None:
        return [] if m_used is None else [f"unexpected m_used {m_used!r}"]
    if m_used is None:
        return ["m_used missing"]
    got = kernel_norm(n, m_used, flavor)
    if abs(got - ratio) > RATIO_TOL:
        return [f"moment norm at m_used={m_used!r} is {got!r}, wanted {ratio!r}"]
    return []
