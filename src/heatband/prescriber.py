"""Turn band prescriptions into concrete initial data with certificates.

Two prescription families:

  * average-side: given p < u_lo < u_hi < q with p + q = u_lo + u_hi, build
    data whose ball average oscillates exactly between (p, q) and whose
    origin solution oscillates between (u_lo, u_hi);
  * data-side: given r <= u_lo <= u_hi <= s, build data oscillating between
    (r, s) with origin solution oscillating between (u_lo, u_hi), covering
    every ordering/equality pattern via a construction dispatch.

Each construction returns a PrescriptionCertificate carrying the expression,
the analytic bands it guarantees, and a tag naming the construction; numeric
verification of certificates lives in solution_probe, deliberately separate
from construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import (TWO_PI, DomainError, UnsupportedExpression, _dumps, _loads, _plain,
                     check_finite)
from .initial_data import (
    BumpTrain,
    Constant,
    DoubleExpCenters,
    GeometricCenters,
    InitialDataExpr,
    LogLogSine,
    LogSine,
    LogSineAvgPreimage,
    PeriodicZeroMean,
    Sum,
    TrigPolynomial,
    _split_leaves,
    analytic_band_phi,
    from_json as expr_from_json,
    negate,
    phi_from_H,
    to_json as expr_to_json,
)
from .kernel_moments import (
    KernelFlavor,
    _M_FLOOR,
    _SWEEP_PERIODS,
    _SWEEP_T_ANCHOR,
    _X_CAP,
    check_dimension,
    check_time,
    kernel_moments,
    solve_m,
)

__all__ = [
    "AverageQuad",
    "DataQuad",
    "PrescriptionTarget",
    "PrescriptionCertificate",
    "prescribe_average",
    "prescribe_data",
    "lemma_not_example",
    "envelope_u",
    "balanced_ramp_width",
    "cert_to_json",
    "cert_from_json",
    "cert_dumps",
    "cert_loads",
    "CERT_SCHEMA_ID",
]

CERT_SCHEMA_ID = "cert/1"

# equality of prescribed values is decided at this relative scale
_EQ_TOL = 1e-12


def _sweepable_m(n: int, ratio: float, flavor: KernelFlavor) -> float:
    """solve_m, refusing a frequency too low for the u sweep of verify."""
    m = solve_m(n, ratio, flavor)
    if m < _M_FLOOR:
        raise DomainError(
            f"mode frequency {m:.4g} is below {_M_FLOOR:.4g}: the u sweep of verify "
            f"(log sqrt(4t) from t = {_SWEEP_T_ANCHOR:g} up to {_X_CAP:g}) cannot "
            f"cover {_SWEEP_PERIODS:g} of its periods")
    return m


def _scale(*values) -> float:
    return max(1.0, *(abs(v) for v in values))


@dataclass(frozen=True)
class AverageQuad:
    """Average-side prescription: ball average band (avg_lower, avg_upper),
    origin-solution band (sol_lower, sol_upper)."""

    avg_lower: float
    sol_lower: float
    sol_upper: float
    avg_upper: float

    def __post_init__(self):
        check_finite(avg_lower=self.avg_lower, sol_lower=self.sol_lower,
                     sol_upper=self.sol_upper, avg_upper=self.avg_upper)
        if not (self.avg_lower < self.sol_lower < self.sol_upper < self.avg_upper):
            raise DomainError(
                "average-side prescription needs strictly increasing values "
                f"avg_lower < sol_lower < sol_upper < avg_upper, got "
                f"({self.avg_lower}, {self.sol_lower}, {self.sol_upper}, "
                f"{self.avg_upper})")


@dataclass(frozen=True)
class DataQuad:
    """Data-side prescription: initial-data band (data_lower, data_upper),
    origin-solution band (sol_lower, sol_upper)."""

    data_lower: float
    sol_lower: float
    sol_upper: float
    data_upper: float

    def __post_init__(self):
        check_finite(data_lower=self.data_lower, sol_lower=self.sol_lower,
                     sol_upper=self.sol_upper, data_upper=self.data_upper)
        if not (self.data_lower <= self.sol_lower <= self.sol_upper
                <= self.data_upper):
            raise DomainError(
                "data-side prescription needs ordered values "
                f"data_lower <= sol_lower <= sol_upper <= data_upper, got "
                f"({self.data_lower}, {self.sol_lower}, {self.sol_upper}, "
                f"{self.data_upper})")


@dataclass(frozen=True)
class PrescriptionTarget:
    kind: AverageQuad | DataQuad
    n: int

    def __post_init__(self):
        if not isinstance(self.kind, (AverageQuad, DataQuad)):
            raise DomainError(
                f"kind must be AverageQuad or DataQuad, got {type(self.kind).__name__}")
        check_dimension(self.n)


@dataclass(frozen=True)
class PrescriptionCertificate:
    """A constructed expression plus the limit values it guarantees.

    expected_H_band is None when the construction does not pin the ball
    average band analytically (the single-mode and mode-plus-wave data
    constructions); every present band is analytic, never estimated.
    """

    target: PrescriptionTarget
    data: InitialDataExpr
    construction_tag: str
    m_used: float | None
    expected_phi_band: tuple[float, float]
    expected_H_band: tuple[float, float] | None
    expected_u_band: tuple[float, float]

    def __post_init__(self):
        for name, cls in (("target", PrescriptionTarget), ("data", InitialDataExpr),
                          ("construction_tag", str)):
            if not isinstance(value := getattr(self, name), cls):
                raise DomainError(f"{name} must be a {cls.__name__}, got {value!r}")
        if self.m_used is not None:
            check_finite(m_used=self.m_used)
        object.__setattr__(self, "expected_phi_band",
                           _checked_band(self.expected_phi_band, "expected_phi_band"))
        object.__setattr__(self, "expected_u_band",
                           _checked_band(self.expected_u_band, "expected_u_band"))
        if self.expected_H_band is not None:
            object.__setattr__(self, "expected_H_band",
                               _checked_band(self.expected_H_band, "expected_H_band"))
        chain = self._expected_chain  # holds up to a relative slack of 1e-9
        slack = 1e-9 * _scale(*chain)
        for left, right in zip(chain, chain[1:]):
            if left > right + slack:
                raise DomainError(
                    f"certificate band chain violated: {left} > {right} "
                    f"(chain {list(chain)})")

    @property
    def _expected_chain(self) -> tuple[float, ...]:
        """r <= p <= u_lo <= u_hi <= q <= s on the pinned bands: 4 values, or
        6 when the ball average band is pinned."""
        (r, s), (u_lo, u_hi) = self.expected_phi_band, self.expected_u_band
        if self.expected_H_band is None:
            return (r, u_lo, u_hi, s)
        p, q = self.expected_H_band
        return (r, p, u_lo, u_hi, q, s)


def _check_cert(cert) -> None:
    if not isinstance(cert, PrescriptionCertificate):
        raise DomainError(f"cert must be a PrescriptionCertificate, got {type(cert).__name__}")


def _checked_band(band, name) -> tuple[float, float]:
    try:
        lo, hi = band
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a (lower, upper) pair, got {band!r}")
    check_finite(**{f"{name}[0]": lo, f"{name}[1]": hi})
    if lo > hi:
        raise DomainError(f"{name} must be an ordered finite pair, got {band!r}")
    return (float(lo), float(hi))


def _certificate(target: PrescriptionTarget, tag: str, data: InitialDataExpr,
                 h_band: tuple[float, float] | None,
                 m_used: float | None = None) -> PrescriptionCertificate:
    """A construction's certificate: the analytic data band, the target's
    solution band.  + 0.0 turns a negative zero, an accident of the float
    order (e.g. -(baseline + height) = -0.0), into 0.0 in the cert/1 bytes."""
    return PrescriptionCertificate(
        target=target, data=data, construction_tag=tag, m_used=m_used,
        expected_phi_band=tuple(end + 0.0 for end in analytic_band_phi(data)),
        expected_H_band=h_band,
        expected_u_band=(target.kind.sol_lower, target.kind.sol_upper))


# ---------------------------------------------------------------------------
# Average-side prescription


def prescribe_average(avg_lower: float, sol_lower: float, sol_upper: float,
                      avg_upper: float, n: int) -> PrescriptionCertificate:
    """Data whose ball average oscillates in (avg_lower, avg_upper) and whose
    origin solution oscillates in (sol_lower, sol_upper).

    Requires the symmetry avg_lower + avg_upper = sol_lower + sol_upper: both
    bands share one midline, and a single log-sine average with the root-solved
    frequency realizes the inner band exactly.  Asymmetric prescriptions are
    out of this construction's reach (see lemma_not_example for the one
    asymmetric instance with computed, not prescribed, values).
    """
    check_finite(avg_lower=avg_lower, sol_lower=sol_lower,
                 sol_upper=sol_upper, avg_upper=avg_upper)
    if avg_lower == sol_lower or avg_upper == sol_upper:
        raise DomainError(
            "the full-width case avg_lower = sol_lower (oscillation surviving "
            "averaging at full amplitude) is a known prior construction, out "
            "of scope here; this prescription needs a strictly inner solution "
            "band")
    target = PrescriptionTarget(
        AverageQuad(avg_lower, sol_lower, sol_upper, avg_upper), n)

    scale = _scale(avg_lower, sol_lower, sol_upper, avg_upper)
    if abs((avg_lower + avg_upper) - (sol_lower + sol_upper)) > _EQ_TOL * scale:
        raise DomainError(
            "prescription violates the symmetry condition p + q = alpha + beta "
            f"(avg_lower + avg_upper = {avg_lower + avg_upper} but sol_lower + "
            f"sol_upper = {sol_lower + sol_upper}); asymmetric average-side "
            "bands are not constructible here")

    ratio = (sol_upper - sol_lower) / (avg_upper - avg_lower)
    m_star = _sweepable_m(n, ratio, KernelFlavor.AVERAGE)
    data = LogSineAvgPreimage((avg_upper - avg_lower) / 2.0, m_star,
                              (avg_upper + avg_lower) / 2.0, n)
    return _certificate(target, "average-single-mode", data, (avg_lower, avg_upper), m_star)


# ---------------------------------------------------------------------------
# Data-side prescription


def prescribe_data(data_lower: float, sol_lower: float, sol_upper: float,
                   data_upper: float, n: int) -> PrescriptionCertificate:
    """Data oscillating in (data_lower, data_upper) with origin solution
    oscillating in (sol_lower, sol_upper), for any ordered quadruple.

    Dispatch by the equality pattern and by which side of the midline
    identity data_lower + data_upper = sol_lower + sol_upper the quadruple
    falls on; the short side is handled by reflecting the whole prescription
    through zero, constructing, and negating the result.
    """
    r, a, b, s = data_lower, sol_lower, sol_upper, data_upper
    target = PrescriptionTarget(DataQuad(r, a, b, s), n)  # validates values and ordering

    scale = _scale(r, a, b, s)
    tol = _EQ_TOL * scale

    def close(x, y):
        return abs(x - y) <= tol

    if close(r, a) and close(a, b) and close(b, s):
        return _certificate(target, "data-constant", Constant(a), (a, a))

    if (a + b) - (r + s) > tol:
        # solution band sits above the data band's midline: reflect through
        # zero, construct on the mirrored quadruple, and negate pointwise
        inner = prescribe_data(-s, -b, -a, -r, n)
        h_band = inner.expected_H_band
        return _certificate(target, inner.construction_tag + "-reflected", negate(inner.data),
                            None if h_band is None else (-h_band[1], -h_band[0]), inner.m_used)

    if close(r, a) and close(b, s):
        # both ends touch: slow oscillation passes through averaging untouched
        return _certificate(target, "data-slow-oscillation",
                            LogLogSine((b - a) / 2.0, (b + a) / 2.0), (a, b))

    if close(r, a) and close(a, b):
        # solution pinned at the bottom: sparse upward bumps leave the
        # average (hence the solution) at the baseline
        data = BumpTrain(height=s - a, half_width=0.5, baseline=a,
                         centers=GeometricCenters(math.e))
        return _certificate(target, "data-sparse-bumps", data, (a, a))

    if close(r, a):
        # bottom end touches: slow oscillation realizes (a, b), and bumps
        # pinned to its crests lift the data top to s without moving the
        # solution band
        slow = LogLogSine((b - a) / 2.0, (b + a) / 2.0)
        bumps = BumpTrain(height=s - b, half_width=1.0, baseline=0.0,
                          centers=DoubleExpCenters("peak"))
        return _certificate(target, "data-slow-plus-bumps", Sum((slow, bumps)), (a, b))

    if close(a, b):
        # solution band collapses to a point: a zero-mean fast wave spans
        # (r, s) around that point and averages away entirely
        v_max, v_min = s - a, r - a
        wave = PeriodicZeroMean(v_max, v_min, balanced_ramp_width(v_max, v_min))
        return _certificate(target, "data-wave-plus-constant", Sum((wave, Constant(a))), (a, a))

    # strictly interior solution band from here on: r < a < b < s
    if abs((r + s) - (a + b)) <= tol:
        m_star = _sweepable_m(n, (b - a) / (s - r), KernelFlavor.DATA)
        return _certificate(target, "data-single-mode",
                            LogSine((s - r) / 2.0, m_star, (s + r) / 2.0), None, m_star)

    # midline surplus on the data side: shrink the mode to a symmetric
    # sub-quadruple (r + eps, a, b, delta) and add a zero-mean wave
    # stretching the data band back out to (r, s)
    lam = a + b - r
    eps = min(a - r, lam - b) / 2.0
    delta = lam - eps
    m_star = _sweepable_m(n, (b - a) / (delta - (r + eps)), KernelFlavor.DATA)
    mode = LogSine((delta - r - eps) / 2.0, m_star, (delta + r + eps) / 2.0)
    v_max, v_min = s - delta, -eps
    wave = PeriodicZeroMean(v_max, v_min, balanced_ramp_width(v_max, v_min))
    return _certificate(target, "data-mode-plus-wave", Sum((mode, wave)), None, m_star)


def balanced_ramp_width(v_max: float, v_min: float) -> float:
    """Ramp width keeping both plateaus of the zero-mean trapezoid positive.

    The default pi/8 fails when the extremes are lopsided (a tall narrow
    spike must balance a long shallow plateau); the positive plateau needs
    w <= 2 pi (-v_min) / (v_max - 3 v_min) and the negative plateau needs
    w <= 2 pi v_max / (3 v_max - v_min).  Half the tighter bound keeps both
    strictly positive.
    """
    check_finite(v_max=v_max, v_min=v_min)
    if not (v_max > 0 > v_min):
        raise DomainError(f"need v_max > 0 > v_min, got ({v_max}, {v_min})")
    w_plus = TWO_PI * (-v_min) / (v_max - 3.0 * v_min)
    w_minus = TWO_PI * v_max / (3.0 * v_max - v_min)
    return min(math.pi / 8.0, w_plus / 2.0, w_minus / 2.0)


# ---------------------------------------------------------------------------
# The asymmetric two-mode example


def lemma_not_example() -> PrescriptionCertificate:
    """The two-mode average showing the solution band need not share the
    average band's midline.

    H = sin(log(tau+1)) + sin(2 log(tau+1)) in dimension 1 has a symmetric
    band, but the origin solution's envelope mixes each mode with its own
    kernel phase shift, and the resulting band is measurably asymmetric:
    avg_lower + avg_upper = 0 while sol_lower + sol_upper is about -0.0412.
    The average band is analytic_band_phi of H, the trig profile of its modes.
    """
    n = 1
    h_expr = Sum((LogSine(1.0, 1.0, 0.0), LogSine(1.0, 2.0, 0.0)))
    data = phi_from_H(h_expr, n)

    h_lo, h_hi = analytic_band_phi(h_expr)

    mom1 = kernel_moments(n, 1.0, KernelFlavor.AVERAGE)
    mom2 = kernel_moments(n, 2.0, KernelFlavor.AVERAGE)
    envelope = TrigPolynomial(0.0,
                              (mom1.b_value, mom2.b_value),
                              (mom1.a_value, mom2.a_value))
    u_lo, u_hi = envelope.extrema()

    target = PrescriptionTarget(AverageQuad(h_lo, u_lo, u_hi, h_hi), n)
    return _certificate(target, "average-two-mode-example", data, (h_lo, h_hi))


# ---------------------------------------------------------------------------
# Asymptotic envelope of the origin solution


def envelope_u(cert: PrescriptionCertificate, t: float) -> float:
    """Asymptotic envelope of u(0, t) for a certificate's construction.

    The sum over the signed leaves of each leaf's limit rule limit_u at
    y = log sqrt(4t) in the certificate's dimension.  A certificate whose
    oscillating content is bump trains alone has no envelope formula.
    """
    _check_cert(cert)
    check_time(t)
    y, n = 0.5 * math.log(4.0 * t), cert.target.n
    leaves = _split_leaves(cert.data)
    if leaves.bumps and not leaves.slows:
        raise UnsupportedExpression(
            "certificate's oscillating content is bump trains alone; their "
            "origin-solution spikes have no closed envelope formula")
    value = 0.0
    for sign, leaf in leaves.signed:
        value += sign * leaf.limit_u(y, n)
    return float(value)


# ---------------------------------------------------------------------------
# Certificate serialization (schema cert/1)


_QUADS = {"average": AverageQuad, "data": DataQuad}


def cert_to_json(cert: PrescriptionCertificate) -> dict:
    """The cert/1 document: the fields, the data as idexpr/1 and the target flattened."""
    _check_cert(cert)
    quad = cert.target.kind
    kind = next(kind for kind, cls in _QUADS.items() if isinstance(quad, cls))
    doc = {f.name: _plain(getattr(cert, f.name)) for f in fields(cert)
           if f.name not in ("target", "data")}
    doc.update(schema=CERT_SCHEMA_ID, data=expr_to_json(cert.data),
               target={"kind": kind, "n": cert.target.n, **_plain(quad)})
    return doc


def _field(doc: dict, key: str, where: str):
    if key not in doc:
        raise DomainError(f"{where} lacks the field {key!r}")
    return doc[key]


def cert_from_json(doc) -> PrescriptionCertificate:
    """Certificate from a cert/1 document; any malformed part is a DomainError.

    The structure is checked here; the target values, the dimension, m_used
    and the bands are checked by the dataclasses they build.
    """
    if not isinstance(doc, dict):
        raise DomainError(
            f"a {CERT_SCHEMA_ID} document must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != CERT_SCHEMA_ID:
        raise DomainError(
            f"expected schema {CERT_SCHEMA_ID!r}, got {doc.get('schema')!r}")
    tdoc = _field(doc, "target", "certificate")
    if not isinstance(tdoc, dict):
        raise DomainError(f"certificate target must be an object, got {tdoc!r}")
    kind = tdoc.get("kind")
    if not isinstance(kind, str) or kind not in _QUADS:
        raise DomainError(f"unknown target kind {kind!r}")
    quad = _QUADS[kind](*(_field(tdoc, f.name, "target") for f in fields(_QUADS[kind])))
    args = {"target": PrescriptionTarget(quad, _field(tdoc, "n", "target"))}
    for f in fields(PrescriptionCertificate):
        if f.name != "target":
            value = _field(doc, f.name, "certificate")
            args[f.name] = expr_from_json(value) if f.name == "data" else value
    return PrescriptionCertificate(**args)


def cert_dumps(cert: PrescriptionCertificate) -> str:
    return _dumps(cert_to_json(cert))


def cert_loads(text: str) -> PrescriptionCertificate:
    return cert_from_json(_loads(text, CERT_SCHEMA_ID))
