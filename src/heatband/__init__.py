"""heatband: radial heat-equation initial data with prescribed oscillation bands.

Construct radial initial data phi(|x|) on R^n whose liminf/limsup, ball
average, and induced solution value at the origin realize prescribed
asymptotic bands, and verify each prescription numerically.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    HeatbandError,
    PartialBandError,
    RangeError,
    SearchFailure,
    UnsupportedExpression,
)
from .initial_data import (
    BumpTrain,
    Constant,
    DoubleExpCenters,
    GeometricCenters,
    InitialDataExpr,
    LogLogSine,
    LogSine,
    LogSineAvgPreimage,
    Negate,
    PeriodicOfLog,
    PeriodicZeroMean,
    SlowFromPeriodic,
    Sum,
    TrapezoidWave,
    TrigPolynomial,
    analytic_band_phi,
    band_witnesses,
    closed_H,
    eval_phi,
    numeric_H,
    phi_from_H,
    sup_abs_phi,
)
from .kernel_moments import (
    MAX_DIMENSION,
    KernelFlavor,
    MomentPair,
    kernel_moments,
    moment_norm,
    solve_m,
    unit_ball_volume,
)
from .prescriber import (
    AverageQuad,
    DataQuad,
    PrescriptionCertificate,
    PrescriptionTarget,
    balanced_ramp_width,
    cert_dumps,
    cert_from_json,
    cert_loads,
    cert_to_json,
    envelope_u,
    lemma_not_example,
    prescribe_average,
    prescribe_data,
)
from .solution_probe import (
    OscillationBand,
    VerificationReport,
    band_estimate,
    report_dumps,
    report_to_json,
    u_offcenter_1d,
    u_origin,
    u_origin_from_H,
    verify_certificate,
)
from .quadrature import (
    IntegralResult,
    integrate_interval,
    integrate_log_oscillatory,
    integrate_weighted,
)

__version__ = "0.1.0"
