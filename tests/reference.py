"""High-precision references for the two integrals that heatband measures.

ref_u(expr, k, root, dps) = int_0^inf z^k e^{-z^2} phi(root z) dz, which is
u(0, t) / KernelFlavor.DATA.coefficient(n) at k = n - 1, root = sqrt(4t), and
ref_H(expr, n, tau, dps) = n tau^-n int_0^tau phi(r) r^(n-1) dr: mpmath values
in at least dps digits, rounded to floats, cached per (expression, k or n,
point, dps).  The module walks Sum and Negate itself and reads only public
fields and data of the leaves, never a route or a private helper of heatband,
so it stays independent of the code it checks.  Each leaf kind takes the most
exact method known for it: constants their closed forms; waves and bump
trains, linear piece by piece, exact Gaussian moments in u (a wave above root
200 its series by parts) and Bernoulli power sums or local hat moments in H;
leaves analytic in log tau mpmath.quad on x = log z in u and Euler integrals
of 2F1 in H (the doubly-log sine quad on s = log(r / tau)), each quad on
phi / sup |phi| so that its absolute error control holds relative to the
data however small; trapezoid profiles mpmath.quad cut at their corners.
"""

from __future__ import annotations

import functools
import itertools
import math

import mpmath

from heatband import (BumpTrain, Constant, LogLogSine, LogSine, LogSineAvgPreimage, Negate,
                      PeriodicOfLog, PeriodicZeroMean, SlowFromPeriodic, Sum, TrapezoidWave)

TWO_PI = 2.0 * math.pi  # the float period of every wave and profile
# above root 200, 40 terms of a wave's series by parts leave below 1e-40
_SERIES_ROOT, _SERIES_TERMS = 200.0, 40


def ref_u(expr, k: int, root: float, dps: int = 20) -> float:
    """int_0^inf z^k e^{-z^2} phi(root z) dz in at least dps digits."""
    return float(_walk(_leaf_u, expr, int(k), float(root), int(dps)))


def ref_H(expr, n: int, tau: float, dps: int = 20) -> float:
    """The ball average H(tau) in dimension n in at least dps digits."""
    return float(_walk(_leaf_H, expr, int(n), float(tau), int(dps)))


def ref_gaussian_tail(k: int, z: float, dps: int = 30) -> float:
    """int_z^inf t^k e^{-t^2} dt = Gamma((k+1)/2, z^2) / 2."""
    with mpmath.workdps(dps):
        return float(_gamma_tail(k, z))


def _gamma_tail(k, z):
    return mpmath.gammainc(mpmath.mpf(k + 1) / 2, mpmath.mpf(z) ** 2) / 2


@functools.lru_cache(maxsize=None)
def _walk(leaf_rule, expr, p, point, dps):
    with mpmath.workdps(dps):
        if isinstance(expr, Negate):
            return -_walk(leaf_rule, expr.term, p, point, dps)
        if isinstance(expr, Sum):
            return mpmath.fsum(_walk(leaf_rule, term, p, point, dps) for term in expr.terms)
        return leaf_rule(expr, p, point, dps)


def _leaf_u(expr, k, root, dps):
    if isinstance(expr, Constant):
        return expr.c * _gamma_tail(k, 0)
    if isinstance(expr, PeriodicZeroMean) and root > _SERIES_ROOT:
        return _wave_series_u(expr.wave, k, root)
    if isinstance(expr, (PeriodicZeroMean, BumpTrain)):
        # sup |phi| + |baseline| bounds the bumps above their baseline too
        baseline = getattr(expr, "baseline", 0.0)
        cut = _cut(k, expr.sup_abs() + abs(baseline), dps) * root
        return baseline * _gamma_tail(k, 0) + _pieces_u(_pieces_of(expr, cut), k, root, dps)
    if isinstance(getattr(expr, "g", None), TrapezoidWave):
        return _corner_split(expr, root, lambda x: mpmath.exp((k + 1) * x - mpmath.exp(2 * x)), 4)
    phi, omega = _analytic(expr)
    # from e^{(k+1)x} = 1e-(dps+2) to x = 3, in pieces shorter than a third of a period;
    # mpmath.quad controls the absolute error, so it integrates phi / sup |phi|
    lo, hi = -math.log(10.0) * (dps + 2) / (k + 1), 3.0
    cuts = mpmath.linspace(lo, hi, max(8, math.ceil((hi - lo) * omega / 2)) + 1)
    scale = expr.sup_abs() or 1.0
    return scale * mpmath.quad(lambda x: mpmath.exp((k + 1) * x - mpmath.exp(2 * x))
                               * phi(root * mpmath.exp(x)) / scale, cuts, method="gauss-legendre")


def _leaf_H(expr, n, tau, dps):
    t = mpmath.mpf(tau)
    if isinstance(expr, Constant):
        return mpmath.mpf(expr.c)
    if isinstance(expr, PeriodicZeroMean):
        return _wave_H(expr.wave, n, t)
    if isinstance(expr, BumpTrain):
        return expr.baseline + _bumps_H(expr, n, t)
    if isinstance(getattr(expr, "g", None), TrapezoidWave):
        return _corner_split(expr, tau, lambda s: n * mpmath.exp(n * s), 0)
    if isinstance(expr, LogLogSine):
        lo = -math.log(10.0) * (dps + 2) / n  # the tail below weighs e^{n lo}
        phi, scale = _analytic(expr)[0], expr.sup_abs()
        return n * scale * mpmath.quad(lambda s: phi(t * mpmath.exp(s)) / scale
                                       * mpmath.exp(n * s), mpmath.linspace(lo, 0, 9))
    # the averages of e^{i f L} and (r / (r + 1)) e^{i f L} are the Euler integrals (DLMF
    # 15.6.1) 2F1(-i f, n; n + 1; -tau) and n tau / (n + 1) 2F1(1 - i f, n + 1; n + 2; -tau)
    const, modes, slope = _modes(expr)
    out = mpmath.mpf(const)
    for f, c, s in modes:
        plain = mpmath.hyp2f1(-1j * f, n, n + 1, -t)
        damped = n * t / (n + 1) * mpmath.hyp2f1(1 - 1j * f, n + 1, n + 2, -t)
        out += c * plain.real + s * plain.imag + slope * f * (s * damped.real - c * damped.imag)
    return out


def _slope(leaf):
    return mpmath.mpf(1) / leaf.n if isinstance(leaf, (LogSineAvgPreimage, SlowFromPeriodic)) else 0


def _modes(leaf):
    """(const, [(f, c, s)], slope) of a leaf const + sum c cos(f L) + s sin(f L) plus
    slope (tau / (tau + 1)) times its derivative in L, L = log(tau + 1)."""
    if isinstance(leaf, (LogSine, LogSineAvgPreimage)):
        return leaf.offset, [(leaf.m, 0.0, leaf.amplitude)], _slope(leaf)
    if isinstance(leaf, (PeriodicOfLog, SlowFromPeriodic)):
        g = leaf.g
        pairs = itertools.zip_longest(g.cos_coeffs, g.sin_coeffs, fillvalue=0.0)
        return g.const, [(j, c, s) for j, (c, s) in enumerate(pairs, start=1)], _slope(leaf)
    raise TypeError(f"no reference for {type(leaf).__name__}")


def _analytic(leaf):
    """(phi on mpmath numbers, top frequency on the log tau axis)."""
    if isinstance(leaf, LogLogSine):
        # the phase log log(tau + 2) turns at most 1 / log 2 < 1.5 a unit of log tau
        return (lambda tau: leaf.amplitude * mpmath.sin(mpmath.log(mpmath.log(tau + 2)))
                + leaf.offset), 1.5
    const, modes, slope = _modes(leaf)

    def phi(tau):
        ell, out = mpmath.log1p(tau), const
        for f, c, s in modes:
            cos, sin = mpmath.cos_sin(f * ell)
            out += c * cos + s * sin
            if slope:
                out += slope * tau / (tau + 1) * f * (s * cos - c * sin)
        return out
    return phi, max([1] + [f for f, _c, _s in modes])


def _knots(trap):
    """(start, end, start value, end value) of each piece of one period of a trapezoid."""
    bp, kv = ([mpmath.mpf(x) for x in xs] for xs in (trap.breakpoints, trap.knot_values))
    return [(bp[i], bp[i + 1], kv[i], kv[i + 1]) for i in range(len(bp) - 1) if bp[i + 1] > bp[i]]


def _corner_split(leaf, radius, weight, s_hi):
    """int_{-inf}^{s_hi} weight(s) phi(radius e^s) ds by mpmath.quad, cut where L crosses
    a corner, phi written out from each piece's formula: only analytic integrands."""
    radius, slope, period = mpmath.mpf(radius), _slope(leaf), mpmath.mpf(TWO_PI)
    pieces = _knots(leaf.g)
    ell_hi = mpmath.log1p(radius * mpmath.exp(s_hi))
    corners = sorted(period * q + start for q in range(int(ell_hi / period) + 1)
                     for start, *_ in pieces if 0 < period * q + start < ell_hi)
    cuts = [-mpmath.inf] + [mpmath.log(mpmath.expm1(c) / radius) for c in corners] + [s_hi]
    ells, total = [mpmath.mpf(0)] + corners + [ell_hi], []
    for i in range(len(cuts) - 1):
        mid = (ells[i] + ells[i + 1]) / 2
        q = mpmath.floor(mid / period)
        start, v, b = next((start, v, (w - v) / (end - start)) for start, end, v, w in pieces
                           if start <= mid - period * q <= end)

        def f(s, q=q, start=start, v=v, b=b):
            r = radius * mpmath.exp(s)
            return weight(s) * (v + b * (mpmath.log1p(r) - period * q - start)
                                + slope * b * r / (r + 1))
        total.append(mpmath.quad(f, [cuts[i], cuts[i + 1]]))
    return mpmath.fsum(total)


@functools.lru_cache(maxsize=None)
def _cut(k, sup, dps) -> float:  # a z beyond which data of sup |phi| adds below 1e-dps to u
    return next(z / 4 for z in itertools.count(4) if sup * _gamma_tail(k, z / 4) < 10.0 ** -dps)


def _pieces_of(leaf, tau_max):
    """(offset, start, end, start value, end value) of each piece over offset + [start,
    end] of a wave or of bumps above their baseline, from tau = 0 up to tau_max."""
    if isinstance(leaf, PeriodicZeroMean):
        period = mpmath.mpf(TWO_PI)
        return [(q * period, *piece) for q in range(math.ceil(tau_max / TWO_PI))
                for piece in _knots(leaf.wave)]
    h, w = leaf.height, mpmath.mpf(leaf.half_width)
    return [piece for c in leaf.centers.representable_centers().tolist() if c - w <= tau_max
            for piece in ((c, max(-w, -c), 0, h * max(0, 1 - c / w), h), (c, 0, w, h, 0))]


def _pieces_u(pieces, k, root, dps):
    """The sum over pieces, phi linear from v_a at z = a to v_b at z = b, of (v_a (b I_k -
    I_(k+1)) + v_b (I_(k+1) - a I_k)) / (b - a), I_j = T_j(a) - T_j(b), each worked in the
    log10(b / (b - a)) digits it loses, and (k + 2) log10(1 / b) more for b < 1, past dps + 10."""
    terms = []
    for offset, start, end, v_a, v_b in pieces:
        b_float = (float(offset) + float(end)) / root
        lost = math.log10(max(b_float, 1.0) * root / float(end - start)) \
            + (k + 2) * max(0.0, -math.log10(b_float))
        with mpmath.workdps(dps + 10 + math.ceil(max(lost, 0.0))):
            a, b = (offset + mpmath.mpf(start)) / root, (offset + mpmath.mpf(end)) / root
            t_a, t_b = _tails(a, k + 1), _tails(b, k + 1)
            i_k, i_next = t_a[k] - t_b[k], t_a[k + 1] - t_b[k + 1]
            terms.append((v_a * (b * i_k - i_next) + v_b * (i_next - a * i_k)) / (b - a))
    return mpmath.fsum(terms)


_TAILS: dict = {}  # (z, prec) -> [T_0(z), T_1(z), ...]: pieces and powers share them


def _tails(z, top):
    """T_j(z) = int_z^inf t^j e^{-t^2} dt for j <= top by the upward recurrence
    T_j = (j-1)/2 T_(j-2) + z^(j-1) e^{-z^2} / 2 from T_0 = sqrt(pi) erfc(z) / 2."""
    out = _TAILS.setdefault((z, mpmath.mp.prec), [])
    if not out:
        out += [mpmath.sqrt(mpmath.pi) * mpmath.erfc(z) / 2, mpmath.exp(-z * z) / 2]
    for j in range(len(out), top + 1):
        out.append((j - 1) * out[j - 2] / 2 + z ** (j - 1) * out[1])
    return out


def _wave_series_u(trap, k, root):
    """mean M_k + sum_j (-1)^j f^(j-1)(0) W_j(0) / root^j over j <= 40, f = z^k e^{-z^2},
    W_j(0) = -T^(j+1) / (j+2)! sum_i ds_i B_(j+2)(frac(-theta_i / T)), ds_i the
    slope jump at the corner theta_i."""
    pieces, period = _knots(trap), mpmath.mpf(TWO_PI)
    mean = sum((v + w) * (end - start) for start, end, v, w in pieces) / (2 * period)
    slopes = [(w - v) / (end - start) for start, end, v, w in pieces]
    jumps = [(piece[0], slopes[i] - slopes[i - 1]) for i, piece in enumerate(pieces)]
    total = mean * _gamma_tail(k, 0)
    for j in range(k + 1, _SERIES_TERMS + 1, 2):  # f^(j-1)(0) = 0 for the other j
        d = j - 1 - k
        deriv = mpmath.factorial(j - 1) * (-1) ** (d // 2) / mpmath.factorial(d // 2)
        w_j = -period ** (j + 1) / mpmath.factorial(j + 2) * sum(
            ds * mpmath.bernpoly(j + 2, mpmath.frac(-theta / period)) for theta, ds in jumps)
        total += (-1) ** j * deriv * w_j / mpmath.mpf(root) ** j
    return total


def _moment(a, b, i, lo, hi):  # int_lo^hi (a + b y) y^i dy
    return (a * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
            + b * (hi ** (i + 2) - lo ** (i + 2)) / (i + 2))


def _wave_H(trap, n, tau):
    """n tau^-n int_0^tau wave(r) r^(n-1) dr: a piece's integral over period q is a
    polynomial in q, summed over the full periods by Bernoulli polynomials."""
    period = mpmath.mpf(TWO_PI)
    full = mpmath.floor(tau / period)
    rem, total = tau - full * period, mpmath.mpf(0)
    for t0, t1, v0, v1 in _knots(trap):
        b = (v1 - v0) / (t1 - t0)
        for i in range(n):
            p = n - 1 - i
            power_sum = (mpmath.bernpoly(p + 1, full) - mpmath.bernpoly(p + 1, 0)) / (p + 1)
            whole = _moment(v0 - b * t0, b, i, t0, t1) * period ** p * power_sum
            part = _moment(v0 - b * t0, b, i, t0, max(t0, min(t1, rem))) * (full * period) ** p
            total += math.comb(n - 1, i) * (whole + part)
    return n * total / tau ** n


def _bumps_H(train, n, tau):
    """n tau^-n int_0^tau (train - baseline)(r) r^(n-1) dr piece by piece, in x = s / c
    for the offset s = r - c from the centre c: r^(n-1) = c^(n-1) sum_i C(n-1, i) x^i
    with |x| <= max(w / c, 1), so no term outgrows the integral however far tau lies."""
    total = []
    for c, start, end, v_a, v_b in _pieces_of(train, tau):
        c = mpmath.mpf(c)
        if start < min(end, tau - c):
            b = (v_b - v_a) / (end - start) * c  # the piece is v_a + b (x - start / c)
            total += [c * math.comb(n - 1, i) * (c / tau) ** (n - 1) / tau
                      * _moment(v_a - b * start / c, b, i, start / c, min(end, tau - c) / c)
                      for i in range(n)]
    return n * mpmath.fsum(total)
