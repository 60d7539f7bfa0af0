"""Numerically stable primitives shared by the accounting and optimization
modules: log-gamma, the regularized lower incomplete gamma function, the
standard normal quantile, and a composite Gauss-Legendre rule.

Everything here is pure and operates in log space where overflow is a risk;
negative infinity is the canonical encoding of an exact zero. The incomplete
gamma series is summed with the bits of the scalar term-by-term loop (tested
against that loop as an oracle). A series that a bound on its length at
(k, x) shows to be short, 64 terms or fewer (as at small k, or x far below
k), runs that loop and costs no numpy call. A longer one, near x = k at
large k, is summed by sequential numpy accumulates in one chunk sized from
that bound, so it takes a single pass; the chunks double only if the bound
fell short.
"""

from __future__ import annotations

import math

import numpy as np

LOG_ZERO = float("-inf")
_MAX_TERMS = 10_000  # series / continued-fraction cap of regularized_lower_gamma
_SCALAR_TERMS = 64  # longest series summed by the scalar loop alone
_LOG_STOP = math.log(1e17)  # the series stops at a term below 1e-17 of its sum


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Backed by the platform lgamma, which meets the <= 1e-12 relative error
    requirement on [1e-3, 1e8] with margin.
    """
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _stirling_remainder(k: float) -> float:
    """ln Gamma(k) - (k - 1/2) ln k + k - ln(2 pi) / 2, to double precision
    for k >= 1000 (the next term is below 1e-29)."""
    inv2 = 1.0 / (k * k)
    return (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0))) / k


def _series_terms(k: float, x: float) -> int:
    """An upper bound on the number of terms :func:`_lower_gamma_series`
    adds at 0 < x < k + 1, capped at 10,000 (a bound of 64 or less marks a
    short series, and may be looser).

    Term n is t_0 prod_{j<=n} x / (k + j), and the sum is at least t_0, so
    the series has stopped once that product is below 1e-17. As
    sum_{j<=n} log(1 + j/k) is at least the integral of log(1 + t/k) over
    [0, n], the product's log is at most
    f(n) = n log(x/k) - (k + n) log1p(n/k) + n, which is concave and
    decreasing for n >= 1. Newton's method from n = 10,000 then falls to
    the root of f(n) = -log(1e17) without crossing it; it stops once a step
    is below one term (about 1.1 times the series length near the c1 roots
    at large k) or n is below 64."""
    log_x, n = math.log(x), float(_MAX_TERMS)
    while True:
        f = n * (log_x - math.log(k)) - (k + n) * math.log1p(n / k) + n + _LOG_STOP
        if f > 0.0 and n == _MAX_TERMS:
            return _MAX_TERMS
        step = f / (log_x - math.log(k + n))
        n -= step
        if step < 1.0 or n <= _SCALAR_TERMS:
            return math.ceil(n)


def _lower_gamma_series(k: float, x: float) -> float:
    """sum_{n>=0} x^n / (k (k+1) ... (k+n)) for 0 < x < k + 1, in the bits
    of the scalar recurrence d += 1; t *= x / d; s += t from t = s = 1/k,
    d = k, stopping after the first term t < s * 1e-17. A series that
    :func:`_series_terms` bounds by 64 terms runs that recurrence as it
    stands, and costs no numpy call. A longer one is summed in chunks of
    three sequential accumulates: np.add.accumulate for the denominators
    and the running total, np.multiply.accumulate for the terms, each seeded
    with the previous chunk's last value. The first chunk holds as many
    terms as the bound, so it is the only one unless the bound fell short;
    later chunks double (after a short series' loop, from 128 terms).
    Raises ArithmeticError when 10,000 terms do not converge."""
    denom, term = k, 1.0 / k
    total = term
    done, size = 0, _series_terms(k, x)
    if size <= _SCALAR_TERMS:
        for _ in range(_SCALAR_TERMS):
            denom += 1.0
            term *= x / denom
            total += term
            if term < total * 1e-17:
                return total
        done, size = _SCALAR_TERMS, 2 * _SCALAR_TERMS
    while done < _MAX_TERMS:
        m = min(size, _MAX_TERMS - done)
        d = np.ones(m + 1)
        d[0] = denom
        np.add.accumulate(d, out=d)
        t = x / d
        t[0] = term
        np.multiply.accumulate(t, out=t)
        s = t.copy()
        s[0] = total
        np.add.accumulate(s, out=s)
        stop = t[1:] < s[1:] * 1e-17
        first = int(stop.argmax())
        if stop[first]:
            return float(s[first + 1])
        denom, term, total = float(d[-1]), float(t[-1]), float(s[-1])
        done += m
        size *= 2
    raise ArithmeticError(
        f"regularized_lower_gamma({k!r}, {x!r}): series did not converge "
        f"in {_MAX_TERMS} terms")


def regularized_lower_gamma(k: float, x: float) -> float:
    """P(k, x) = gamma(k, x) / Gamma(k), the CDF of Gamma(shape k, scale 1).

    Series expansion for x < k + 1 (:func:`_lower_gamma_series`, summed by
    numpy accumulates with the bits of the scalar term-by-term loop), Lentz
    continued fraction otherwise. Both scale the log prefactor
    log(x^k e^-x / Gamma(k)). For k >= 1000 it is
    -k (d - log1p(d)) + log(k / 2 pi) / 2 - r(k), with d = x/k - 1 and r the
    Stirling remainder of ln Gamma(k): no term of size k ln x rounds, so P
    is nondecreasing in x at the ulp scale near the c1 roots. Below
    k = 1000 it is k ln x - x - ln Gamma(k), whose rounding stays under
    1e-12 relative there. The absolute error is below 3e-15 * max(k, 1)
    (checked against scipy for k up to 1e6). Raises ArithmeticError when the
    series or the continued fraction does not converge in 10,000 terms, as
    the series does near x = k once k is above about 1.5e6; the result is
    never truncated. Raises ValueError unless k is finite and positive and
    x is a number >= 0; P(k, inf) = 1.
    """
    if not (k > 0 and math.isfinite(k)):
        raise ValueError(f"regularized_lower_gamma requires a finite k > 0, got {k}")
    if not x >= 0:  # NaN too
        raise ValueError(f"regularized_lower_gamma requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if k >= 1000.0:
        d = x / k - 1.0
        if d == -1.0:  # x / k below about 1e-16: P underflows
            return 0.0
        log_prefactor = (-k * (d - math.log1p(d)) + 0.5 * math.log(k / (2.0 * math.pi))
                         - _stirling_remainder(k))
    else:
        log_prefactor = k * math.log(x) - x - log_gamma(k)
    if x < k + 1.0:
        # gser: P(k,x) = x^k e^-x / Gamma(k) * sum_{n>=0} x^n / (k(k+1)...(k+n))
        p = math.exp(log_prefactor) * _lower_gamma_series(k, x)
        return min(max(p, 0.0), 1.0)
    # gcf: Q(k,x) via modified Lentz evaluation of the continued fraction
    tiny = 1e-300
    b = x + 1.0 - k
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - k)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise ArithmeticError(
            f"regularized_lower_gamma({k!r}, {x!r}): continued fraction did not "
            f"converge in {_MAX_TERMS} terms")
    q = math.exp(log_prefactor) * h
    return min(max(1.0 - q, 0.0), 1.0)


def normal_inv_cdf(p: float) -> float:
    """The standard normal quantile at 0 < p < 1: Wichura's AS241 (1988,
    *Applied Statistics* 37(3), 477-484), with CPython's
    ``statistics._normal_dist_inv_cdf`` operations in their order, so it
    returns the bits of ``statistics.NormalDist().inv_cdf(p)`` without
    importing ``statistics`` (which loads ``decimal`` and ``fractions``)."""
    q = p - 0.5
    if math.fabs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.50908_09287_30122_6727e+3 * r +
                     3.34305_75583_58812_8105e+4) * r +
                     6.72657_70927_00870_0853e+4) * r +
                     4.59219_53931_54987_1457e+4) * r +
                     1.37316_93765_50946_1125e+4) * r +
                     1.97159_09503_06551_4427e+3) * r +
                     1.33141_66789_17843_7745e+2) * r +
                     3.38713_28727_96366_6080e+0) * q
        den = (((((((5.22649_52788_52854_5610e+3 * r +
                     2.87290_85735_72194_2674e+4) * r +
                     3.93078_95800_09271_0610e+4) * r +
                     2.12137_94301_58659_5867e+4) * r +
                     5.39419_60214_24751_1077e+3) * r +
                     6.87187_00749_20579_0830e+2) * r +
                     4.23133_30701_60091_1252e+1) * r +
                     1.0)
        return num / den
    r = p if q <= 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r = r - 1.6
        num = (((((((7.74545_01427_83414_07640e-4 * r +
                     2.27238_44989_26918_45833e-2) * r +
                     2.41780_72517_74506_11770e-1) * r +
                     1.27045_82524_52368_38258e+0) * r +
                     3.64784_83247_63204_60504e+0) * r +
                     5.76949_72214_60691_40550e+0) * r +
                     4.63033_78461_56545_29590e+0) * r +
                     1.42343_71107_49683_57734e+0)
        den = (((((((1.05075_00716_44416_84324e-9 * r +
                     5.47593_80849_95344_94600e-4) * r +
                     1.51986_66563_61645_71966e-2) * r +
                     1.48103_97642_74800_74590e-1) * r +
                     6.89767_33498_51000_04550e-1) * r +
                     1.67638_48301_83803_84940e+0) * r +
                     2.05319_16266_37758_82187e+0) * r +
                     1.0)
    else:
        r = r - 5.0
        num = (((((((2.01033_43992_92288_13265e-7 * r +
                     2.71155_55687_43487_57815e-5) * r +
                     1.24266_09473_88078_43860e-3) * r +
                     2.65321_89526_57612_30930e-2) * r +
                     2.96560_57182_85048_91230e-1) * r +
                     1.78482_65399_17291_33580e+0) * r +
                     5.46378_49111_64114_36990e+0) * r +
                     6.65790_46435_01103_77720e+0)
        den = (((((((2.04426_31033_89939_78564e-15 * r +
                     1.42151_17583_16445_88870e-7) * r +
                     1.84631_83175_10054_68180e-5) * r +
                     7.86869_13114_56132_59100e-4) * r +
                     1.48753_61290_85061_48525e-2) * r +
                     1.36929_88092_27358_05310e-1) * r +
                     5.99832_20655_58879_37690e-1) * r +
                     1.0)
    x = num / den
    return -x if q < 0.0 else x


# The 32-point Gauss-Legendre rule on [-1, 1], reused per panel: the 16
# positive nodes and their weights, the bits of
# np.polynomial.legendre.leggauss(32), whose rule is symmetric to the bit.
# Stored, so that no process loads numpy.polynomial or solves its eigenproblem.
_GL_HALF = np.array([
    (0.048307665687738324, 0.09654008851472766),
    (0.1444719615827965, 0.09563872007927471),
    (0.23928736225213706, 0.09384439908080451),
    (0.33186860228212767, 0.09117387869576378),
    (0.42135127613063533, 0.08765209300440378),
    (0.5068999089322294, 0.08331192422694671),
    (0.5877157572407623, 0.07819389578707023),
    (0.6630442669302152, 0.07234579410884834),
    (0.7321821187402897, 0.06582222277636168),
    (0.7944837959679424, 0.058684093478535565),
    (0.84936761373257, 0.05099805926237609),
    (0.8963211557660521, 0.042835898022226836),
    (0.9349060759377397, 0.034273862913021765),
    (0.9647622555875064, 0.025392065309262024),
    (0.9856115115452684, 0.016274394730905743),
    (0.9972638618494816, 0.007018610009470506),
])
_GL_NODES = np.concatenate((-_GL_HALF[::-1, 0], _GL_HALF[:, 0]))
_GL_WEIGHTS = np.concatenate((_GL_HALF[::-1, 1], _GL_HALF[:, 1]))


def gauss_legendre(a: float, b: float, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-point Gauss-Legendre rule on each of
    ``panels`` equal panels of [a, b], panel by panel."""
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()
