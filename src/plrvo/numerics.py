"""Numerically stable primitives shared by the accounting and optimization
modules: log-gamma, log-binomial, the regularized lower incomplete gamma
function, and a composite Gauss-Legendre rule.

Everything here is pure and operates in log space where overflow is a risk;
negative infinity is the canonical encoding of an exact zero. The incomplete
gamma series sums its first 64 terms by the scalar term-by-term loop and the
rest by sequential numpy accumulates, chunk by chunk, with the bits of the
scalar loop throughout (tested against that loop as an oracle): short series
cost no numpy call, and long ones, at large k, a fraction of the loop.
"""

from __future__ import annotations

import math

import numpy as np

LOG_ZERO = float("-inf")
_MAX_TERMS = 10_000  # series / continued-fraction cap of regularized_lower_gamma
_SCALAR_TERMS = 64  # series terms summed by the scalar loop before the accumulates


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Backed by the platform lgamma, which meets the <= 1e-12 relative error
    requirement on [1e-3, 1e8] with margin.
    """
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log_binomial(n: int, r: int) -> float:
    """ln C(n, r) via log-gamma; exact for the degenerate edges."""
    if r < 0 or n < 0 or r > n:
        raise ValueError(f"log_binomial requires 0 <= r <= n, got n={n}, r={r}")
    if r == 0 or r == n:
        return 0.0
    return log_gamma(n + 1.0) - log_gamma(r + 1.0) - log_gamma(n - r + 1.0)


def _stirling_remainder(k: float) -> float:
    """ln Gamma(k) - (k - 1/2) ln k + k - ln(2 pi) / 2, to double precision
    for k >= 1000 (the next term is below 1e-29)."""
    inv2 = 1.0 / (k * k)
    return (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0))) / k


def _lower_gamma_series(k: float, x: float) -> float:
    """sum_{n>=0} x^n / (k (k+1) ... (k+n)) for 0 < x, in the bits of the
    scalar recurrence d += 1; t *= x / d; s += t from t = s = 1/k, d = k,
    stopping after the first term t < s * 1e-17. The first 64 terms run that
    recurrence as it stands: a short series, as at small k or x far below
    k, costs no numpy call. Each later chunk of terms is three sequential
    accumulates: np.add.accumulate for the denominators and the running
    total, np.multiply.accumulate for the terms, each seeded with the
    previous chunk's last value. Chunks double from 128 terms. Raises
    ArithmeticError when 10,000 terms do not converge."""
    denom, term = k, 1.0 / k
    total = term
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


# 32-point Gauss-Legendre nodes/weights on [-1, 1], reused per panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def gauss_legendre(a: float, b: float, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-point Gauss-Legendre rule on each of
    ``panels`` equal panels of [a, b], panel by panel."""
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()
