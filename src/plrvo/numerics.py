"""Numerically stable scalar primitives shared by the accounting and
optimization modules: log-gamma, log-binomial, the regularized lower
incomplete gamma function, and an adaptive quadrature for completely
monotone tails.

Everything here is pure and operates in log space where overflow is a risk;
negative infinity is the canonical encoding of an exact zero.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

LOG_ZERO = float("-inf")
_MAX_TERMS = 10_000  # series / continued-fraction cap of regularized_lower_gamma


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to converge (divergent integrand)."""


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


def regularized_lower_gamma(k: float, x: float) -> float:
    """P(k, x) = gamma(k, x) / Gamma(k), the CDF of Gamma(shape k, scale 1).

    Series expansion for x < k + 1, Lentz continued fraction otherwise. The
    absolute error is below 3e-15 * max(k, 1) (measured against scipy for
    k up to 1e6: 2.4e-10 at k = 1e5, 1.7e-9 at k = 8.4e5, both next to
    x = k + 1); the rounding of the log prefactor k ln x - x - ln Gamma(k)
    sets it at large k. Raises ArithmeticError when the series or the
    continued fraction does not converge in 10,000 terms, as the series does
    near x = k once k is above about 1.5e6; the result is never truncated.
    """
    if not k > 0:
        raise ValueError(f"regularized_lower_gamma requires k > 0, got {k}")
    if x < 0:
        raise ValueError(f"regularized_lower_gamma requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    log_prefactor = k * math.log(x) - x - log_gamma(k)
    if x < k + 1.0:
        # gser: P(k,x) = x^k e^-x / Gamma(k) * sum_{n>=0} x^n / (k(k+1)...(k+n))
        term = 1.0 / k
        total = term
        denom = k
        for _ in range(_MAX_TERMS):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        else:
            raise ArithmeticError(
                f"regularized_lower_gamma({k!r}, {x!r}): series did not converge "
                f"in {_MAX_TERMS} terms")
        p = math.exp(log_prefactor) * total
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


def _gl32(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return float(half * np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))


def _panel_integral(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                    depth: int = 24) -> float:
    """One panel, refined by bisection until two resolutions agree.

    Needed because a geometric panel can be far wider than the integrand's
    decay scale (e.g. (1 + z*theta)^-k with k*theta large).
    """
    whole = _gl32(f, a, b)
    mid = 0.5 * (a + b)
    halves = _gl32(f, a, mid) + _gl32(f, mid, b)
    if depth == 0 or abs(whole - halves) <= 1e-10 * (abs(halves) + 1e-300):
        return halves
    return (_panel_integral(f, a, mid, depth - 1)
            + _panel_integral(f, mid, b, depth - 1))


def integrate_decaying(f: Callable[[np.ndarray], np.ndarray], lower: float,
                       max_panels: int = 10_000) -> float:
    """Integrate a nonnegative, decreasing, integrable f over [lower, inf).

    Panels grow geometrically ([a, 2a + 1], then doubling) so a completely
    monotone tail is exhausted in O(log) panels; each panel self-refines to
    the 1e-8 relative target, and the sweep stops once a panel adds less
    than 1e-12 of the running total. Raises :class:`QuadratureError` after
    ``max_panels`` panels, which signals a divergent integrand.
    """
    a = float(lower)
    total = 0.0
    for _ in range(max_panels):
        b = 2.0 * a + 1.0
        contribution = _panel_integral(f, a, b)
        total += contribution
        if total > 0.0 and contribution < 1e-12 * total:
            return total
        a = b
    raise QuadratureError(
        f"tail integral did not converge within {max_panels} panels; "
        "the integrand is likely not integrable"
    )
