"""An adaptive quadrature for completely monotone tails, and the distortion
integral it checks the closed form with. Test-side: the library has the
closed form only, and these give the tests an independent route to it."""

import numpy as np

from plrvo.numerics import gauss_legendre
from plrvo.params import GammaPlrvParams


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to converge (divergent integrand)."""


def _gl32(f, a: float, b: float) -> float:
    nodes, weights = gauss_legendre(a, b)
    return float(np.dot(weights, f(nodes)))


def _panel_integral(f, a: float, b: float, depth: int = 24) -> float:
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


def integrate_decaying(f, lower: float, max_panels: int = 10_000) -> float:
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


def plrv_distortion_by_quadrature(params: GammaPlrvParams) -> float:
    """Independent route to the closed-form distortion: integrate the seed
    MGF at negative arguments, (1 + z * theta)^(-k), over [0, inf)."""
    if not params.k > 1.0:
        raise ValueError(f"distortion integral diverges for k <= 1, got k = {params.k}")
    k, theta = params.k, params.theta
    return integrate_decaying(lambda z: (1.0 + z * theta) ** (-k), 0.0)
