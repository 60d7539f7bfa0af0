"""Per-step log moments for the three mechanisms, composition over steps,
and conversion to (epsilon, delta).

The subsampled moment of order lambda is a binomial mixture over an index
eta in [0, lambda + 1]:

    alpha(lambda) = log sum_eta  C(lambda+1, eta) (1-zeta)^(lambda+1-eta)
                                 zeta^eta  K(x, eta)

where the kernel K is mechanism specific. For a fixed-scale Laplace
mechanism the kernel's two branches are plain exponentials in x/b; for the
gamma-seed randomized-scale family each exponential is replaced by the seed
MGF evaluated at the same argument. Both share the branch coefficients
b1 = eta/(2*eta-1) and b2 = (eta-1)/(2*eta-1); the degenerate eta = 0 and
eta = 1 kernels are exactly 1.

Mixing. The (lambda, eta) subsampling weights are cached per (zeta, lambda
cap), in log and in linear form. The weights of an order sum to 1, so one
matrix product mixes every order of a block of coordinates:

    alpha = log1p(W @ (K - 1)),   K - 1 = b1 expm1(lm1) + b2 expm1(lm2),

with lm1, lm2 the logs of the two branches. W and K - 1 are nonnegative,
so the product adds without cancelling, and log1p keeps the tiny moments of
far coordinates to full relative precision. The branch slopes at x = 0
cancel (b1 (eta-1) = b2 eta), so where every branch log is below 1/16 in
size, K - 1 is summed from the nonnegative curvature terms of the branches
by their series; elsewhere that cancellation costs at most about
1e-15 * eta relative. A coordinate whose largest branch log exceeds 300 (a
kernel near the MGF bound) is mixed in log space instead, by the shifted
product of :func:`_mix` and its exact per-order fallback; so is everything
at zeta = 0 or 1, where each order has a single live weight and its moment
stays exact.

Coordinate sum. An l2-clipped model's per-step moment sums alpha over the
majorization set x_i = C (sqrt(i) - sqrt(i-1)), i = 1..N. The first 4,096
coordinates (the head) are summed exactly, as one block. The rest (the
tail) is bounded by an integral, because f(t) = alpha(x(t)) is convex:

1. Each branch is log-convex in x: (1 - (eta-1) theta x)^-k,
   (1 + eta theta x)^-k, and the Laplace exponentials. A positive mixture of
   log-convex functions is log-convex, so alpha(x) is convex.
2. b1 (eta-1) = b2 eta, so the two branch slopes cancel at x = 0:
   alpha'(0) = 0, and alpha is nondecreasing for x >= 0.
3. x(t) = C / (sqrt(t) + sqrt(t-1)) is convex and decreasing for real
   t >= 1, so f = alpha o x is convex (a nondecreasing convex function of a
   convex one). The floor max(0, .) keeps it convex.
4. By Hermite-Hadamard, f(i) <= the integral of f over [i - 1/2, i + 1/2],
   so the tail sum over i = 4097..N is at most the integral of f over
   [4096.5, N + 1/2]: a one-sided upper bound with no endpoint term.

The integral is taken in u = log t by 32-point Gauss-Legendre on 32 equal
panels (I32) and on 16 panels (I16), both from one kernel build on the
nodes, and the tail adds I32 + |I32 - I16|. The result upper-bounds the
exact sum whenever I32's quadrature error is below that slack. Its excess
over the exact sum is the Hermite-Hadamard gap (the sum of about f''/24,
near f(4096) / (24 * 4096) where alpha grows like x^2) plus the slack: at
most 1e-8 of the exact sum (measured 6e-12 to 1.5e-10 on the paper
configuration at N = 1e6). For N <= 4,096 the sum is exact.

The accountant starts no threads; the BLAS library splits the product by
output blocks, never along eta, so its thread count cannot change a result
(tested).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .majorization import MajorizationSet
# log_binomial is no longer called here; perfbench/spans.py still wraps the name
from .numerics import LOG_ZERO, gauss_legendre, log_binomial  # noqa: F401
from .params import (
    AccountingJob,
    GammaPlrvParams,
    GaussianParams,
    LaplaceParams,
    LogMomentCurve,
    MechanismParams,
    MgfDomainViolation,
    effective_lambda_max,
    validate,
)

HEAD_COORDINATES = 4096  # summed exactly; the rest by the tail integral
_TAIL_PANELS = 32        # Gauss-Legendre panels of the tail integral, in log t
_LINEAR_MIX_MAX_LOG = 300.0  # largest branch log the linear mix takes
_SERIES_MAX = 1.0 / 16.0     # branch logs up to this size are expanded in series


@functools.lru_cache(maxsize=16)
def _log_weight_matrix(zeta: float, lam_cap: int) -> np.ndarray:
    """Read-only (lam_cap, lam_cap + 2) matrix of the log subsampling
    weights: row lam - 1 holds log C(lam+1, eta) (1-zeta)^(lam+1-eta) zeta^eta
    for eta = 0..lam+1 and -inf beyond; built once per (zeta, cap) and shared
    by every call and order.

    The log binomial is lgamma(n+1) - lgamma(eta+1) - lgamma(n-eta+1), from
    one table of ``math.lgamma``, in the operation order of
    :func:`numerics.log_binomial` (exactly 0 at eta = 0 and n, as
    lgamma(1) = 0). Vanishing
    weights at zeta = 0 or 1 are exact -inf entries, never log(0)."""
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must be in [0, 1], got {zeta}")
    n = np.arange(2, lam_cap + 2)[:, None]
    eta = np.arange(lam_cap + 2)[None, :]
    live = eta <= n
    out = np.full((lam_cap, lam_cap + 2), LOG_ZERO)
    if zeta == 0.0:
        out[:, 0] = 0.0
    elif zeta == 1.0:
        out[eta == n] = 0.0
    else:
        rest = np.where(live, n - eta, 0)
        lgamma = np.array([math.lgamma(j + 1.0) for j in range(lam_cap + 2)])
        log_binom = lgamma[n] - lgamma[eta] - lgamma[rest]
        log_w = log_binom + rest * math.log1p(-zeta) + eta * math.log(zeta)
        out[live] = log_w[live]
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=16)
def _weight_matrix(zeta: float, lam_cap: int) -> np.ndarray:
    """Read-only exp of :func:`_log_weight_matrix`: the linear weights."""
    out = np.exp(_log_weight_matrix(zeta, lam_cap))
    out.flags.writeable = False
    return out


# A branch function maps (x_vector, eta_column) -> (lm1, lm2): matrices of
# the log values of the two kernel branches before mixing, shaped
# (n_eta, n_x), for eta = 2..eta_max (the kernel is 1 at eta = 0 and 1).
# With bends=True it gives each log minus its tangent at x = 0 instead
# (0.0 where the logs are linear), accurate where the logs are small; the
# tangents cancel in the mixture.
BranchFn = Callable[..., tuple[np.ndarray, np.ndarray]]


def _plrv_branches(params: GammaPlrvParams) -> BranchFn:
    k, theta = params.k, params.theta

    def branches(x: np.ndarray, etas: np.ndarray,
                 bends: bool = False) -> tuple[np.ndarray, np.ndarray]:
        worst = (float(etas[-1]) - 1.0) * theta * float(np.max(x))
        if worst >= 1.0:
            raise MgfDomainViolation(
                f"gamma-seed MGF undefined at eta = {int(etas[-1])}: "
                f"(eta-1) * theta * x reaches {worst:.6g} >= 1"
            )
        y = (etas[:, None] - 1.0) * theta * x[None, :]
        z = etas[:, None] * theta * x[None, :]
        if bends:  # k (-log1p(-w) - w) at w = y and w = -z
            return tuple(k * np.where(np.abs(w) <= _SERIES_MAX, _series(w, _LOG1P_TERMS),
                                      -np.log1p(-w) - w) for w in (y, -z))
        return -k * np.log1p(-y), -k * np.log1p(z)

    return branches


def _laplace_branches(params: LaplaceParams) -> BranchFn:
    inv_b = 1.0 / params.b

    def branches(x: np.ndarray, etas: np.ndarray,
                 bends: bool = False) -> tuple[np.ndarray, np.ndarray]:
        if bends:  # the logs are linear in x
            return 0.0, 0.0
        # x / b may overflow; the infinite moments are reported downstream
        with np.errstate(over="ignore"):
            scaled = inv_b * x[None, :]
            return (etas[:, None] - 1.0) * scaled, -etas[:, None] * scaled

    return branches


# Coefficients from w^2 on of expm1(w) - w and of -log1p(-w) - w; for
# |w| <= 1/16 the terms left out are below 1e-17 of the sum.
_EXPM1_TERMS = [1.0 / math.factorial(n) for n in range(2, 11)]
_LOG1P_TERMS = [1.0 / n for n in range(2, 16)]


def _series(w: np.ndarray, terms: list[float]) -> np.ndarray:
    """sum_i terms[i] w^(i+2), by Horner's rule."""
    acc = np.full_like(w, terms[-1])
    for c in terms[-2::-1]:
        acc *= w
        acc += c
    return acc * w * w


def _branch_coefficients(eta_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(etas, b1, b2) for eta = 2..eta_max."""
    etas = np.arange(2, eta_max + 1, dtype=np.float64)
    return etas, etas / (2.0 * etas - 1.0), (etas - 1.0) / (2.0 * etas - 1.0)


def _mix(log_w: np.ndarray, lambdas: Sequence[int], log_g: np.ndarray) -> np.ndarray:
    """Log-space mix: (order, x) matrix of alpha = max(0, log sum_eta
    w(lam, eta) K(x, eta)), one row per entry of ``lambdas``, from rows
    lam - 1 of the log weight matrix and the (eta, x) log kernel ``log_g``,
    by one shifted matrix product. A column with a scaled sum below 1e-250,
    or not finite, has lost precision and is mixed again by the exact
    per-order log-sum-exp; so is every column when a row has one live
    weight (zeta = 0 or 1), whose moment is then exact."""
    if min(lambdas) < 1:
        raise ValueError(f"moment orders must be positive integers, got {lambdas}")
    log_w = log_w[np.asarray(lambdas) - 1, : log_g.shape[0]]
    with np.errstate(divide="ignore", invalid="ignore"):
        rmax = log_w.max(axis=1, keepdims=True)
        cmax = log_g.max(axis=0)
        alpha = np.exp(log_w - rmax) @ np.exp(log_g - cmax)
        redo = ~np.all(alpha >= 1e-250, axis=0)  # NaN fails the test too
        redo |= np.any(np.count_nonzero(log_w != LOG_ZERO, axis=1) == 1)
        np.log(alpha, out=alpha)
        alpha += cmax
        alpha += rmax
        if redo.any():
            g = log_g[:, redo]
            for row, w in zip(alpha, log_w):
                live = w != LOG_ZERO
                t = w[live, None] + g[live]
                m = t.max(axis=0)
                row[redo] = m + np.log(np.sum(np.exp(t - m[None, :]), axis=0))
    return np.maximum(alpha, 0.0, out=alpha)


def _log_kernel(branches: BranchFn, x: np.ndarray, eta_max: int) -> np.ndarray:
    """(eta, x) matrix of log K(x, eta) for eta = 0..eta_max, shared by every
    order up to eta_max - 1; rows 0 and 1 are exactly 0."""
    log_g = np.zeros((eta_max + 1, x.size))
    etas, b1, b2 = _branch_coefficients(eta_max)
    lm1, lm2 = branches(x, etas)
    lm1 += np.log(b1)[:, None]
    lm2 += np.log(b2)[:, None]
    # logaddexp via max + log1p(exp(-|diff|)): keeps the loop in SIMD code
    hi = np.maximum(lm1, lm2)
    np.abs(lm1 - lm2, out=lm1)
    log_g[2:] = hi + np.log1p(np.exp(-lm1))
    return log_g


def _moments(branches: BranchFn, x: np.ndarray, zeta: float, lam_cap: int,
             lambdas: Sequence[int]) -> np.ndarray:
    """(order, x) matrix of per-coordinate alpha for the sorted ``lambdas``:
    the linear mix log1p(W @ (K - 1)), with the log-space :func:`_mix` for
    columns whose largest branch log exceeds 300 (or is not finite) and for
    zeta = 0 or 1."""
    if lambdas[0] < 1:
        raise ValueError(f"moment orders must be positive integers, got {lambdas}")
    eta_max = lambdas[-1] + 1
    log_w = _log_weight_matrix(zeta, lam_cap)
    if zeta in (0.0, 1.0):
        return _mix(log_w, lambdas, _log_kernel(branches, x, eta_max))
    etas, b1, b2 = _branch_coefficients(eta_max)
    b1, b2 = b1[:, None], b2[:, None]
    lm1, lm2 = branches(x, etas)
    # lm1 and -lm2 grow with eta: the last row holds each column's largest
    log_space = ~(lm1[-1] <= _LINEAR_MIX_MAX_LOG)  # NaN too
    small = np.maximum(lm1[-1], -lm2[-1]) <= _SERIES_MAX
    with np.errstate(over="ignore", invalid="ignore"):
        k_minus_1 = b1 * np.expm1(lm1) + b2 * np.expm1(lm2)
    if small.any():  # the tangents cancel: K - 1 is a sum of nonnegative bends
        bend1, bend2 = branches(x[small], etas, bends=True)
        k_minus_1[:, small] = (b1 * (_series(lm1[:, small], _EXPM1_TERMS) + bend1)
                               + b2 * (_series(lm2[:, small], _EXPM1_TERMS) + bend2))
    w = _weight_matrix(zeta, lam_cap)[np.asarray(lambdas) - 1, 2 : eta_max + 1]
    with np.errstate(invalid="ignore"):
        alpha = np.log1p(w @ k_minus_1)
    if log_space.any():
        alpha[:, log_space] = _mix(log_w, lambdas,
                                   _log_kernel(branches, x[log_space], eta_max))
    return np.maximum(alpha, 0.0, out=alpha)


def plrv_univariate_log_moment(params: GammaPlrvParams, x: float, zeta: float,
                               lam: int) -> float:
    """Order-lambda log moment of the subsampled gamma-seed mechanism applied
    to a single coordinate bounded by x."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if lam * x * params.theta >= 1.0:
        raise MgfDomainViolation(
            f"lambda * x * theta = {lam * x * params.theta:.6g} >= 1",
            max_admissible_lambda=int(math.floor(1.0 / (x * params.theta))) - 1,
        )
    return float(_moments(_plrv_branches(params), np.array([float(x)]), zeta, lam,
                          [lam])[0, 0])


def laplace_univariate_log_moment(params: LaplaceParams, x: float, zeta: float,
                                  lam: int) -> float:
    """Order-lambda log moment of the subsampled fixed-scale Laplace mechanism
    on a single coordinate bounded by x."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return float(_moments(_laplace_branches(params), np.array([float(x)]), zeta, lam,
                          [lam])[0, 0])


def gaussian_subsampled_log_moment(params: GaussianParams, zeta: float, lam: int) -> float:
    """Per-step log moment of the subsampled Gaussian mechanism."""
    return _gaussian_log_moments(params, _log_weight_matrix(zeta, lam), [lam])[lam]


def _gaussian_log_moments(params: GaussianParams, log_w: np.ndarray,
                          lambdas: Sequence[int]) -> dict[int, float]:
    """The binomial mixture with the x-free kernel exp((eta^2 - eta) / (2 sigma^2))."""
    eta = np.arange(max(lambdas) + 2, dtype=np.float64)
    log_g = (eta * eta - eta) * (1.0 / (2.0 * params.sigma * params.sigma))
    return dict(zip(lambdas, _mix(log_w, lambdas, log_g[:, None])[:, 0].tolist()))


def _tail(branches: BranchFn, job: AccountingJob, lam_cap: int,
          lambdas: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(I32, |I32 - I16|) per order: the integral of alpha(x(t)) over
    [HEAD_COORDINATES + 1/2, N + 1/2], in u = log t on 32 and on 16 panels.
    Needs N > HEAD_COORDINATES."""
    a, b = math.log(HEAD_COORDINATES + 0.5), math.log(job.model_dim_N + 0.5)
    u_fine, w_fine = gauss_legendre(a, b, _TAIL_PANELS)
    u_coarse, w_coarse = gauss_legendre(a, b, _TAIL_PANELS // 2)
    t = np.exp(np.concatenate([u_fine, u_coarse]))
    x = job.clip_C / (np.sqrt(t) + np.sqrt(t - 1.0))
    f = _moments(branches, x, job.sampling_rate_zeta, lam_cap, lambdas)
    f *= t  # dt = t du
    fine = (f[:, : u_fine.size] * w_fine).sum(axis=1)
    coarse = (f[:, u_fine.size :] * w_coarse).sum(axis=1)
    return fine, np.abs(fine - coarse)


def _multivariate_log_moments(branches: BranchFn, job: AccountingJob,
                              lambdas: Sequence[int]) -> dict[int, float]:
    """Per-step moments over the majorization set x_i = C (sqrt(i) -
    sqrt(i-1)), i = 1..N, for each requested order: the exact head sum plus
    the tail's integral and slack (see the module docstring)."""
    lambdas = sorted(set(int(l) for l in lambdas))
    lam_cap = max(job.lambda_max, lambdas[-1])
    head = min(job.model_dim_N, HEAD_COORDINATES)
    xs = MajorizationSet(job.clip_C, job.model_dim_N).coordinates(1, head)
    total = _moments(branches, xs, job.sampling_rate_zeta, lam_cap, lambdas).sum(axis=1)
    if job.model_dim_N > HEAD_COORDINATES:
        integral, slack = _tail(branches, job, lam_cap, lambdas)
        total += integral + slack
    return dict(zip(lambdas, total.tolist()))


def plrv_multivariate_log_moments(params: GammaPlrvParams, job: AccountingJob,
                                  lambdas: Sequence[int]) -> dict[int, float]:
    """Batch form of :func:`plrv_multivariate_log_moment` (shared kernel work
    across orders; used by the lambda searches)."""
    validate(job, params)
    return _multivariate_log_moments(_plrv_branches(params), job, lambdas)


def plrv_multivariate_log_moment(params: GammaPlrvParams, job: AccountingJob,
                                 lam: int) -> float:
    """Per-step alpha(lambda) of the gamma-seed mechanism on an l2-clipped
    model of N coordinates, via the majorization set."""
    return plrv_multivariate_log_moments(params, job, [lam])[lam]


def plrv_epsilon_lower_bound(params: GammaPlrvParams, job: AccountingJob) -> float:
    """A lower bound on ``account(params, job).epsilon``, from one term.

    Each order's per-step moment is a sum of nonnegative per-coordinate
    moments, and the first coordinate's (x_1 = C) is the log of a mixture
    of nonnegative terms. So alpha(lambda) >= max(0, log w(lambda, lambda+1)
    + log b1 + lm1), with lm1 the first branch's log at eta = lambda + 1:
    the last weight's first branch, which dominates near the MGF bound. The
    bound is composed and converted as :func:`account` does, over the same
    effective lambda cap, after taking 1e-12 of the three logs' sizes (plus
    1e-12) off each order's term: more than the accountant's own rounding,
    so the computed bound stays below the computed epsilon."""
    lam_cap = effective_lambda_max(job, params)
    etas, b1, _ = _branch_coefficients(lam_cap + 1)
    lm1 = _plrv_branches(params)(np.array([job.clip_C]), etas)[0][:, 0]
    log_w = np.diagonal(_log_weight_matrix(job.sampling_rate_zeta, lam_cap), offset=2)
    log_b1 = np.log(b1)
    slack = 1e-12 * (1.0 + np.abs(log_w) + np.abs(log_b1) + np.abs(lm1))
    alpha = np.maximum(log_w + log_b1 + lm1 - slack, 0.0)  # log_w = -inf at zeta = 0
    totals = {lam: job.steps_T * a for lam, a in enumerate(alpha.tolist(), start=1)}
    return _grid_min(totals, job.delta)[0]


def laplace_multivariate_log_moments(params: LaplaceParams, job: AccountingJob,
                                     lambdas: Sequence[int]) -> dict[int, float]:
    return _multivariate_log_moments(_laplace_branches(params), job, lambdas)


def laplace_multivariate_log_moment(params: LaplaceParams, job: AccountingJob,
                                    lam: int) -> float:
    """Per-step alpha(lambda) of the fixed-scale Laplace mechanism on an
    l2-clipped model of N coordinates, via the majorization set."""
    return laplace_multivariate_log_moments(params, job, [lam])[lam]


def compose(curve: LogMomentCurve, steps_T: int) -> LogMomentCurve:
    """Additive composition over steps: every log moment is multiplied by T."""
    if not (isinstance(steps_T, int) and steps_T >= 1):
        raise ValueError(f"steps_T must be a positive integer, got {steps_T}")
    job = dict(curve.job)
    job["composed_steps"] = job.get("composed_steps", 1) * steps_T
    return LogMomentCurve(
        mechanism=curve.mechanism,
        alpha_per_step={l: steps_T * a for l, a in curve.alpha_per_step.items()},
        job=job,
    )


def _conversion_term(alpha: float, lam: int, delta: float) -> float:
    return (alpha / lam + math.log(lam / (lam + 1.0))
            - (math.log(delta) + math.log(lam + 1.0)) / lam)


def epsilon_from_delta(curve: LogMomentCurve, delta: float) -> tuple[float, int]:
    """Tight conversion: minimize over the curve's integer moment grid.

    Ties break toward the smaller order. The curve must already be composed
    over steps (this function does not multiply by T).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return _grid_min(curve.alpha_per_step, delta)


def delta_from_epsilon(curve: LogMomentCurve, epsilon: float) -> float:
    """Tail-bound conversion: min over the grid of exp(alpha - lambda * eps),
    clamped to at most 1."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    best = min(curve.alpha_per_step[lam] - lam * epsilon for lam in curve.alpha_per_step)
    return min(1.0, math.exp(best))


def coarse_lambda_ladder(lambda_max: int) -> list[int]:
    """Powers of two up to the cap, plus the cap itself."""
    ladder = []
    lam = 1
    while lam <= lambda_max:
        ladder.append(lam)
        lam *= 2
    if ladder[-1] != lambda_max:
        ladder.append(lambda_max)
    return ladder


def minimize_epsilon_lazy(alpha_total_fn: Callable[[Sequence[int]], dict[int, float]],
                          lambda_max: int, delta: float) -> tuple[float, int, dict[int, float]]:
    """Coarse-to-fine minimization of the conversion over lambda.

    Evaluates a power-of-two ladder first, then densifies one octave on each
    side of the coarse argmin. ``alpha_total_fn`` receives a batch of orders
    and returns composed (total) log moments. Returns (epsilon, argmin,
    every alpha evaluated).
    """
    ladder = coarse_lambda_ladder(lambda_max)
    evaluated = dict(alpha_total_fn(ladder))
    eps0, lam0 = _grid_min(evaluated, delta)
    lo = max(1, lam0 // 2)
    hi = min(lambda_max, lam0 * 2)
    dense = [l for l in range(lo, hi + 1) if l not in evaluated]
    if dense:
        evaluated.update(alpha_total_fn(dense))
    eps, lam = _grid_min(evaluated, delta)
    return eps, lam, evaluated


def _grid_min(alphas: dict[int, float], delta: float) -> tuple[float, int]:
    """(epsilon, argmin) of the conversion over the given orders; the one
    conversion loop behind every accountant entry point."""
    best_eps, best_lam = math.inf, None
    for lam in sorted(alphas):
        eps = _conversion_term(alphas[lam], lam, delta)
        if eps < best_eps:
            best_eps, best_lam = eps, lam
    return best_eps, best_lam


# ---------------------------------------------------------------------------
# Job-level drivers

MECHANISM_TAGS = {
    GammaPlrvParams: "plrvo",
    GaussianParams: "gaussian",
    LaplaceParams: "laplace",
}


def per_step_alpha_batch(params: MechanismParams, job: AccountingJob,
                         lambdas: Sequence[int]) -> dict[int, float]:
    """Per-step alpha(lambda) for a batch of orders, dispatched on mechanism."""
    if isinstance(params, GammaPlrvParams):
        return plrv_multivariate_log_moments(params, job, lambdas)
    if isinstance(params, LaplaceParams):
        return laplace_multivariate_log_moments(params, job, lambdas)
    if isinstance(params, GaussianParams):
        log_w = _log_weight_matrix(job.sampling_rate_zeta, max(job.lambda_max, *lambdas))
        return _gaussian_log_moments(params, log_w, lambdas)
    raise TypeError(f"unsupported mechanism params {type(params).__name__}")


def build_curve(params: MechanismParams, job: AccountingJob,
                lambdas: Iterable[int] | None = None) -> LogMomentCurve:
    """Per-step log-moment curve on an explicit grid (default: every integer
    order up to the effective cap)."""
    if lambdas is None:
        lambdas = range(1, effective_lambda_max(job, params) + 1)
    alphas = per_step_alpha_batch(params, job, list(lambdas))
    return LogMomentCurve(
        mechanism=MECHANISM_TAGS[type(params)],
        alpha_per_step=alphas,
        job={
            "steps_T": job.steps_T,
            "sampling_rate_zeta": job.sampling_rate_zeta,
            "model_dim_N": job.model_dim_N,
            "clip_C": job.clip_C,
            "delta": job.delta,
            "lambda_max": job.lambda_max,
        },
    )


@dataclass(frozen=True)
class AccountResult:
    epsilon: float
    argmin_lambda: int
    per_step_alpha_at_argmin: float
    mode: str
    lambda_search: str
    accel_error_estimate: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "epsilon": self.epsilon,
            "argmin_lambda": self.argmin_lambda,
            "per_step_alpha_at_argmin": self.per_step_alpha_at_argmin,
            "mode": self.mode,
            "lambda_search": self.lambda_search,
        }
        if self.accel_error_estimate is not None:
            out["accel_error_estimate"] = self.accel_error_estimate
        return out


def _tail_slack(params: MechanismParams, job: AccountingJob,
                lambdas: Sequence[int]) -> float | None:
    """Largest per-step tail slack |I32 - I16| over ``lambdas``: 0.0 when
    N <= HEAD_COORDINATES, None for the x-free Gaussian moment."""
    if isinstance(params, GaussianParams):
        return None
    if job.model_dim_N <= HEAD_COORDINATES:
        return 0.0
    branches = (_plrv_branches(params) if isinstance(params, GammaPlrvParams)
                else _laplace_branches(params))
    lambdas = sorted(lambdas)
    return float(_tail(branches, job, max(job.lambda_max, lambdas[-1]), lambdas)[1].max())


def account(params: MechanismParams, job: AccountingJob,
            lambda_search: str = "full", mode: str = "exact") -> AccountResult:
    """End-to-end accounting: per-step moments, T-fold composition, tight
    conversion at the job's delta.

    ``lambda_search='full'`` evaluates every integer order up to the
    effective cap; ``'coarse'`` runs the coarse-to-fine search, evaluating
    only the ladder plus one octave around its argmin. Both modes run the
    same coordinate sum; ``mode='accelerated'`` also reports the largest
    per-step tail slack as ``accel_error_estimate``.
    """
    if lambda_search not in ("full", "coarse"):
        raise ValueError(f"lambda_search must be 'full' or 'coarse', got {lambda_search}")
    if mode not in ("exact", "accelerated"):
        raise ValueError(f"mode must be 'exact' or 'accelerated', got {mode}")
    lam_cap = effective_lambda_max(job, params)
    # the moment kernels validate job_eff's MGF domain themselves
    job_eff = job if lam_cap == job.lambda_max else AccountingJob(
        job.steps_T, job.sampling_rate_zeta, job.model_dim_N,
        job.clip_C, job.delta, lam_cap)

    per_step_cache: dict[int, float] = {}

    def total_batch(lams: Sequence[int]) -> dict[int, float]:
        missing = [l for l in lams if l not in per_step_cache]
        if missing:
            vals = per_step_alpha_batch(params, job_eff, missing)
            for l, alpha in vals.items():
                if not math.isfinite(alpha):
                    raise FloatingPointError(f"{MECHANISM_TAGS[type(params)]} per-step log "
                                             f"moment of order {l} is {alpha}")
            per_step_cache.update(vals)
        return {l: job.steps_T * per_step_cache[l] for l in lams}

    if lambda_search == "full":
        totals = total_batch(list(range(1, lam_cap + 1)))
        eps, lam = _grid_min(totals, job.delta)
    else:
        eps, lam, _ = minimize_epsilon_lazy(total_batch, lam_cap, job.delta)
    return AccountResult(
        epsilon=eps,
        argmin_lambda=lam,
        per_step_alpha_at_argmin=per_step_cache[lam],
        mode=mode,
        lambda_search=lambda_search,
        accel_error_estimate=(_tail_slack(params, job_eff, list(per_step_cache))
                              if mode == "accelerated" else None),
    )
