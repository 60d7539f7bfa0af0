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
eta/(2*eta-1) and (eta-1)/(2*eta-1); the degenerate eta = 0 and eta = 1
branches carry coefficient zero and are represented as absent log terms
(log-zero), never as log(0).

Everything is computed in log space. The (lambda, eta) log-weight matrix is
cached per (zeta, lambda cap); one shifted matrix product mixes all orders,
and a coordinate it cannot mix to full precision is mixed again by the
exact per-order log-sum-exp (see :func:`_mix`). The multivariate sum streams
the majorization set in fixed-size chunks whose partial sums meet in a fixed
pairwise tree, so results are bitwise identical for any worker count; BLAS
splits the product by output blocks, never along eta, so its thread count
cannot change them either (both are tested).
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .majorization import MajorizationSet
from .numerics import LOG_ZERO, log_binomial
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

_CHUNK_TARGET_ELEMENTS = 8_000_000  # per-chunk eta-by-x workspace budget


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, then PLRV_THREADS, then cpu count.
    A count below 1 is an error, not coerced to 1."""
    if threads is None:
        env = os.environ.get("PLRV_THREADS")
        if not env:
            return os.cpu_count() or 1
        if not (env.strip().isdigit() and int(env) >= 1):
            raise ValueError(f"PLRV_THREADS must be an integer >= 1, got {env!r}")
        return int(env)
    if threads < 1:
        raise ValueError(f"--threads must be >= 1, got {threads}")
    return int(threads)


def _log_subsample_weights(zeta: float, lam: int) -> np.ndarray:
    """log of C(lam+1, eta) (1-zeta)^(lam+1-eta) zeta^eta for eta = 0..lam+1.

    Vanishing weights at zeta = 0 or 1 are exact -inf entries, never log(0).
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must be in [0, 1], got {zeta}")
    n = lam + 1
    out = np.full(n + 1, LOG_ZERO)
    if zeta == 0.0:
        out[0] = 0.0
        return out
    if zeta == 1.0:
        out[n] = 0.0
        return out
    log_z = math.log(zeta)
    log_1mz = math.log1p(-zeta)
    for eta in range(n + 1):
        out[eta] = log_binomial(n, eta) + (n - eta) * log_1mz + eta * log_z
    return out


@functools.lru_cache(maxsize=16)
def _log_weight_matrix(zeta: float, lam_cap: int) -> np.ndarray:
    """Read-only (lam_cap, lam_cap + 2) matrix: row lam - 1 holds
    :func:`_log_subsample_weights` of order lam and -inf beyond; built once
    per (zeta, cap) and shared by every chunk, call and order."""
    out = np.full((lam_cap, lam_cap + 2), LOG_ZERO)
    for lam in range(1, lam_cap + 1):
        out[lam - 1, : lam + 2] = _log_subsample_weights(zeta, lam)
    out.flags.writeable = False
    return out


# A branch function maps (x_vector, eta_column) -> (lm1, lm2): matrices of
# the log values of the two kernel branches before mixing, shaped
# (n_eta, n_x). eta rows 0 and 1 are ignored by the caller (their branch
# coefficients vanish).
BranchFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def _plrv_branches(params: GammaPlrvParams) -> BranchFn:
    k, theta = params.k, params.theta

    def branches(x: np.ndarray, etas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        worst = (float(etas[-1]) - 1.0) * theta * float(np.max(x))
        if worst >= 1.0:
            raise MgfDomainViolation(
                f"gamma-seed MGF undefined at eta = {int(etas[-1])}: "
                f"(eta-1) * theta * x reaches {worst:.6g} >= 1"
            )
        lm1 = -k * np.log1p(-(etas[:, None] - 1.0) * theta * x[None, :])
        lm2 = -k * np.log1p(etas[:, None] * theta * x[None, :])
        return lm1, lm2

    return branches


def _laplace_branches(params: LaplaceParams) -> BranchFn:
    inv_b = 1.0 / params.b

    def branches(x: np.ndarray, etas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # x / b may overflow; the infinite moments are reported downstream
        with np.errstate(over="ignore"):
            scaled = inv_b * x[None, :]
            return (etas[:, None] - 1.0) * scaled, -etas[:, None] * scaled

    return branches


def _mix(log_w: np.ndarray, lambdas: Sequence[int], log_g: np.ndarray) -> np.ndarray:
    """(order, x) matrix of alpha = max(0, log sum_eta w(lam, eta) K(x, eta)),
    one row per entry of ``lambdas``, from rows lam - 1 of the weight matrix
    and the (eta, x) log kernel ``log_g``, by one shifted matrix product. A
    column with a scaled sum below 1e-250, or not finite, has lost precision
    and is mixed again by the exact per-order log-sum-exp; so is every
    column when a row has one live weight (zeta = 0 or 1), whose moment is
    then exact."""
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
    if eta_max >= 2:
        etas = np.arange(2, eta_max + 1, dtype=np.float64)
        b1 = etas / (2.0 * etas - 1.0)
        b2 = (etas - 1.0) / (2.0 * etas - 1.0)
        lm1, lm2 = branches(x, etas)
        lm1 += np.log(b1)[:, None]
        lm2 += np.log(b2)[:, None]
        # logaddexp via max + log1p(exp(-|diff|)): keeps the loop in SIMD code
        hi = np.maximum(lm1, lm2)
        np.abs(lm1 - lm2, out=lm1)
        log_g[2:] = hi + np.log1p(np.exp(-lm1))
    return log_g


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
    log_g = _log_kernel(_plrv_branches(params), np.array([x], dtype=np.float64), lam + 1)
    return float(_mix(_log_weight_matrix(zeta, lam), [lam], log_g)[0, 0])


def laplace_univariate_log_moment(params: LaplaceParams, x: float, zeta: float,
                                  lam: int) -> float:
    """Order-lambda log moment of the subsampled fixed-scale Laplace mechanism
    on a single coordinate bounded by x."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    log_g = _log_kernel(_laplace_branches(params), np.array([x], dtype=np.float64), lam + 1)
    return float(_mix(_log_weight_matrix(zeta, lam), [lam], log_g)[0, 0])


def gaussian_subsampled_log_moment(params: GaussianParams, zeta: float, lam: int) -> float:
    """Per-step log moment of the subsampled Gaussian mechanism."""
    return _gaussian_log_moments(params, _log_weight_matrix(zeta, lam), [lam])[lam]


def _gaussian_log_moments(params: GaussianParams, log_w: np.ndarray,
                          lambdas: Sequence[int]) -> dict[int, float]:
    """The binomial mixture with the x-free kernel exp((eta^2 - eta) / (2 sigma^2))."""
    eta = np.arange(max(lambdas) + 2, dtype=np.float64)
    log_g = (eta * eta - eta) * (1.0 / (2.0 * params.sigma * params.sigma))
    return dict(zip(lambdas, _mix(log_w, lambdas, log_g[:, None])[:, 0].tolist()))


def _pairwise_tree_sum(values: list[np.ndarray]) -> np.ndarray:
    """Elementwise sum of equal-shape arrays by a fixed balanced pairwise
    tree; independent of who computed the leaves, so thread counts cannot
    change the result."""
    vals = list(values)
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def _fixed_chunks(n: int, chunk: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk - 1, n)) for lo in range(1, n + 1, chunk)]


def _multivariate_log_moments(branches: BranchFn, job: AccountingJob,
                              lambdas: Sequence[int],
                              threads: int | None = None) -> dict[int, float]:
    """Sum of per-coordinate log moments over the majorization set
    x_i = C (sqrt(i) - sqrt(i-1)), i = 1..N, for each requested order.

    Chunk boundaries are fixed (independent of worker count); each chunk's
    rows are summed by numpy's deterministic pairwise reduction and the
    chunks' partial rows combine through a fixed tree, so the result is
    bitwise reproducible.
    """
    lambdas = sorted(set(int(l) for l in lambdas))
    log_w = _log_weight_matrix(job.sampling_rate_zeta, max(job.lambda_max, lambdas[-1]))
    mset = MajorizationSet(job.clip_C, job.model_dim_N)
    n_eta = lambdas[-1] + 2
    chunk = max(4096, min(1 << 16, _CHUNK_TARGET_ELEMENTS // n_eta))
    ranges = _fixed_chunks(job.model_dim_N, chunk)

    def chunk_sums(r: tuple[int, int]) -> np.ndarray:
        xs = mset.coordinates(r[0], r[1])
        return _mix(log_w, lambdas, _log_kernel(branches, xs, lambdas[-1] + 1)).sum(axis=1)

    workers = resolve_threads(threads)
    if workers == 1 or len(ranges) == 1:
        partials = [chunk_sums(r) for r in ranges]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(chunk_sums, ranges))

    return dict(zip(lambdas, _pairwise_tree_sum(partials).tolist()))


def plrv_multivariate_log_moments(params: GammaPlrvParams, job: AccountingJob,
                                  lambdas: Sequence[int],
                                  threads: int | None = None) -> dict[int, float]:
    """Batch form of :func:`plrv_multivariate_log_moment` (shared kernel work
    across orders; used by the lambda searches)."""
    validate(job, params)
    return _multivariate_log_moments(_plrv_branches(params), job, lambdas, threads)


def plrv_multivariate_log_moment(params: GammaPlrvParams, job: AccountingJob,
                                 lam: int, threads: int | None = None) -> float:
    """Per-step alpha(lambda) of the gamma-seed mechanism on an l2-clipped
    model of N coordinates, via the majorization set."""
    return plrv_multivariate_log_moments(params, job, [lam], threads)[lam]


def laplace_multivariate_log_moments(params: LaplaceParams, job: AccountingJob,
                                     lambdas: Sequence[int],
                                     threads: int | None = None) -> dict[int, float]:
    return _multivariate_log_moments(_laplace_branches(params), job, lambdas, threads)


def laplace_multivariate_log_moment(params: LaplaceParams, job: AccountingJob,
                                    lam: int, threads: int | None = None) -> float:
    """Per-step alpha(lambda) of the fixed-scale Laplace mechanism on an
    l2-clipped model of N coordinates, via the majorization set."""
    return laplace_multivariate_log_moments(params, job, [lam], threads)[lam]


def laplace_privacy_loss_bound(params: LaplaceParams, clip_C: float) -> float:
    """Pure privacy-loss bound C / b of an unsampled Laplace mechanism with
    l1-clipped sensitivity C."""
    if clip_C < 0:
        raise ValueError(f"clip_C must be >= 0, got {clip_C}")
    return clip_C / params.b


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
                         lambdas: Sequence[int],
                         threads: int | None = None) -> dict[int, float]:
    """Per-step alpha(lambda) for a batch of orders, dispatched on mechanism."""
    if isinstance(params, GammaPlrvParams):
        return plrv_multivariate_log_moments(params, job, lambdas, threads)
    if isinstance(params, LaplaceParams):
        return laplace_multivariate_log_moments(params, job, lambdas, threads)
    if isinstance(params, GaussianParams):
        log_w = _log_weight_matrix(job.sampling_rate_zeta, max(job.lambda_max, *lambdas))
        return _gaussian_log_moments(params, log_w, lambdas)
    raise TypeError(f"unsupported mechanism params {type(params).__name__}")


def build_curve(params: MechanismParams, job: AccountingJob,
                lambdas: Iterable[int] | None = None,
                threads: int | None = None) -> LogMomentCurve:
    """Per-step log-moment curve on an explicit grid (default: every integer
    order up to the effective cap)."""
    if lambdas is None:
        lambdas = range(1, effective_lambda_max(job, params) + 1)
    alphas = per_step_alpha_batch(params, job, list(lambdas), threads)
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


def account(params: MechanismParams, job: AccountingJob,
            lambda_search: str = "full", threads: int | None = None,
            mode: str = "exact") -> AccountResult:
    """End-to-end accounting: per-step moments, T-fold composition, tight
    conversion at the job's delta.

    ``lambda_search='full'`` evaluates every integer order up to the
    effective cap; ``'coarse'`` runs the coarse-to-fine search, evaluating
    only the ladder plus one octave around its argmin. Both agree on small
    jobs; the coarse mode exists for model-scale N.
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
    accel_errors: list[float] = []

    def total_batch(lams: Sequence[int]) -> dict[int, float]:
        missing = [l for l in lams if l not in per_step_cache]
        if missing:
            if mode == "accelerated" and isinstance(params, (GammaPlrvParams, LaplaceParams)):
                vals = {}
                for l in missing:
                    v, err = accelerated_multivariate_log_moment(params, job_eff, l, threads)
                    vals[l] = v
                    accel_errors.append(err)
            else:
                vals = per_step_alpha_batch(params, job_eff, missing, threads)
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
        accel_error_estimate=max(accel_errors) if accel_errors else None,
    )


# ---------------------------------------------------------------------------
# Accelerated multivariate mode (documented approximation; exact mode is
# authoritative and required by the acceptance suite)

_ACCEL_DENSE_HEAD = 1024


def _geometric_index_grid(n: int, ratio: float) -> np.ndarray:
    head = np.arange(1, min(_ACCEL_DENSE_HEAD, n) + 1, dtype=np.int64)
    if n <= _ACCEL_DENSE_HEAD:
        return head
    pts = [int(head[-1])]
    i = float(head[-1])
    while pts[-1] < n:
        i = max(i + 1.0, i * ratio)
        pts.append(min(int(math.floor(i)), n))
    return np.concatenate([head[:-1], np.asarray(pts, dtype=np.int64)])


def accelerated_multivariate_log_moment(params: GammaPlrvParams | LaplaceParams,
                                        job: AccountingJob, lam: int,
                                        threads: int | None = None,
                                        ratio: float = 1.01) -> tuple[float, float]:
    """Trapezoid-in-index approximation of the multivariate sum.

    The per-coordinate log moment decreases smoothly along the majorization
    set, so it is sampled on a geometric index grid (dense head, then ratio
    steps) and segment sums are approximated by trapezoids. Returns
    (value, error_estimate); the estimate is the exact difference for
    N <= 1e6 and a grid-refinement (ratio sqrt) comparison above that.
    """
    if isinstance(params, GammaPlrvParams):
        validate(job, params)
        branches = _plrv_branches(params)
    else:
        branches = _laplace_branches(params)

    def approx(r: float) -> float:
        idx = _geometric_index_grid(job.model_dim_N, r)
        xs = MajorizationSet(job.clip_C, job.model_dim_N).clip_C / (
            np.sqrt(idx.astype(np.float64)) + np.sqrt(idx.astype(np.float64) - 1.0))
        per = _mix(_log_weight_matrix(job.sampling_rate_zeta, lam), [lam],
                   _log_kernel(branches, xs, lam + 1))[0]
        head = idx <= _ACCEL_DENSE_HEAD
        total = float(np.sum(per[head]))
        tail_idx = idx[~head]
        tail_val = per[~head]
        if tail_idx.size:
            a_idx = np.concatenate([[idx[head][-1]], tail_idx[:-1]])
            a_val = np.concatenate([[per[head][-1]], tail_val[:-1]])
            total += float(np.sum((tail_idx - a_idx) * 0.5 * (a_val + tail_val)))
        return total

    value = approx(ratio)
    if job.model_dim_N <= 1_000_000:
        exact = _multivariate_log_moments(branches, job, [lam], threads)[lam]
        return value, abs(value - exact)
    refined = approx(math.sqrt(ratio))
    return value, abs(value - refined)
