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
matrix product mixes the orders lo+1..hi of a row block [lo, hi):

    alpha = log1p(W[lo:hi] @ (K - 1)),   K - 1 = b1 expm1(lm1) + b2 expm1(lm2),

with lm1, lm2 the logs of the two branches at eta = 2..hi+1. The blocks,
[0, 16), [16, 32), [32, 64), ... up to the cap, depend only on the cap;
every caller reads whole blocks, so an order's bits do not depend on how
many orders a caller reads. Each block builds lm1 into its rows of K - 1
and lm2, then its product, into one block buffer that all blocks share, so
a call holds K - 1 and one block's rows, and a yielded block is valid only
until the next is requested. W and K - 1 are nonnegative, so the product
adds without cancelling, and log1p keeps the tiny moments of far
coordinates to full relative precision. The branch slopes at x = 0 cancel
(b1 (eta-1) = b2 eta), so where every branch log is below 1/16 in size,
K - 1 is summed from the nonnegative curvature terms of the branches by
their series; elsewhere that cancellation costs at most about 1e-15 * eta
relative. Those series are one stacked Horner pass per block: the expm1
series of both branch logs and, for plrvo, the log1p series of the two
bends' arguments (the Laplace logs are linear, and bend by 0). An argument
above 1/16 in size, which a branch log within 1/16 allows only at k < 1,
takes -log1p(-w) - w instead. A coordinate whose largest branch log
exceeds 300 (a kernel near the MGF bound) is mixed in log space instead,
by the shifted product of :func:`_mix` and, where that loses precision,
the exact log-sum-exp of each order, a block of orders at a time. At
zeta = 0 or 1 each order has a single live weight, so the linear mix is
log1p(K - 1) itself; a log-sum-exp of the two branches there would lose
the relative precision of a tiny log K (1e-7 at k = 1e6, theta x = 5e-13).

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

Order search. :func:`account` minimizes the conversion over orders 1..m,
m = 16 (or the cap) at first, for every mechanism. Every order's conversion
is a valid (epsilon, delta) bound, so the minimum over the evaluated orders
is safe wherever the search stops: a wrong stop could only make it looser.
The certificate is convexity: a per-coordinate moment log E[(1 - zeta +
zeta L)^(lambda+1)], L a likelihood ratio, is convex in lambda (van Erven &
Harremoes 2014; Mironov, Talwar & Zhang 2019), and so are its floor at 0,
the x-free Gaussian moment, and the positive combinations head sum and I32.
So g = head + I32 (for the Gaussian, its moment), which leaves out the
slack and is at most the reported moment, lies above its tangent through
orders m - 1 and m at every later order. The conversion increases with the
moment: once the tangent's conversion exceeds the best epsilon by 1e-9 of
its size (for rounding) at every order in (m, cap], the search stops, with
the whole grid's epsilon, argmin and moment; otherwise m doubles, up to
the cap: each round extends one evaluation by the next row block, and
builds and mixes only its orders. :func:`build_curve` takes the whole grid.

Every epsilon comes from this one sum and search. :func:`tail_slack`
reports the tail's slack, the largest |I32 - I16| over every order up to
the cap.

The accountant starts no threads; the BLAS library splits each product by
output blocks, never along eta, so its thread count cannot change a result
(tested).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .majorization import MajorizationSet, majorizing_coordinates
from .numerics import LOG_ZERO, gauss_legendre
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
_FIRST_ROWS = 16             # the first row block: orders the search evaluates first
_LOG_SUM_EXP_CELLS = 1 << 16  # (order, eta, x) cells of a log-sum-exp chunk


@functools.lru_cache(maxsize=16)
def _log_weight_matrix(zeta: float, lam_cap: int) -> np.ndarray:
    """Read-only (lam_cap, lam_cap + 2) matrix of the log subsampling
    weights: row lam - 1 holds log C(lam+1, eta) (1-zeta)^(lam+1-eta) zeta^eta
    for eta = 0..lam+1 and -inf beyond; built once per (zeta, cap) and shared
    by every call and order.

    The log binomial is lgamma(n+1) - lgamma(eta+1) - lgamma(n-eta+1), in
    that operation order, from one table of ``math.lgamma`` (exactly 0 at
    eta = 0 and n, as lgamma(1) = 0); the tests' scalar ``log_binomial``
    (``tests/binomial.py``) is the oracle for its bits. Vanishing
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
        log_w = lgamma[n] - lgamma[eta]  # the log binomial, then its two powers
        term = lgamma[rest]
        log_w -= term
        log_w += np.multiply(rest, math.log1p(-zeta), out=term)
        log_w += eta * math.log(zeta)
        np.copyto(out, log_w, where=live)
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
# (n_eta, n_x), for eta = 2..eta_max (the kernel is 1 at eta = 0 and 1);
# lm1 is built in ``out`` and lm2 in ``out2`` if given. With bends=True it
# gives instead each log's bend, the log minus its tangent at x = 0 (the
# tangents cancel in the mixture): it writes the two bends' arguments w
# into ``out``, shaped (2, n_eta, n_x), and returns the k of the bends
# k (-log1p(-w) - w), or None where the logs are linear and bend by 0.
BranchFn = Callable[..., tuple[np.ndarray, np.ndarray] | float | None]


def _plrv_branches(params: GammaPlrvParams) -> BranchFn:
    k, theta = params.k, params.theta

    def branches(x: np.ndarray, etas: np.ndarray, bends: bool = False,
                 out: np.ndarray | None = None,
                 out2: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray] | float:
        worst = (float(etas[-1]) - 1.0) * theta * float(np.max(x))
        if worst >= 1.0:
            raise MgfDomainViolation(
                f"gamma-seed MGF undefined at eta = {int(etas[-1])}: "
                f"(eta-1) * theta * x reaches {worst:.6g} >= 1"
            )
        if bends:  # k (-log1p(-w) - w) at w = y and w = -z
            np.multiply((etas[:, None] - 1.0) * theta, x[None, :], out=out[0])
            np.multiply(etas[:, None] * theta, x[None, :], out=out[1])
            np.negative(out[1], out=out[1])
            return k
        # -k log1p(-y) and -k log1p(z), each row written once: -y is built
        # as (1 - eta) theta x, which has the bits of -((eta - 1) theta x)
        lm1 = np.multiply((1.0 - etas[:, None]) * theta, x[None, :], out=out)
        np.log1p(lm1, out=lm1)
        lm1 *= -k
        lm2 = np.multiply(etas[:, None] * theta, x[None, :], out=out2)
        np.log1p(lm2, out=lm2)
        lm2 *= -k
        return lm1, lm2

    return branches


def _laplace_branches(params: LaplaceParams) -> BranchFn:
    inv_b = 1.0 / params.b

    def branches(x: np.ndarray, etas: np.ndarray, bends: bool = False,
                 out: np.ndarray | None = None,
                 out2: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray] | None:
        if bends:  # the logs are linear in x
            return None
        # x / b may overflow; the infinite moments are reported downstream
        with np.errstate(over="ignore"):
            scaled = inv_b * x[None, :]
            lm1 = np.multiply(etas[:, None] - 1.0, scaled, out=out)
            return lm1, np.multiply(-etas[:, None], scaled, out=out2)

    return branches


# Coefficients from w^2 on of expm1(w) - w and of -log1p(-w) - w; for
# |w| <= 1/16 the terms left out are below 1e-17 of the sum. Their first
# eight rows side by side, one column per stacked series: expm1 for lm1 and
# lm2, log1p for the bends' two arguments.
_EXPM1_TERMS = [1.0 / math.factorial(n) for n in range(2, 11)]
_LOG1P_TERMS = [1.0 / n for n in range(2, 16)]
_STACKED_TERMS = np.array([[e, e, l, l] for e, l in zip(_EXPM1_TERMS[:-1], _LOG1P_TERMS)]
                          )[:, :, None, None]


def _horner(acc: np.ndarray, w: np.ndarray, terms) -> np.ndarray:
    """acc w^n + terms[n-1] w^(n-1) + ... + terms[0], in place, by Horner's
    rule (n = len(terms)); a term may hold one coefficient per stacked
    layer of w."""
    for c in terms[::-1]:
        acc *= w
        acc += c
    return acc


def _series_columns(branches: BranchFn, x: np.ndarray, small: np.ndarray, etas: np.ndarray,
                    lm1: np.ndarray, lm2: np.ndarray, b1: np.ndarray,
                    b2: np.ndarray) -> np.ndarray:
    """K - 1 = b1 (expm1(lm1) - lm1 + bend1) + b2 (expm1(lm2) - lm2 + bend2)
    on the ``small`` columns, whose branch logs lm1, lm2 are all within
    1/16 (the tangents cancel). One Horner pass runs the series of the logs
    and of the bends' arguments w stacked, after the log1p series' terms
    above w^10 on the arguments alone: each layer takes the steps, and the
    bits, of its own series. An argument above 1/16 in size takes
    -log1p(-w) - w."""
    stack = np.empty((4, etas.size, np.count_nonzero(small)))
    np.compress(small, lm1, axis=1, out=stack[0])
    np.compress(small, lm2, axis=1, out=stack[1])
    k = branches(x[small], etas, bends=True, out=stack[2:])
    w = stack if k is not None else stack[:2]  # linear logs: no bends
    series = np.empty_like(w)
    series[:2] = _EXPM1_TERMS[-1]
    if k is not None:
        series[2:] = _LOG1P_TERMS[-1]
        _horner(series[2:], w[2:], _LOG1P_TERMS[len(_EXPM1_TERMS) - 1 : -1])
    _horner(series, w, _STACKED_TERMS[:, : w.shape[0]])
    series *= w
    series *= w
    if k is not None:
        args, bends = w[2:], series[2:]
        far = ~(np.abs(args) <= _SERIES_MAX)
        if far.any():
            bends[far] = -np.log1p(-args[far]) - args[far]
        bends *= k
        series[:2] += bends
    series[0] *= b1
    series[1] *= b2
    series[0] += series[1]
    return series[0]


@functools.lru_cache(maxsize=16)
def _branch_coefficients(eta_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (etas, b1, b2) for eta = 2..eta_max, built once per eta_max."""
    etas = np.arange(2, eta_max + 1, dtype=np.float64)
    out = etas, etas / (2.0 * etas - 1.0), (etas - 1.0) / (2.0 * etas - 1.0)
    for a in out:
        a.flags.writeable = False
    return out


def _block_ends(lam_cap: int) -> list[int]:
    """Ends of the row blocks of orders 1..lam_cap: 16, 32, 64, ..., the cap."""
    if lam_cap < 1:
        raise ValueError(f"moment orders must be positive integers, got [{lam_cap}]")
    ends = [min(_FIRST_ROWS, lam_cap)]
    while ends[-1] < lam_cap:
        ends.append(min(2 * ends[-1], lam_cap))
    return ends


def _log_sum_exp(log_w: np.ndarray, log_g: np.ndarray) -> np.ndarray:
    """(order, x) matrix of the exact log-sum-exp m + log sum exp(t - m),
    t = log w + log g, over each order's live weights: one contiguous run of
    etas (0..lam+1, or the single eta 0 or lam+1 at zeta = 0 or 1).

    The runs are aligned at offset 0 in one (order, eta, x) array per chunk
    of orders, padded with -inf, so the shift, the exp, the log and the add
    each take one call per chunk. Only each order's sum is its own call, on
    the contiguous (live, x) slice that a per-order loop sums: numpy sums a
    single column pairwise and several columns row by row, so summing a
    padded run, or a chunk of fewer columns, could change the bits."""
    live = log_w != LOG_ZERO
    starts, counts = live.argmax(axis=1), np.count_nonzero(live, axis=1)
    out = np.empty((log_w.shape[0], log_g.shape[1]))
    step = max(1, _LOG_SUM_EXP_CELLS // (int(counts.max()) * log_g.shape[1]))
    for lo in range(0, log_w.shape[0], step):
        n = counts[lo : lo + step]
        j = np.arange(n.max())
        inside = j < n[:, None]
        at = np.where(inside, starts[lo : lo + step, None] + j, 0)
        t = np.full((n.size, j.size, log_g.shape[1]), LOG_ZERO)
        np.add(np.take_along_axis(log_w[lo : lo + step], at, axis=1)[:, :, None], log_g[at],
               out=t, where=inside[:, :, None])
        m = t.max(axis=1)
        t -= m[:, None, :]
        np.exp(t, out=t)
        sums = out[lo : lo + step]
        for row, e, size in zip(sums, t, n):
            np.sum(e[:size], axis=0, out=row)
        np.log(sums, out=sums)
        np.add(m, sums, out=sums)
    return out


def _mix(log_w: np.ndarray, log_g: np.ndarray, ends: list[int]) -> Iterator[np.ndarray]:
    """Log-space mix: yields the (order, x) matrix of alpha = max(0, log
    sum_eta w(lam, eta) K(x, eta)) of each row block of ``ends``, from the log
    weight matrix and the (eta, x) log kernel ``log_g`` of every order up to
    its cap, by one shifted matrix product over the whole batch. A column
    with a scaled sum below 1e-250 in any order, or not finite, has lost
    precision and is mixed again by the exact log-sum-exp of
    :func:`_log_sum_exp`, a block of orders at a time; so is every column
    when a row has one live weight (zeta = 0 or 1). Each yielded block is
    its own rows of the batch's product, valid after later blocks."""
    log_w = log_w[:, : log_g.shape[0]]
    with np.errstate(divide="ignore", invalid="ignore"):
        rmax = log_w.max(axis=1, keepdims=True)
        cmax = log_g.max(axis=0)
        scaled = np.exp(log_w - rmax) @ np.exp(log_g - cmax)
        redo = ~np.all(scaled >= 1e-250, axis=0)  # NaN fails the test too
        redo |= np.any(np.count_nonzero(log_w != LOG_ZERO, axis=1) == 1)
    g = log_g[:, redo]
    for lo, hi in zip([0, *ends], ends):
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.log(scaled[lo:hi], out=scaled[lo:hi])
            alpha += cmax
            alpha += rmax[lo:hi]
            if g.shape[1]:
                alpha[:, redo] = _log_sum_exp(log_w[lo:hi], g)
        yield np.maximum(alpha, 0.0, out=alpha)


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


def _moments(branches: BranchFn, x: np.ndarray, zeta: float,
             lam_cap: int) -> Iterator[np.ndarray]:
    """Yields the (order, x) matrix of per-coordinate alpha of each row block
    of orders 1..lam_cap (see :func:`_block_ends`) in turn: the linear mix
    log1p(W @ (K - 1)), with the log-space :func:`_mix` for columns whose
    largest branch log exceeds 300 (or is not finite). At zeta = 0 or 1 each
    order has a single live weight, 1, so the linear mix is log1p(K - 1)
    itself.

    Block [lo, hi) builds its branch rows, eta = lo+2..hi+1: lm1 in K - 1,
    below those of the blocks before it, and lm2 in one block buffer, as
    many rows as the largest block, that every block shares. Once lm2 is
    added into K - 1, the block's product is written into the same buffer
    rows and yielded from them, so a yielded block is valid only until the
    next block is requested: a caller that keeps one copies it. The
    log-space columns mix on their whole kernel."""
    ends = _block_ends(lam_cap)
    eta_max = lam_cap + 1
    etas, b1, b2 = _branch_coefficients(eta_max)
    # row eta - 2 of K - 1, filled block by block. The first block's call also
    # builds the eta_max row, where lm1 and -lm2 are largest: its last row
    # when the block ends at the cap, else the row after it
    first = etas if ends[0] == lam_cap else np.concatenate((etas[: ends[0]], etas[-1:]))
    k_minus_1 = np.empty((eta_max, x.size))
    block = np.empty((max(first.size, *(hi - lo for lo, hi in zip([0, *ends], ends))), x.size))
    lm1, lm2 = branches(x, first, out=k_minus_1[: first.size], out2=block[: first.size])
    log_space = ~(lm1[-1] <= _LINEAR_MIX_MAX_LOG)  # NaN too
    small = np.maximum(lm1[-1], -lm2[-1]) <= _SERIES_MAX
    logs = (_mix(_log_weight_matrix(zeta, lam_cap),
                 _log_kernel(branches, x[log_space], eta_max), ends)
            if log_space.any() else None)
    w = _weight_matrix(zeta, lam_cap)
    for lo, hi in zip([0, *ends], ends):
        c1, c2 = b1[lo:hi, None], b2[lo:hi, None]
        if lo:
            lm1, lm2 = branches(x, etas[lo:hi], out=k_minus_1[lo:hi], out2=block[: hi - lo])
        lm1, lm2 = lm1[: hi - lo], lm2[: hi - lo]
        bent = None
        if small.any():  # the tangents cancel: K - 1 is a sum of nonnegative bends
            bent = _series_columns(branches, x, small, etas[lo:hi], lm1, lm2, c1, c2)
        # K - 1 = b1 expm1(lm1) + b2 expm1(lm2), built in the block's rows
        with np.errstate(over="ignore", invalid="ignore"):
            built = np.expm1(lm1, out=lm1)
            built *= c1
            np.expm1(lm2, out=lm2)
            lm2 *= c2
            built += lm2
            if bent is not None:
                built[:, small] = bent
            alpha = np.matmul(w[lo:hi, 2 : hi + 2], k_minus_1[:hi], out=block[: hi - lo])
            np.log1p(alpha, out=alpha)
        if logs is not None:
            alpha[:, log_space] = next(logs)
        yield np.maximum(alpha, 0.0, out=alpha)


def _branches(params: MechanismParams) -> BranchFn | None:
    """The mechanism's branch function; None for the x-free Gaussian."""
    if isinstance(params, GammaPlrvParams):
        return _plrv_branches(params)
    if isinstance(params, LaplaceParams):
        return _laplace_branches(params)
    if isinstance(params, GaussianParams):
        return None
    raise TypeError(f"unsupported mechanism params {type(params).__name__}")


@functools.lru_cache(maxsize=16)
def _head(clip_C: float, model_dim_N: int) -> np.ndarray:
    """Read-only head of the majorization set, x_1..x_h with
    h = min(N, HEAD_COORDINATES): built once per (C, N)."""
    xs = MajorizationSet(clip_C, model_dim_N).coordinates(
        1, min(model_dim_N, HEAD_COORDINATES))
    xs.flags.writeable = False
    return xs


def _tail(branches: BranchFn, job: AccountingJob,
          lam_cap: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yields (I32, |I32 - I16|) of each row block of orders 1..lam_cap: the
    integral of alpha(x(t)) over [HEAD_COORDINATES + 1/2, N + 1/2], in
    u = log t on 32 and on 16 panels. Needs N > HEAD_COORDINATES."""
    a, b = math.log(HEAD_COORDINATES + 0.5), math.log(job.model_dim_N + 0.5)
    u_fine, w_fine = gauss_legendre(a, b, _TAIL_PANELS)
    u_coarse, w_coarse = gauss_legendre(a, b, _TAIL_PANELS // 2)
    t = np.exp(np.concatenate([u_fine, u_coarse]))
    weights = np.concatenate([w_fine, w_coarse])
    x = majorizing_coordinates(job.clip_C, t)
    for f in _moments(branches, x, job.sampling_rate_zeta, lam_cap):
        f *= t  # dt = t du
        f *= weights
        fine = f[:, : u_fine.size].sum(axis=1)
        yield fine, np.abs(fine - f[:, u_fine.size :].sum(axis=1))


def _gaussian(params: GaussianParams, zeta: float, lam_cap: int) -> Iterator[np.ndarray]:
    """Yields the subsampled Gaussian's per-step moments of each row block
    of orders 1..lam_cap, from its kernel exp((eta^2 - eta) / (2 sigma^2))."""
    eta = np.arange(lam_cap + 2, dtype=np.float64)
    log_g = (eta * eta - eta) * (1.0 / (2.0 * params.sigma * params.sigma))
    log_w = _log_weight_matrix(zeta, lam_cap)
    for alpha in _mix(log_w, log_g[:, None], _block_ends(lam_cap)):
        yield alpha[:, 0]


def _per_step_blocks(params: MechanismParams, job: AccountingJob,
                     lam_cap: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yields, at the end hi of each row block of orders 1..lam_cap, the
    per-step moments of orders 1..hi and a lower bound on them, convex in
    the order ("Order search" in the module docstring), built block by block.

    The Gaussian moment is its own bound. plrvo and Laplace sum the exact
    head of the majorization set x_i = C (sqrt(i) - sqrt(i-1)), i = 1..N,
    and the tail's integral, plus its slack, which the bound leaves out."""
    zeta = job.sampling_rate_zeta
    branches = _branches(params)
    no_tail = itertools.repeat((0.0, 0.0))  # adding 0.0 keeps every bit
    if branches is None:
        sums, tails = _gaussian(params, zeta, lam_cap), no_tail
    else:
        xs = _head(job.clip_C, job.model_dim_N)
        sums = (alpha.sum(axis=1) for alpha in _moments(branches, xs, zeta, lam_cap))
        tails = _tail(branches, job, lam_cap) if xs.size < job.model_dim_N else no_tail
    ends = _block_ends(lam_cap)
    per_step, lower = np.empty(lam_cap), np.empty(lam_cap)
    for lo, hi, total, (integral, slack) in zip([0, *ends], ends, sums, tails):
        np.add(total, integral + slack, out=per_step[lo:hi])
        np.add(total, integral, out=lower[lo:hi])
        yield per_step[:hi], lower[:hi]


def _per_step(params: MechanismParams, job: AccountingJob,
              rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-step moments of orders 1..rows (default: the job's lambda_max) and
    their lower bound, from the blocks of the cap max(lambda_max, rows)."""
    rows = job.lambda_max if rows is None else rows
    if rows < 1:
        raise ValueError(f"moment orders must be positive integers, got [{rows}]")
    for per_step, lower in _per_step_blocks(params, job, max(job.lambda_max, rows)):
        if per_step.size >= rows:
            return per_step[:rows], lower[:rows]


def _univariate(branches: BranchFn, x: float, zeta: float, lam: int) -> float:
    """Row lam of one coordinate's moments at the cap lam."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    for alpha in _moments(branches, np.array([float(x)]), zeta, lam):
        last = float(alpha[-1, 0])
    return last


def plrv_univariate_log_moment(params: GammaPlrvParams, x: float, zeta: float,
                               lam: int) -> float:
    """Order-lambda log moment of the subsampled gamma-seed mechanism applied
    to a single coordinate bounded by x."""
    if lam * x * params.theta >= 1.0:
        raise MgfDomainViolation(
            f"lambda * x * theta = {lam * x * params.theta:.6g} >= 1",
            max_admissible_lambda=int(math.floor(1.0 / (x * params.theta))) - 1,
        )
    return _univariate(_plrv_branches(params), x, zeta, lam)


def laplace_univariate_log_moment(params: LaplaceParams, x: float, zeta: float,
                                  lam: int) -> float:
    """Order-lambda log moment of the subsampled fixed-scale Laplace mechanism
    on a single coordinate bounded by x."""
    return _univariate(_laplace_branches(params), x, zeta, lam)


def gaussian_subsampled_log_moment(params: GaussianParams, zeta: float, lam: int) -> float:
    """Per-step log moment of the subsampled Gaussian mechanism."""
    return float(list(_gaussian(params, zeta, lam))[-1][-1])


def plrv_multivariate_log_moment(params: GammaPlrvParams, job: AccountingJob,
                                 lam: int) -> float:
    """Per-step alpha(lambda) of the gamma-seed mechanism on an l2-clipped
    model of N coordinates, via the majorization set."""
    validate(job, params)
    return float(_per_step(params, job, lam)[0][-1])


def laplace_multivariate_log_moment(params: LaplaceParams, job: AccountingJob,
                                    lam: int) -> float:
    """Per-step alpha(lambda) of the fixed-scale Laplace mechanism on an
    l2-clipped model of N coordinates, via the majorization set."""
    return float(_per_step(params, job, lam)[0][-1])


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
    return _grid_min(range(1, lam_cap + 1), alpha, job.steps_T, job.delta)[0]


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


def epsilon_from_delta(curve: LogMomentCurve, delta: float) -> tuple[float, int]:
    """Tight conversion: minimize over the curve's integer moment grid.

    Ties break toward the smaller order. The curve must already be composed
    over steps (this function does not multiply by T).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    alphas = curve.alpha_per_step
    return _grid_min(tuple(alphas), np.array(list(alphas.values())), 1, delta)


def delta_from_epsilon(curve: LogMomentCurve, epsilon: float) -> float:
    """Tail-bound conversion: min over the grid of exp(alpha - lambda * eps),
    clamped to at most 1."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    best = min(curve.alpha_per_step[lam] - lam * epsilon for lam in curve.alpha_per_step)
    return min(1.0, math.exp(best))


@functools.lru_cache(maxsize=16)
def _order_terms(lams: Sequence[int],
                 delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only, for the ascending orders ``lams``: the orders as floats,
    log(lam / (lam + 1)) and (log delta + log(lam + 1)) / lam, the
    conversion's order-only terms, by ``math.log``; built once per (orders,
    delta)."""
    out = (np.array(lams, dtype=np.float64),
           np.array([math.log(lam / (lam + 1.0)) for lam in lams]),
           np.array([(math.log(delta) + math.log(lam + 1.0)) / lam for lam in lams]))
    for a in out:
        a.flags.writeable = False
    return out


def _grid_min(lams: Sequence[int], per_step: np.ndarray, steps_T: int,
              delta: float) -> tuple[float, int | None]:
    """(epsilon, argmin) of the conversion of the per-step moments of the
    ascending orders ``lams``, composed over steps_T steps:
    T alpha / lam + log(lam / (lam + 1)) - (log delta + log(lam + 1)) / lam,
    evaluated in that order. Ties break toward the smaller order; (inf,
    None) when every composed moment overflows. The one conversion behind
    every accountant entry point."""
    orders, log_ratio, log_tail = _order_terms(lams, delta)
    with np.errstate(over="ignore"):
        eps = steps_T * per_step
    eps /= orders
    eps += log_ratio
    eps -= log_tail
    best = int(eps.argmin())
    return (float(eps[best]), lams[best]) if eps[best] < math.inf else (math.inf, None)


# ---------------------------------------------------------------------------
# Job-level drivers

MECHANISM_TAGS = {
    GammaPlrvParams: "plrvo",
    GaussianParams: "gaussian",
    LaplaceParams: "laplace",
}


def _effective_job(job: AccountingJob, params: MechanismParams) -> AccountingJob:
    """The job with its lambda_max lowered to the effective cap, after the
    gamma-seed MGF check."""
    lam_cap = effective_lambda_max(job, params)
    job = job if lam_cap == job.lambda_max else replace(job, lambda_max=lam_cap)
    if isinstance(params, GammaPlrvParams):
        validate(job, params)
    return job


def build_curve(params: MechanismParams, job: AccountingJob) -> LogMomentCurve:
    """Per-step log-moment curve on every integer order up to the effective
    cap, for the job at its effective cap."""
    job = _effective_job(job, params)
    return LogMomentCurve(
        mechanism=MECHANISM_TAGS[type(params)],
        alpha_per_step=dict(enumerate(_per_step(params, job)[0].tolist(), start=1)),
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

    def to_json_dict(self) -> dict:
        """The result as JSON; the two constant keys name the one sum and
        the one order search that every result comes from."""
        return {
            "epsilon": self.epsilon,
            "argmin_lambda": self.argmin_lambda,
            "per_step_alpha_at_argmin": self.per_step_alpha_at_argmin,
            "mode": "exact",
            "lambda_search": "full",
        }


def _tangent_bound(lower: np.ndarray, lam_cap: int, steps_T: int,
                   delta: float) -> np.ndarray:
    """Lower bounds on the conversion at the orders m + 1..lam_cap from the
    tangent to ``lower`` (orders 1..m) through its last two orders; inf
    past the float range. numpy's log is within the search's 1e-9 margin."""
    m, last = lower.size, float(lower[-1])
    lam = np.arange(m + 1, lam_cap + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        alpha = steps_T * (last + (lam - m) * (last - float(lower[-2])))
        return (alpha / lam + np.log(lam / (lam + 1.0))
                - (math.log(delta) + np.log(lam + 1.0)) / lam)


def account(params: MechanismParams, job: AccountingJob) -> AccountResult:
    """End-to-end accounting: per-step moments, T-fold composition, and the
    tight conversion at the job's delta, minimized over the integer orders
    up to the effective cap.

    How the orders are searched, and why stopping early is safe, is told
    under "Order search" in the module docstring.
    """
    job_eff = _effective_job(job, params)
    cap = job_eff.lambda_max
    for per_step, lower in _per_step_blocks(params, job_eff, cap):
        bad = ~np.isfinite(per_step)
        if bad.any():
            l = int(bad.argmax())
            raise FloatingPointError(f"{MECHANISM_TAGS[type(params)]} per-step log "
                                     f"moment of order {l + 1} is {float(per_step[l])}")
        eps, lam = _grid_min(range(1, per_step.size + 1), per_step, job.steps_T, job.delta)
        if lower.size == cap or np.all(_tangent_bound(lower, cap, job.steps_T, job.delta)
                                       > eps + 1e-9 * abs(eps)):
            break
    if lam is None:
        raise FloatingPointError(f"{MECHANISM_TAGS[type(params)]} log moments composed "
                                 f"over {job.steps_T} steps overflow at every order")
    return AccountResult(epsilon=eps, argmin_lambda=lam,
                         per_step_alpha_at_argmin=float(per_step[lam - 1]))


def tail_slack(params: MechanismParams, job: AccountingJob) -> float | None:
    """The largest per-step tail slack |I32 - I16| over every order up to the
    effective cap: 0.0 with no tail (N <= HEAD_COORDINATES), None for the
    x-free Gaussian moment."""
    branches = _branches(params)
    if branches is None:
        return None
    job = _effective_job(job, params)
    if job.model_dim_N <= HEAD_COORDINATES:
        return 0.0
    return max(float(slack.max()) for _, slack in _tail(branches, job, job.lambda_max))
