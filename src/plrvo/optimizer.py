"""Constrained maximization of the clip-to-distortion ratio
J(k, theta, C) = C * (k - 1) * theta over the gamma-seed noise family.

Constraints:

  c0   clip_min <= C <= clip_max (user-supplied bounds)
  c1   Gamma CDF at inverse-scale 0.1 is ~0 (suppresses scales b > 10)
  c2   accounted epsilon(delta*) <= epsilon*
  c3   k > 1 (finite expected per-coordinate error)
  c4   (k - 1) * theta >= 1 / distortion_cap (caps distortion)
  mgf  lambda_max * C * theta < 1 (every accountant MGF argument exists)

The accountant sees theta and C only through the products theta * x_i,
with x_i = C (sqrt(i) - sqrt(i-1)), and the MGF bound and J only through
s = theta * C; c1 and c4 are lower bounds on theta, free of C. So an s
feasible at any C in [clip_min, clip_max] is feasible at clip_min, where
theta = s / clip_min is largest, and J = (k - 1) s ties across the clips.
The search runs at C = clip_min alone and returns C* = clip_min, the tied
clip with the smallest distortion; clip_max only bounds c0. At each k the
best feasible point is then the largest feasible theta, on the privacy
boundary. Nothing is random.

The top of the k range. Fix the mean scale b = 1 / (k theta) of the
inverse scale g ~ Gamma(k, theta). As k grows, g decreases in convex order,
since Gamma(t) / t of a gamma process is a reverse martingale (Shaked &
Shanthikumar 2007, Stochastic Orders, ch. 3). The kernel's two branches are
E phi(g) with phi convex: (1 - (eta-1) theta x)^-k = E exp((eta-1) g x) and
(1 + eta theta x)^-k = E exp(-eta g x). The mixing weights are nonnegative,
and plrvo's effective lambda cap, floor(k b / C) - 1, grows with k. So at
fixed b the exact epsilon is nonincreasing in k, and so is b_c2(k), the
smallest b that passes c2 at k; fixed-scale Laplace noise at b is the limit
k -> infinity. (Above the head's 4,096 coordinates the computed tail adds
the estimate |I32 - I16|, which is not ordered in k.) J = (C / b)(1 - 1/k)
then settles the box from its top, k = K_GRID_HI:

- Optimality. Any feasible (k, b) with k < K_GRID_HI has
  b >= b_c2(k) >= b_c2(K_GRID_HI) and a smaller 1 - 1/k, so the boundary at
  K_GRID_HI, where it exists, has the largest J in the box (to its 1e-7
  bracket). If that boundary is the MGF bound, every k shares the bound on
  theta, and J = C (k - 1) theta is largest at the top too.
- Infeasibility, where c2 fails at K_GRID_HI's floor. At fixed b, c1 holds
  iff b <= 10 x_q(k) / k, with x_q(k) the gamma_cdf_tol-quantile of
  Gamma(k, 1). For tol <= 1/2 that ceiling is nondecreasing in k. Gamma
  shapes are ordered in van Zwet's convex-transform order (van Zwet 1964),
  which implies the star order: q_k1(u) / q_k2(u) is nondecreasing in u for
  k1 <= k2, with q_k the quantile function of Gamma(k, 1). Berg & Pedersen
  (2006, the Chen-Rubin conjecture) show that k - m(k) decreases, with
  m(k) < k the median, so m(k) / k increases. So for u <= 1/2,
  q_k1(u) / k1 <= (m(k1) / m(k2)) q_k2(u) / k1 <= q_k2(u) / k2. c4's
  ceiling, distortion_cap (1 - 1/k), and the MGF bound's floor,
  (lambda_max + 1) C / k, also loosen with k. So where no b passes every
  constraint at K_GRID_HI, none does at a smaller k. Above tol 1/2, c1's
  ceiling can fall with k (at tol 0.55 it rises, then falls), and
  :func:`solve` scans K_GRID_POINTS logarithmic k in [K_GRID_LO, K_GRID_HI].

c1 and c4 are lower bounds on theta: c1's is a Gamma(k) quantile
(:func:`_c1_floor`, on the accumulate-summed incomplete gamma series), c4's
is closed form, and the search takes their maximum once per k. Every c2
probe accounts epsilon on the full lambda grid, the same computation as the
final verification, so the returned point's report reuses the probe's
entry.

The boundary theta at k (:func:`_boundary_theta`) is the largest theta
accounted as passing at k once Brent's method has narrowed the sign bracket
of log epsilon - log epsilon* in log theta below 1e-7; an accounted fail,
or the MGF bound, lies within that factor above it. The MGF bound, the
bracket's top, is first screened by a certified lower bound on epsilon
(:func:`_mgf_screen`). Where that bound is at least twice the target, the
top fails without an accountant call, which would be the boundary's
costliest: its moments are mixed in log space.

The screen's bounds never enter the c2 cache, so every reported epsilon is
an accounted one, and the returned point's report is its own accounted
entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .accountant import account, plrv_epsilon_lower_bound
from .numerics import normal_inv_cdf, regularized_lower_gamma
from .params import (
    AccountingJob,
    GammaPlrvParams,
    InfeasibleError,
    OptimizationResult,
    PrivacyTarget,
)

K_GRID_LO, K_GRID_HI, K_GRID_POINTS = 1.0 + 1e-3, 1e6, 20


@dataclass(frozen=True)
class FeasibilityConfig:
    """Search box and tolerances for :func:`solve`.

    ``job_skeleton`` supplies (T, zeta, N, delta, lambda_max); its clip value
    is ignored and replaced by each point's C. c2 accounts at the job's
    delta, so the target's delta_star must equal it. ``gamma_cdf_tol``
    operationalizes the "approximately zero" Gamma CDF in c1;
    ``distortion_cap`` is c4's ceiling on 1 / ((k-1) * theta).
    """

    clip_min: float
    clip_max: float
    target: PrivacyTarget
    job_skeleton: AccountingJob
    gamma_cdf_tol: float = 1e-6
    distortion_cap: float = 10.0
    _jobs: dict[float, AccountingJob] = field(default_factory=dict, init=False,
                                              repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.clip_min <= self.clip_max:
            raise ValueError(
                f"need 0 < clip_min <= clip_max, got [{self.clip_min}, {self.clip_max}]")
        if not math.isfinite(self.clip_max):
            raise ValueError(
                f"clip_min and clip_max must be finite, got [{self.clip_min}, {self.clip_max}]")
        if self.target.delta_star != self.job_skeleton.delta:
            raise ValueError(f"target delta_star must equal the job's delta "
                             f"{self.job_skeleton.delta}, got {self.target.delta_star}")
        if not 0.0 < self.gamma_cdf_tol < 1.0:
            raise ValueError(f"gamma_cdf_tol must be in (0, 1), got {self.gamma_cdf_tol}")
        if not self.distortion_cap > 0:
            raise ValueError(f"distortion_cap must be > 0, got {self.distortion_cap}")

    def job_for(self, clip_C: float) -> AccountingJob:
        """The skeleton job at clip_C, built (and validated) once per clip."""
        job = self._jobs.get(clip_C)
        if job is None:
            job = self._jobs[clip_C] = replace(self.job_skeleton, clip_C=clip_C)
        return job


def objective(k: float, theta: float, C: float) -> float:
    return C * (k - 1.0) * theta


def _cheap_constraints(k: float, theta: float, C: float,
                       cfg: FeasibilityConfig) -> dict[str, dict]:
    """Every constraint except the accountant-backed c2."""
    report: dict[str, dict] = {}
    m0 = min(C - cfg.clip_min, cfg.clip_max - C)
    report["c0"] = {"passed": m0 >= 0.0, "margin": m0}
    report["c3"] = {"passed": k > 1.0, "margin": k - 1.0}
    cdf = regularized_lower_gamma(max(k, 1e-12), 0.1 / theta)
    report["c1"] = {"passed": cdf <= cfg.gamma_cdf_tol, "margin": cfg.gamma_cdf_tol - cdf}
    m4 = (k - 1.0) * theta - 1.0 / cfg.distortion_cap if k > 1.0 else -math.inf
    report["c4"] = {"passed": m4 >= 0.0, "margin": m4}
    m_mgf = 1.0 - cfg.job_skeleton.lambda_max * C * theta
    report["mgf"] = {"passed": m_mgf > 0.0, "margin": m_mgf}
    return report


def _c2_report(point: tuple[float, float, float], cfg: FeasibilityConfig) -> dict:
    """c2's entry: the accounted epsilon at (k, theta, C), on the full lambda
    grid, against the target."""
    k, theta, C = point
    eps = account(GammaPlrvParams(k=k, theta=theta), cfg.job_for(C)).epsilon
    return {"passed": eps <= cfg.target.epsilon_star,
            "margin": cfg.target.epsilon_star - eps,
            "epsilon": eps}


def check_feasible(point: tuple[float, float, float],
                   cfg: FeasibilityConfig) -> dict[str, dict]:
    """Full constraint report with signed margins at (k, theta, C).

    Infeasibility is data, not an exception: every constraint is reported.
    c2 carries the accounted epsilon when the MGF constraint allows
    evaluating it.
    """
    return _SearchState(cfg=cfg).report(point)


def all_pass(report: dict[str, dict]) -> bool:
    return all(entry["passed"] for entry in report.values())


def _c1_floor(k: float, tol: float) -> float:
    """Smallest theta whose gamma tail passes c1, P(k, 0.1 / theta) <= tol,
    clamped below at 1e-12: 0.1 / x_q for the tol-quantile x_q of Gamma(k).

    x_q is the root of f(u) = log P(k, e^u) - log tol, solved by Newton's
    method in u = log x from the Wilson-Hilferty approximation; f' is
    x * density / P, closed form through lgamma. log X has a log-concave
    density for X ~ Gamma(k), so f is concave and increasing, and Newton
    approaches the root from the passing side after at most one step, and
    falls short of it. So a step that reaches the failing end of the sign
    bracket shows that end within rounding of the root, and is replaced by
    a probe 0.5e-13 below it; any other step that leaves the bracket, by
    bisection. It stops once a passing iterate's step, or the bracket, is
    below 1e-13 in log x. 0.1 over that iterate is then stepped up an ulp at
    a time until it passes c1 (the computed CDF is not monotone at the ulp
    scale), so the floor always passes."""
    log_tol = math.log(tol)
    log_gamma_k = math.lgamma(k)
    base = 1.0 - 1.0 / (9.0 * k) + normal_inv_cdf(tol) / (3.0 * math.sqrt(k))
    if base > 0.0:
        u = math.log(k) + 3.0 * math.log(base)
    else:  # small k and tol: P(k, x) ~ x^k / Gamma(k + 1)
        u = (log_tol + math.lgamma(k + 1.0)) / k
    lo, hi, x_pass = -math.inf, math.inf, None
    for _ in range(100):
        x = math.exp(u)
        p = regularized_lower_gamma(k, x)
        if p > 0.0:
            f = math.log(p) - log_tol
            # -f(u) / f'(u); a step too long to represent leaves the bracket anyway
            step = -f * math.exp(min(x - k * u + log_gamma_k + math.log(p), 700.0))
        else:  # P underflows far below the root
            f, step = -math.inf, math.nan
        if p > tol:
            hi = u
        else:
            lo, x_pass = u, x
            if step <= 1e-13:
                break
        if hi - lo <= 1e-13:
            break
        nxt = u + step
        if not lo < nxt < hi:  # NaN fails too
            if math.isfinite(hi) and nxt >= hi:
                nxt = hi - 0.5e-13
            elif math.isfinite(lo) and math.isfinite(hi):
                nxt = 0.5 * (lo + hi)
            else:
                nxt = u + 1.0 if hi == math.inf else u - 1.0
        u = nxt
    theta = max(0.1 / (x if x_pass is None else x_pass), 1e-12)
    while 0.1 / theta != x_pass and regularized_lower_gamma(k, 0.1 / theta) > tol:
        theta = math.nextafter(theta, math.inf)
    return theta


@dataclass
class _Bracket:
    """The accounted points with the largest passing and the smallest failing
    theta at one k: the accounted epsilon increases with theta."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_point: tuple[float, float, float] | None = None
    hi_point: tuple[float, float, float] | None = None

    def add(self, point: tuple[float, float, float], passed: bool) -> None:
        theta = point[1]
        if passed and theta > self.lo:
            self.lo, self.lo_point = theta, point
        elif not passed and theta < self.hi:
            self.hi, self.hi_point = theta, point


_NO_BRACKET = _Bracket()


@dataclass
class _SearchState:
    """The search's accounted c2 entries, and the verdicts they imply.

    Every point the search accounts lies at one clip, ``cfg.clip_min``
    (:func:`check_feasible`'s state holds a single point). Per k the state
    keeps the bracket of accounted verdicts in theta. Verdicts known without
    accounting never enter ``c2_cache``."""

    cfg: FeasibilityConfig
    c2_cache: dict[tuple[float, float, float], dict] = field(default_factory=dict)
    theta_floors: dict[float, float] = field(default_factory=dict)
    brackets: dict[float, _Bracket] = field(default_factory=dict)

    def c2_entry(self, point: tuple[float, float, float]) -> dict:
        entry = self.c2_cache.get(point)
        if entry is None:
            entry = self.c2_cache[point] = _c2_report(point, self.cfg)
            self.brackets.setdefault(point[0], _Bracket()).add(point, entry["passed"])
        return entry

    def excess(self, entry: dict) -> float:
        """log epsilon - log epsilon* of an accounted entry, with the sign of
        its verdict where the two logs round to a tie. It is never 0, so
        Brent's method stops on its bracket's width alone."""
        eps = entry["epsilon"]
        g = (math.log(eps) - math.log(self.cfg.target.epsilon_star) if eps > 0.0
             else -math.inf)
        return min(g, -math.ulp(0.0)) if entry["passed"] else max(g, math.ulp(0.0))

    def known(self, point: tuple[float, float, float]) -> bool | None:
        """c2's verdict at point when the accounted entries at its k decide
        it, else None: its own entry, or a theta at or beyond an accounted
        one at the same k."""
        entry = self.c2_cache.get(point)
        if entry is not None:
            return entry["passed"]
        k, theta, _ = point
        at_k = self.brackets.get(k, _NO_BRACKET)
        if theta <= at_k.lo:
            return True
        if theta >= at_k.hi:
            return False
        return None

    def passes(self, point: tuple[float, float, float]) -> bool:
        """c2's verdict at point: the known one if there is one, else the
        accounted one."""
        verdict = self.known(point)
        return self.c2_entry(point)["passed"] if verdict is None else verdict

    def theta_floor(self, k: float) -> float:
        """Smallest theta passing c1 and c4 at k > 1. Both are lower bounds
        on theta (the gamma tail and the distortion cap relax as theta
        grows), so the thetas passing both are those from this floor up."""
        if k not in self.theta_floors:
            self.theta_floors[k] = max(1.0 / (self.cfg.distortion_cap * (k - 1.0)),
                                       _c1_floor(k, self.cfg.gamma_cdf_tol))
        return self.theta_floors[k]

    def report(self, point: tuple[float, float, float]) -> dict[str, dict]:
        """:func:`check_feasible`'s report, with c2 from this search's cache."""
        k, theta, C = point
        if not (k > 0 and theta > 0 and C > 0):
            return {name: {"passed": False, "margin": -math.inf}
                    for name in ("c0", "c1", "c2", "c3", "c4", "mgf")}
        report = _cheap_constraints(k, theta, C, self.cfg)
        if report["mgf"]["passed"] and report["c0"]["passed"]:
            report["c2"] = self.c2_entry(point)
        else:
            report["c2"] = {"passed": False, "margin": -math.inf, "epsilon": None}
        return report


def _theta_hi(cfg: FeasibilityConfig) -> float:
    """The search's largest theta: just under the MGF bound at clip_min."""
    return (1.0 - 1e-6) / (cfg.clip_min * (cfg.job_skeleton.lambda_max + 1))


def _k_grid() -> list[float]:
    """The k values :func:`_scan` visits, ascending."""
    return np.geomspace(K_GRID_LO, K_GRID_HI, K_GRID_POINTS).tolist()


def _brent(g, a: float, ga: float, b: float, gb: float, xtol: float) -> None:
    """Brent's bracketing root-finder (Brent 1973, ch. 4, in the layout of
    scipy's brentq) on g over [a, b] with g(a) <= 0 < g(b). It stops once
    the sign bracket is narrower than xtol, or g is exactly 0. Returns
    nothing: the caller reads what it needs from the points g was called at.
    Interpolation needs finite values; a non-finite one makes it bisect."""
    xpre, fpre, xcur, fcur = a, ga, b, gb
    xblk, fblk, spre, scur = a, ga, 0.0, 0.0
    delta = 0.5 * xtol
    for _ in range(200):
        if (fpre <= 0.0) != (fcur <= 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return
        if (abs(spre) > delta and abs(fcur) < abs(fpre)
                and math.isfinite(fpre) and math.isfinite(fblk)):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = g(xcur)


def _mgf_screen(cfg: FeasibilityConfig, k: float, theta: float, C: float) -> float | None:
    """log(bound / epsilon*) for the certified lower bound on the accounted
    epsilon at (k, theta, C) (:func:`plrv_epsilon_lower_bound`), when the
    bound is at least 2 epsilon*: the point then fails c2 with a margin far
    above rounding, and needs no accountant call. None otherwise."""
    bound = plrv_epsilon_lower_bound(GammaPlrvParams(k=k, theta=theta), cfg.job_for(C))
    if bound >= 2.0 * cfg.target.epsilon_star:
        return math.log(bound) - math.log(cfg.target.epsilon_star)
    return None


def _boundary_theta(state: _SearchState, k: float) -> tuple[float, float] | None:
    """Largest feasible theta at k and C = clip_min with all constraints, and
    its J, or None.

    The accounted epsilon is monotone increasing in theta while c1 and c4
    are lower bounds, so the feasible thetas form an interval from the floor
    up, whose top is either the MGF bound or the c2 boundary. When the MGF
    bound fails c2 the result is the largest theta accounted as passing at
    k once Brent's method, on log epsilon - log epsilon* in log theta, has
    narrowed the sign bracket below 1e-7: an accounted fail at k, or the MGF
    bound failed by :func:`_mgf_screen`, lies within a factor e^(1e-7)
    above it.

    The MGF bound's entry is not accounted when :func:`_mgf_screen` shows it
    fails; the screen's log excess then stands in for the accounted one as
    Brent's value there. From [floor, MGF bound] Brent takes about 7
    accountant calls."""
    cfg = state.cfg
    if not k > 1.0:
        return None
    C = cfg.clip_min
    theta_hi = _theta_hi(cfg)
    floor = state.theta_floor(k)
    if floor > theta_hi:
        return None

    top = (k, theta_hi, C)
    screened = None
    top_passes = state.known(top)
    if top_passes is None:
        screened = _mgf_screen(cfg, k, theta_hi, C)
        top_passes = screened is None and state.c2_entry(top)["passed"]
    if top_passes:
        return theta_hi, objective(k, theta_hi, C)
    if not state.passes((k, floor, C)):
        return None

    at_k = state.brackets[k]
    if at_k.hi_point is None:  # the screen failed the top
        hi, hi_excess = theta_hi, screened
    else:
        hi, hi_excess = at_k.hi, state.excess(state.c2_cache[at_k.hi_point])
    _brent(lambda u: state.excess(state.c2_entry((k, math.exp(u), C))),
           math.log(at_k.lo), state.excess(state.c2_cache[at_k.lo_point]),
           math.log(hi), hi_excess, 1e-7)
    return at_k.lo, objective(k, at_k.lo, C)


def _infeasible(cfg: FeasibilityConfig, constraint: str, margin: float) -> InfeasibleError:
    return InfeasibleError("no feasible point in the configured box",
                           diagnostics={f"clip={cfg.clip_min:g}": {"constraint": constraint,
                                                                   "margin": margin}})


def _scan(state: _SearchState) -> tuple[float, float]:
    """The best (k, theta) over the boundaries at :func:`_k_grid`'s k.

    Raises :class:`InfeasibleError` when no k has one, naming c2 with its
    largest margin over the points the scan accounted."""
    best = None
    for k in _k_grid():
        boundary = _boundary_theta(state, k)
        if boundary is not None and (best is None or boundary[1] > best[2]):
            best = (k, *boundary)
    if best is None:
        raise _infeasible(state.cfg, "c2", max(e["margin"] for e in state.c2_cache.values()))
    return best[:2]


def solve(cfg: FeasibilityConfig) -> OptimizationResult:
    """Deterministic search for the feasible J maximum.

    J and every constraint but c0 see theta and C only through
    s = theta * C, or bound theta from below, so clip_min admits every s
    that a clip in the box admits, and J = (k - 1) s ties across them. The
    search runs at clip_min and returns C* = clip_min, the tied clip with
    the smallest distortion; clip_max only bounds c0. (The README's job
    file, with clip_min 5 and clip_max 10, returns C* = 5.)

    In order, as the module docstring argues from the top of the k range:

    0. If c1's and c4's floor at K_GRID_HI lies above the MGF bound, so do
       the floors of every smaller k: the diagnostics name mgf with the
       floor's relative margin below :func:`_theta_hi`.
    1. The boundary theta at K_GRID_HI (:func:`_boundary_theta`), where it
       exists, is returned: no k in the box has a larger J.
    2. Otherwise c2 fails at K_GRID_HI's floor. At gamma_cdf_tol <= 1/2 no
       k is feasible, and the diagnostics name c2 with the floor's
       accounted margin.
    3. Above tol 1/2, the best boundary over :func:`_k_grid`'s k
       (:func:`_scan`).

    The result embeds the returned point's full constraint report (c2 on
    the full lambda grid, from the search's cache).
    """
    C = cfg.clip_min
    state = _SearchState(cfg=cfg)
    theta_hi = _theta_hi(cfg)
    floor = state.theta_floor(K_GRID_HI)
    if floor > theta_hi:  # the floors fall as k grows: no k has a feasible theta
        raise _infeasible(cfg, "mgf", 1.0 - floor / theta_hi)
    edge = _boundary_theta(state, K_GRID_HI)
    if edge is not None:
        k_best, theta_best = K_GRID_HI, edge[0]
    elif cfg.gamma_cdf_tol <= 0.5:
        raise _infeasible(cfg, "c2", state.c2_cache[(K_GRID_HI, floor, C)]["margin"])
    else:
        k_best, theta_best = _scan(state)
    best = (k_best, theta_best, C)

    final_report = state.report(best)
    if not all_pass(final_report):
        # every probe's c2 is the full-grid one, so this can only trip on a
        # bug, or if the computed epsilon were not monotone in theta (the
        # boundary search infers verdicts from that); never certify anyway
        raise InfeasibleError("refined point failed final verification",
                              diagnostics=final_report)
    return OptimizationResult(
        k_star=k_best,
        theta_star=theta_best,
        C_star=C,
        achieved_epsilon=final_report["c2"]["epsilon"],
        achieved_distortion=1.0 / ((k_best - 1.0) * theta_best),
        snr=objective(k_best, theta_best, C),
        constraint_report=final_report,
    )
