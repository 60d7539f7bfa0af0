"""Constrained maximization of the clip-to-distortion ratio
J(k, theta, C) = C * (k - 1) * theta over the gamma-seed noise family.

Constraints:

  c0   clip_min <= C <= clip_max (user-supplied bounds)
  c1   Gamma CDF at inverse-scale 0.1 is ~0 (suppresses scales b > 10)
  c2   accounted epsilon(delta*) <= epsilon*
  c3   k > 1 (finite expected per-coordinate error)
  c4   (k - 1) * theta >= 1 / distortion_cap (caps distortion)
  mgf  lambda_max * C * theta < 1 (every accountant MGF argument exists)

The search is deterministic and derivative-free. Phase A finds the exact
feasible argmax of J over a logarithmic (k, theta) x linear C grid, walking
each clip slice with a monotone staircase so the privacy constraint is
evaluated only near its own boundary. Phase B refines with coordinate-wise
golden section along the feasibility boundary (each k or C probe snaps
theta to its largest feasible value, so every probe is feasibility-checked)
until the relative J improvement drops below 1e-4.

c1 and c4 are lower bounds on theta: c1's is a Gamma(k) quantile
(:func:`_c1_floor`, on the accumulate-summed incomplete gamma series), c4's
is closed form, and the search takes their maximum once per k. Every c2
probe accounts epsilon on the full lambda grid, the same computation as the
final verification, so the returned point's report reuses the probe's
entry.

Snapping theta to the c2 boundary is defined as a bisection in log theta,
but :func:`_boundary_theta` replays it rather than running it. Epsilon
increases with theta, so every midpoint outside the bracket of accounted
verdicts takes the verdict the bisection would have computed. Brent's
method narrows that bracket first, after which the replay accounts almost
no midpoint. The MGF bound, the bracket's top, is first screened by a
certified lower bound on epsilon (:func:`_mgf_screen`). Where that bound
is at least twice the target, the top fails without an accountant call,
which would be the boundary's costliest: its moments are mixed in log
space.

The accountant sees theta and C only through the products theta * x_i,
with x_i = C (sqrt(i) - sqrt(i-1)), and the MGF bound and J only through
s = theta * C. So for each k the search keeps the largest s accounted as
passing and the smallest accounted as failing, and a point whose s lies at
least 1e-9 below (above) them, relative, takes a known pass (fail) with no
accountant call. Across random (k, s, C, C', N, L, zeta, T) the accounted
epsilon of two decompositions of s differs by at most a few 1e-15
relative, over 10^5 times less than that margin (tested at 1e-12). Phase
A's staircase asks for these verdicts before it accounts a grid point,
and :func:`_boundary_theta` takes them at its ends, in its replay, and
as Brent's starting bracket, so each clip slice and C probe no longer
re-derives the boundary in s that the others found. At a single clip
value monotonicity in theta stays exact, with no margin.

Every inference keeps the bisection's and the grid's bits. Bounds and
inferred verdicts never enter the c2 cache, so every reported epsilon is
an accounted one, and the final verification still accounts the returned
point itself. Exit-3 diagnostics account the grid points whose verdicts
Phase A inferred, so they report accounted margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .accountant import account, plrv_epsilon_lower_bound
from .numerics import regularized_lower_gamma
from .params import (
    AccountingJob,
    GammaPlrvParams,
    OptimizationResult,
    PrivacyTarget,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

K_GRID_LO, K_GRID_HI, K_GRID_POINTS = 1.0 + 1e-3, 1e6, 60
THETA_GRID_LO, THETA_GRID_POINTS = 1e-7, 60
C_GRID_POINTS = 8


class InfeasibleError(RuntimeError):
    """No point in the configured box satisfies every constraint."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class FeasibilityConfig:
    """Search box and tolerances for :func:`solve`.

    ``job_skeleton`` supplies (T, zeta, N, delta, lambda_max); its clip value
    is ignored and replaced by each candidate C. ``gamma_cdf_tol``
    operationalizes the "approximately zero" Gamma CDF in c1;
    ``distortion_cap`` is c4's ceiling on 1 / ((k-1) * theta).
    """

    clip_min: float
    clip_max: float
    target: PrivacyTarget
    job_skeleton: AccountingJob
    gamma_cdf_tol: float = 1e-6
    distortion_cap: float = 10.0

    def __post_init__(self):
        if not 0 < self.clip_min <= self.clip_max:
            raise ValueError(
                f"need 0 < clip_min <= clip_max, got [{self.clip_min}, {self.clip_max}]")
        if not 0.0 < self.gamma_cdf_tol < 1.0:
            raise ValueError(f"gamma_cdf_tol must be in (0, 1), got {self.gamma_cdf_tol}")
        if not self.distortion_cap > 0:
            raise ValueError(f"distortion_cap must be > 0, got {self.distortion_cap}")

    def job_for(self, clip_C: float) -> AccountingJob:
        return replace(self.job_skeleton, clip_C=clip_C)


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
    x * density / P, closed form through lgamma. A step that leaves the sign
    bracket is replaced by bisection. log X has a log-concave density for
    X ~ Gamma(k), so f is concave and increasing, and Newton approaches the
    root from the passing side after at most one step. It stops once a
    passing iterate's step, or the bracket, is below 1e-13 in log x. 0.1
    over that iterate is then stepped up an ulp at a time until it passes c1
    (the computed CDF is not monotone at the ulp scale), so the floor always
    passes."""
    # statistics imports decimal and fractions: load it only when solving
    from statistics import NormalDist

    log_tol = math.log(tol)
    log_gamma_k = math.lgamma(k)
    base = 1.0 - 1.0 / (9.0 * k) + NormalDist().inv_cdf(tol) / (3.0 * math.sqrt(k))
    if base > 0.0:
        u = math.log(k) + 3.0 * math.log(base)
    else:  # small k and tol: P(k, x) ~ x^k / Gamma(k + 1)
        u = (log_tol + math.lgamma(k + 1.0)) / k
    lo, hi, x_pass = -math.inf, math.inf, None
    for _ in range(100):
        x = math.exp(u)
        p = regularized_lower_gamma(k, x)
        if p > 0.0:
            # -f(u) / f'(u); a step too long to represent leaves the bracket anyway
            step = (log_tol - math.log(p)) * math.exp(
                min(x - k * u + log_gamma_k + math.log(p), 700.0))
        else:  # P underflows far below the root
            step = math.nan
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
            if math.isfinite(lo) and math.isfinite(hi):
                nxt = 0.5 * (lo + hi)
            else:
                nxt = u + 1.0 if hi == math.inf else u - 1.0
        u = nxt
    theta = max(0.1 / (x if x_pass is None else x_pass), 1e-12)
    while 0.1 / theta != x_pass and regularized_lower_gamma(k, 0.1 / theta) > tol:
        theta = math.nextafter(theta, math.inf)
    return theta


S_MARGIN = 1e-9  # relative margin of a c2 verdict inferred from theta * C


@dataclass
class _Bracket:
    """The accounted points with the largest passing and the smallest failing
    value of a coordinate that the accounted epsilon increases with."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_point: tuple[float, float, float] | None = None
    hi_point: tuple[float, float, float] | None = None

    def add(self, value: float, point: tuple[float, float, float], passed: bool) -> None:
        if passed and value > self.lo:
            self.lo, self.lo_point = value, point
        elif not passed and value < self.hi:
            self.hi, self.hi_point = value, point


_NO_BRACKET = _Bracket()


@dataclass
class _SearchState:
    """The search's accounted c2 entries, and the verdicts they imply.

    Per k it keeps the bracket of accounted verdicts in s = theta * C (the
    accounted epsilon depends on theta and C only through s) and per (k, C)
    the bracket in theta. ``inferred`` collects the points whose verdict was
    known without accounting them; they never enter ``c2_cache``."""

    cfg: FeasibilityConfig
    c2_cache: dict[tuple[float, float, float], dict] = field(default_factory=dict)
    theta_floors: dict[float, float] = field(default_factory=dict)
    s_brackets: dict[float, _Bracket] = field(default_factory=dict)
    theta_brackets: dict[tuple[float, float], _Bracket] = field(default_factory=dict)
    inferred: set[tuple[float, float, float]] = field(default_factory=set)

    def c2_entry(self, point: tuple[float, float, float]) -> dict:
        entry = self.c2_cache.get(point)
        if entry is None:
            entry = self.c2_cache[point] = _c2_report(point, self.cfg)
            k, theta, C = point
            self.s_brackets.setdefault(k, _Bracket()).add(theta * C, point, entry["passed"])
            self.theta_brackets.setdefault((k, C), _Bracket()).add(theta, point,
                                                                   entry["passed"])
        return entry

    def known(self, point: tuple[float, float, float]) -> bool | None:
        """c2's verdict at point when the accounted entries decide it, else
        None: its own entry; a theta at or beyond an accounted one at the
        same (k, C), exactly; or an s = theta * C at least S_MARGIN beyond
        an accounted one at k, relative. That margin is over 10^5 times the
        spread of the accounted epsilon across decompositions of s."""
        entry = self.c2_cache.get(point)
        if entry is not None:
            return entry["passed"]
        k, theta, C = point
        same_clip = self.theta_brackets.get((k, C), _NO_BRACKET)
        if theta <= same_clip.lo:
            return True
        if theta >= same_clip.hi:
            return False
        s, at_k = theta * C, self.s_brackets.get(k, _NO_BRACKET)
        if s <= at_k.lo * (1.0 - S_MARGIN):
            return True
        if s >= at_k.hi * (1.0 + S_MARGIN):
            return False
        return None

    def passes(self, point: tuple[float, float, float]) -> bool:
        """c2's verdict at point: the known one if there is one (recorded in
        ``inferred`` unless accounted), else the accounted one."""
        verdict = self.known(point)
        if verdict is None:
            return self.c2_entry(point)["passed"]
        if point not in self.c2_cache:
            self.inferred.add(point)
        return verdict

    def bracket(self, k: float, C: float) -> tuple[tuple[float, dict | None],
                                                   tuple[float, dict | None]]:
        """The narrowest known bracket of c2's boundary in theta at (k, C):
        ((theta, entry) of the passing end, (theta, entry) of the failing
        end), from the accounted points at (k, C) and at k, the latter moved
        to clip C at equal s. An end with no accounted point is (+-inf,
        None)."""
        same_clip = self.theta_brackets.get((k, C), _NO_BRACKET)
        at_k = self.s_brackets.get(k, _NO_BRACKET)

        def end(points, pick, none):
            known = [(p[1] if p[2] == C else p[1] * p[2] / C, p) for p in points if p]
            theta, point = pick(known) if known else (none, None)
            return theta, None if point is None else self.c2_cache[point]

        return (end((same_clip.lo_point, at_k.lo_point), max, -math.inf),
                end((same_clip.hi_point, at_k.hi_point), min, math.inf))

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


def _phase_a_grid(cfg: FeasibilityConfig) -> tuple[np.ndarray, list[tuple[float, np.ndarray]]]:
    """Phase A's grid: the k values, and per clip value the ascending theta
    values below the MGF bound (clips whose bound is under the grid floor
    are left out)."""
    ks = np.geomspace(K_GRID_LO, K_GRID_HI, K_GRID_POINTS)
    if cfg.clip_min == cfg.clip_max:
        cs = np.array([cfg.clip_min])
    else:
        cs = np.linspace(cfg.clip_min, cfg.clip_max, C_GRID_POINTS)
    lam_next = cfg.job_skeleton.lambda_max + 1
    slices = []
    for C in (float(c) for c in cs):
        theta_hi = (1.0 - 1e-6) / (C * lam_next)
        if theta_hi > THETA_GRID_LO:
            slices.append((C, np.geomspace(THETA_GRID_LO, theta_hi, THETA_GRID_POINTS)))
    return ks, slices


def _golden_max(f, lo: float, hi: float, log_space: bool,
                iters: int = 20) -> tuple[float, float]:
    """Golden-section maximization of f over [lo, hi]; f may return -inf.

    Returns the best probed (x, f(x)) including the endpoints.
    """

    def transform(t):
        return math.exp(t) if log_space else t

    a = math.log(lo) if log_space else lo
    b = math.log(hi) if log_space else hi
    best_x, best_f = None, -math.inf

    def evaluate(t):
        nonlocal best_x, best_f
        x = transform(t)
        val = f(x)
        if val > best_f:
            best_f, best_x = val, x
        return val

    evaluate(a)
    evaluate(b)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = evaluate(x1), evaluate(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = evaluate(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = evaluate(x1)
        if abs(b - a) <= 1e-7 * max(1.0, abs(a) + abs(b)):
            break
    return best_x, best_f


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


def _boundary_theta(state: _SearchState, k: float, C: float) -> tuple[float, float] | None:
    """Largest feasible theta at (k, C) with all constraints, or None.

    The accounted epsilon is monotone increasing in theta while c1 and c4
    are lower bounds, so the feasible thetas form an interval whose top is
    either the MGF bound or the c2 boundary. The result is defined by a
    bisection of the latter in log theta, from the floor up to the MGF
    bound, stopping once the bracket is at most 1e-7 wide. Returns
    (theta, J).

    The bisection is replayed, not run: each midpoint takes its known
    verdict (:meth:`_SearchState.known`), by monotonicity in theta at
    (k, C) or through s = theta * C across clip values, and only a midpoint
    that no accounted entry decides is accounted. So the replay takes the
    same verdicts at the same midpoints, and returns the same bits. The MGF
    bound and the floor take known verdicts too. The MGF bound's entry is
    not accounted when :func:`_mgf_screen` shows it fails; the screen's log
    excess then stands in for the accounted one as Brent's value there.
    Before the replay, Brent's method on log epsilon - log epsilon* in
    log theta narrows the narrowest known bracket (:meth:`_SearchState.bracket`)
    below 2e-9: about 7 accountant calls from [floor, MGF bound], none when
    another clip value's accounted entries at k already bracket s that
    closely. A dyadic midpoint rarely falls inside the final bracket, so the
    replay seldom accounts anything."""
    cfg = state.cfg
    if not (k > 1.0 and cfg.clip_min <= C <= cfg.clip_max):
        return None
    theta_hi = (1.0 - 1e-6) / (C * (cfg.job_skeleton.lambda_max + 1))
    floor = state.theta_floor(k)
    if floor > theta_hi:
        return None
    log_target = math.log(cfg.target.epsilon_star)

    def excess(entry: dict) -> float:
        eps = entry["epsilon"]
        g = math.log(eps) - log_target if eps > 0.0 else -math.inf
        # the verdict sets the sign where the two logs round to a tie
        return min(g, 0.0) if entry["passed"] else max(g, math.ulp(0.0))

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

    def passes(theta: float) -> bool:
        if theta <= floor:
            return True
        if theta >= theta_hi:
            return False
        return state.passes((k, theta, C))

    (lo, lo_entry), (hi, hi_entry) = state.bracket(k, C)
    if screened is not None and theta_hi < hi:
        hi, hi_excess = theta_hi, screened
    else:
        hi_excess = excess(hi_entry)
    _brent(lambda u: excess(state.c2_entry((k, math.exp(u), C))),
           math.log(lo), excess(lo_entry), math.log(hi), hi_excess, 2e-9)
    theta = floor
    lo, hi = math.log(floor), math.log(theta_hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if passes(math.exp(mid)):
            lo, theta = mid, math.exp(mid)
        else:
            hi = mid
        if hi - lo <= 1e-7:
            break
    return theta, objective(k, theta, C)


def _infeasibility_diagnostics(cfg: FeasibilityConfig, state: _SearchState) -> dict:
    """Per-clip-value summary of the tightest violated constraint over
    Phase A's grid."""
    ks, slices = _phase_a_grid(cfg)
    points = ((float(k), float(theta), C) for C, thetas in slices
              for theta in thetas for k in ks)
    by_clip: dict[float, dict] = {}
    for point in points:
        k, theta, C = point
        report = _cheap_constraints(k, theta, C, cfg)
        # a verdict Phase A inferred is accounted here, for its margin
        cached = (state.c2_entry(point) if point in state.inferred
                  else state.c2_cache.get(point))
        if cached is not None:
            report["c2"] = cached
        failing = {n: e for n, e in report.items() if not e["passed"]}
        if not failing:
            failing = {"c2": {"margin": -math.inf}}
        tightest = max(failing.items(), key=lambda kv: kv[1]["margin"])
        entry = by_clip.setdefault(C, {"constraint": tightest[0],
                                       "margin": tightest[1]["margin"]})
        if tightest[1]["margin"] > entry["margin"]:
            entry["constraint"], entry["margin"] = tightest[0], tightest[1]["margin"]
    return {f"clip={c:g}": v for c, v in sorted(by_clip.items())}


def solve(cfg: FeasibilityConfig) -> OptimizationResult:
    """Two-phase deterministic search for the feasible J maximum.

    Phase A computes the exact feasible grid argmax of J (60 log points in
    k, 60 log points in theta per clip, 8 clips); Phase B refines it by
    boundary-following coordinate golden section until the relative J
    improvement drops below 1e-4. The returned point's full constraint report
    (c2 on the full lambda grid, from the search's cache) is embedded in the
    result. No randomness anywhere.
    """
    state = _SearchState(cfg=cfg)

    # The accounted epsilon is monotone in k, theta, and C: the mechanism
    # kernel increases with the inverse scale u, Gamma(k, theta) is
    # stochastically increasing in both parameters, and clip monotonicity
    # covers C. For fixed (k, C) the c2-feasible thetas are therefore a
    # prefix of the grid whose end theta*(k) is nonincreasing in k, so an
    # ascending-k walk with a descending theta pointer locates every
    # column's exact boundary in amortized O(#k + #theta) accountant calls.
    # Columns whose J even at the pointer cannot beat the incumbent are
    # skipped without evaluation, and a grid point whose verdict another
    # clip slice's accounted entries decide (through theta * C) is not
    # accounted. The outcome is exactly the feasible grid argmax of J.
    ks, slices = _phase_a_grid(cfg)
    best = None
    best_j = -math.inf
    for C, thetas in slices:
        pointer = len(thetas) - 1
        for k in (float(v) for v in ks):
            if pointer < 0:
                break
            if objective(k, float(thetas[pointer]), C) <= best_j:
                continue
            # first grid theta passing c1 and c4 (the grid's k are all > 1)
            bot = int(np.searchsorted(thetas, state.theta_floor(k)))
            q = pointer
            if q < bot:
                continue
            while q >= bot and not state.passes((k, float(thetas[q]), C)):
                q -= 1
            if q < bot:
                pointer = bot - 1
                continue
            pointer = q
            j = objective(k, float(thetas[q]), C)
            if j > best_j:
                best, best_j = (k, float(thetas[q]), C), j
    if best is None:
        raise InfeasibleError(
            "no feasible point in the configured box",
            diagnostics=_infeasibility_diagnostics(cfg, state))

    # Phase B: coordinate-wise golden-section along the feasibility boundary.
    # A probe at k (or C) evaluates J with theta snapped to its largest
    # feasible value - every probe is feasibility-checked - because at the
    # privacy boundary no single raw-coordinate move can improve J (raising
    # k or C alone violates c2; lowering theta alone lowers J). The k bracket
    # widens whenever the line search lands on its edge, so slow climbs
    # toward the large-k asymptote converge in a few passes.
    k_ratio = (K_GRID_HI / K_GRID_LO) ** (1.0 / (K_GRID_POINTS - 1))
    k_best, theta_best, c_best = best
    snapped = _boundary_theta(state, k_best, c_best)
    if snapped is not None and snapped[1] > best_j:
        theta_best, best_j = snapped[0], snapped[1]
    k_span = k_ratio
    for _ in range(12):
        prev_j = best_j

        def j_at_k(k: float) -> float:
            r = _boundary_theta(state, k, c_best)
            return r[1] if r is not None else -math.inf

        lo = max(K_GRID_LO, k_best / k_span)
        hi = min(K_GRID_HI, k_best * k_span)
        k_probe, j_probe = _golden_max(j_at_k, lo, hi, log_space=True)
        if j_probe > best_j:
            k_best, best_j = k_probe, j_probe
            theta_best = _boundary_theta(state, k_best, c_best)[0]
        edge = (k_probe >= hi * 0.99 and hi < K_GRID_HI) or \
               (k_probe <= lo * 1.01 and lo > K_GRID_LO)
        k_span = min(k_span * k_span, 1e4) if edge else k_ratio

        if cfg.clip_max > cfg.clip_min:

            def j_at_c(C: float) -> float:
                r = _boundary_theta(state, k_best, C)
                return r[1] if r is not None else -math.inf

            c_probe, j_probe = _golden_max(j_at_c, cfg.clip_min, cfg.clip_max,
                                           log_space=False)
            if j_probe > best_j:
                c_best, best_j = c_probe, j_probe
                theta_best = _boundary_theta(state, k_best, c_best)[0]

        if best_j - prev_j < 1e-4 * max(prev_j, 1e-300):
            break
    best = (k_best, theta_best, c_best)

    final_report = state.report(best)
    if not all_pass(final_report):
        # every probe's c2 is the full-grid one, so this can only trip on a
        # bug, or if the computed epsilon were not monotone in theta (the
        # boundary replay infers verdicts from that); never certify anyway
        raise InfeasibleError("refined point failed final verification",
                              diagnostics=final_report)
    k, theta, C = best
    return OptimizationResult(
        k_star=k,
        theta_star=theta,
        C_star=C,
        achieved_epsilon=final_report["c2"]["epsilon"],
        achieved_distortion=1.0 / ((k - 1.0) * theta),
        snr=objective(k, theta, C),
        constraint_report=final_report,
    )
