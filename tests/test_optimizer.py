import math

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings

from plrvo import optimizer
from plrvo.accountant import account, plrv_epsilon_lower_bound
from plrvo.dpsgd import training_job
from plrvo.numerics import regularized_lower_gamma
from plrvo.optimizer import (
    FeasibilityConfig,
    InfeasibleError,
    _boundary_theta,
    _c1_floor,
    _mgf_screen,
    _SearchState,
    all_pass,
    check_feasible,
    objective,
    solve,
)
from plrvo.params import AccountingJob, GammaPlrvParams, PrivacyTarget


def toy_cfg(epsilon=2.0, clip_min=0.5, clip_max=1.0, N=500, T=100, zeta=0.05,
            lambda_max=32, delta=1e-5, **kw):
    return FeasibilityConfig(
        clip_min=clip_min, clip_max=clip_max,
        target=PrivacyTarget(epsilon_star=epsilon, delta_star=delta),
        job_skeleton=AccountingJob(steps_T=T, sampling_rate_zeta=zeta,
                                   model_dim_N=N, clip_C=1.0, delta=delta,
                                   lambda_max=lambda_max),
        **kw,
    )


class TestCheckFeasible:
    def test_k_at_one_fails_c3(self):
        report = check_feasible((1.0, 0.01, 0.7), toy_cfg())
        assert not report["c3"]["passed"]
        assert report["c3"]["margin"] == 0.0

    def test_low_snr_fails_c4(self):
        # (k-1)*theta = 0.05 -> distortion 20 above the default cap of 10
        report = check_feasible((6.0, 0.01, 0.7), toy_cfg())
        assert not report["c4"]["passed"]
        assert report["c4"]["margin"] == pytest.approx(0.05 - 0.1, rel=1e-12)

    def test_clip_out_of_box_fails_c0(self):
        report = check_feasible((100.0, 1e-3, 2.0), toy_cfg())
        assert not report["c0"]["passed"]

    def test_mgf_violation_blocks_c2(self):
        cfg = toy_cfg(lambda_max=32)
        report = check_feasible((100.0, 0.1, 1.0), cfg)  # 32 * 1 * 0.1 >= 1
        assert not report["mgf"]["passed"]
        assert not report["c2"]["passed"] and report["c2"]["epsilon"] is None

    def test_reference_point_report(self):
        # the published fine-tuning configuration, desk-scale N
        cfg = toy_cfg(epsilon=1.8, clip_min=5.0, clip_max=10.0, N=2000,
                      T=250, zeta=0.01024, lambda_max=119, delta=2e-5)
        report = check_feasible((141.06, 8.32e-4, 10.0), cfg)
        for name in ("c0", "c3", "c4", "mgf"):
            assert report[name]["passed"], name
        # the published point sits at Gamma CDF ~ 0.039 at inverse scale 0.1,
        # far above the default 1e-6 operationalization of "approximately 0";
        # the tolerance is configurable, so this is recorded, not hidden
        import scipy.special
        cdf = float(scipy.special.gammainc(141.06, 0.1 / 8.32e-4))
        assert not report["c1"]["passed"]
        assert report["c1"]["margin"] == pytest.approx(1e-6 - cdf, rel=1e-9)
        # c2's sign is whatever the accountant says at this N; the margin
        # must be consistent with a direct accountant call
        direct = account(GammaPlrvParams(k=141.06, theta=8.32e-4),
                         cfg.job_for(10.0), lambda_search="full")
        assert report["c2"]["epsilon"] == direct.epsilon
        assert report["c2"]["margin"] == pytest.approx(1.8 - direct.epsilon, abs=1e-12)
        # with the tolerance relaxed to cover the published point, c1 passes
        relaxed = toy_cfg(epsilon=1.8, clip_min=5.0, clip_max=10.0, N=2000,
                          T=250, zeta=0.01024, lambda_max=119, delta=2e-5,
                          gamma_cdf_tol=0.05)
        assert check_feasible((141.06, 8.32e-4, 10.0), relaxed)["c1"]["passed"]


class TestSolve:
    def test_pinned_clip(self):
        cfg = toy_cfg(clip_min=0.8, clip_max=0.8)
        res = solve(cfg)
        assert res.C_star == 0.8

    def test_returned_point_passes_full_check(self):
        cfg = toy_cfg()
        res = solve(cfg)
        report = check_feasible((res.k_star, res.theta_star, res.C_star), cfg)
        assert all_pass(report)
        # achieved epsilon reproduces bit-for-bit on re-evaluation
        assert report["c2"]["epsilon"] == res.achieved_epsilon

    def test_distortion_and_snr_consistent(self):
        res = solve(toy_cfg())
        assert res.snr == pytest.approx(
            objective(res.k_star, res.theta_star, res.C_star), rel=1e-15)
        assert res.achieved_distortion == pytest.approx(
            1.0 / ((res.k_star - 1) * res.theta_star), rel=1e-15)
        assert res.achieved_distortion <= 10.0 + 1e-9  # c4 cap

    def test_vacuous_privacy_pins_cheap_boundary(self):
        # epsilon* = inf: the optimum is set by c1/c4/mgf alone; at the mgf
        # boundary J -> C_max * (k-1) * (1-eps)/(C_max*(lam+1)), so J is
        # governed by the largest k whose gamma tail passes c1
        cfg = toy_cfg(epsilon=math.inf, N=200, lambda_max=16)
        res = solve(cfg)
        # dense brute-force over the cheap constraints only
        ks = np.geomspace(1.001, 1e6, 400)
        best = 0.0
        for C in np.linspace(0.5, 1.0, 16):
            thetas = np.geomspace(1e-7, (1 - 1e-6) / (C * 17), 400)
            for k in ks:
                rep = [check_feasible]  # placeholder to keep flake quiet
                # cheap feasibility, vectorized over theta
                from plrvo.numerics import regularized_lower_gamma
                ok = (((k - 1) * thetas >= 0.1)
                      & (17 * C * thetas < 1.0))
                if not ok.any():
                    continue
                idx = np.nonzero(ok)[0]
                # c1 is monotone in theta: test only the largest candidate
                t = float(thetas[idx[-1]])
                if regularized_lower_gamma(k, 0.1 / t) <= 1e-6:
                    best = max(best, C * (k - 1) * t)
        assert res.snr >= best * (1 - 1e-3)

    def test_monotone_response_to_budget(self):
        js = [solve(toy_cfg(epsilon=e, N=200, lambda_max=16)).snr
              for e in (0.5, 1.0, 2.0)]
        assert js[0] <= js[1] * (1 + 1e-3) and js[1] <= js[2] * (1 + 1e-3)

    def test_widening_clip_box_never_lowers_j(self):
        # exact feasible-set monotonicity, up to the solver's own 1e-4
        # relative-improvement stopping rule
        narrow = solve(toy_cfg(clip_min=0.7, clip_max=0.8, N=200, lambda_max=16)).snr
        wide = solve(toy_cfg(clip_min=0.5, clip_max=1.0, N=200, lambda_max=16)).snr
        assert wide >= narrow * (1 - 1e-3)

    def test_infeasible_reports_diagnostics(self):
        cfg = toy_cfg(epsilon=1e-6, N=200, T=10_000, zeta=0.5, lambda_max=16)
        with pytest.raises(InfeasibleError) as exc:
            solve(cfg)
        assert exc.value.diagnostics  # per-clip tightest constraint report

    def test_infeasible_diagnostics_pinned(self):
        # Phase A's grid order decides which constraint wins a tie within a clip
        cfg = toy_cfg(epsilon=1e-6, N=200, T=10_000, zeta=0.5, lambda_max=16)
        with pytest.raises(InfeasibleError) as exc:
            solve(cfg)
        c4 = {"constraint": "c4", "margin": -1.0000000001675335e-07}
        want = {
            "clip=0.5": c4,
            "clip=0.571429": {"constraint": "c1", "margin": -6.943546621157129e-08},
            "clip=0.642857": c4,
            "clip=0.714286": c4,
            "clip=0.785714": {"constraint": "c1", "margin": -5.801309812638408e-08},
            "clip=0.857143": c4,
            "clip=0.928571": c4,
            "clip=1": c4,
        }
        assert exc.value.diagnostics == want
        assert list(exc.value.diagnostics) == list(want)

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            toy_cfg(clip_min=2.0, clip_max=1.0)


def gamma_quantile(k: float, tol: float) -> float:
    """The tol-quantile of Gamma(k): scipy's gammaincinv refined by one Newton
    step on a 30-digit series for P(k, x). scipy's inverse alone is 1.4e-9
    off at k = 1e6, tol = 1e-6."""
    x0 = float(scipy.special.gammaincinv(k, tol))
    with mpmath.workdps(30):
        k_, x = mpmath.mpf(k), mpmath.mpf(x0)
        term = total = 1 / k_
        n = k_
        while term > total * mpmath.mpf(10) ** -30:
            n += 1
            term *= x / n
            total += term
        log_density = (k_ - 1) * mpmath.log(x) - x - mpmath.loggamma(k_)
        p = mpmath.exp(log_density) * x * total
        return float(x - (p - tol) / mpmath.exp(log_density))


class TestC1Floor:
    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
    def test_passes_tight_and_matches_quantile(self, tol):
        for k in np.geomspace(1.001, 1e6, 60).tolist():
            floor = _c1_floor(k, tol)
            assert regularized_lower_gamma(k, 0.1 / floor) <= tol, k
            if floor > 1e-12:
                assert regularized_lower_gamma(k, 0.1 / (floor * (1 - 1e-12))) > tol, k
            assert floor == pytest.approx(0.1 / gamma_quantile(k, tol), rel=1e-9), k


def crit8_configs() -> list[FeasibilityConfig]:
    """Acceptance criterion 8's configs, drawn in its order from seed 88."""
    rng = np.random.default_rng(88)
    configs = []
    for i in range(10):
        clip_min = float(rng.uniform(0.3, 1.0))
        clip_max = clip_min if i % 3 == 0 else clip_min * float(rng.uniform(1.2, 2.0))
        configs.append(FeasibilityConfig(
            clip_min=clip_min, clip_max=clip_max,
            target=PrivacyTarget(epsilon_star=float(rng.uniform(0.5, 4.0)),
                                 delta_star=1e-5),
            job_skeleton=AccountingJob(
                steps_T=int(rng.integers(20, 400)),
                sampling_rate_zeta=float(rng.uniform(0.01, 0.2)),
                model_dim_N=int(rng.integers(50, 1000)),
                clip_C=1.0, delta=1e-5,
                lambda_max=int(rng.choice([16, 32]))),
        ))
    return configs


class TestSolvePinned:
    # (k*, theta*, C*) returned by the c1 bisection and coarse-search c2
    # that the quantile floor and the full-grid c2 replaced
    @pytest.mark.parametrize("index,want", [
        (3, (23596.350285372962, 7.3600741468662725e-06, 0.9382267495871688)),
        (6, (626072.8690469214, 3.0649996241052936e-07, 0.9897095927635631)),
        (7, (152832.0239736196, 3.2611862160390044e-06, 0.4811424740577095)),
    ])
    def test_crit8_configs(self, index, want):
        res = solve(crit8_configs()[index])
        assert (res.k_star, res.theta_star, res.C_star) == pytest.approx(want, rel=1e-9)

    # (k*, theta*, C*, achieved epsilon), bit for bit, as solved before the
    # incomplete gamma series was summed by accumulates and before the
    # boundary search screened its MGF-bound probe
    EXACT = {
        "crit8-0": (999999.9999999995, 3.931831688576094e-07, 0.4443717168528951,
                    2.9611564219885524),
        "crit8-1": (76109.14828423203, 8.534774352647889e-06, 0.4464681486185114,
                    1.6003850056696867),
        "crit8-2": (1000000.0, 2.8720073737129197e-07, 0.7516664383048243,
                    2.6391628112252823),
        "crit8-3": (23596.350285372962, 7.3600741468658024e-06, 0.9382267495871688,
                    2.426279489450441),
        "crit8-4": (95935.43188849099, 1.2857762260373076e-06, 0.6823565910874885,
                    0.5189704165168063),
        "crit8-5": (153638.31516099934, 6.880876357773736e-06, 0.5594362188137785,
                    2.543779231582042),
        "crit8-6": (626072.8690469214, 3.064999624104227e-07, 0.9897095927635631,
                    1.6722753729112818),
        "crit8-7": (152832.0239736196, 3.2611862160385986e-06, 0.4811424740577095,
                    3.144303117990544),
        "crit8-8": (626072.8690469214, 2.56452397859735e-07, 1.072629286732964,
                    2.630641297810074),
        "crit8-9": (999999.9999999995, 2.072194075963322e-06, 0.4513285441098126,
                    2.365106610018757),
        "train-demo": (29822.05233062761, 6.316619662040844e-05, 1.0, 1.9999999723410862),
    }

    @pytest.mark.parametrize("name", list(EXACT))
    def test_exact(self, name):
        cfg = train_demo_cfg() if name == "train-demo" else crit8_configs()[int(name[6:])]
        res = solve(cfg)
        assert (res.k_star, res.theta_star, res.C_star, res.achieved_epsilon) == self.EXACT[name]


def bisected_boundary_theta(state, k: float, C: float) -> tuple[float, float] | None:
    """The plain bisection that :func:`_boundary_theta` replays: one
    accountant call per level, every midpoint accounted."""
    cfg = state.cfg
    if not (k > 1.0 and cfg.clip_min <= C <= cfg.clip_max):
        return None
    theta_hi = (1.0 - 1e-6) / (C * (cfg.job_skeleton.lambda_max + 1))
    floor = state.theta_floor(k)
    if floor > theta_hi:
        return None
    if state.c2_entry((k, theta_hi, C))["passed"]:
        return theta_hi, objective(k, theta_hi, C)
    if not state.c2_entry((k, floor, C))["passed"]:
        return None
    theta = floor
    lo, hi = math.log(floor), math.log(theta_hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if state.c2_entry((k, math.exp(mid), C))["passed"]:
            lo, theta = mid, math.exp(mid)
        else:
            hi = mid
        if hi - lo <= 1e-7:
            break
    return theta, objective(k, theta, C)


def train_demo_cfg() -> FeasibilityConfig:
    """The pinned-clip solve of ``train-demo --epsilon 2 --batch 50 --clip 1
    --epochs 10 --examples 20000 --dim 512``."""
    return FeasibilityConfig(
        clip_min=1.0, clip_max=1.0,
        target=PrivacyTarget(epsilon_star=2.0, delta_star=1e-5),
        job_skeleton=training_job(512, 20000, 10, 50, 1.0, 1e-5, 64))


class TestBoundaryTheta:
    @staticmethod
    def counted_calls(monkeypatch) -> list[int]:
        """Count the accountant calls behind c2 entries from now on."""
        calls = [0]
        c2_report = optimizer._c2_report

        def counting(point, cfg):
            calls[0] += 1
            return c2_report(point, cfg)

        monkeypatch.setattr(optimizer, "_c2_report", counting)
        return calls

    @pytest.mark.parametrize("name", ["crit8-3", "crit8-6", "crit8-7", "train-demo"])
    def test_bitwise_equal_to_bisection_on_solve_probes(self, monkeypatch, name):
        cfg = train_demo_cfg() if name == "train-demo" else crit8_configs()[int(name[6:])]
        probed = []

        def recording(state, k, C):
            probed.append((k, C))
            return _boundary_theta(state, k, C)

        monkeypatch.setattr(optimizer, "_boundary_theta", recording)
        solve(cfg)
        monkeypatch.undo()
        probed = list(dict.fromkeys(probed))
        calls = self.counted_calls(monkeypatch)
        per_boundary = []
        shared = _SearchState(cfg=cfg)  # infers verdicts across the probes, as solve does
        for k, C in probed:
            before = calls[0]
            got = _boundary_theta(_SearchState(cfg=cfg), k, C)
            per_boundary.append(calls[0] - before)
            want = bisected_boundary_theta(_SearchState(cfg=cfg), k, C)
            assert got == want, (k, C)
            assert _boundary_theta(shared, k, C) == want, (k, C)
        assert len(probed) >= 20
        # a fresh state accounts the floor too, and the MGF bound unless the
        # screen fails it; the plain bisection needs about 33 calls per boundary
        assert sum(per_boundary) / len(per_boundary) <= 12

    def test_early_exits(self, monkeypatch):
        calls = self.counted_calls(monkeypatch)
        theta_hi = (1.0 - 1e-6) / (0.7 * 33)
        cases = [
            # epsilon* = inf: the MGF bound passes, one call
            (toy_cfg(epsilon=math.inf), 50.0, 1, (theta_hi, objective(50.0, theta_hi, 0.7))),
            # an unreachable epsilon*: the screen fails the MGF bound without
            # a call (its lower bound there is 0.278), then the floor fails
            (toy_cfg(epsilon=1e-6), 50.0, 1, None),
            # k near 1: c4's floor lies above the MGF bound, no call
            (toy_cfg(), 1.001, 0, None),
        ]
        for cfg, k, want_calls, want in cases:
            state = _SearchState(cfg=cfg)
            before = calls[0]
            assert _boundary_theta(state, k, 0.7) == want
            assert calls[0] - before == want_calls, k
            assert bisected_boundary_theta(_SearchState(cfg=cfg), k, 0.7) == want
            # only an accounted top is cached, never a screened one
            assert ((k, theta_hi, 0.7) in state.c2_cache) == (cfg.target.epsilon_star == math.inf)

    def test_inconclusive_screen_accounts_the_top(self, monkeypatch):
        # epsilon* = 2 at k = 50: the screen's bound at the MGF bound (0.278)
        # is under 2 epsilon*, so the top is accounted (epsilon 5.9) and fails
        cfg, k, C = toy_cfg(epsilon=2.0), 50.0, 0.7
        theta_hi = (1.0 - 1e-6) / (C * 33)
        assert _mgf_screen(cfg, k, theta_hi, C) is None
        calls = self.counted_calls(monkeypatch)
        state = _SearchState(cfg=cfg)
        got = _boundary_theta(state, k, C)
        assert not state.c2_cache[(k, theta_hi, C)]["passed"]
        assert calls[0] >= 3  # the top, the floor, and Brent's probes
        assert got == bisected_boundary_theta(_SearchState(cfg=cfg), k, C)
        assert got[0] < theta_hi


class TestMgfScreen:
    @settings(max_examples=60, deadline=None)
    @given(log_k=st.floats(math.log(1.001), math.log(1e6)),
           C=st.floats(0.1, 10.0),
           theta_fraction=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
           zeta=st.floats(0.0, 1.0),
           T=st.integers(1, 1000),
           N=st.integers(1, 20_000),
           L=st.integers(1, 64),
           log_delta=st.floats(math.log(1e-10), math.log(0.1)),
           epsilon_star=st.floats(1e-3, 50.0))
    def test_lower_bound_is_sound(self, log_k, C, theta_fraction, zeta, T, N, L,
                                  log_delta, epsilon_star):
        k, delta = math.exp(log_k), math.exp(log_delta)
        theta = theta_fraction * (1.0 - 1e-6) / (C * (L + 1))  # up to the MGF bound
        job = AccountingJob(steps_T=T, sampling_rate_zeta=zeta, model_dim_N=N,
                            clip_C=C, delta=delta, lambda_max=L)
        params = GammaPlrvParams(k=k, theta=theta)
        eps = account(params, job).epsilon
        bound = plrv_epsilon_lower_bound(params, job)
        assert bound <= eps
        cfg = FeasibilityConfig(
            clip_min=C, clip_max=C, job_skeleton=job,
            target=PrivacyTarget(epsilon_star=epsilon_star, delta_star=delta))
        screened = _mgf_screen(cfg, k, theta, C)
        assert (screened is not None) == (bound >= 2.0 * epsilon_star)
        if screened is not None:  # it fires only where the point fails c2
            assert eps > epsilon_star
            assert screened == pytest.approx(math.log(bound / epsilon_star), rel=1e-12)

    def test_fires_near_the_mgf_bound_at_large_k(self):
        # crit-8 config 3's first Phase B probe: the accounted epsilon at the
        # MGF bound is about 1e6 times the target, and the bound is close
        cfg = crit8_configs()[3]
        k, C = 23596.350285372962, 0.9382267495871688
        theta_hi = (1.0 - 1e-6) / (C * (cfg.job_skeleton.lambda_max + 1))
        eps = account(GammaPlrvParams(k=k, theta=theta_hi), cfg.job_for(C)).epsilon
        screened = _mgf_screen(cfg, k, theta_hi, C)
        assert screened is not None
        assert math.log(eps / cfg.target.epsilon_star) >= screened > math.log(2.0)


def c2_calls(monkeypatch) -> list[int]:
    """Count the accountant calls behind c2 entries from now on."""
    return TestBoundaryTheta.counted_calls(monkeypatch)


class TestClipInvariance:
    """The accounted epsilon depends on theta and C only through s = theta * C,
    which lets the search carry c2 verdicts across clip values."""

    # examples: the series path (every branch log within 1/16) taking 3,983 of
    # the 4,096 head coordinates; the log-space mix taking the first 254 (near
    # the MGF bound at k = 1e4); and every coordinate, head and tail
    @settings(max_examples=80, deadline=None)
    @example(log_k=math.log(10.0), log_fraction=math.log(0.133), C=0.37, C2=6.1, zeta=0.05,
             T=100, N=4096, L=16, log_delta=math.log(1e-5))
    @example(log_k=math.log(1e4), log_fraction=0.0, C=0.37, C2=6.1, zeta=0.05,
             T=100, N=4096, L=16, log_delta=math.log(1e-5))
    @example(log_k=math.log(1e6), log_fraction=0.0, C=9.9, C2=0.11, zeta=0.9,
             T=1, N=20_000, L=64, log_delta=math.log(1e-10))
    @given(log_k=st.floats(math.log(1.001), math.log(1e6)),
           log_fraction=st.one_of(st.just(0.0), st.floats(math.log(1e-8), 0.0)),
           C=st.floats(0.1, 10.0),
           C2=st.floats(0.1, 10.0),
           zeta=st.floats(0.0, 1.0),
           T=st.integers(1, 1000),
           N=st.integers(1, 20_000),
           L=st.integers(1, 64),
           log_delta=st.floats(math.log(1e-10), math.log(0.1)))
    def test_epsilon_depends_on_theta_times_clip(self, log_k, log_fraction, C, C2, zeta,
                                                 T, N, L, log_delta):
        s = math.exp(log_fraction) * (1.0 - 1e-6) / (L + 1)  # up to the MGF bound
        eps = [account(GammaPlrvParams(k=math.exp(log_k), theta=s / c),
                       AccountingJob(steps_T=T, sampling_rate_zeta=zeta, model_dim_N=N,
                                     clip_C=c, delta=math.exp(log_delta),
                                     lambda_max=L)).epsilon
               for c in (C, C2)]
        # the search infers verdicts with a margin of 1e-9 in s
        assert eps[1] == pytest.approx(eps[0], rel=1e-12)

    def test_known_verdicts_keep_the_margin(self, monkeypatch):
        cfg = toy_cfg()
        k, theta, C, C2 = 50.0, 1e-3, 0.5, 0.8
        state = _SearchState(cfg=cfg)
        passed = state.c2_entry((k, theta, C))["passed"]
        calls = c2_calls(monkeypatch)
        s = theta * C
        outside = s * (1.0 - 2e-9) if passed else s * (1.0 + 2e-9)
        inside = s * (1.0 - 0.5e-9) if passed else s * (1.0 + 0.5e-9)
        assert state.known((k, outside / C2, C2)) is passed
        assert state.known((k, inside / C2, C2)) is None
        # at the same clip monotonicity in theta is exact
        same = math.nextafter(theta, 0.0 if passed else math.inf)
        assert state.known((k, same, C)) is passed
        assert state.known((2.0 * k, theta, C)) is None  # only the same k
        assert state.passes((k, outside / C2, C2)) is passed
        assert calls[0] == 0
        assert (k, outside / C2, C2) in state.inferred
        assert list(state.c2_cache) == [(k, theta, C)]

    @pytest.mark.parametrize("index", [5, 7])
    def test_inferred_verdicts_are_sound_and_never_cached(self, monkeypatch, index):
        cfg = crit8_configs()[index]
        states, accounted = [], []
        c2_report = optimizer._c2_report

        def recording(point, cfg):
            accounted.append(point)
            return c2_report(point, cfg)

        class Recorded(_SearchState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self)

        monkeypatch.setattr(optimizer, "_c2_report", recording)
        monkeypatch.setattr(optimizer, "_SearchState", Recorded)
        solve(cfg)
        monkeypatch.undo()
        (state,) = states
        # the cache holds exactly the accounted entries, each accounted once
        assert len(accounted) == len(set(accounted)) == len(state.c2_cache)
        assert set(accounted) == set(state.c2_cache)
        inferred = sorted(state.inferred - set(state.c2_cache))
        assert len(inferred) >= 300
        # and every inferred verdict is the one the accountant gives
        for point in inferred:
            assert state.known(point) == optimizer._c2_report(point, cfg)["passed"], point

    # accountant calls per solve; at the parent commit, 246 / 274 / 1,150 / 318
    @pytest.mark.parametrize("name,want", [
        ("crit8-3", 244), ("crit8-6", 271), ("crit8-7", 507), ("train-demo", 313),
    ])
    def test_c2_call_counts_pinned(self, monkeypatch, name, want):
        cfg = train_demo_cfg() if name == "train-demo" else crit8_configs()[int(name[6:])]
        calls = c2_calls(monkeypatch)
        solve(cfg)
        assert calls[0] == want
