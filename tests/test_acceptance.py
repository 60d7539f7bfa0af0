"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime. Criterion 10 is the full-scale reference reproduction
and needs --extended (about a second: the tail of the coordinate sum is an
N-independent integral bound).

Run with: pytest tests/test_acceptance.py -v -s
"""

import math
import time

import mpmath
import numpy as np
import pytest

from plrvo.accountant import (
    account,
    build_curve,
    compose,
    epsilon_from_delta,
    gaussian_subsampled_log_moment,
    laplace_multivariate_log_moment,
    laplace_univariate_log_moment,
    plrv_multivariate_log_moment,
    plrv_univariate_log_moment,
)
from plrvo.distortion import gaussian_distortion, plrv_distortion
from plrvo.dpsgd import TrainingRun, train
from plrvo.majorization import MajorizationSet
from plrvo.optimizer import FeasibilityConfig, check_feasible, objective, solve
from plrvo.params import (
    AccountingJob,
    GammaPlrvParams,
    GaussianParams,
    LaplaceParams,
    PrivacyTarget,
)
from plrvo.sampler import make_rng, sample_gamma_vector, sample_plrv_noise_matrix
from plrvo.numerics import regularized_lower_gamma
from test_majorization import weakly_majorizes

mpmath.mp.dps = 50


def report(number, name, t0):
    print(f"\nACCEPTANCE {number} ({name}): PASS [{time.time() - t0:.2f}s]")


def test_criterion_1_distortion_table():
    t0 = time.time()
    assert plrv_distortion(GammaPlrvParams(141.06, 8.32e-4)).per_coordinate_l1 \
        == pytest.approx(8.58, abs=0.01)
    assert plrv_distortion(GammaPlrvParams(5242.4, 2.08e-5)).per_coordinate_l1 \
        == pytest.approx(9.17, abs=0.01)
    assert gaussian_distortion(GaussianParams(0.9456), 5.0) == pytest.approx(3.77, abs=0.01)
    assert gaussian_distortion(GaussianParams(1.8812), 15.0) == pytest.approx(22.51, abs=0.01)
    assert time.time() - t0 < 1e-3
    report(1, "distortion table reproduction", t0)


def test_criterion_2_monte_carlo_moment_oracle():
    t0 = time.time()
    n = 10**7
    rng = np.random.default_rng(20250810)

    def check(term_scales, zeta, lam, got):
        terms = (1.0 - zeta + zeta * term_scales) ** (lam + 1)
        mean = float(terms.mean())
        se_log = float(terms.std(ddof=1)) / math.sqrt(n) / mean
        mc = math.log(mean)
        assert abs(got - mc) <= max(0.02 * abs(mc), 3 * se_log), \
            f"got {got}, mc {mc} +- {se_log}"

    for i in range(20):
        k = float(rng.uniform(2.0, 100.0))
        theta = float(rng.uniform(1e-4, 1e-2))
        C = float(rng.uniform(0.1, 2.0))
        zeta = float(rng.choice([0.1, 0.5]))
        lam = int(rng.choice([1, 2, 3]))
        b = 1.0 / rng.gamma(k, theta, size=n)
        z = rng.laplace(0.0, b)
        ratio = np.exp((np.abs(z) - np.abs(z - C)) / b)
        got = plrv_univariate_log_moment(GammaPlrvParams(k, theta), C, zeta, lam)
        check(ratio, zeta, lam, got)

    # same harness, fixed-scale Laplace
    for i in range(8):
        b = float(rng.uniform(0.5, 3.0))
        C = float(rng.uniform(0.1, 2.0))
        zeta = float(rng.choice([0.1, 0.5]))
        lam = int(rng.choice([1, 2, 3]))
        z = rng.laplace(0.0, b, size=n)
        ratio = np.exp((np.abs(z) - np.abs(z - C)) / b)
        got = laplace_univariate_log_moment(LaplaceParams(b), C, zeta, lam)
        check(ratio, zeta, lam, got)

    assert time.time() - t0 <= 600
    report(2, "Monte-Carlo moment oracle, 28 configurations x 1e7 draws", t0)


def test_criterion_3_trivial_limit_exactness():
    t0 = time.time()
    rng = np.random.default_rng(7)
    count = 0
    while count < 100:
        k = float(rng.uniform(1.5, 500.0))
        theta = float(rng.uniform(1e-6, 1e-2))
        b = float(rng.uniform(0.2, 5.0))
        sigma = float(rng.uniform(0.3, 10.0))
        x = float(rng.uniform(0.0, 2.0))
        zeta = float(rng.uniform(0.0, 1.0))
        lam = int(rng.integers(1, 32))
        # zeta = 0 for all three mechanisms
        assert abs(plrv_univariate_log_moment(GammaPlrvParams(k, theta), x, 0.0, lam)) <= 1e-12
        assert abs(laplace_univariate_log_moment(LaplaceParams(b), x, 0.0, lam)) <= 1e-12
        assert abs(gaussian_subsampled_log_moment(GaussianParams(sigma), 0.0, lam)) <= 1e-12
        # zero sensitivity for the two clip-dependent mechanisms
        assert abs(plrv_univariate_log_moment(GammaPlrvParams(k, theta), 0.0, zeta, lam)) <= 1e-12
        assert abs(laplace_univariate_log_moment(LaplaceParams(b), 0.0, zeta, lam)) <= 1e-12
        count += 1
    assert time.time() - t0 < 1.0
    report(3, "trivial-limit exactness over 100-point sweep", t0)


def mp_kernel_plrv(k, theta, x, eta):
    if eta in (0, 1):
        return mpmath.mpf(1)
    b1 = mpmath.mpf(eta) / (2 * eta - 1)
    b2 = mpmath.mpf(eta - 1) / (2 * eta - 1)
    return (b1 * (1 - (eta - 1) * x * theta) ** (-mpmath.mpf(k))
            + b2 * (1 + eta * x * theta) ** (-mpmath.mpf(k)))


def mp_kernel_laplace(b, x, eta):
    if eta in (0, 1):
        return mpmath.mpf(1)
    r = mpmath.mpf(x) / b
    return (eta * mpmath.e ** ((eta - 1) * r)
            + (eta - 1) * mpmath.e ** (-eta * r)) / (2 * eta - 1)


def mp_multivariate(kernel, N, C, zeta, lam):
    zeta = mpmath.mpf(zeta)
    total = mpmath.mpf(0)
    for i in range(1, N + 1):
        x = C * (mpmath.sqrt(i) - mpmath.sqrt(i - 1))
        inner = mpmath.mpf(0)
        for eta in range(lam + 2):
            w = (mpmath.binomial(lam + 1, eta)
                 * (1 - zeta) ** (lam + 1 - eta) * zeta**eta)
            inner += w * kernel(x, eta)
        total += mpmath.log(inner)
    return float(total)


def test_criterion_4_naive_oracle_equivalence():
    t0 = time.time()
    cases = [(1, 0.5, 0.1, 2), (3, 1.5, 0.1, 4), (8, 0.7, 0.5, 3), (16, 2.0, 0.05, 5)]
    for N, C, zeta, lam in cases:
        job = AccountingJob(steps_T=1, sampling_rate_zeta=zeta, model_dim_N=N,
                            clip_C=C, delta=1e-5, lambda_max=lam)
        p = GammaPlrvParams(k=35.0, theta=1.7e-3)
        got = plrv_multivariate_log_moment(p, job, lam)
        exact = mp_multivariate(lambda x, e: mp_kernel_plrv(35, mpmath.mpf("1.7e-3"), x, e),
                                N, C, zeta, lam)
        assert got == pytest.approx(exact, rel=1e-10)

        lp = LaplaceParams(b=0.9)
        got = laplace_multivariate_log_moment(lp, job, lam)
        exact = mp_multivariate(lambda x, e: mp_kernel_laplace(mpmath.mpf("0.9"), x, e),
                                N, C, zeta, lam)
        assert got == pytest.approx(exact, rel=1e-10)
    assert time.time() - t0 < 1.0
    report(4, "naive-oracle equivalence for N <= 16", t0)


def test_criterion_5_schur_majorization_suite():
    t0 = time.time()
    # (a) 1e4 random l2-ball vectors are weakly majorized
    rng = np.random.default_rng(12)
    n, C = 64, 1.3
    g = rng.standard_normal((10_000, n))
    g *= (C * rng.random(10_000) / np.linalg.norm(g, axis=1))[:, None]
    partial = np.cumsum(np.sort(np.abs(g), axis=1)[:, ::-1], axis=1)
    bound = C * np.sqrt(np.arange(1, n + 1, dtype=float))
    assert np.all(partial <= bound[None, :] + 1e-12)
    mset = MajorizationSet(C, n)
    for i in range(0, 10_000, 997):  # spot-check the test oracle too
        assert weakly_majorizes(mset, g[i])

    # (b) partial-sum identity to 1e-12 relative for i <= 1e6 (compensated sum)
    big = MajorizationSet(2.0, 10**6)
    xs = big.coordinates(1, 10**6)
    total, comp = 0.0, 0.0
    worst = 0.0
    for i, x in enumerate(xs, start=1):
        y = x - comp
        t = total + y
        comp = (t - total) - y
        total = t
        worst = max(worst, abs(total / (2.0 * math.sqrt(i)) - 1.0))
    assert worst <= 1e-12

    # (c) finite-difference monotonicity and convexity of the per-coordinate
    # log moment over a 50-point grid
    p = GammaPlrvParams(k=60.0, theta=3e-4)
    xs = np.linspace(1e-3, 2.0, 50)
    alphas = np.array([plrv_univariate_log_moment(p, float(x), 0.3, 4) for x in xs])
    assert np.min(np.diff(alphas)) >= -1e-8
    assert np.min(np.diff(alphas, 2)) >= -1e-6
    assert time.time() - t0 < 30.0
    report(5, "Schur/majorization property suite", t0)


def test_criterion_6_sampler_statistics():
    t0 = time.time()
    # per-coordinate E|z| vs closed form at 1e6 coordinates
    p = GammaPlrvParams(k=10.0, theta=0.1)
    _, coords = sample_plrv_noise_matrix(p, 10**5, 10, make_rng(606))
    assert np.abs(coords).mean() == pytest.approx(1.0 / (9 * 0.1), rel=0.05)

    # gamma moments at 1e6 draws
    k, theta, n = 10.0, 0.1, 10**6
    draws = sample_gamma_vector(k, theta, n, make_rng(607))
    assert abs(draws.mean() - k * theta) <= 4 * math.sqrt(k * theta**2 / n)
    mu4 = 3 * k * (k + 2) * theta**4
    assert abs(draws.var(ddof=1) - k * theta**2) <= 4 * math.sqrt((mu4 - (k * theta**2) ** 2) / n)

    # CDF against the regularized incomplete gamma, Kolmogorov bound
    sorted_draws = np.sort(draws)
    for q in np.linspace(0.05, 0.95, 10):
        x = float(np.quantile(sorted_draws, q))
        empirical = np.searchsorted(sorted_draws, x, side="right") / n
        assert abs(empirical - regularized_lower_gamma(k, x / theta)) <= 2.5 / math.sqrt(n)
    assert time.time() - t0 < 60.0
    report(6, "sampler statistics", t0)


def test_criterion_7_conversion_correctness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    curves = []
    for _ in range(20):
        curves.append(build_curve(
            GaussianParams(sigma=float(rng.uniform(0.5, 5.0))),
            AccountingJob(steps_T=int(rng.integers(1, 500)),
                          sampling_rate_zeta=float(rng.uniform(0.001, 0.5)),
                          model_dim_N=1, clip_C=1.0, delta=1e-5, lambda_max=64)))
    for _ in range(15):
        curves.append(build_curve(
            GammaPlrvParams(k=float(rng.uniform(5, 500)),
                            theta=float(rng.uniform(1e-5, 2e-3))),
            AccountingJob(steps_T=int(rng.integers(1, 500)),
                          sampling_rate_zeta=float(rng.uniform(0.001, 0.5)),
                          model_dim_N=int(rng.integers(1, 8)), clip_C=1.0,
                          delta=1e-5, lambda_max=64)))
    for _ in range(15):
        curves.append(build_curve(
            LaplaceParams(b=float(rng.uniform(0.5, 4.0))),
            AccountingJob(steps_T=int(rng.integers(1, 500)),
                          sampling_rate_zeta=float(rng.uniform(0.001, 0.5)),
                          model_dim_N=int(rng.integers(1, 8)), clip_C=1.0,
                          delta=1e-5, lambda_max=64)))

    for curve in curves:
        T = int(curve.job.get("steps_T", 1))
        delta = float(curve.job.get("delta", 1e-5))
        composed = compose(curve, T)
        eps, lam = epsilon_from_delta(composed, delta)
        # independent exhaustive minimization
        terms = {l: (a / l + math.log(l / (l + 1))
                     - (math.log(delta) + math.log(l + 1)) / l)
                 for l, a in composed.alpha_per_step.items()}
        brute_lam = min(sorted(terms), key=lambda l: terms[l])
        assert abs(eps - terms[brute_lam]) <= 1e-12 * max(1.0, abs(eps))
        assert terms[lam] == terms[brute_lam]
    assert time.time() - t0 < 5.0
    report(7, "conversion correctness on 50 mechanism-generated curves", t0)


def _audit_grid_max(cfg: FeasibilityConfig, n_k: int, n_theta: int, n_c: int) -> float:
    """Exact feasible maximum of J over an n_k x n_theta x n_c grid.

    Walks each clip slice with an ascending-k staircase: the c2-feasible
    theta boundary is nonincreasing in k (epsilon is monotone in k and theta
    by stochastic dominance of the Gamma seed), so the walk visits each
    column's exact boundary while skipping columns that provably cannot beat
    the incumbent. Returns the same value as full enumeration would.
    """
    lam_next = cfg.job_skeleton.lambda_max + 1
    ks = np.geomspace(1.0 + 1e-3, 1e6, n_k)
    if cfg.clip_min == cfg.clip_max:
        cs = [cfg.clip_min]
    else:
        cs = list(np.linspace(cfg.clip_min, cfg.clip_max, n_c))
    best = -math.inf
    for C in cs:
        theta_hi = (1.0 - 1e-6) / (C * lam_next)
        if theta_hi <= 1e-7:
            continue
        thetas = np.geomspace(1e-7, theta_hi, n_theta)
        pointer = n_theta - 1

        def c2_pass(k, theta):
            eps = account(GammaPlrvParams(k=k, theta=theta), cfg.job_for(C)).epsilon
            return eps <= cfg.target.epsilon_star

        for k in (float(v) for v in ks):
            if pointer < 0:
                break
            if objective(k, float(thetas[pointer]), C) <= best:
                continue
            floor_theta = 1.0 / (cfg.distortion_cap * (k - 1.0)) if k > 1 else math.inf
            bot = int(np.searchsorted(thetas, floor_theta, side="left"))
            while bot < n_theta and regularized_lower_gamma(
                    k, 0.1 / float(thetas[bot])) > cfg.gamma_cdf_tol:
                bot += 1
            if bot >= n_theta:
                continue
            q = pointer
            if q < bot:
                continue
            while q >= bot and not c2_pass(k, float(thetas[q])):
                q -= 1
            if q < bot:
                pointer = bot - 1
                continue
            pointer = q
            best = max(best, objective(k, float(thetas[q]), C))
    return best


def test_criterion_8_optimizer_soundness():
    t0 = time.time()
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
    for i, cfg in enumerate(configs):
        res = solve(cfg)
        assert all(e["passed"] for e in
                   check_feasible((res.k_star, res.theta_star, res.C_star), cfg).values())
        if cfg.clip_min == cfg.clip_max:
            audit = _audit_grid_max(cfg, n_k=1000, n_theta=1000, n_c=1)
        else:
            audit = _audit_grid_max(cfg, n_k=200, n_theta=250, n_c=20)
        assert res.snr >= audit * (1.0 - 1e-3), \
            f"config {i}: solve J={res.snr} below audit max {audit}"
    assert time.time() - t0 <= 300
    report(8, "optimizer soundness on 10 toy configs vs 1e6-point audits", t0)


def test_criterion_9_privacy_loss_sweep_shape():
    t0 = time.time()
    p = GammaPlrvParams(k=414.2857, theta=2.4196e-4)
    t_values = [1, 5, 25, 100, 250, 500]
    eps_by_clip = {}
    for C in (0.05, 0.1, 0.5, 1.0):
        job = AccountingJob(steps_T=1, sampling_rate_zeta=0.00977631,
                            model_dim_N=10**5, clip_C=C, delta=1e-5, lambda_max=256)
        curve = build_curve(p, job)
        eps_by_clip[C] = [epsilon_from_delta(compose(curve, T), 1e-5)[0]
                          for T in t_values]
    for C, eps in eps_by_clip.items():
        assert all(b > a for a, b in zip(eps, eps[1:])), f"not increasing at C={C}"
    clips = sorted(eps_by_clip)
    for c_lo, c_hi in zip(clips, clips[1:]):
        assert all(h >= l for l, h in zip(eps_by_clip[c_lo], eps_by_clip[c_hi])), \
            f"curve at C={c_hi} not pointwise above C={c_lo}"
    assert time.time() - t0 < 120.0
    report(9, "epsilon-vs-T sweep shape at N=1e5 across four clips", t0)


@pytest.mark.extended
def test_criterion_10_reference_epsilon_full_scale():
    t0 = time.time()
    p = GammaPlrvParams(k=141.06, theta=8.32e-4)
    sensitivity = {}
    for N in (85_000_000, 86_000_000, 86_600_000):
        job = AccountingJob(steps_T=250, sampling_rate_zeta=0.01024, model_dim_N=N,
                            clip_C=10.0, delta=2e-5, lambda_max=1000)
        res = account(p, job)
        sensitivity[N] = res.epsilon
        print(f"\n  N={N}: epsilon={res.epsilon:.4f} (argmin lambda {res.argmin_lambda})")
    assert sensitivity[86_000_000] == pytest.approx(1.7, rel=0.15)
    report(10, "full-scale reference epsilon within 1.7 +/- 15%", t0)


def test_criterion_11_end_to_end_determinism():
    t0 = time.time()
    import json

    from plrvo.cli import main

    class Capture:
        def __init__(self):
            self.chunks = []

        def write(self, s):
            self.chunks.append(s)

        def flush(self):
            pass

    def run_demo(threads):
        import sys
        cap = Capture()
        old = sys.stdout
        sys.stdout = cap
        try:
            rc = main(["--threads", str(threads), "train-demo", "--mechanism",
                       "gaussian", "--epsilon", "2.0", "--epochs", "2",
                       "--batch", "25", "--examples", "200", "--clip", "1.0",
                       "--dim", "32", "--seed", "11"])
        finally:
            sys.stdout = old
        assert rc == 0
        return "".join(cap.chunks)

    first = run_demo(1)
    second = run_demo(1)
    max_threads = run_demo(4)
    assert first == second == max_threads
    ledger = json.loads(first)
    assert ledger["test_accuracy"] > 0.5
    assert time.time() - t0 < 30.0
    report(11, "bitwise-identical ledgers across runs and thread counts", t0)
