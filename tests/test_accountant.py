import json
import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

from plrvo import accountant
from plrvo.accountant import (
    account,
    build_curve,
    coarse_lambda_ladder,
    compose,
    delta_from_epsilon,
    epsilon_from_delta,
    gaussian_subsampled_log_moment,
    laplace_multivariate_log_moment,
    laplace_univariate_log_moment,
    minimize_epsilon_lazy,
    plrv_multivariate_log_moment,
    plrv_univariate_log_moment,
)
from plrvo.cli import main
from plrvo.majorization import MajorizationSet
from plrvo.numerics import log_binomial
from plrvo.params import (
    AccountingJob,
    GammaPlrvParams,
    GaussianParams,
    LaplaceParams,
    LogMomentCurve,
    MgfDomainViolation,
    to_json_dict,
)

mpmath.mp.dps = 60


def make_job(**overrides):
    base = dict(steps_T=10, sampling_rate_zeta=0.1, model_dim_N=3,
                clip_C=1.0, delta=1e-5, lambda_max=8)
    base.update(overrides)
    return AccountingJob(**base)


# --- independent oracles -----------------------------------------------------

def mp_gamma_mgf(k, theta, t):
    return (1 - mpmath.mpf(t) * mpmath.mpf(theta)) ** (-mpmath.mpf(k))


def mp_plrv_kernel(k, theta, x, eta):
    if eta == 0 or eta == 1:
        return mpmath.mpf(1)
    b1 = mpmath.mpf(eta) / (2 * eta - 1)
    b2 = mpmath.mpf(eta - 1) / (2 * eta - 1)
    return b1 * mp_gamma_mgf(k, theta, (eta - 1) * x) + b2 * mp_gamma_mgf(k, theta, -eta * x)


def mp_laplace_kernel(b, x, eta):
    if eta == 0 or eta == 1:
        return mpmath.mpf(1)
    x = mpmath.mpf(x) / mpmath.mpf(b)
    return (eta * mpmath.e ** ((eta - 1) * x)
            + (eta - 1) * mpmath.e ** (-eta * x)) / (2 * eta - 1)


def mp_univariate_log_moment(kernel, zeta, lam):
    zeta = mpmath.mpf(zeta)
    total = mpmath.mpf(0)
    for eta in range(lam + 2):
        w = mpmath.binomial(lam + 1, eta) * (1 - zeta) ** (lam + 1 - eta) * zeta**eta
        total += w * kernel(eta)
    return float(mpmath.log(total))


def mp_plrv_multivariate(params, job, lam):
    total = mpmath.mpf(0)
    for i in range(1, job.model_dim_N + 1):
        x = float(job.clip_C * (mpmath.sqrt(i) - mpmath.sqrt(i - 1)))
        total += mp_univariate_log_moment(
            lambda eta: mp_plrv_kernel(params.k, params.theta, x, eta),
            job.sampling_rate_zeta, lam)
    return float(total)


def mp_laplace_multivariate(params, job, lam):
    total = mpmath.mpf(0)
    for i in range(1, job.model_dim_N + 1):
        x = float(job.clip_C * (mpmath.sqrt(i) - mpmath.sqrt(i - 1)))
        total += mp_univariate_log_moment(
            lambda eta: mp_laplace_kernel(params.b, x, eta),
            job.sampling_rate_zeta, lam)
    return float(total)


def write_job_file(tmp_path, params: dict, job: AccountingJob) -> str:
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"mechanism": "plrvo", "params": params,
                                "job": to_json_dict(job)}))
    return str(path)


def mc_plrv_log_moment(k, theta, C, zeta, lam, n, seed):
    """Monte-Carlo estimate of log E[(mu/mu0)^(lam+1)] over (scale, noise)
    draws, with the delta-method standard error of the log."""
    rng = np.random.default_rng(seed)
    u = rng.gamma(k, theta, size=n)
    b = 1.0 / u
    z = rng.laplace(0.0, b)
    terms = (1.0 - zeta + zeta * np.exp((np.abs(z) - np.abs(z - C)) / b)) ** (lam + 1)
    mean = float(terms.mean())
    se_log = float(terms.std(ddof=1)) / math.sqrt(n) / mean
    return math.log(mean), se_log


def mc_laplace_log_moment(b, C, zeta, lam, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.laplace(0.0, b, size=n)
    terms = (1.0 - zeta + zeta * np.exp((np.abs(z) - np.abs(z - C)) / b)) ** (lam + 1)
    mean = float(terms.mean())
    se_log = float(terms.std(ddof=1)) / math.sqrt(n) / mean
    return math.log(mean), se_log


# --- branch coefficients and kernels ----------------------------------------
# At zeta = 1 only the eta = lam + 1 term of the binomial mixture is left, so
# the univariate moment of order eta - 1 is log K(x, eta) itself.

def plrv_log_kernel(params, x, eta):
    return plrv_univariate_log_moment(params, x, 1.0, eta - 1)


def closed_form_plrv_kernel(k, theta, x, eta):
    b1 = eta / (2 * eta - 1)
    return (b1 * (1 - (eta - 1) * x * theta) ** -k
            + (1 - b1) * (1 + eta * x * theta) ** -k)


class TestBranchCoefficients:
    def test_degenerate_indices(self):
        # eta = 0 and eta = 1 carry one branch at MGF argument 0, so their
        # kernel is exactly 1: at lam = 1 the mixture reduces to
        # (1-z)^2 + 2z(1-z) + z^2 K(x, 2)
        p, x, z = LaplaceParams(b=0.7), 0.9, 0.3
        k2 = math.exp(laplace_univariate_log_moment(p, x, 1.0, 1))
        want = math.log((1 - z) ** 2 + 2 * z * (1 - z) + z * z * k2)
        assert laplace_univariate_log_moment(p, x, z, 1) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("eta", range(2, 40))
    def test_coefficients_sum_to_one(self, eta):
        p = GammaPlrvParams(k=3.0, theta=1e-3)
        # at x = 0 both MGFs are 1, leaving log(b1 + b2)
        assert plrv_log_kernel(p, 0.0, eta) == pytest.approx(0.0, abs=1e-15)
        assert plrv_log_kernel(p, 0.5, eta) == pytest.approx(
            math.log(closed_form_plrv_kernel(3.0, 1e-3, 0.5, eta)), rel=1e-12)

    def test_context_arguments(self):
        # eta = 3 at x = 0.5: the branch MGFs are taken at 1.0 and -1.5
        p = GammaPlrvParams(k=2.0, theta=0.1)
        want = 0.6 * (1 - 0.1 * 1.0) ** -2 + 0.4 * (1 - 0.1 * -1.5) ** -2
        assert plrv_log_kernel(p, 0.5, 3) == pytest.approx(math.log(want), rel=1e-14)


class TestGammaMgfLog:
    """The seed MGF log M(t) = -k log(1 - t theta), read through the kernel."""

    def test_zero_argument(self):
        assert plrv_log_kernel(GammaPlrvParams(k=3.0, theta=0.2), 0.0, 5) == \
            pytest.approx(0.0, abs=1e-15)

    def test_negative_argument_closed_form(self):
        # k = 2, theta = 0.5, eta = 2, x = 1: (2/3) (1 - 0.5)^-2 + (1/3) (1 + 1)^-2
        got = plrv_log_kernel(GammaPlrvParams(k=2.0, theta=0.5), 1.0, 2)
        assert got == pytest.approx(math.log(2 / 3 * 4 + 1 / 3 / 4), rel=1e-14)

    def test_monte_carlo_oracle(self):
        k, theta, x, eta = 10.0, 0.01, 2.5, 3
        rng = np.random.default_rng(99)
        n = 10**6
        u = rng.gamma(k, theta, size=n)
        b1 = eta / (2 * eta - 1)
        samples = b1 * np.exp((eta - 1) * x * u) + (1 - b1) * np.exp(-eta * x * u)
        mean = float(samples.mean())
        se_log = float(samples.std(ddof=1)) / math.sqrt(n) / mean
        got = plrv_log_kernel(GammaPlrvParams(k=k, theta=theta), x, eta)
        assert abs(got - math.log(mean)) <= 3 * se_log

    def test_domain_violation(self):
        # the eta = 2 branch needs M(x) with x * theta = 1
        with pytest.raises(MgfDomainViolation):
            plrv_log_kernel(GammaPlrvParams(k=1.0, theta=0.5), 2.0, 2)


class TestPlrvGTerm:
    @pytest.mark.parametrize("eta", [0, 1])
    def test_degenerate_exactly_one(self, eta):
        p, x = GammaPlrvParams(k=10.0, theta=0.01), 1.0
        if eta == 0:
            # zeta = 0 leaves only the eta = 0 term
            assert plrv_univariate_log_moment(p, x, 0.0, 3) == 0.0
        else:
            # lam = 1: (1-z)^2 K(x, 0) + 2z(1-z) K(x, 1) + z^2 K(x, 2)
            z = 0.4
            k2 = math.exp(plrv_log_kernel(p, x, 2))
            want = math.log((1 - z) ** 2 + 2 * z * (1 - z) + z * z * k2)
            assert plrv_univariate_log_moment(p, x, z, 1) == pytest.approx(want, rel=1e-14)

    def test_extended_precision_oracle(self):
        p = GammaPlrvParams(k=10.0, theta=0.01)
        for eta in [2, 3, 7]:
            exact = float(mpmath.log(mp_plrv_kernel(10, mpmath.mpf("0.01"), 1.0, eta)))
            assert plrv_log_kernel(p, 1.0, eta) == pytest.approx(exact, rel=1e-13)

    def test_reference_value(self):
        got = plrv_log_kernel(GammaPlrvParams(k=10.0, theta=0.01), 1.0, 2)
        assert got == pytest.approx(
            math.log((2 / 3) * 0.99**-10 + (1 / 3) * 1.02**-10), rel=1e-12)


# --- univariate moments ------------------------------------------------------

class TestPlrvUnivariate:
    def test_zero_sampling_rate_exact(self):
        assert plrv_univariate_log_moment(
            GammaPlrvParams(k=10.0, theta=0.01), 1.0, 0.0, 3) == 0.0

    def test_zero_sensitivity(self):
        got = plrv_univariate_log_moment(GammaPlrvParams(k=10.0, theta=0.01), 0.0, 0.5, 3)
        assert abs(got) <= 1e-12

    def test_extended_precision_oracle(self):
        p = GammaPlrvParams(k=25.0, theta=0.003)
        for zeta, lam in [(0.1, 1), (0.5, 4), (0.9, 2), (1.0, 3)]:
            exact = mp_univariate_log_moment(
                lambda eta: mp_plrv_kernel(25, mpmath.mpf("0.003"), 0.8, eta), zeta, lam)
            got = plrv_univariate_log_moment(p, 0.8, zeta, lam)
            assert got == pytest.approx(exact, rel=1e-11, abs=1e-13)

    def test_monte_carlo_oracle(self):
        k, theta, C, zeta, lam = 10.0, 0.01, 1.0, 0.5, 1
        got = plrv_univariate_log_moment(GammaPlrvParams(k=k, theta=theta), C, zeta, lam)
        mc, se_log = mc_plrv_log_moment(k, theta, C, zeta, lam, n=10**6, seed=4242)
        assert abs(got - mc) <= max(0.02 * abs(mc), 3 * se_log)

    def test_domain_violation(self):
        with pytest.raises(MgfDomainViolation):
            plrv_univariate_log_moment(GammaPlrvParams(k=2.0, theta=0.1), 2.0, 0.5, 6)


class TestLaplaceUnivariate:
    def test_trivial_limits(self):
        p = LaplaceParams(b=1.0)
        assert laplace_univariate_log_moment(p, 1.0, 0.0, 4) == 0.0
        assert abs(laplace_univariate_log_moment(p, 0.0, 0.3, 4)) <= 1e-12

    def test_extended_precision_oracle(self):
        p = LaplaceParams(b=2.0)
        for zeta, lam in [(0.1, 2), (0.5, 5), (1.0, 1)]:
            exact = mp_univariate_log_moment(
                lambda eta: mp_laplace_kernel(2.0, 1.3, eta), zeta, lam)
            got = laplace_univariate_log_moment(p, 1.3, zeta, lam)
            assert got == pytest.approx(exact, rel=1e-11, abs=1e-13)

    def test_monte_carlo_oracle(self):
        b, C, zeta, lam = 1.0, 1.0, 0.3, 2
        got = laplace_univariate_log_moment(LaplaceParams(b=b), C, zeta, lam)
        mc, se_log = mc_laplace_log_moment(b, C, zeta, lam, n=10**6, seed=777)
        assert abs(got - mc) <= max(0.02 * abs(mc), 3 * se_log)


class TestGaussianMoment:
    def test_zero_sampling_rate(self):
        assert gaussian_subsampled_log_moment(GaussianParams(sigma=1.0), 0.0, 5) == 0.0

    def test_huge_sigma_vanishes(self):
        got = gaussian_subsampled_log_moment(GaussianParams(sigma=1e9), 0.5, 4)
        assert abs(got) <= 1e-12

    def test_extended_precision_oracle(self):
        sigma, zeta, lam = 1.0, 0.01, 2
        z = mpmath.mpf(zeta)
        total = mpmath.mpf(0)
        for eta in range(lam + 2):
            w = mpmath.binomial(lam + 1, eta) * (1 - z) ** (lam + 1 - eta) * z**eta
            total += w * mpmath.e ** (mpmath.mpf(eta * eta - eta) / (2 * sigma**2))
        exact = float(mpmath.log(total))
        got = gaussian_subsampled_log_moment(GaussianParams(sigma=sigma), zeta, lam)
        assert got == pytest.approx(exact, rel=1e-11, abs=1e-14)


# --- multivariate moments ----------------------------------------------------

class TestMultivariate:
    def test_single_coordinate_matches_univariate(self):
        p = GammaPlrvParams(k=20.0, theta=0.002)
        job = make_job(model_dim_N=1, clip_C=1.5)
        assert plrv_multivariate_log_moment(p, job, 4) == pytest.approx(
            plrv_univariate_log_moment(p, 1.5, job.sampling_rate_zeta, 4), rel=1e-14)

    def test_plrv_naive_three_term_oracle(self):
        p = GammaPlrvParams(k=20.0, theta=0.002)
        job = make_job(model_dim_N=3, clip_C=1.5)
        got = plrv_multivariate_log_moment(p, job, 4)
        assert got == pytest.approx(mp_plrv_multivariate(p, job, 4), rel=1e-10)

    def test_laplace_naive_three_term_oracle(self):
        p = LaplaceParams(b=0.8)
        job = make_job(model_dim_N=3, clip_C=1.5)
        got = laplace_multivariate_log_moment(p, job, 4)
        assert got == pytest.approx(mp_laplace_multivariate(p, job, 4), rel=1e-10)

    def test_zero_sampling_rate(self):
        p = GammaPlrvParams(k=20.0, theta=0.002)
        job = make_job(model_dim_N=50, sampling_rate_zeta=0.0)
        assert plrv_multivariate_log_moment(p, job, 4) == 0.0

    def test_thread_count_invariance(self, tmp_path, capsys):
        # --threads is validated but reaches no computation
        job = make_job(model_dim_N=200_000, clip_C=2.0, lambda_max=16)
        path = write_job_file(tmp_path, {"k": 50.0, "theta": 5e-4}, job)
        outs = []
        for w in (1, 2, 4):
            assert main(["--threads", str(w), "account", path]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]  # bitwise

    def test_majorized_bound_dominates_ball_vectors(self):
        # sum of per-coordinate moments of any clipped gradient is below the
        # majorized total
        p = GammaPlrvParams(k=30.0, theta=1e-3)
        rng = np.random.default_rng(5)
        C, zeta, lam = 1.0, 0.2, 3
        for n in [2, 7, 33, 64]:
            job = make_job(model_dim_N=n, clip_C=C, sampling_rate_zeta=zeta)
            bound = plrv_multivariate_log_moment(p, job, lam)
            for _ in range(5):
                g = rng.standard_normal(n)
                g *= C * rng.random() / np.linalg.norm(g)
                direct = sum(plrv_univariate_log_moment(p, abs(float(v)), zeta, lam)
                             for v in g)
                assert direct <= bound + 1e-10


class TestMonotonicity:
    p = GammaPlrvParams(k=60.0, theta=3e-4)

    def test_nondecreasing_in_lambda(self):
        job = make_job(model_dim_N=10, clip_C=2.0, lambda_max=32)
        vals = [plrv_multivariate_log_moment(self.p, job, lam) for lam in range(1, 33)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-10

    def test_nondecreasing_in_zeta(self):
        vals = [plrv_univariate_log_moment(self.p, 1.0, z, 5)
                for z in np.linspace(0.0, 1.0, 21)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-12

    def test_nondecreasing_in_clip(self):
        for mech in ["plrvo", "laplace"]:
            vals = []
            for C in np.linspace(0.1, 3.0, 12):
                job = make_job(model_dim_N=20, clip_C=float(C), lambda_max=8)
                if mech == "plrvo":
                    vals.append(plrv_multivariate_log_moment(self.p, job, 5))
                else:
                    vals.append(laplace_multivariate_log_moment(LaplaceParams(b=1.0), job, 5))
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-12

    def test_schur_witness_finite_differences(self):
        # first differences >= -1e-8, second >= -1e-6 on a grid in (0, C_max)
        xs = np.linspace(1e-3, 2.0, 50)
        alphas = np.array([plrv_univariate_log_moment(self.p, float(x), 0.3, 4)
                           for x in xs])
        first = np.diff(alphas)
        second = np.diff(alphas, 2)
        assert np.min(first) >= -1e-8
        assert np.min(second) >= -1e-6


# --- composition and conversion ----------------------------------------------

class TestCompose:
    def test_identity(self):
        c = LogMomentCurve("plrvo", {1: 0.1, 2: 0.2})
        assert compose(c, 1).alpha_per_step == c.alpha_per_step

    def test_linearity(self):
        c = LogMomentCurve("plrvo", {3: 0.004})
        assert compose(c, 250).alpha_per_step[3] == pytest.approx(1.0, rel=1e-15)

    def test_associativity(self):
        c = LogMomentCurve("plrvo", {1: 0.13, 2: 0.21, 5: 0.7})
        assert compose(compose(c, 2), 3).alpha_per_step == compose(c, 6).alpha_per_step
        assert compose(compose(c, 2), 3).job["composed_steps"] == 6

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            compose(LogMomentCurve("plrvo", {1: 0.1}), 0)


def brute_force_epsilon(alphas: dict, delta: float):
    best = (math.inf, None)
    for lam in sorted(alphas):
        eps = (alphas[lam] / lam + math.log(lam / (lam + 1))
               - (math.log(delta) + math.log(lam + 1)) / lam)
        if eps < best[0]:
            best = (eps, lam)
    return best


class TestConversion:
    def test_flat_curve_grid_oracle(self):
        curve = LogMomentCurve("gaussian", {l: 0.0 for l in range(1, 65)})
        eps, lam = epsilon_from_delta(curve, 1e-5)
        b_eps, b_lam = brute_force_epsilon(curve.alpha_per_step, 1e-5)
        assert (eps, lam) == (pytest.approx(b_eps, abs=1e-15), b_lam)
        assert lam == 64  # conversion floor attained at the largest order

    def test_epsilon_nonincreasing_in_delta(self):
        curve = LogMomentCurve("gaussian", {l: 0.01 * l for l in range(1, 40)})
        eps = [epsilon_from_delta(curve, d)[0] for d in (1e-8, 1e-6, 1e-4, 1e-2)]
        assert eps == sorted(eps, reverse=True)

    def test_epsilon_grows_with_composition(self):
        step = LogMomentCurve("gaussian", {l: 0.002 * l for l in range(1, 40)})
        e1 = epsilon_from_delta(compose(step, 100), 1e-5)[0]
        e2 = epsilon_from_delta(compose(step, 200), 1e-5)[0]
        assert e2 >= e1

    def test_ties_break_toward_smaller_lambda(self):
        # nudge alpha(2) by ulps until both conversion terms are bit-equal
        delta = 1e-5

        def term(alpha, lam):
            return (alpha / lam + math.log(lam / (lam + 1))
                    - (math.log(delta) + math.log(lam + 1)) / lam)

        t1 = term(0.1, 1)
        a2 = 2 * (t1 - math.log(2 / 3) + (math.log(delta) + math.log(3)) / 2)
        for _ in range(16):
            if term(a2, 2) == t1:
                break
            a2 = math.nextafter(a2, math.inf if term(a2, 2) < t1 else -math.inf)
        assert term(a2, 2) == t1, "could not build an exact tie"
        curve = LogMomentCurve("gaussian", {1: 0.1, 2: a2})
        _, lam = epsilon_from_delta(curve, delta)
        assert lam == 1

    def test_delta_from_epsilon_flat_curve(self):
        curve = LogMomentCurve("gaussian", {l: 0.0 for l in range(1, 65)})
        assert delta_from_epsilon(curve, 1.0) == pytest.approx(math.exp(-64.0), rel=1e-12)

    def test_delta_clamped_at_one(self):
        curve = LogMomentCurve("gaussian", {l: 0.5 for l in range(1, 10)})
        assert delta_from_epsilon(curve, 0.0) == 1.0

    def test_round_trip_bound(self):
        # The tail-bound delta at the tight epsilon is never below the
        # original delta: the tight conversion equals
        # min exp(alpha - lam*eps) * (lam/(lam+1))^lam / (lam+1), whose last
        # factor is < 1, so dropping it (the tail bound) can only grow delta.
        curve = compose(LogMomentCurve("gaussian", {l: 0.003 * l for l in range(1, 64)}), 50)
        for delta in (1e-7, 1e-5, 1e-3):
            eps, _ = epsilon_from_delta(curve, delta)
            recovered = delta_from_epsilon(curve, eps)
            assert recovered >= delta * (1 - 1e-9)
            # and the tight inverse recovers delta itself on the same grid
            tight = min(
                math.exp(a - l * eps) * (l / (l + 1)) ** l / (l + 1)
                for l, a in curve.alpha_per_step.items())
            assert tight == pytest.approx(delta, rel=1e-9)


class TestLambdaSearch:
    def test_ladder_contains_cap(self):
        assert coarse_lambda_ladder(64) == [1, 2, 4, 8, 16, 32, 64]
        assert coarse_lambda_ladder(100) == [1, 2, 4, 8, 16, 32, 64, 100]
        assert coarse_lambda_ladder(1) == [1]

    def test_coarse_agrees_with_full_on_small_jobs(self):
        p = GammaPlrvParams(k=80.0, theta=4e-4)
        for zeta in (0.01, 0.1):
            job = make_job(model_dim_N=100, clip_C=1.0, lambda_max=64,
                           sampling_rate_zeta=zeta, steps_T=200)
            full = account(p, job, lambda_search="full")
            coarse = account(p, job, lambda_search="coarse")
            assert coarse.epsilon == pytest.approx(full.epsilon, rel=5e-3)

    def test_lazy_matches_grid_min_when_dense(self):
        alphas = {l: 0.001 * l**1.5 for l in range(1, 65)}
        eps, lam, _ = minimize_epsilon_lazy(
            lambda ls: {l: alphas[l] for l in ls}, 64, 1e-5)
        b_eps, b_lam = brute_force_epsilon(alphas, 1e-5)
        # densification brackets one octave around the coarse argmin
        assert eps == pytest.approx(b_eps, rel=5e-3)


class TestAccountDriver:
    def test_build_curve_grid_and_serialization(self):
        p = GaussianParams(sigma=1.5)
        job = make_job(lambda_max=16)
        curve = build_curve(p, job)
        assert curve.lambdas == list(range(1, 17))
        assert curve.mechanism == "gaussian"
        d = curve.to_json_dict()
        assert set(d) == {"mechanism", "alpha_per_step", "job"}

    def test_effective_cap_applied(self):
        p = GammaPlrvParams(k=141.06, theta=8.32e-4)
        job = make_job(clip_C=10.0, lambda_max=1000, model_dim_N=16)
        res = account(p, job, lambda_search="coarse")
        assert res.argmin_lambda <= 119

    def test_accelerated_mode_reports_error(self):
        p = GammaPlrvParams(k=50.0, theta=2e-4)
        job = make_job(model_dim_N=50_000, clip_C=1.0, lambda_max=16, steps_T=100)
        exact = account(p, job, lambda_search="coarse", mode="exact")
        accel = account(p, job, lambda_search="coarse", mode="accelerated")
        assert accel.accel_error_estimate is not None
        assert accel.epsilon == pytest.approx(exact.epsilon, rel=1e-3)


# --- the mixing kernel -------------------------------------------------------
# The accountant mixes every order with one linear product, log1p(W @ (K - 1)),
# and columns near the MGF bound with one shifted log-space product that
# falls back to the exact per-order log-sum-exp where it loses precision.
# These tests hold the log-space product to the exact form cell by cell, and
# the whole kernel to 60-digit arithmetic.

def kernel_matrix(branches, x, eta_max):
    """(eta, x) log kernel, built independently of the accountant's code."""
    etas = np.arange(2, eta_max + 1, dtype=np.float64)
    lm1, lm2 = branches(x, etas)
    log_g = np.zeros((eta_max + 1, x.size))
    log_g[2:] = np.logaddexp(lm1 + np.log(etas / (2 * etas - 1))[:, None],
                             lm2 + np.log((etas - 1) / (2 * etas - 1))[:, None])
    return log_g


def scalar_log_weights(zeta: float, lam: int) -> np.ndarray:
    """One row of the log subsampling weights, eta by eta through
    ``log_binomial``: the loop the weight matrix's numpy build replaces, and
    the oracle for its bits."""
    n = lam + 1
    out = np.full(n + 1, -np.inf)
    if zeta in (0.0, 1.0):
        out[0 if zeta == 0.0 else n] = 0.0
        return out
    log_z, log_1mz = math.log(zeta), math.log1p(-zeta)
    for eta in range(n + 1):
        out[eta] = log_binomial(n, eta) + (n - eta) * log_1mz + eta * log_z
    return out


def exact_log_sum_exp(log_w, log_g):
    """One log-sum-exp over the live weights per order, floored at zero."""
    out = []
    for w in log_w:
        live = np.isfinite(w)
        t = w[live, None] + log_g[live]
        m = t.max(axis=0)
        out.append(np.maximum(m + np.log(np.sum(np.exp(t - m), axis=0)), 0.0))
    return np.array(out)


def scaled_sums(log_w, log_g):
    with np.errstate(under="ignore"):
        return (np.exp(log_w - log_w.max(axis=1, keepdims=True))
                @ np.exp(log_g - log_g.max(axis=0)))


def mixed(log_w_full, lambdas, log_g):
    return accountant._mix(log_w_full, lambdas, log_g)


class TestMixingKernel:
    def check(self, branches, x, zeta, lam_cap, cols=slice(None)):
        lambdas = list(range(1, lam_cap + 1))
        log_w = accountant._log_weight_matrix(zeta, lam_cap)
        log_g = kernel_matrix(branches, x, lam_cap + 1)
        got = mixed(log_w, lambdas, log_g)[:, cols]
        want = exact_log_sum_exp(log_w, log_g[:, cols])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-12
        return log_w, log_g

    def test_paper_first_chunk(self):
        # every 8th coordinate of the first 65,536-coordinate chunk (columns
        # are mixed independently); coordinate 1 needs the fallback
        p = GammaPlrvParams(k=141.06, theta=8.32e-4)
        x = MajorizationSet(10.0, 65536).coordinates(1, 65536)
        log_w, log_g = self.check(accountant._plrv_branches(p), x, 0.01024, 119,
                                  cols=slice(None, None, 8))
        assert scaled_sums(log_w, log_g[:, :1]).min() < 1e-250

    def test_fallback_columns_near_mgf_bound(self):
        # L theta x reaches 0.8 at the largest coordinate, where k = 2000 lifts
        # the kernel's column maximum to about 2000 log 5, far above the
        # low-eta entries that the low orders mix
        p = GammaPlrvParams(k=2000.0, theta=0.05)
        x = MajorizationSet(1.0, 1000).coordinates(1, 1000)
        log_w, log_g = self.check(accountant._plrv_branches(p), x, 0.07, 16)
        assert np.sum(scaled_sums(log_w, log_g).min(axis=0) < 1e-250) >= 1

    @pytest.mark.parametrize("zeta", [0.0, 1.0])
    def test_single_live_weight_is_exact(self, zeta):
        p = GammaPlrvParams(k=20.0, theta=0.002)
        x = MajorizationSet(1.5, 300).coordinates(1, 300)
        lambdas = list(range(1, 33))
        log_g = kernel_matrix(accountant._plrv_branches(p), x, 33)
        got = mixed(accountant._log_weight_matrix(zeta, 32), lambdas, log_g)
        # zeta = 0 keeps only eta = 0 (K = 1), zeta = 1 only eta = lam + 1
        want = np.zeros_like(got) if zeta == 0.0 else np.maximum(log_g[2:], 0.0)
        assert np.array_equal(got, want)

    def test_laplace_job(self):
        x = MajorizationSet(10.0, 5000).coordinates(1, 5000)
        self.check(accountant._laplace_branches(LaplaceParams(b=2.0)), x, 0.1, 64)

    def test_weight_matrix_cached_and_read_only(self):
        log_w = accountant._log_weight_matrix(0.3, 12)
        assert accountant._log_weight_matrix(0.3, 12) is log_w
        assert not log_w.flags.writeable
        for lam in (1, 7, 12):
            row = scalar_log_weights(0.3, lam)
            assert np.array_equal(log_w[lam - 1, : lam + 2], row)
            assert np.all(log_w[lam - 1, lam + 2:] == -np.inf)

    @pytest.mark.parametrize("zeta", [0.0, 1e-9, 0.0025, 0.01024, 0.3, 0.999, 1.0])
    def test_weight_matrix_bitwise_equal_to_scalar_rows(self, zeta):
        for lam_cap in (1, 16, 64, 119, 400):
            log_w = accountant._log_weight_matrix(zeta, lam_cap)
            for lam in range(1, lam_cap + 1):
                want = scalar_log_weights(zeta, lam)
                row = log_w[lam - 1]
                # equal bits, signed zeros included
                assert np.array_equal(row[: lam + 2], want), (lam_cap, lam)
                assert np.array_equal(np.signbit(row[: lam + 2]), np.signbit(want))
                assert np.all(row[lam + 2:] == -np.inf)

    @pytest.mark.parametrize("zeta", [-0.1, 1.5, math.nan])
    def test_weight_matrix_rejects_bad_zeta(self, zeta):
        with pytest.raises(ValueError, match="zeta must be in"):
            accountant._log_weight_matrix(zeta, 8)

    @pytest.mark.parametrize("k,theta,C,zeta,lam_cap", [
        (141.06, 8.32e-4, 10.0, 0.01024, 119),  # the paper configuration
        (2000.0, 0.05, 1.0, 0.07, 16),          # L theta C = 0.8: near the MGF bound
    ])
    def test_kernel_matches_mpmath_oracle(self, k, theta, C, zeta, lam_cap):
        branches = accountant._plrv_branches(GammaPlrvParams(k=k, theta=theta))
        lambdas = sorted(set(range(1, lam_cap + 1, 2)) | {lam_cap})
        for i in (1, 10**6, 10**8):
            x = C / (math.sqrt(i) + math.sqrt(i - 1.0))
            got = accountant._moments(branches, np.array([x]), zeta, lam_cap, lambdas)[:, 0]
            want = [mp_univariate_log_moment(lambda eta: mp_plrv_kernel(k, theta, x, eta),
                                             zeta, lam) for lam in lambdas]
            assert got == pytest.approx(want, rel=1e-11), i

    def test_non_finite_moment_raises(self):
        # x / b overflows: the moments are infinite, not a number to convert
        job = make_job(clip_C=1e10, model_dim_N=5)
        with pytest.raises(ArithmeticError, match="laplace .* order 1 is nan"):
            account(LaplaceParams(b=1e-308), job)


PAPER = GammaPlrvParams(k=141.06, theta=8.32e-4)
PAPER_JOB = dict(steps_T=250, sampling_rate_zeta=0.01024, clip_C=10.0, delta=2e-5,
                 lambda_max=119)


class TestDeterminism:
    """Bitwise reproducibility across --threads values and BLAS thread counts."""

    def test_full_grid_threads_bitwise(self, tmp_path, capsys):
        # N = 200,000: the exact head and the tail bound, on the full grid
        path = write_job_file(tmp_path, {"k": 141.06, "theta": 8.32e-4},
                              AccountingJob(model_dim_N=200_000, **PAPER_JOB))
        runs = []
        for t in (1, 2, 4):
            curve = tmp_path / f"curve-{t}.csv"
            assert main(["--threads", str(t), "account", path, "--curve", str(curve)]) == 0
            runs.append(capsys.readouterr().out + curve.read_text())
        assert runs[0] == runs[1] == runs[2]

    def test_blas_thread_count_keeps_stdout(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"mechanism": "plrvo", "params": {"k": 141.06,
                                                                     "theta": 8.32e-4},
                                    "job": dict(PAPER_JOB, model_dim_N=200_000)}))
        src = str(Path(accountant.__file__).resolve().parents[1])
        base = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
        outs = []
        for blas in (None, "1"):
            env = dict(base, **({"OPENBLAS_NUM_THREADS": blas} if blas else {}))
            proc = subprocess.run(
                [sys.executable, "-m", "plrvo.cli", "--threads", "2", "account", str(path),
                 "--curve", str(tmp_path / f"curve-{blas}.csv")],
                env=env, capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout + (tmp_path / f"curve-{blas}.csv").read_bytes())
        assert outs[0] == outs[1]


# --- the coordinate sum: exact head, Hermite-Hadamard tail -------------------

def exact_coordinate_sum(branches, job, lambdas):
    """Every coordinate's moments from the accountant's own kernel, summed
    with no tail bound."""
    mset = MajorizationSet(job.clip_C, job.model_dim_N)
    total = np.zeros(len(lambdas))
    for lo in range(1, job.model_dim_N + 1, 1 << 16):
        xs = mset.coordinates(lo, min(lo + (1 << 16) - 1, job.model_dim_N))
        total += accountant._moments(branches, xs, job.sampling_rate_zeta,
                                     job.lambda_max, lambdas).sum(axis=1)
    return total


TAIL_EXCESS = 1e-8  # the accountant's stated bound on the tail's relative excess


class TestCoordinateSum:
    def check_upper_bound(self, branches, job):
        lambdas = list(range(1, job.lambda_max + 1))
        got = accountant._multivariate_log_moments(branches, job, lambdas)
        got = np.array([got[lam] for lam in lambdas])
        want = exact_coordinate_sum(branches, job, lambdas)
        assert np.all(got >= want)
        assert np.all(got - want <= TAIL_EXCESS * want)

    @settings(max_examples=5, deadline=None)
    @given(log_k=st.floats(-1.0, 3.5), log_mgf=st.floats(-8.0, -0.05),
           log_c=st.floats(-1.0, 1.0), zeta=st.floats(1e-3, 0.5),
           n=st.integers(1, 10**6), lam_cap=st.sampled_from([8, 16, 32]))
    def test_plrv_bound_dominates_exact_sum(self, log_k, log_mgf, log_c, zeta, n, lam_cap):
        # (lam_cap + 1) theta C = 10^log_mgf < 1 keeps every MGF finite
        C = 10.0**log_c
        p = GammaPlrvParams(k=10.0**log_k, theta=10.0**log_mgf / ((lam_cap + 1) * C))
        job = make_job(model_dim_N=n, clip_C=C, sampling_rate_zeta=zeta, lambda_max=lam_cap)
        self.check_upper_bound(accountant._plrv_branches(p), job)

    @settings(max_examples=5, deadline=None)
    @given(log_b=st.floats(-0.5, 1.5), log_c=st.floats(-1.0, 1.0),
           zeta=st.floats(1e-3, 0.5), n=st.integers(1, 10**6),
           lam_cap=st.sampled_from([8, 16, 32]))
    def test_laplace_bound_dominates_exact_sum(self, log_b, log_c, zeta, n, lam_cap):
        job = make_job(model_dim_N=n, clip_C=10.0**log_c, sampling_rate_zeta=zeta,
                       lambda_max=lam_cap)
        self.check_upper_bound(accountant._laplace_branches(LaplaceParams(b=10.0**log_b)), job)

    def test_head_is_exact(self):
        job = AccountingJob(model_dim_N=accountant.HEAD_COORDINATES, **PAPER_JOB)
        lambdas = [1, 10, 119]
        got = accountant.plrv_multivariate_log_moments(PAPER, job, lambdas)
        want = exact_coordinate_sum(accountant._plrv_branches(PAPER), job, lambdas)
        assert [got[lam] for lam in lambdas] == want.tolist()

    def test_coarse_and_full_search_agree_at_model_scale(self):
        # a moment no longer depends on the other orders of its batch
        job = AccountingJob(model_dim_N=10**6, **PAPER_JOB)
        full = account(PAPER, job, lambda_search="full")
        coarse = account(PAPER, job, lambda_search="coarse")
        assert coarse.argmin_lambda == full.argmin_lambda == 10
        assert coarse.epsilon == pytest.approx(full.epsilon, rel=1e-12)

    @pytest.mark.parametrize("n", [accountant.HEAD_COORDINATES, 10**6])
    def test_accelerated_mode_reports_tail_slack(self, n):
        job = AccountingJob(model_dim_N=n, **PAPER_JOB)
        exact = account(PAPER, job, lambda_search="coarse")
        accel = account(PAPER, job, lambda_search="coarse", mode="accelerated")
        assert accel.epsilon == exact.epsilon and exact.accel_error_estimate is None
        if n <= accountant.HEAD_COORDINATES:
            assert accel.accel_error_estimate == 0.0
        else:
            assert 0.0 <= accel.accel_error_estimate <= 1e-12 * accel.per_step_alpha_at_argmin

    @staticmethod
    def paper_epsilon(**overrides) -> float:
        return account(PAPER, AccountingJob(**dict(PAPER_JOB, model_dim_N=10**6,
                                                   **overrides))).epsilon

    @settings(max_examples=5, deadline=None)
    @given(st.integers(1, 2000), st.integers(1, 2000))
    def test_epsilon_nondecreasing_in_steps_at_model_scale(self, t1, t2):
        lo, hi = sorted([t1, t2])
        assert self.paper_epsilon(steps_T=lo) <= self.paper_epsilon(steps_T=hi)

    @settings(max_examples=5, deadline=None)
    @given(st.floats(1e-4, 0.2), st.floats(1e-4, 0.2))
    def test_epsilon_nondecreasing_in_zeta_at_model_scale(self, z1, z2):
        lo, hi = sorted([z1, z2])
        a, b = self.paper_epsilon(sampling_rate_zeta=lo), self.paper_epsilon(sampling_rate_zeta=hi)
        assert b >= a * (1.0 - 1e-12)

    @settings(max_examples=5, deadline=None)
    @given(st.floats(0.5, 10.0), st.floats(0.5, 10.0))
    def test_epsilon_nondecreasing_in_clip_at_model_scale(self, c1, c2):
        lo, hi = sorted([c1, c2])
        a, b = self.paper_epsilon(clip_C=lo), self.paper_epsilon(clip_C=hi)
        assert b >= a * (1.0 - 1e-12)
