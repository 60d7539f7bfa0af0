import collections
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

from binomial import log_binomial
from plrvo import accountant
from plrvo.accountant import (
    account,
    build_curve,
    compose,
    delta_from_epsilon,
    epsilon_from_delta,
    gaussian_subsampled_log_moment,
    laplace_multivariate_log_moment,
    laplace_univariate_log_moment,
    plrv_multivariate_log_moment,
    plrv_univariate_log_moment,
    tail_slack,
)
from plrvo.cli import main
from plrvo.majorization import MajorizationSet
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

    @pytest.mark.parametrize("k,theta,x,lam", [
        (1e6, 1e-12, 0.5, 64), (10.0, 1e-6, 1.0, 5), (1252.8, 2.08e-9, 2.98, 32)])
    def test_no_subsampling_keeps_tiny_moments_precise(self, k, theta, x, lam):
        # zeta = 1: alpha = log K(x, lam + 1), from 5e-10 to 3e-8 here; a
        # log-sum-exp of the two branches, each near log(1/2), keeps about
        # 1e-16 of absolute precision, up to 1e-7 relative here, enough to
        # make epsilon fall with theta at the 1e-13 level
        exact = float(mpmath.log(mp_plrv_kernel(k, mpmath.mpf(theta), x, lam + 1)))
        got = plrv_univariate_log_moment(GammaPlrvParams(k=k, theta=theta), x, 1.0, lam)
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)

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


def scalar_conversion(alpha: float, lam: int, delta: float) -> float:
    """One order's conversion term, in scalar arithmetic."""
    return (alpha / lam + math.log(lam / (lam + 1))
            - (math.log(delta) + math.log(lam + 1)) / lam)


def brute_force_epsilon(alphas: dict, delta: float):
    """The conversion minimized order by order: the oracle for the bits of
    the accountant's vectorized conversion."""
    best = (math.inf, None)
    for lam in sorted(alphas):
        eps = scalar_conversion(alphas[lam], lam, delta)
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

    @pytest.mark.parametrize("seed", range(6))
    def test_vectorized_bits_equal_the_scalar_loop(self, seed):
        # per-step moments spanning 1e-12..1e300, T up to 1e6 (some composed
        # moments overflow to inf), sparse orders, and repeated values
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n = int(rng.integers(1, 130))
            per_step = 10.0 ** rng.uniform(-12.0, 300.0 if seed % 2 else 2.0, n)
            per_step[rng.integers(0, n, n // 4)] = per_step[0]
            T = int(rng.choice([1, 7, 250, 10**6]))
            delta = float(10.0 ** rng.uniform(-12.0, -1.0))
            lams = tuple(sorted(set(rng.integers(1, 400, n).tolist())))
            for orders in (range(1, n + 1), lams):
                alpha = per_step[: len(orders)]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    eps, lam = accountant._grid_min(orders, alpha, T, delta)
                want_eps, want_lam = brute_force_epsilon(
                    {l: T * a for l, a in zip(orders, alpha.tolist())}, delta)
                assert (eps.hex(), lam) == (want_eps.hex(), want_lam)

    def test_every_order_overflowing_has_no_argmin(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert accountant._grid_min(range(1, 4), np.full(3, 1e308), 10, 1e-5) == (
                math.inf, None)

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
    def test_coarse_agrees_with_full_on_small_jobs(self):
        # the order search prints what the whole grid's minimum prints
        p = GammaPlrvParams(k=80.0, theta=4e-4)
        for zeta in (0.01, 0.1):
            job = make_job(model_dim_N=100, clip_C=1.0, lambda_max=64,
                           sampling_rate_zeta=zeta, steps_T=200)
            res = account(p, job)
            full = epsilon_from_delta(compose(build_curve(p, job), job.steps_T), job.delta)
            assert (res.epsilon, res.argmin_lambda) == full


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
        res = account(p, job)
        assert res.argmin_lambda <= 119

    def test_accelerated_mode_reports_error(self):
        p = GammaPlrvParams(k=50.0, theta=2e-4)
        job = make_job(model_dim_N=50_000, clip_C=1.0, lambda_max=16, steps_T=100)
        assert tail_slack(p, job) >= 0.0


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


class TestMixingKernel:
    def check(self, branches, x, zeta, lam_cap, cols=slice(None)):
        log_w = accountant._log_weight_matrix(zeta, lam_cap)
        log_g = kernel_matrix(branches, x, lam_cap + 1)
        got = next(accountant._mix(log_w, log_g, [lam_cap]))[:, cols]
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
        log_g = kernel_matrix(accountant._plrv_branches(p), x, 33)
        got = next(accountant._mix(accountant._log_weight_matrix(zeta, 32), log_g, [32]))
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
            got = all_moments(branches, np.array([x]), zeta, lam_cap)[np.array(lambdas) - 1, 0]
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


def all_moments(branches, x, zeta, lam_cap):
    """Every block of ``accountant._moments``, stacked: orders 1..lam_cap.
    Each block is copied as it is yielded: it is valid only until the next."""
    return np.concatenate([alpha.copy()
                           for alpha in accountant._moments(branches, x, zeta, lam_cap)])


EXPM1_TERMS = [1.0 / math.factorial(n) for n in range(2, 11)]
LOG1P_TERMS = [1.0 / n for n in range(2, 16)]


def horner(w, terms):
    """sum_i terms[i] w^(i+2), by Horner's rule on one array."""
    acc = np.full_like(w, terms[-1])
    for c in terms[-2::-1]:
        acc *= w
        acc += c
    return acc * w * w


def four_call_series(params, x, etas, lm1, lm2):
    """K - 1 on series columns x (every branch log lm1, lm2 within 1/16),
    by the four separate Horner calls and the np.where (which always takes
    the log1p side) that the accountant's one stacked pass replaced: the
    oracle for its bits."""
    b1, b2 = etas / (2.0 * etas - 1.0), (etas - 1.0) / (2.0 * etas - 1.0)
    b1, b2 = b1[:, None], b2[:, None]
    if isinstance(params, GammaPlrvParams):
        y = (etas[:, None] - 1.0) * params.theta * x[None, :]
        z = etas[:, None] * params.theta * x[None, :]
        bend1, bend2 = (params.k * np.where(np.abs(w) <= 1.0 / 16.0, horner(w, LOG1P_TERMS),
                                            -np.log1p(-w) - w) for w in (y, -z))
    else:  # the Laplace logs are linear: no bends
        bend1 = bend2 = 0.0
    return (b1 * (horner(lm1, EXPM1_TERMS) + bend1)
            + b2 * (horner(lm2, EXPM1_TERMS) + bend2))


def allocating_moments(params, x, zeta, lam_cap, ends=None):
    """``accountant._moments`` of every order up to ``lam_cap``, written
    with allocating expressions: the branch logs -k log1p(-y) and
    -k log1p(z), K - 1 = b1 expm1(lm1) + b2 expm1(lm2), then
    log1p(W @ (K - 1)), one product per row block of ``ends`` (default: the
    accountant's blocks; ``[lam_cap]`` is one whole product); the series
    columns take :func:`four_call_series`, and the log-space columns are
    filled as the accountant fills them. Also returns whether any column
    took the series and the log-space paths."""
    ends = accountant._block_ends(lam_cap) if ends is None else ends
    branches = accountant._branches(params)
    eta_max = lam_cap + 1
    etas, b1, b2 = accountant._branch_coefficients(eta_max)
    b1, b2 = b1[:, None], b2[:, None]
    if isinstance(params, GammaPlrvParams):
        y = (etas[:, None] - 1.0) * params.theta * x[None, :]
        z = etas[:, None] * params.theta * x[None, :]
        lm1, lm2 = -params.k * np.log1p(-y), -params.k * np.log1p(z)
    else:
        lm1, lm2 = branches(x, etas)
    log_space = ~(lm1[-1] <= accountant._LINEAR_MIX_MAX_LOG)
    small = np.maximum(lm1[-1], -lm2[-1]) <= accountant._SERIES_MAX
    with np.errstate(over="ignore", invalid="ignore"):
        k_minus_1 = b1 * np.expm1(lm1) + b2 * np.expm1(lm2)
    if small.any():
        k_minus_1[:, small] = four_call_series(params, x[small], etas, lm1[:, small],
                                               lm2[:, small])
    w = accountant._weight_matrix(zeta, lam_cap)[:, 2:]
    with np.errstate(invalid="ignore"):
        alpha = np.log1p(np.concatenate([w[lo:hi, :hi] @ k_minus_1[:hi]
                                         for lo, hi in zip([0] + ends, ends)]))
    if log_space.any():
        alpha[:, log_space] = np.concatenate(list(accountant._mix(
            accountant._log_weight_matrix(zeta, lam_cap),
            accountant._log_kernel(branches, x[log_space], eta_max), ends)))
    return np.maximum(alpha, 0.0), bool(small.any()), bool(log_space.any())


KERNEL_PARAMS = [
    (GammaPlrvParams(k=0.5, theta=1e-3), 1.0, 0.05, 32, True, False),  # k < 1
    (GammaPlrvParams(k=20.0, theta=0.002), 1.5, 0.0, 32, True, False),
    (GammaPlrvParams(k=20.0, theta=0.002), 1.5, 1.0, 32, True, False),
    (PAPER, 10.0, 0.01024, 119, True, True),  # x = C: 119 theta C = 0.99
    (GammaPlrvParams(k=2000.0, theta=0.05), 1.0, 0.07, 16, True, True),
    (LaplaceParams(b=2.0), 10.0, 0.1, 64, True, True),  # 64 C / b = 320
    (LaplaceParams(b=0.5), 1.0, 1.0, 16, True, False),
]
KERNEL_IDS = ["k<1", "zeta=0", "zeta=1", "paper", "k=2000", "laplace", "laplace-zeta=1"]
KERNEL_CASES = pytest.mark.parametrize("params,C,zeta,lam_cap,series,log_space",
                                       KERNEL_PARAMS, ids=KERNEL_IDS)
# and three more for the series columns: at k = 0.01 a branch log within
# 1/16 allows a bend argument |w| near 1/2; Laplace at an interior zeta; a
# probe of criterion 8's config 3 at its cap 16 (a single row block)
SERIES_CASES = pytest.mark.parametrize("params,C,zeta,lam_cap,series,log_space", KERNEL_PARAMS + [
    (GammaPlrvParams(k=0.01, theta=0.03), 1.0, 0.1, 16, True, False),
    (LaplaceParams(b=50.0), 1.0, 0.1, 32, True, False),
    (GammaPlrvParams(k=218.39762521569187, theta=6.793221434751662e-4), 0.9382267495871688,
     0.193633203141838, 16, True, False),
], ids=[*KERNEL_IDS, "k=0.01-far-w", "laplace-interior", "crit8-probe"])


def kernel_inputs(C, seed):
    """Seeded coordinates, x = C and x = 0 among them."""
    rng = np.random.default_rng(seed)
    return np.concatenate([[C, 0.0], C * 10.0 ** rng.uniform(-7.0, 0.0, 300)])


class TestInPlaceKernel:
    """``_moments`` builds the branch logs, K - 1 and the mix in arrays it
    already owns; every bit must match the allocating expressions."""

    @KERNEL_CASES
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bitwise_equal_to_allocating_kernel(self, params, C, zeta, lam_cap,
                                                series, log_space, seed):
        x = kernel_inputs(C, seed)
        got = all_moments(accountant._branches(params), x, zeta, lam_cap)
        want, took_series, took_log_space = allocating_moments(params, x, zeta, lam_cap)
        assert got.tobytes() == want.tobytes()
        # the case reaches the paths it is named for
        assert (took_series, took_log_space) == (series, log_space)

    @KERNEL_CASES
    @pytest.mark.parametrize("seed", [0, 1])
    def test_leading_rows_keep_the_batch_bits(self, params, C, zeta, lam_cap,
                                              series, log_space, seed):
        # the order search reads only the first blocks of a batch; its series
        # and log-space columns are chosen at the batch's largest eta
        x = kernel_inputs(C, seed)
        branches = accountant._branches(params)
        whole = all_moments(branches, x, zeta, lam_cap)
        for blocks, rows in enumerate(accountant._block_ends(lam_cap), start=1):
            got = np.concatenate([alpha.copy() for alpha in itertools.islice(
                accountant._moments(branches, x, zeta, lam_cap), blocks)])
            assert got.tobytes() == whole[:rows].tobytes(), rows


class TestStackedSeries:
    """The series columns' K - 1 comes from one stacked Horner pass over the
    two branch logs and the two bend arguments; every bit must match the
    four separate calls it replaced."""

    @SERIES_CASES
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bitwise_equal_to_four_series_calls(self, params, C, zeta, lam_cap,
                                                series, log_space, seed):
        x = kernel_inputs(C, seed)
        branches = accountant._branches(params)
        etas, b1, b2 = accountant._branch_coefficients(lam_cap + 1)
        lm1, lm2 = branches(x, etas)
        small = np.maximum(lm1[-1], -lm2[-1]) <= accountant._SERIES_MAX
        assert small.any()
        got = accountant._series_columns(branches, x, small, etas, lm1, lm2,
                                         b1[:, None], b2[:, None])
        want = four_call_series(params, x[small], etas, lm1[:, small], lm2[:, small])
        assert got.tobytes() == want.tobytes()

    def test_far_case_reaches_the_log1p_side(self):
        # at k = 0.01 the series columns hold bend arguments up to about 1/2
        params = GammaPlrvParams(k=0.01, theta=0.03)
        x = kernel_inputs(1.0, 0)
        lm1, lm2 = accountant._plrv_branches(params)(x, np.arange(2.0, 18.0))
        small = np.maximum(lm1[-1], -lm2[-1]) <= accountant._SERIES_MAX
        assert 16.0 * params.theta * x[small].max() > 0.25

    @SERIES_CASES
    def test_moments_keep_the_bits(self, params, C, zeta, lam_cap, series, log_space):
        x = kernel_inputs(C, 2)
        got = all_moments(accountant._branches(params), x, zeta, lam_cap)
        want, took_series, took_log_space = allocating_moments(params, x, zeta, lam_cap)
        assert got.tobytes() == want.tobytes()
        assert (took_series, took_log_space) == (series, log_space)


class TestBlockedMix:
    """Every caller mixes the same fixed row blocks; a block's product stays
    within rounding of the rows of one whole weight product."""

    @KERNEL_CASES
    @pytest.mark.parametrize("seed", [0, 1])
    def test_within_rounding_of_one_whole_product(self, params, C, zeta, lam_cap,
                                                  series, log_space, seed):
        x = kernel_inputs(C, seed)
        got = all_moments(accountant._branches(params), x, zeta, lam_cap)
        want = allocating_moments(params, x, zeta, lam_cap, ends=[lam_cap])[0]
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("lam_cap,ends", [
        (1, [1]), (16, [16]), (17, [16, 17]), (64, [16, 32, 64]),
        (119, [16, 32, 64, 119]), (4096, [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]),
    ])
    def test_block_ends(self, lam_cap, ends):
        assert accountant._block_ends(lam_cap) == ends


class TestBuildOnce:
    """``account`` extends one evaluation across its search rounds: on a job
    whose argmin is the cap, each branch row is built and each block is
    mixed once, for the head and for the tail."""

    @staticmethod
    def record(monkeypatch):
        """(built, mixed): the eta rows each branch call builds, keyed by
        (columns, bends), and the rows of each mixed block, keyed by columns."""
        built, mixed = collections.defaultdict(list), collections.defaultdict(list)
        make_branches, moments = accountant._plrv_branches, accountant._moments

        def recording_branches(params):
            branches = make_branches(params)

            def recorded(x, etas, bends=False, out=None, out2=None):
                built[x.size, bends].extend(etas.astype(int).tolist())
                return branches(x, etas, bends, out, out2)

            return recorded

        def recorded_moments(branches, x, zeta, lam_cap):
            for alpha in moments(branches, x, zeta, lam_cap):
                mixed[x.size].append(alpha.shape[0])
                yield alpha

        monkeypatch.setattr(accountant, "_plrv_branches", recording_branches)
        monkeypatch.setattr(accountant, "_moments", recorded_moments)
        return built, mixed

    def test_argmin_at_the_cap(self, monkeypatch):
        job = AccountingJob(**dict(PAPER_JOB, model_dim_N=10**6, steps_T=1,
                                   sampling_rate_zeta=0.001))
        built, mixed = self.record(monkeypatch)
        assert account(PAPER, job).argmin_lambda == 119
        head, tail = accountant.HEAD_COORDINATES, 32 * (32 + 16)  # 32 nodes a panel
        assert mixed == {head: [16, 16, 32, 55], tail: [16, 16, 32, 55]}
        rows = list(range(2, 121))
        # the first block also builds the one mask row at eta = 120; the
        # series columns (bends) and the log-space column x_1 are subsets
        assert built.pop((head, False)) == built.pop((tail, False)) == [*rows[:16], 120,
                                                                         *rows[16:]]
        assert (1, False) in built
        assert all(etas == rows for etas in built.values()), built.keys()

    def test_single_block(self, monkeypatch):
        # a probe of criterion 8's config 3: cap 16, N = 489, one row block;
        # its mask row is the block's last row, eta = 17, built once
        job = AccountingJob(steps_T=124, sampling_rate_zeta=0.193633203141838,
                            model_dim_N=489, clip_C=0.9382267495871688, delta=1e-5,
                            lambda_max=16)
        params = GammaPlrvParams(k=218.39762521569187, theta=6.793221434751662e-4)
        built, mixed = self.record(monkeypatch)
        account(params, job)
        assert mixed == {489: [16]}
        rows = list(range(2, 18))
        assert built.pop((489, False)) == rows
        # and the series columns' bend arguments, once
        ((columns, bends), etas), = built.items()
        assert bends and 0 < columns < 489 and etas == rows


def per_order_mix(log_w, log_g, ends):
    """The blocks of ``accountant._mix`` with its exact re-mix as a loop of
    one log-sum-exp per order over the order's live weights: the form the
    accountant's blocked log-sum-exp replaced, and the oracle for its bits."""
    log_w = log_w[:, : log_g.shape[0]]
    with np.errstate(divide="ignore", invalid="ignore"):
        rmax = log_w.max(axis=1, keepdims=True)
        cmax = log_g.max(axis=0)
        scaled = np.exp(log_w - rmax) @ np.exp(log_g - cmax)
        redo = ~np.all(scaled >= 1e-250, axis=0)
        redo |= np.any(np.count_nonzero(log_w != -np.inf, axis=1) == 1)
    g = log_g[:, redo]
    blocks = []
    for lo, hi in zip([0, *ends], ends):
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.log(scaled[lo:hi], out=scaled[lo:hi])
            alpha += cmax
            alpha += rmax[lo:hi]
            for row, w in zip(alpha, log_w[lo:hi]) if redo.any() else ():
                live = w != -np.inf
                t = w[live, None] + g[live]
                m = t.max(axis=0)
                row[redo] = m + np.log(np.sum(np.exp(t - m[None, :]), axis=0))
        blocks.append(np.maximum(alpha, 0.0, out=alpha))
    return blocks, int(np.count_nonzero(redo))


def log_space_case(name):
    """(log_w, log_g) of a named log-space mixing case."""
    if name == "paper-x1":  # the paper job's x_1 = C column, the one it re-mixes
        return (accountant._log_weight_matrix(0.01024, 119),
                accountant._log_kernel(accountant._plrv_branches(PAPER), np.array([10.0]), 120))
    if name == "k=2000":  # L theta x reaches 0.8: near the MGF bound
        x = MajorizationSet(1.0, 1000).coordinates(1, 1000)
        branches = accountant._plrv_branches(GammaPlrvParams(k=2000.0, theta=0.05))
        return accountant._log_weight_matrix(0.07, 16), accountant._log_kernel(branches, x, 17)
    if name.startswith("zeta="):  # one live weight per order: every column re-mixed
        x = MajorizationSet(1.5, 300).coordinates(1, 300)
        branches = accountant._plrv_branches(GammaPlrvParams(k=20.0, theta=0.002))
        return (accountant._log_weight_matrix(float(name[5:]), 32),
                accountant._log_kernel(branches, x, 33))
    if name == "laplace":  # 64 x / b > 575 up to x_343: hundreds of re-mixed columns
        x = MajorizationSet(10.0, 5000).coordinates(1, 5000)
        branches = accountant._laplace_branches(LaplaceParams(b=0.03))
        return accountant._log_weight_matrix(0.1, 64), accountant._log_kernel(branches, x, 65)
    if name == "cap=200":  # live runs of up to 202 weights; 200 theta x = 0.994
        x = np.array([10.0])
        branches = accountant._plrv_branches(GammaPlrvParams(k=141.06, theta=4.97e-4))
        return accountant._log_weight_matrix(0.01024, 200), accountant._log_kernel(branches, x, 201)
    # columns whose kernel holds inf or NaN, beside finite ones
    log_w, log_g = log_space_case("k=2000")
    log_g = log_g[:, :8].copy()
    log_g[9, 1] = np.inf
    log_g[4, 2] = np.nan
    log_g[2:, 3] = np.inf
    log_g[2:, 4] = -np.inf
    log_g[17, 5] = np.nan
    return log_w, log_g


LOG_SPACE_CASES = ["paper-x1", "k=2000", "zeta=0", "zeta=1", "laplace", "cap=200",
                   "inf-nan"]


class TestLogSpaceMix:
    """``_mix`` re-mixes its log-space columns a block of orders at a time,
    each order's live run aligned at offset 0; every bit must match the
    per-order loop it replaced."""

    @pytest.mark.parametrize("name", LOG_SPACE_CASES)
    def test_bitwise_equal_to_per_order_loop(self, name):
        log_w, log_g = log_space_case(name)
        ends = accountant._block_ends(log_w.shape[0])
        want, redo = per_order_mix(log_w, log_g, ends)
        assert redo >= 1  # the case reaches the re-mix
        got = list(accountant._mix(log_w, log_g, ends))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
            assert np.array_equal(np.signbit(g), np.signbit(w))

    def test_cases_reach_what_they_are_named_for(self):
        # several chunks of orders in the block [32, 64), whose live runs are
        # up to 66 weights long
        redo = per_order_mix(*log_space_case("laplace"), [64])[1]
        assert 2 <= accountant._LOG_SUM_EXP_CELLS // (66 * redo) < 32
        # live runs longer than numpy's 128-term pairwise block, on one column
        assert per_order_mix(*log_space_case("cap=200"), [200])[1] == 1
        assert per_order_mix(*log_space_case("paper-x1"), [119])[1] == 1
        # NaN moments, whose bits include the NaN's sign
        log_w, log_g = log_space_case("inf-nan")
        assert np.isnan(np.concatenate(list(accountant._mix(log_w, log_g, [16])))).any()


class TestFullGridMemory:
    """One warm full-grid ``_per_step`` of the paper job at N = 1e5 holds the
    head's and the tail's K - 1 and one block buffer each, and little else."""

    def test_traced_peak(self):
        job = AccountingJob(model_dim_N=10**5, **PAPER_JOB)
        accountant._per_step(PAPER, job)  # the caches are warm
        tracemalloc.start()
        try:
            accountant._per_step(PAPER, job)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cap = job.lambda_max
        columns = accountant.HEAD_COORDINATES + 32 * (32 + 16)  # head and tail nodes
        largest = max(np.diff(accountant._block_ends(cap)))
        # K - 1 (cap + 1 rows) and the block buffer, in float64, plus 0.6 MB
        bound = 8 * (cap + 1 + largest) * columns + 600_000
        assert bound < 8.5e6
        assert peak <= bound, (peak, bound)


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

def exact_coordinate_sum(params, job):
    """Every coordinate's moments of every order up to the job's cap, from
    the accountant's own kernel, summed with no tail bound."""
    mset = MajorizationSet(job.clip_C, job.model_dim_N)
    total = np.zeros(job.lambda_max)
    for lo in range(1, job.model_dim_N + 1, 1 << 16):
        xs = mset.coordinates(lo, min(lo + (1 << 16) - 1, job.model_dim_N))
        total += all_moments(accountant._branches(params), xs, job.sampling_rate_zeta,
                             job.lambda_max).sum(axis=1)
    return total


TAIL_EXCESS = 1e-8  # the accountant's stated bound on the tail's relative excess


class TestCoordinateSum:
    def check_upper_bound(self, params, job):
        got = accountant._per_step(params, job)[0]
        want = exact_coordinate_sum(params, job)
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
        self.check_upper_bound(p, job)

    @settings(max_examples=5, deadline=None)
    @given(log_b=st.floats(-0.5, 1.5), log_c=st.floats(-1.0, 1.0),
           zeta=st.floats(1e-3, 0.5), n=st.integers(1, 10**6),
           lam_cap=st.sampled_from([8, 16, 32]))
    def test_laplace_bound_dominates_exact_sum(self, log_b, log_c, zeta, n, lam_cap):
        job = make_job(model_dim_N=n, clip_C=10.0**log_c, sampling_rate_zeta=zeta,
                       lambda_max=lam_cap)
        self.check_upper_bound(LaplaceParams(b=10.0**log_b), job)

    def test_head_is_exact(self):
        job = AccountingJob(model_dim_N=accountant.HEAD_COORDINATES, **PAPER_JOB)
        alpha, lower = accountant._per_step(PAPER, job)
        want = exact_coordinate_sum(PAPER, job)
        assert alpha.tolist() == lower.tolist() == want.tolist()

    def test_coarse_and_full_search_agree_at_model_scale(self):
        job = AccountingJob(model_dim_N=10**6, **PAPER_JOB)
        assert account(PAPER, job).argmin_lambda == 10

    @pytest.mark.parametrize("n", [accountant.HEAD_COORDINATES, 10**6])
    def test_accelerated_mode_reports_tail_slack(self, n):
        job = AccountingJob(model_dim_N=n, **PAPER_JOB)
        slack = tail_slack(PAPER, job)
        assert tail_slack(GaussianParams(sigma=1.0), job) is None
        if n <= accountant.HEAD_COORDINATES:
            assert slack == 0.0
        else:
            assert 0.0 <= slack <= 1e-12 * account(PAPER, job).per_step_alpha_at_argmin

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


# --- the order search --------------------------------------------------------

MOMENT_JOBS = dict(
    mechanism=st.sampled_from(["plrvo", "laplace", "gaussian"]),
    log_k=st.floats(-0.5, 4.0), log_mgf=st.floats(-3.0, -0.01),
    log_b=st.floats(-0.5, 2.5), log_sigma=st.floats(-0.3, 1.5), log_c=st.floats(-1.0, 1.0),
    zeta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-4, 0.5)),
    n=st.one_of(st.integers(1, accountant.HEAD_COORDINATES),
                st.integers(accountant.HEAD_COORDINATES + 1, 10**7)),
    steps=st.integers(1, 5000), log_delta=st.floats(-8.0, -3.0),
    lam_cap=st.integers(1, 200))


def moment_job(mechanism, log_k, log_mgf, log_b, log_sigma, log_c, zeta, n, steps,
               log_delta, lam_cap):
    """A plrvo, Laplace or Gaussian job; (lam_cap + 1) theta C = 10^log_mgf < 1."""
    C = 10.0**log_c
    if mechanism == "plrvo":
        params = GammaPlrvParams(k=10.0**log_k, theta=10.0**log_mgf / ((lam_cap + 1) * C))
    elif mechanism == "laplace":
        params = LaplaceParams(b=10.0**log_b)
    else:
        params = GaussianParams(sigma=10.0**log_sigma)
    return params, AccountingJob(steps, zeta, n, C, 10.0**log_delta, lam_cap)


class TestOrderSearch:
    """``account`` stops its order search once a convexity certificate rules
    out every later order; what it prints keeps the whole grid's bits."""

    @settings(max_examples=40, deadline=None)
    @given(**MOMENT_JOBS)
    def test_matches_full_grid_oracle(self, **draw):
        params, job = moment_job(**draw)
        got = account(params, job)
        curve = build_curve(params, job)
        eps, lam = epsilon_from_delta(compose(curve, job.steps_T), job.delta)
        assert ((got.epsilon.hex(), got.argmin_lambda, got.per_step_alpha_at_argmin.hex())
                == (eps.hex(), lam, curve.alpha_per_step[lam].hex()))

    @settings(max_examples=20, deadline=None)
    @given(**MOMENT_JOBS)
    def test_tangent_bound_below_later_conversions(self, **draw):
        params, job = moment_job(**draw)
        grid = range(1, job.lambda_max + 1)
        alpha, lower = accountant._per_step(params, job)
        assert np.all(lower <= alpha)
        conv = np.array([scalar_conversion(job.steps_T * a, lam, job.delta)
                         for lam, a in zip(grid, alpha.tolist())])
        # up to rounding, far inside the 1e-9 margin the search leaves
        for m in range(2, job.lambda_max):
            bound = accountant._tangent_bound(lower[:m], job.lambda_max, job.steps_T,
                                              job.delta)
            assert np.all(bound <= conv[m:] + 1e-12 * np.abs(conv[m:])), m

    @staticmethod
    def searched_rows(monkeypatch, params, job):
        rows = []
        evaluate = accountant._per_step_blocks

        def recorded(*args):
            for per_step, lower in evaluate(*args):
                rows.append(per_step.size)
                yield per_step, lower

        monkeypatch.setattr(accountant, "_per_step_blocks", recorded)
        return account(params, job).argmin_lambda, rows

    def test_paper_job_stops_at_the_first_rows(self, monkeypatch):
        job = AccountingJob(model_dim_N=10**6, **PAPER_JOB)
        assert self.searched_rows(monkeypatch, PAPER, job) == (10, [16])

    def test_rounds_double_up_to_the_cap(self, monkeypatch):
        # argmin at the cap: every tangent leaves a later order open
        job = AccountingJob(**dict(PAPER_JOB, model_dim_N=10**6, steps_T=1,
                                   sampling_rate_zeta=0.001))
        assert self.searched_rows(monkeypatch, PAPER, job) == (119, [16, 32, 64, 119])

    def test_accelerated_slack_covers_every_order(self):
        job = AccountingJob(model_dim_N=10**6, **PAPER_JOB)
        slack = np.concatenate([s for _, s in accountant._tail(accountant._plrv_branches(PAPER),
                                                               job, 119)])
        assert tail_slack(PAPER, job) == slack.max() > slack[:16].max()


class TestSingleOrderRows:
    """Each public single-order function reads one row of the evaluation
    ``build_curve`` reads: the multivariate ones at the job's cap, the
    univariate ones (and the x-free Gaussian) at the cap lam, where a job
    with N = 1 and C = x sums the one coordinate x."""

    @settings(max_examples=30, deadline=None)
    @given(draw=st.fixed_dictionaries(MOMENT_JOBS), data=st.data())
    def test_bitwise_equal_to_curve_row(self, draw, data):
        params, job = moment_job(**draw)
        lam = data.draw(st.integers(1, job.lambda_max))
        single = replace(job, model_dim_N=1, lambda_max=lam)
        zeta, x = job.sampling_rate_zeta, job.clip_C
        if isinstance(params, GaussianParams):
            pairs = [(gaussian_subsampled_log_moment(params, zeta, lam), single)]
        elif isinstance(params, LaplaceParams):
            pairs = [(laplace_multivariate_log_moment(params, job, lam), job),
                     (laplace_univariate_log_moment(params, x, zeta, lam), single)]
        else:
            pairs = [(plrv_multivariate_log_moment(params, job, lam), job),
                     (plrv_univariate_log_moment(params, x, zeta, lam), single)]
        for got, curve_job in pairs:
            assert got.hex() == build_curve(params, curve_job).alpha_per_step[lam].hex()

    JOB = AccountingJob(10, 0.01, 50, 1.0, 1e-5, 8)
    SINGLE_ORDER = {
        "plrv_univariate": lambda lam, zeta: plrv_univariate_log_moment(
            GammaPlrvParams(k=10.0, theta=0.02), 0.3, zeta, lam),
        "laplace_univariate": lambda lam, zeta: laplace_univariate_log_moment(
            LaplaceParams(b=1.0), 0.3, zeta, lam),
        "gaussian": lambda lam, zeta: gaussian_subsampled_log_moment(
            GaussianParams(sigma=1.0), zeta, lam),
        "plrv_multivariate": lambda lam, zeta: plrv_multivariate_log_moment(
            GammaPlrvParams(k=10.0, theta=0.02), replace(TestSingleOrderRows.JOB,
                                                         sampling_rate_zeta=zeta), lam),
        "laplace_multivariate": lambda lam, zeta: laplace_multivariate_log_moment(
            LaplaceParams(b=1.0), replace(TestSingleOrderRows.JOB,
                                          sampling_rate_zeta=zeta), lam),
    }

    @pytest.mark.parametrize("name", SINGLE_ORDER)
    def test_order_zero_rejected(self, name):
        with pytest.raises(ValueError) as err:
            self.SINGLE_ORDER[name](0, 0.01)
        assert type(err.value) is ValueError
        assert str(err.value) == "moment orders must be positive integers, got [0]"

    @pytest.mark.parametrize("name", SINGLE_ORDER)
    def test_numpy_integer_order_above_the_job_cap(self, name):
        # 12 > the job's lambda_max of 8: the multivariate cap rises to 12
        got = self.SINGLE_ORDER[name](np.int64(12), 0.01)
        assert got.hex() == self.SINGLE_ORDER[name](12, 0.01).hex()

    @pytest.mark.parametrize("name", ["plrv_univariate", "laplace_univariate", "gaussian"])
    @pytest.mark.parametrize("zeta", [1.5, -0.1, math.nan])
    def test_zeta_out_of_range_rejected(self, name, zeta):
        with pytest.raises(ValueError) as err:
            self.SINGLE_ORDER[name](5, zeta)
        assert str(err.value) == f"zeta must be in [0, 1], got {zeta}"

    def test_order_above_the_job_file_limit(self, monkeypatch):
        # the job-file limit on lambda_max does not bound a single order
        monkeypatch.setattr("plrvo.params.LAMBDA_MAX_LIMIT", 8)
        for name, moment in self.SINGLE_ORDER.items():
            assert math.isfinite(moment(12, 0.01)), name
