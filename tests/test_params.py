import itertools
import json
import math

import pytest

from plrvo.params import (
    LAMBDA_MAX_LIMIT,
    AccountingJob,
    GammaPlrvParams,
    GaussianParams,
    LaplaceParams,
    LogMomentCurve,
    MgfDomainViolation,
    OptimizationResult,
    PrivacyTarget,
    effective_lambda_max,
    from_json_dict,
    gamma_seed_lambda_cap,
    to_json_dict,
    validate,
)


def make_job(**overrides):
    base = dict(steps_T=250, sampling_rate_zeta=0.01024, model_dim_N=1000,
                clip_C=10.0, delta=2e-5, lambda_max=119)
    base.update(overrides)
    return AccountingJob(**base)


class TestInvariants:
    @pytest.mark.parametrize("kwargs", [
        dict(k=0.0, theta=1.0), dict(k=-1.0, theta=1.0),
        dict(k=2.0, theta=0.0), dict(k=2.0, theta=-0.5),
        dict(k=float("nan"), theta=1.0),
    ])
    def test_gamma_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GammaPlrvParams(**kwargs)

    def test_scalar_params_rejected(self):
        with pytest.raises(ValueError):
            GaussianParams(sigma=0.0)
        with pytest.raises(ValueError):
            LaplaceParams(b=-1.0)
        with pytest.raises(ValueError):
            PrivacyTarget(epsilon_star=0.0, delta_star=1e-5)
        with pytest.raises(ValueError):
            PrivacyTarget(epsilon_star=1.0, delta_star=1.0)

    @pytest.mark.parametrize("field,value", [
        ("steps_T", 0), ("sampling_rate_zeta", -0.1), ("sampling_rate_zeta", 1.5),
        ("model_dim_N", 0), ("clip_C", 0.0), ("delta", 0.0), ("delta", 1.0),
        ("lambda_max", 0),
    ])
    def test_job_invariants(self, field, value):
        with pytest.raises(ValueError):
            make_job(**{field: value})

    @pytest.mark.parametrize("make,want", [
        (lambda: GammaPlrvParams(k=-1.0, theta=1.0), "k must be > 0, got -1.0"),
        (lambda: GammaPlrvParams(k=2.0, theta=math.nan), "theta must be > 0, got nan"),
        (lambda: GaussianParams(sigma=0.0), "sigma must be > 0, got 0.0"),
        (lambda: LaplaceParams(b=-1e-300), "b must be > 0, got -1e-300"),
        (lambda: PrivacyTarget(epsilon_star=0.0, delta_star=1e-5),
         "epsilon_star must be > 0, got 0.0"),
        (lambda: PrivacyTarget(epsilon_star=1.0, delta_star=1.0),
         "delta_star must be in (0, 1), got 1.0"),
        (lambda: make_job(steps_T="3"), "steps_T must be a positive integer, got '3'"),
        (lambda: make_job(sampling_rate_zeta=1.5),
         "sampling_rate_zeta must be in [0, 1], got 1.5"),
        (lambda: make_job(model_dim_N=2.0), "model_dim_N must be a positive integer, got 2.0"),
        (lambda: make_job(clip_C=math.inf), "clip_C must be > 0, got inf"),
        (lambda: make_job(delta=0.0), "delta must be in (0, 1), got 0.0"),
        (lambda: make_job(lambda_max=0), "lambda_max must be a positive integer, got 0"),
        (lambda: make_job(lambda_max=100_000), "lambda_max must be at most 4096, got 100000"),
        (lambda: PrivacyTarget(epsilon_star=math.inf, delta_star=1e-5),
         "epsilon_star must be finite, got inf"),
        (lambda: LogMomentCurve("plrvo", {0: 0.1}), "moment orders must be >= 1, got 0"),
        (lambda: LogMomentCurve("plrvo", {3: -0.25}), "alpha(3) = -0.25 violates alpha >= 0"),
        (lambda: LogMomentCurve("plrvo", {1: 0.1, 2: 0.05}),
         "alpha must be nondecreasing in lambda; alpha(2) = 0.05 < 0.1"),
        (lambda: OptimizationResult(
            k_star=2.0, theta_star=0.1, C_star=1.0, achieved_epsilon=1.0,
            achieved_distortion=10.0, snr=0.1,
            constraint_report={"c2": {"passed": False, "margin": -0.2}}),
         "OptimizationResult carries a failing constraint 'c2'"),
    ])
    def test_messages(self, make, want):
        # messages are formatted only on failure, to the same text
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == want

    def test_lambda_max_limit(self):
        assert make_job(lambda_max=LAMBDA_MAX_LIMIT).lambda_max == 4096
        with pytest.raises(ValueError):
            make_job(lambda_max=LAMBDA_MAX_LIMIT + 1)

    def test_zeta_zero_job_allowed(self):
        assert make_job(sampling_rate_zeta=0.0).sampling_rate_zeta == 0.0


class TestValidate:
    def test_reference_parameters_pass(self):
        validate(make_job(lambda_max=119), GammaPlrvParams(k=141.06, theta=8.32e-4))

    def test_violation_carries_admissible_cap(self):
        with pytest.raises(MgfDomainViolation) as exc:
            validate(make_job(lambda_max=121), GammaPlrvParams(k=141.06, theta=8.32e-4))
        assert exc.value.max_admissible_lambda == 119
        assert "119" in str(exc.value)

    def test_tiny_theta_always_passes(self):
        # the largest cap a job may ask for
        validate(make_job(lambda_max=LAMBDA_MAX_LIMIT), GammaPlrvParams(k=5.0, theta=1e-12))

    def test_cap_formula(self):
        assert gamma_seed_lambda_cap(10.0, 8.32e-4) == 119

    def test_effective_lambda_max(self):
        p = GammaPlrvParams(k=141.06, theta=8.32e-4)
        assert effective_lambda_max(make_job(lambda_max=1000), p) == 119
        assert effective_lambda_max(make_job(lambda_max=50), p) == 50
        assert effective_lambda_max(make_job(lambda_max=1000), GaussianParams(sigma=1.0)) == 1000
        assert effective_lambda_max(make_job(lambda_max=1000), LaplaceParams(b=1.0)) == 1000


class TestLogMomentCurve:
    def test_orders_sorted_and_typed(self):
        c = LogMomentCurve("plrvo", {3: 0.3, 1: 0.1, 2: 0.2})
        assert list(c.alpha_per_step) == [1, 2, 3]

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            LogMomentCurve("plrvo", {1: -0.5})

    def test_decreasing_alpha_rejected(self):
        with pytest.raises(ValueError):
            LogMomentCurve("plrvo", {1: 0.5, 2: 0.1})

    # values at and across the 1e-10 nondecreasing slack, both sides of 1
    VALUES = [0.0, -0.0, 5e-324, -5e-324, 0.5, 0.5 - 1e-10, 0.5 - 1.1e-10, 2.0,
              2.0 - 2e-10, 2.0 - 2.2e-10, 1e308, math.inf, -math.inf, math.nan]

    @staticmethod
    def outcome(build):
        try:
            build()
        except (ValueError, FloatingPointError) as exc:
            return type(exc), str(exc)
        return None

    def test_vector_pass_agrees_with_the_scalar_checks(self):
        # every adjacent pair the checks compare: the vector pass accepts
        # exactly the curves the one-order-at-a-time checks accept, and a
        # rejected curve raises what those checks raise
        checker = LogMomentCurve("plrvo", {1: 0.0})
        for lams, values in itertools.product([(1, 2), (0, 1), (3, 9)],
                                              itertools.product(self.VALUES, repeat=2)):
            alphas = dict(zip(lams, values))
            want = self.outcome(lambda: checker._raise_first_fault(alphas))
            assert self.outcome(lambda: LogMomentCurve("plrvo", alphas)) == want, alphas

    def test_csv_shape(self):
        csv = LogMomentCurve("laplace", {1: 0.25, 2: 0.5}).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "lambda,alpha_per_step"
        assert lines[1].startswith("1,") and lines[2].startswith("2,")


class TestJson:
    def test_round_trips(self):
        for obj in [GammaPlrvParams(k=2.0, theta=0.5), GaussianParams(sigma=1.1),
                    LaplaceParams(b=3.0), make_job(),
                    PrivacyTarget(epsilon_star=1.0, delta_star=1e-6)]:
            d = to_json_dict(obj)
            assert from_json_dict(type(obj), json.loads(json.dumps(d))) == obj

    def test_exact_field_names(self):
        d = to_json_dict(make_job())
        assert set(d) == {"steps_T", "sampling_rate_zeta", "model_dim_N",
                          "clip_C", "delta", "lambda_max"}
        assert set(to_json_dict(GammaPlrvParams(k=1.5, theta=0.1))) == {"k", "theta"}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            from_json_dict(GaussianParams, {"sigma": 1.0, "mean": 0.0})

    def test_lambda_max_defaults_to_64(self):
        job = from_json_dict(AccountingJob, {
            "steps_T": 10, "sampling_rate_zeta": 0.1, "model_dim_N": 5,
            "clip_C": 1.0, "delta": 1e-5})
        assert job.lambda_max == 64


class TestOptimizationResult:
    def _report(self, passed=True):
        return {"c0": {"passed": passed, "margin": 0.1},
                "c2": {"passed": True, "margin": 0.2, "epsilon": 1.0}}

    def test_failing_constraint_rejected(self):
        with pytest.raises(ValueError):
            OptimizationResult(k_star=2.0, theta_star=0.1, C_star=1.0,
                               achieved_epsilon=1.0, achieved_distortion=10.0,
                               snr=0.1, constraint_report=self._report(passed=False))

    def test_valid_result(self):
        r = OptimizationResult(k_star=2.0, theta_star=0.1, C_star=1.0,
                               achieved_epsilon=1.0, achieved_distortion=10.0,
                               snr=0.1, constraint_report=self._report())
        assert math.isclose(r.to_json_dict()["snr"], 0.1)
