import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from plrvo.cli import FLOAT, INT, MECHANISM_PARAM_TYPES, build_parser, main


def write_job(tmp_path, name="job.json", **overrides):
    doc = {
        "mechanism": "plrvo",
        "params": {"k": 141.06, "theta": 8.32e-4},
        "job": {"steps_T": 250, "sampling_rate_zeta": 0.01024, "model_dim_N": 500,
                "clip_C": 10.0, "delta": 2e-5, "lambda_max": 119},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_crit8_job(tmp_path):
    """Criterion 8's first config, drawn as it draws it, as a job file."""
    import numpy as np
    rng = np.random.default_rng(88)
    clip = float(rng.uniform(0.3, 1.0))
    target = {"epsilon_star": float(rng.uniform(0.5, 4.0)), "delta_star": 1e-5}
    job = {"steps_T": int(rng.integers(20, 400)),
           "sampling_rate_zeta": float(rng.uniform(0.01, 0.2)),
           "model_dim_N": int(rng.integers(50, 1000)), "clip_C": 1.0, "delta": 1e-5,
           "lambda_max": int(rng.choice([16, 32]))}
    return write_job(tmp_path, job=job, target=target,
                     optimizer={"clip_min": clip, "clip_max": clip})


class TestAccount:
    def test_output_shape(self, tmp_path, capsys):
        rc = main(["account", write_job(tmp_path), "--lambda-search", "coarse"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"epsilon", "argmin_lambda", "per_step_alpha_at_argmin",
                            "mode", "lambda_search"}
        assert out["mode"] == "exact"
        assert out["epsilon"] > 0

    def test_account_leaves_the_optimizer_unloaded(self, tmp_path):
        # every command imports plrvo.cli; only optimize and train-demo solve
        code = ("import sys; from plrvo.cli import main; "
                "assert main(['account', sys.argv[1]]) == 0; "
                "print('plrvo.optimizer' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, write_job(tmp_path)],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "False"

    def test_curve_export(self, tmp_path, capsys):
        curve_path = tmp_path / "curve.csv"
        rc = main(["account", write_job(tmp_path), "--curve", str(curve_path)])
        assert rc == 0
        lines = curve_path.read_text().strip().split("\n")
        assert lines[0] == "lambda,alpha_per_step"
        assert len(lines) == 120  # header + effective cap of 119

    def test_zeta_zero_job_hits_conversion_floor(self, tmp_path, capsys):
        job = {"steps_T": 100, "sampling_rate_zeta": 0.0, "model_dim_N": 10,
               "clip_C": 1.0, "delta": 1e-5, "lambda_max": 64}
        rc = main(["account", write_job(tmp_path, job=job)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        floor = min(
            math.log(l / (l + 1)) - (math.log(1e-5) + math.log(l + 1)) / l
            for l in range(1, 65))
        assert out["epsilon"] == pytest.approx(floor, rel=1e-12)
        assert out["argmin_lambda"] == 64

    def test_gaussian_and_laplace_mechanisms(self, tmp_path, capsys):
        for mech, params in [("gaussian", {"sigma": 1.5}), ("laplace", {"b": 2.0})]:
            rc = main(["account",
                       write_job(tmp_path, name=f"{mech}.json", mechanism=mech,
                                 params=params,
                                 job={"steps_T": 10, "sampling_rate_zeta": 0.1,
                                      "model_dim_N": 10, "clip_C": 1.0,
                                      "delta": 1e-5, "lambda_max": 32})])
            assert rc == 0
            assert json.loads(capsys.readouterr().out)["epsilon"] > 0

    def test_three_coordinate_job_matches_naive_oracle(self, tmp_path, capsys):
        # independent pipeline: extended-precision multivariate sums on the
        # majorization coordinates, then brute-force grid conversion
        import mpmath
        mpmath.mp.dps = 50
        k, theta, C, zeta, T, delta, lam_max = 25.0, 2e-3, 1.5, 0.2, 40, 1e-5, 12
        job = {"steps_T": T, "sampling_rate_zeta": zeta, "model_dim_N": 3,
               "clip_C": C, "delta": delta, "lambda_max": lam_max}
        rc = main(["account", write_job(tmp_path, params={"k": k, "theta": theta},
                                        job=job)])
        assert rc == 0
        got = json.loads(capsys.readouterr().out)["epsilon"]

        def kernel(x, eta):
            if eta in (0, 1):
                return mpmath.mpf(1)
            b1 = mpmath.mpf(eta) / (2 * eta - 1)
            b2 = mpmath.mpf(eta - 1) / (2 * eta - 1)
            return (b1 * (1 - (eta - 1) * x * theta) ** (-mpmath.mpf(k))
                    + b2 * (1 + eta * x * theta) ** (-mpmath.mpf(k)))

        best = math.inf
        for lam in range(1, lam_max + 1):
            alpha = mpmath.mpf(0)
            for i in (1, 2, 3):
                x = C * (mpmath.sqrt(i) - mpmath.sqrt(i - 1))
                inner = sum(mpmath.binomial(lam + 1, e)
                            * (1 - mpmath.mpf(zeta)) ** (lam + 1 - e)
                            * mpmath.mpf(zeta) ** e * kernel(x, e)
                            for e in range(lam + 2))
                alpha += mpmath.log(inner)
            term = float(T * alpha / lam + math.log(lam / (lam + 1))
                         - (math.log(delta) + math.log(lam + 1)) / lam)
            best = min(best, term)
        assert got == pytest.approx(best, rel=1e-10)

    def test_accelerated_mode_prints_error_estimate(self, tmp_path, capsys):
        job = {"steps_T": 100, "sampling_rate_zeta": 0.05, "model_dim_N": 20_000,
               "clip_C": 1.0, "delta": 1e-5, "lambda_max": 16}
        params = {"k": 50.0, "theta": 2e-4}
        rc = main(["account", write_job(tmp_path, job=job, params=params),
                   "--mode", "accelerated", "--lambda-search", "coarse"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "accelerated"
        assert "accel_error_estimate" in out

    def test_lambda_search_values_run_one_search(self, tmp_path, capsys):
        # --lambda-search is validated and echoed; every value runs the full grid
        paper = write_job(tmp_path, name="paper.json",
                          job={"steps_T": 250, "sampling_rate_zeta": 0.01024,
                               "model_dim_N": 10**6, "clip_C": 10.0, "delta": 2e-5,
                               "lambda_max": 119})
        small = write_job(tmp_path, name="small.json", params={"k": 80.0, "theta": 4e-4},
                          job={"steps_T": 200, "sampling_rate_zeta": 0.1,
                               "model_dim_N": 100, "clip_C": 1.0, "delta": 1e-5,
                               "lambda_max": 16})
        coarse = {}
        for path in (paper, small):
            out = {}
            for search in ("full", "coarse"):
                assert main(["account", path, "--lambda-search", search]) == 0
                out[search] = capsys.readouterr().out
            assert out["coarse"] == out["full"].replace('"lambda_search": "full"',
                                                        '"lambda_search": "coarse"')
            coarse[path] = json.loads(out["coarse"])
            for search in ("full", "coarse"):
                assert main(["sweep-t", path, "--t-values", "1,10,100,250",
                             "--lambda-search", search]) == 0
                out[search] = capsys.readouterr().out
            assert out["coarse"] == out["full"]
        assert coarse[paper]["lambda_search"] == "coarse"
        assert coarse[paper]["argmin_lambda"] == 10
        assert coarse[paper]["epsilon"] == pytest.approx(1.602532303704121, rel=1e-12)


class TestExitCodes:
    def test_schema_error_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mechanism": "plrvo", "params": {"k": 2, "theta": 0.1},
                                    "job": {}, "extra": 1}))
        assert main(["account", str(path)]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_schema_error_bad_mechanism(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mechanism": "cauchy", "params": {}, "job": {}}))
        assert main(["account", str(path)]) == 1

    def test_schema_error_missing_file(self):
        assert main(["account", "/nonexistent/job.json"]) == 1

    @pytest.mark.parametrize("argv", [
        ["train-demo", "--mechanism", "gaussian", "--examples", "100", "--dim", "2",
         "--epsilon", "2", "--batch", "50", "--epochs", "1"],
        ["sample", "--mechanism", "laplace", "--b", "1", "--n", "10", "--draws", "1"],
    ])
    def test_out_of_memory_is_an_input_error(self, monkeypatch, capsys, argv):
        # stands in for an oversized job's draw; a real one could be
        # overcommitted and then killed
        from plrvo import sampler

        def uniform(self, size):
            raise MemoryError(f"Unable to allocate {8 * size} bytes")

        monkeypatch.setattr(sampler.DeterministicSource, "uniform", uniform)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: out of memory: Unable to allocate")

    def test_mgf_domain_error_exit_2(self, tmp_path, capsys):
        # C * theta >= 1: no admissible moment order at all
        job = {"steps_T": 10, "sampling_rate_zeta": 0.1, "model_dim_N": 5,
               "clip_C": 10.0, "delta": 1e-5, "lambda_max": 8}
        rc = main(["account", write_job(tmp_path, params={"k": 2.0, "theta": 0.2},
                                        job=job)])
        assert rc == 2
        assert "admissible" in capsys.readouterr().err

    def test_infeasible_exit_3(self, tmp_path, capsys):
        rc = main(["optimize",
                   write_job(tmp_path,
                             job={"steps_T": 10_000, "sampling_rate_zeta": 0.5,
                                  "model_dim_N": 100, "clip_C": 1.0,
                                  "delta": 1e-5, "lambda_max": 16},
                             target={"epsilon_star": 1e-6, "delta_star": 1e-5},
                             optimizer={"clip_min": 0.5, "clip_max": 1.0})])
        assert rc == 3
        err = capsys.readouterr().err
        assert "infeasible" in err
        assert '"constraint": "c2"' in err  # Laplace noise at the ceiling fails c2


    def test_mgf_domain_error_names_c_theta(self, tmp_path, capsys):
        # C * theta = 83.2: the MGF cap floor(1/(C theta)) - 1 is negative
        job = {"steps_T": 10, "sampling_rate_zeta": 0.1, "model_dim_N": 5,
               "clip_C": 1e5, "delta": 1e-5, "lambda_max": 8}
        assert main(["account", write_job(tmp_path, job=job)]) == 2
        err = capsys.readouterr().err
        assert "no moment order is admissible" in err
        assert "C * theta = 83.2" in err and "is -1" not in err

    @pytest.mark.parametrize("command,flags", [
        ("account", []), ("account", ["--mode", "accelerated"]),
        ("account", ["--curve", "curve.csv"]), ("sweep-t", ["--t-values", "1,2"])])
    def test_non_finite_moment_exit_2(self, tmp_path, capsys, monkeypatch, command, flags):
        # x / b overflows, so every Laplace moment is infinite or NaN
        monkeypatch.chdir(tmp_path)
        job = {"steps_T": 10, "sampling_rate_zeta": 0.1, "model_dim_N": 5,
               "clip_C": 1e10, "delta": 1e-5, "lambda_max": 8}
        path = write_job(tmp_path, mechanism="laplace", params={"b": 1e-308}, job=job)
        assert main([command, path, *flags]) == 2
        err = capsys.readouterr().err
        assert "laplace per-step log moment of order 1" in err

    def test_non_finite_moment_exit_2_in_the_first_search_rows(self, tmp_path, capsys):
        # lambda_max 64: the order search's first round, orders 1..16, meets the NaN
        job = {"steps_T": 10, "sampling_rate_zeta": 0.1, "model_dim_N": 5,
               "clip_C": 1e10, "delta": 1e-5, "lambda_max": 64}
        path = write_job(tmp_path, mechanism="laplace", params={"b": 1e-308}, job=job)
        for flags in ([], ["--mode", "accelerated"]):
            assert main(["account", path, *flags]) == 2
            assert capsys.readouterr().err == (
                "numerical error: laplace per-step log moment of order 1 is nan\n")

    def test_gaussian_overflow_past_the_searched_rows(self, tmp_path, capsys):
        # the kernel overflows from eta of about 40 on, but the search stops
        # after orders 1..16, all finite: order 1's bound is printed
        job = {"steps_T": 1, "sampling_rate_zeta": 0.1, "model_dim_N": 5,
               "clip_C": 1.0, "delta": 1e-5, "lambda_max": 64}
        path = write_job(tmp_path, mechanism="gaussian", params={"sigma": 2e-153}, job=job)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow in the kernel
            assert main(["account", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["argmin_lambda"], out["epsilon"]) == (1, 2.5e305)

    def test_composed_overflow_exit_2(self, tmp_path, capsys):
        # finite per-step moments near 1e300, times T = 1e9, overflow
        job = {"steps_T": 10**9, "sampling_rate_zeta": 0.1, "model_dim_N": 5,
               "clip_C": 1.0, "delta": 1e-5, "lambda_max": 64}
        path = write_job(tmp_path, mechanism="laplace", params={"b": 1e-300}, job=job)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["account", path]) == 2
        assert capsys.readouterr().err == ("numerical error: laplace log moments composed "
                                           "over 1000000000 steps overflow at every order\n")

    def test_laplace_overflow_warns_nothing(self, tmp_path, capsys):
        job = {"steps_T": 10, "sampling_rate_zeta": 0.1, "model_dim_N": 5,
               "clip_C": 1e10, "delta": 1e-5, "lambda_max": 8}
        path = write_job(tmp_path, mechanism="laplace", params={"b": 1e-308}, job=job)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["account", path]) == 2
        err = capsys.readouterr().err
        assert "laplace per-step log moment of order 1" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("argv,err", [
        (["--mechanism", "laplace", "--b", "1e308", "--n", "12", "--draws", "1"],
         "laplace noise draw 0 is not finite at b=1e+308"),
        (["--mechanism", "gaussian", "--sigma-eff", "1.5e308", "--n", "12", "--draws", "2"],
         "gaussian noise draw is not finite at sigma_eff=1.5e+308"),
    ])
    def test_overflowing_sample_exit_2(self, capsys, argv, err):
        # a scale near the float maximum times a Laplace or normal variate past 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sample", *argv]) == 2
        assert capsys.readouterr() == ("", f"numerical error: {err}\n")

    @pytest.mark.parametrize("k,draw", [("0.003", 9), ("0.001", 2), ("1e-320", 0)])
    def test_underflowing_gamma_seed_exit_2(self, capsys, k, draw):
        # below k = 1 the seed's boost u^(1/k) underflows, and b = 1/u overflows
        argv = ["sample", "--mechanism", "plrvo", "--seed", "1", "--theta", "1", "--n", "2",
                "--draws", "200", "--k", k]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"numerical error: plrvo noise draw {draw} is not finite at "
                              f"k={float(k)!r}, theta=1.0: scale b = ")
        assert "Warning" not in err


SMALL_JOB = {"steps_T": 10, "sampling_rate_zeta": 0.1, "model_dim_N": 20,
             "clip_C": 1.0, "delta": 1e-5, "lambda_max": 8}
TARGET = {"epsilon_star": 2.0, "delta_star": 1e-5}
OPTIMIZER = {"clip_min": 0.5, "clip_max": 1.0, "gamma_cdf_tol": 1e-6,
             "distortion_cap": 10.0}
BASE_JOBS = {
    "plrvo": {"mechanism": "plrvo", "params": {"k": 50.0, "theta": 2e-3}},
    "gaussian": {"mechanism": "gaussian", "params": {"sigma": 1.5}},
    "laplace": {"mechanism": "laplace", "params": {"b": 2.0}},
}
for _doc in BASE_JOBS.values():
    _doc.update(job=SMALL_JOB, target=TARGET, optimizer=OPTIMIZER)

BOOLEAN_FIELDS = ([("plrvo", "params", key) for key in ("k", "theta")]
                  + [("gaussian", "params", "sigma"), ("laplace", "params", "b")]
                  + [("plrvo", section, key)
                     for section in ("job", "target", "optimizer")
                     for key in BASE_JOBS["plrvo"][section]])


def with_value(doc: dict, section: str, key: str, value) -> dict:
    return dict(doc, **{section: dict(doc[section], **{key: value})})


class TestInputValidation:
    @pytest.mark.parametrize("mech,section,key", BOOLEAN_FIELDS)
    def test_boolean_field_rejected(self, tmp_path, capsys, mech, section, key):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(with_value(BASE_JOBS[mech], section, key, True)))
        assert main(["account", str(path)]) == 1
        assert "not booleans" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,named", [
        (["--mechanism", "laplace", "--b", "-1"], "b must be > 0"),
        (["--n", "0"], "--n"),
        (["--draws", "-1"], "--draws"),
        (["--mechanism", "gaussian", "--sigma-eff", "inf"], "sigma_eff must be finite"),
        (["--mechanism", "gaussian", "--sigma-eff", "nan"], "sigma_eff must be finite"),
        (["--seed", "-1"], "--seed must be >= 0"),
    ])
    def test_bad_sample_flag(self, capsys, flags, named):
        argv = ["sample", "--k", "10", "--theta", "0.1", "--n", "4", "--draws", "3"]
        assert main(argv + flags) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("clip", ["inf", "nan", "-1"])
    def test_bad_distortion_flag(self, capsys, clip):
        argv = ["distortion", "--mechanism", "gaussian", "--sigma", "1", "--clip", clip]
        assert main(argv) == 1
        assert "clip_C must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_bad_thread_flag(self, tmp_path, capsys, threads):
        assert main(["--threads", threads, "account", write_job(tmp_path, job=SMALL_JOB)]) == 1
        assert "--threads must be >= 1" in capsys.readouterr().err

    def test_bad_thread_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PLRV_THREADS", "0")
        assert main(["account", write_job(tmp_path, job=SMALL_JOB)]) == 1
        assert "PLRV_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["\u00b3", "\u0663"])  # superscript 3, Arabic-Indic 3
    def test_non_ascii_thread_env(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("PLRV_THREADS", value)
        assert main(["account", write_job(tmp_path, job=SMALL_JOB)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "PLRV_THREADS must be an integer >= 1" in captured.err

    @pytest.mark.parametrize("t_values", ["1,,5", "1,x", "1,5,", "", "0", "+5", "1.5",
                                          "\u0663"])
    def test_bad_t_values(self, tmp_path, capsys, t_values):
        assert main(["sweep-t", write_job(tmp_path, job=SMALL_JOB),
                     "--t-values", t_values]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--t-values must be positive integers, got {t_values!r}" in captured.err

    def test_unwritable_curve_prints_nothing(self, tmp_path, capsys):
        curve = tmp_path / "missing" / "curve.csv"
        assert main(["account", write_job(tmp_path, job=SMALL_JOB), "--curve", str(curve)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error" in captured.err and "curve.csv" in captured.err

    @pytest.mark.parametrize("command", ["account", "sweep-t", "optimize"])
    def test_huge_lambda_max_allocates_nothing(self, tmp_path, capsys, monkeypatch, command):
        from plrvo import accountant

        def weights(*args):
            raise AssertionError("built a weight matrix for lambda_max = 100000")

        monkeypatch.setattr(accountant, "_log_weight_matrix", weights)
        monkeypatch.setattr(accountant, "_weight_matrix", weights)
        doc = with_value(BASE_JOBS["plrvo"], "job", "lambda_max", 100_000)
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)] + (["--t-values", "1"] if command == "sweep-t"
                                            else [])) == 1
        assert "lambda_max must be at most 4096, got 100000" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--batch", "--examples"])
    def test_train_demo_zero_size(self, capsys, flag):
        assert main(["train-demo", "--mechanism", "gaussian", "--epsilon", "2.0",
                     flag, "0"]) == 1
        assert "batch_size must be in" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-0.5"])
    def test_train_demo_bad_learning_rate(self, capsys, lr):
        assert main(["train-demo", "--mechanism", "gaussian", "--epsilon", "2.0",
                     "--lr", lr]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and "learning_rate must be finite and > 0" in err

    @pytest.mark.parametrize("mechanism", ["plrvo", "gaussian"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--lr", "nan", "learning_rate must be finite and > 0"),
        ("--seed", "-1", "seed must be an integer >= 0"),
        ("--epsilon", "nan", "epsilon_star must be > 0"),
    ])
    def test_train_demo_checks_inputs_before_calibrating(self, capsys, monkeypatch,
                                                         mechanism, flag, value, message):
        from plrvo import dpsgd, optimizer

        def calibrate(*args, **kwargs):
            raise AssertionError("noise calibrated before the training inputs were checked")

        monkeypatch.setattr(optimizer, "solve", calibrate)
        monkeypatch.setattr(dpsgd, "calibrate_gaussian_sigma", calibrate)
        assert main(["train-demo", "--mechanism", mechanism, "--epsilon", "2.0",
                     flag, value]) == 1
        assert message in capsys.readouterr().err

    FUZZ_VALUES = [True, False, None, "1", [], {}, math.nan, math.inf, -1, 0, 1e308]
    NON_NUMERIC = st.one_of(st.none(), st.text(max_size=4),
                            st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
                            st.lists(st.integers(), max_size=2))
    NUMERIC = [(section, key) for section in ("params", "job", "target", "optimizer")
               for key in sorted({k for doc in BASE_JOBS.values() for k in doc[section]})]
    MUTATION = st.one_of(
        st.tuples(st.just("drop"), st.sampled_from(["params", "job", "target", "optimizer"]),
                  st.sampled_from([None] + sorted({k for _, k in NUMERIC}))),
        st.tuples(st.just("swap"), st.sampled_from(NUMERIC),
                  st.one_of(st.sampled_from(FUZZ_VALUES), NON_NUMERIC)))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mech=st.sampled_from(sorted(BASE_JOBS)), mutations=st.lists(MUTATION, max_size=4))
    def test_fuzzed_job_file(self, tmp_path, mech, mutations):
        # every malformed job file ends in an exit code, never an exception
        doc = json.loads(json.dumps(BASE_JOBS[mech]))
        for op, where, what in mutations:
            if op == "drop":
                if what is None:
                    doc.pop(where, None)
                elif isinstance(doc.get(where), dict):
                    doc[where].pop(what, None)
            elif isinstance(doc.get(where[0]), dict):
                doc[where[0]][where[1]] = what
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(doc))
        assert main(["--threads", "1", "account", str(path),
                     "--lambda-search", "coarse"]) in (0, 1, 2, 3)

    SECTION_NAMES = {"job": "AccountingJob", "target": "PrivacyTarget",
                     "optimizer": "optimizer", "params": None}

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mech=st.sampled_from(sorted(BASE_JOBS)), data=st.data(), value=NON_NUMERIC)
    def test_non_numeric_field_named(self, tmp_path, capsys, mech, data, value):
        doc = BASE_JOBS[mech]
        section = data.draw(st.sampled_from(sorted(self.SECTION_NAMES)))
        key = data.draw(st.sampled_from(sorted(doc[section])))
        path = tmp_path / "job.json"
        path.write_text(json.dumps(with_value(doc, section, key, value)))
        capsys.readouterr()
        assert main(["account", str(path)]) == 1
        err = capsys.readouterr().err
        name = self.SECTION_NAMES[section] or MECHANISM_PARAM_TYPES[mech].__name__
        assert f"{name}: {key} must be a number, got {value!r}" in err


# (argv before the flag, flag, the type it parses) for every numeric flag
SAMPLE, TRAIN = ["sample", "--n", "4", "--draws", "3"], ["train-demo", "--epsilon", "2"]
NUMERIC_FLAGS = (
    [([], "--threads", int)]
    + [(["distortion"], flag, float) for flag in ("--k", "--theta", "--sigma", "--clip")]
    + [(SAMPLE, flag, float) for flag in ("--k", "--theta", "--sigma-eff", "--b")]
    + [(SAMPLE, flag, int) for flag in ("--n", "--draws", "--seed")]
    + [(TRAIN, flag, float) for flag in ("--epsilon", "--delta", "--clip", "--lr")]
    + [(TRAIN, flag, int) for flag in ("--epochs", "--batch", "--dim", "--examples",
                                        "--lambda-max", "--seed")])


def numeric_argv(before: list[str], flag: str, value: str) -> list[str]:
    if not before:  # the global flag needs a command after it
        return [flag, value, "account", "job.json"]
    return before + [flag, value]


class TestNumericFlags:
    def test_every_numeric_flag_is_listed(self):
        found = set()
        for action in build_parser()._actions:
            if isinstance(action, argparse._SubParsersAction):
                for command, sub in action.choices.items():
                    found |= {(command, a.option_strings[0]) for a in sub._actions
                              if a.type in (INT, FLOAT)}
            elif action.type in (INT, FLOAT):
                found.add((None, action.option_strings[0]))
        assert found == {(before[0] if before else None, flag)
                         for before, flag, _ in NUMERIC_FLAGS}

    @pytest.mark.parametrize("before,flag,kind", NUMERIC_FLAGS,
                             ids=[f"{b[0] if b else 'global'}{f}" for b, f, _ in NUMERIC_FLAGS])
    def test_strict_digits(self, capsys, before, flag, kind):
        # int() and float() take non-ASCII digits and '_' separators
        for value in ["\u0663", "1_0", "abc"]:  # Arabic-Indic 3
            with pytest.raises(SystemExit) as exc:
                main(numeric_argv(before, flag, value))
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: invalid {kind.__name__} value: {value!r}" in err
        # ASCII literals keep the value int() and float() give them
        ascii_values = ["7", " 7 ", "+7", "-7", "007"]
        if kind is float:
            ascii_values += ["2.5e-3", ".5", "-0.5", "inf", "-1e-3", "-.5E+2", "-inf"]
        dest = flag.lstrip("-").replace("-", "_")
        for value in ascii_values:
            args = build_parser().parse_args(numeric_argv(before, flag, value))
            got = getattr(args, dest)
            assert type(got) is kind and got == kind(value), value


    @pytest.mark.parametrize("argv,message", [
        (["distortion", "--k", "-1e-3", "--theta", "1e-3", "--clip", "1"],
         "k must be > 0, got -0.001"),
        (["train-demo", "--mechanism", "gaussian", "--epsilon", "2.0", "--lr", "-inf"],
         "learning_rate must be finite and > 0, got -inf"),
    ])
    def test_negative_exponent_and_infinity_reach_the_value_check(self, capsys, argv,
                                                                  message):
        # argparse's own pattern read these as option names: exit 2,
        # "expected one argument"; the '=' form always reached the check
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        errs = []
        for args in (argv, joined):
            assert main(args) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and message in errs[0]


class TestSweep:
    def test_lambda_max_above_the_mgf_cap(self, tmp_path, capsys):
        # lambda_max 1000 runs at the effective cap 119, as lambda_max 119 does
        outs = {}
        for lam_max in (119, 1000):
            path = write_job(tmp_path, name=f"job{lam_max}.json",
                             job={"steps_T": 250, "sampling_rate_zeta": 0.01024,
                                  "model_dim_N": 10**5, "clip_C": 10.0, "delta": 2e-5,
                                  "lambda_max": lam_max})
            curve = tmp_path / f"curve{lam_max}.csv"
            assert main(["sweep-t", path, "--t-values", "1,10,250"]) == 0
            assert main(["account", path, "--curve", str(curve)]) == 0
            outs[lam_max] = capsys.readouterr().out + curve.read_text()
        assert outs[1000] == outs[119]
        assert outs[119].count("\n") == 4 + 7 + 120  # sweep rows, account json, curve

    def test_monotone_and_csv(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        job = {"steps_T": 1, "sampling_rate_zeta": 0.05, "model_dim_N": 100,
               "clip_C": 1.0, "delta": 1e-5, "lambda_max": 32}
        rc = main(["sweep-t", write_job(tmp_path, params={"k": 80.0, "theta": 4e-4},
                                        job=job),
                   "--t-values", "1,10,100,1000", "--out", str(out_path)])
        assert rc == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "T,epsilon"
        eps = [float(line.split(",")[1]) for line in lines[1:]]
        assert eps == sorted(eps) and eps[0] < eps[-1]

    def test_clip_ordering(self, tmp_path):
        # pointwise domination of the epsilon curve in the clip threshold
        results = {}
        for C in (0.5, 1.0):
            job = {"steps_T": 1, "sampling_rate_zeta": 0.05, "model_dim_N": 100,
                   "clip_C": C, "delta": 1e-5, "lambda_max": 32}
            out_path = tmp_path / f"sweep_{C}.csv"
            assert main(["sweep-t",
                         write_job(tmp_path, name=f"j{C}.json",
                                   params={"k": 80.0, "theta": 4e-4}, job=job),
                         "--t-values", "1,10,100", "--out", str(out_path)]) == 0
            lines = out_path.read_text().strip().split("\n")[1:]
            results[C] = [float(line.split(",")[1]) for line in lines]
        assert all(a <= b for a, b in zip(results[0.5], results[1.0]))

    def test_sweep_script_stops_at_t_max(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "sweep_privacy_loss.py"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(script.parents[1] / "src"), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, str(script), "--model-dim", "1000",
                              "--clips", "0.5", "--t-max", "7", "--out-dir", str(tmp_path)],
                             env=env, capture_output=True, text=True, check=True).stdout
        assert [line.split()[0] for line in out.splitlines()[2:]] == ["1", "2", "5", "7"]
        csv = (tmp_path / "epsilon_vs_T_clip0.5.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in csv] == ["T", "1", "2", "5", "7"]


class TestOptimizeCommand:
    def test_round_trip_with_account(self, tmp_path, capsys):
        job = {"steps_T": 100, "sampling_rate_zeta": 0.05, "model_dim_N": 200,
               "clip_C": 1.0, "delta": 1e-5, "lambda_max": 16}
        rc = main(["optimize",
                   write_job(tmp_path, job=job,
                             target={"epsilon_star": 2.0, "delta_star": 1e-5},
                             optimizer={"clip_min": 0.5, "clip_max": 1.0})])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["constraint_report"]["c2"]["passed"]
        # re-verify through cmd_account with the solved parameters
        job["clip_C"] = result["C_star"]
        rc = main(["account",
                   write_job(tmp_path, name="verify.json", job=job,
                             params={"k": result["k_star"], "theta": result["theta_star"]})])
        assert rc == 0
        eps = json.loads(capsys.readouterr().out)["epsilon"]
        assert eps == result["achieved_epsilon"]

    def test_missing_sections_rejected(self, tmp_path):
        assert main(["optimize", write_job(tmp_path)]) == 1

    def test_optimize_leaves_statistics_unloaded(self, tmp_path):
        # the c1 floor's normal quantile comes from numerics, not from statistics
        path = write_crit8_job(tmp_path)
        code = ("import sys; from plrvo.cli import main; "
                "assert main(['optimize', sys.argv[1]]) == 0; "
                "print([m for m in ('statistics', 'decimal', 'fractions') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code, path],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "[]"

    @pytest.mark.parametrize("section,key,value,message", [
        # c2 accounts at the job's delta, so another delta_star would be ignored
        ("target", "delta_star", 0.5, "delta_star must equal the job's delta 1e-05, got 0.5"),
        ("target", "epsilon_star", math.inf, "epsilon_star must be finite, got inf"),
        ("optimizer", "clip_max", math.inf,
         "clip_min and clip_max must be finite, got [0.5, inf]"),
    ])
    def test_bad_target_or_clip_bound(self, tmp_path, capsys, monkeypatch,
                                      section, key, value, message):
        from plrvo import optimizer

        def solve(cfg):
            raise AssertionError("solved a job with a bad target or clip bound")

        monkeypatch.setattr(optimizer, "solve", solve)
        path = tmp_path / "job.json"
        path.write_text(json.dumps(with_value(BASE_JOBS["plrvo"], section, key, value)))
        assert main(["optimize", str(path)]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and message in err


class TestSampleAndDistortion:
    def test_sample_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = main(["sample", "--mechanism", "plrvo", "--k", "10", "--theta", "0.1",
                       "--n", "4", "--draws", "8", "--seed", "33", "--out", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().split("\n")[0]
        assert header == "draw_index,scale_b,coord_0,coord_1,coord_2,coord_3"

    def test_sample_empirical_distortion(self, tmp_path, capsys):
        rc = main(["sample", "--mechanism", "plrvo", "--k", "10", "--theta", "0.1",
                   "--n", "20", "--draws", "5000", "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        import numpy as np
        coords = np.array([[float(v) for v in line.split(",")[2:]] for line in lines])
        assert np.abs(coords).mean() == pytest.approx(1.0 / (9 * 0.1), rel=0.05)

    def test_gaussian_sample_mean_abs(self, capsys):
        rc = main(["sample", "--mechanism", "gaussian", "--sigma-eff", "2.0",
                   "--n", "100", "--draws", "500", "--seed", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        import numpy as np
        coords = np.array([[float(v) for v in line.split(",")[2:]] for line in lines])
        n = coords.size
        se = 2.0 * math.sqrt(1 - 2 / math.pi) / math.sqrt(n)
        assert abs(np.abs(coords).mean() - 2.0 * math.sqrt(2 / math.pi)) <= 4 * se

    def test_distortion_self_test(self, capsys):
        assert main(["distortion", "--table2"]) == 0
        assert json.loads(capsys.readouterr().out)["all_passed"]

    def test_distortion_csv_row(self, capsys):
        rc = main(["distortion", "--mechanism", "plrvo", "--k", "5", "--theta", "0.1",
                   "--csv"])
        assert rc == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "mechanism,l1_per_coord,finite"
        assert out[1].startswith("plrvo,2.5")


class TestFreshProcessImports:
    """Each command imports its own module, so a fresh process running an
    accounting command loads neither the sampler, the training loop, the
    distortion calculus nor numpy.polynomial, and the other commands still
    print the bytes they printed when cli imported every module up front."""

    LAZY = ("numpy.polynomial", "plrvo.sampler", "plrvo.dpsgd", "plrvo.distortion",
            "plrvo.optimizer")

    def run_fresh(self, argv: list[str]) -> tuple[bytes, list[str]]:
        """stdout of ``plrvo argv`` in a fresh interpreter, and the modules
        of LAZY that it loaded."""
        code = ("import json, sys; from plrvo.cli import main; rc = main(sys.argv[1:]); "
                f"print(json.dumps([m for m in {self.LAZY!r} if m in sys.modules]), "
                "file=sys.stderr); sys.exit(rc)")
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                             check=True)
        return out.stdout, json.loads(out.stderr.decode().strip().splitlines()[-1])

    @pytest.mark.parametrize("command,flags,loaded", [
        ("account", [], []),
        ("account", ["--mode", "accelerated", "--curve", "curve.csv"], []),
        ("sweep-t", ["--t-values", "1,10,250"], []),
        ("optimize", [], ["plrvo.optimizer"]),
    ], ids=["account", "account-accelerated-curve", "sweep-t", "optimize"])
    def test_accounting_commands_load_only_the_accountant(self, tmp_path, command, flags,
                                                          loaded):
        path = write_crit8_job(tmp_path) if command == "optimize" else write_job(tmp_path)
        flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
        stdout, got = self.run_fresh([command, path, *flags])
        assert stdout and got == loaded

    @pytest.mark.parametrize("argv,loaded,digest", [
        (["sample", "--mechanism", "plrvo", "--k", "10", "--theta", "0.1", "--n", "4",
          "--draws", "3", "--seed", "33"], ["plrvo.sampler"],
         "c1db53eed8a8f2fca7de2bf9eaffa931e370e3fd713b9d3d6e61230a82465d5b"),
        (["distortion", "--table2"], ["plrvo.distortion"],
         "35fa3d8bb44c3b2d8deea05acbdfad55b99150dc9094de2746ce8a0a24cfc556"),
        (["train-demo", "--mechanism", "plrvo", "--epsilon", "2.0", "--epochs", "1",
          "--batch", "25", "--examples", "100", "--dim", "2", "--seed", "9"],
         ["plrvo.sampler", "plrvo.dpsgd", "plrvo.optimizer"],
         "61d97246b90b6580f0f1927184e04e3b20846b2dfd2250e3e80ac996f016bd66"),
    ], ids=["sample", "distortion-table2", "train-demo"])
    def test_other_commands_import_their_own_module(self, argv, loaded, digest):
        # the digests are of the stdout printed when cli imported every module
        stdout, got = self.run_fresh(argv)
        assert got == loaded
        assert hashlib.sha256(stdout).hexdigest() == digest


class TestThreads:
    def test_env_var_mirrors_flag(self, monkeypatch):
        from plrvo.cli import check_threads
        monkeypatch.setenv("PLRV_THREADS", "3")
        assert check_threads(None) is None
        monkeypatch.setenv("PLRV_THREADS", "0")
        with pytest.raises(ValueError, match="PLRV_THREADS"):
            check_threads(None)
        assert check_threads(2) is None  # the flag wins: the variable is not read
        with pytest.raises(ValueError, match="--threads"):
            check_threads(0)
        monkeypatch.delenv("PLRV_THREADS")
        assert check_threads(None) is None


class TestTrainDemo:
    def test_ledger_deterministic_across_threads(self, capsys):
        flags = ["train-demo", "--mechanism", "gaussian", "--epsilon", "2.0",
                 "--epochs", "1", "--batch", "25", "--examples", "100",
                 "--clip", "1.0", "--dim", "2", "--seed", "9"]
        assert main(["--threads", "1"] + flags) == 0
        first = capsys.readouterr().out
        assert main(["--threads", "4"] + flags) == 0
        second = capsys.readouterr().out
        assert first == second
        ledger = json.loads(first)
        assert ledger["epsilon_report"]["epsilon"] <= 2.0
        assert ledger["seed"] == 9
