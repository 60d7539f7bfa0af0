import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from plrvo import dpsgd
from plrvo.accountant import account
from plrvo.cli import main
from plrvo.dpsgd import (
    TrainingRun,
    accuracy,
    calibrate_gaussian_sigma,
    make_blobs,
    noisy_step,
    poisson_subsample,
    train,
    _clip_factors,
    _loss_slopes,
)
from plrvo.params import AccountingJob, GammaPlrvParams, GaussianParams
from plrvo.sampler import make_rng, sample_gaussian_noise, sample_plrv_noise_rows


def clipped(slopes, x, C):
    """Rows a_i x_i clipped the way the loop clips them."""
    a = np.asarray(slopes, dtype=float)
    return (a * _clip_factors(a, np.linalg.norm(x, axis=1), C))[:, None] * x


class TestClip:
    def test_inside_ball_unchanged(self):
        x = np.array([[0.3, -0.4]])
        assert np.array_equal(clipped([1.0], x, 1.0), x)

    def test_boundary_scaling_preserves_direction(self):
        x = np.array([[1.5, 2.0]])
        g = -2.0 * x[0]  # norm 5 = 2C for C = 2.5
        c = clipped([-2.0], x, 2.5)[0]
        assert np.linalg.norm(c) == pytest.approx(2.5, rel=1e-12)
        assert float(g[0] * c[1] - g[1] * c[0]) == pytest.approx(0.0, abs=1e-12)
        assert float(g @ c) > 0

    def test_zero_vector(self):
        assert np.array_equal(clipped([0.7], np.zeros((1, 3)), 1.0), np.zeros((1, 3)))
        assert np.array_equal(clipped([0.0], np.ones((1, 3)), 1.0), np.zeros((1, 3)))

    def test_row_clipping_bound(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 8)) * 3
        c = clipped(rng.uniform(-1.0, 1.0, 200), x, 0.7)
        assert np.all(np.linalg.norm(c, axis=1) <= 0.7 + 1e-12)


class TestPoissonSubsample:
    def test_full_rate(self):
        rng = make_rng(1)
        for idx in poisson_subsample(100, 1.0, 3, rng):
            assert np.array_equal(idx, np.arange(100))
        # zeta = 1 draws nothing
        assert np.array_equal(rng.uniform(5), make_rng(1).uniform(5))

    def test_mean_batch_size(self):
        sizes = [len(idx) for idx in poisson_subsample(100, 0.5, 10**4, make_rng(2))]
        se = math.sqrt(100 * 0.25 / 10**4)
        assert abs(np.mean(sizes) - 50.0) <= 4 * se

    def test_empty_batches_at_tiny_rate(self):
        zeta, n, trials = 0.005, 100, 4000
        empties = sum(len(idx) == 0 for idx in poisson_subsample(n, zeta, trials, make_rng(3)))
        p_empty = (1 - zeta) ** n
        se = math.sqrt(trials * p_empty * (1 - p_empty))
        assert abs(empties - trials * p_empty) <= 4 * se

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            poisson_subsample(10, 0.0, 1, make_rng(1))

    def test_block_is_successive_single_batches(self):
        blocked, single = make_rng(4, stream=1), make_rng(4, stream=1)
        block = poisson_subsample(300, 0.02, 9, blocked)
        for idx in block:
            assert np.array_equal(idx, poisson_subsample(300, 0.02, 1, single)[0])
        assert np.array_equal(blocked.uniform(5), single.uniform(5))

    # The checks below are seeded, so each verdict repeats; a fresh seed
    # fails a p > 1e-3 check about once in a thousand draws.

    def test_sizes_are_binomial(self):
        n, zeta, trials = 200, 0.05, 20000
        sizes = np.array([len(idx) for idx in poisson_subsample(n, zeta, trials, make_rng(5))])
        # bins with an expected count of at least 5; the two tails pooled
        binom = scipy.stats.binom(n, zeta)
        lo, hi = int(binom.ppf(2e-4)), int(binom.isf(2e-4))
        observed = np.concatenate([[np.sum(sizes <= lo)],
                                   np.bincount(sizes, minlength=n + 1)[lo + 1:hi],
                                   [np.sum(sizes >= hi)]])
        p = np.concatenate([[binom.cdf(lo)], binom.pmf(np.arange(lo + 1, hi)),
                            [binom.sf(hi - 1)]])
        assert np.all(trials * p >= 5)
        assert scipy.stats.chisquare(observed, trials * p).pvalue > 1e-3

    def test_each_index_joins_at_rate_zeta(self):
        n, zeta, trials = 50, 0.3, 20000
        counts = np.zeros(n)
        for idx in poisson_subsample(n, zeta, trials, make_rng(6)):
            counts[idx] += 1
        z = (counts - trials * zeta) / math.sqrt(trials * zeta * (1 - zeta))
        assert np.max(np.abs(z)) <= 4.5
        assert scipy.stats.chi2.sf(float(z @ z), n) > 1e-3

    @pytest.mark.parametrize("i, j", [(0, 1), (7, 8), (3, 16)])
    def test_two_indices_join_independently(self, i, j):
        n, zeta, trials = 20, 0.4, 20000
        table = np.zeros((2, 2))
        for idx in poisson_subsample(n, zeta, trials, make_rng(7)):
            table[int(i in idx), int(j in idx)] += 1
        assert scipy.stats.chi2_contingency(table, correction=False).pvalue > 1e-3

    @pytest.mark.parametrize("n, zeta", [(1, 0.5), (7, 0.999), (300, 0.02), (1000, 0.3),
                                         (20000, 0.0025), (20000, 1e-7)])
    def test_batches_sorted_unique_in_range(self, n, zeta):
        for source in (make_rng(8, stream=1), make_rng(secure=True)):
            for idx in poisson_subsample(n, zeta, 300, source):
                assert idx.dtype == np.intp
                assert np.all(np.diff(idx) > 0)
                assert idx.size == 0 or (idx[0] >= 0 and idx[-1] < n)

    @pytest.mark.parametrize("zeta", [1e-300, 5e-324])
    def test_vanishing_rate_gives_empty_batches_quietly(self, zeta):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            batches = poisson_subsample(1000, zeta, 200, make_rng(9))
        assert all(idx.size == 0 for idx in batches)

    @pytest.mark.parametrize("zeros", [0, 40, 95, 1000, 5000])
    def test_matches_a_scalar_gap_walk(self, zeros):
        # ``zeros`` leading zero uniforms give gaps of 1, so the step runs
        # over several chunks; the batch is still the gap walk over the
        # uniforms in the order drawn
        n, zeta = 1000, 0.01
        for seed in range(20):
            source = Recorded(make_rng(seed, stream=1), zeros)
            idx = poisson_subsample(n, zeta, 1, source)[0]
            want, used = gap_walk(n, zeta, np.concatenate(source.drawn))
            assert idx.tolist() == want
            # no chunk is drawn after the one where the walk passes n
            assert used > sum(map(len, source.drawn[:-1]))
        everything = poisson_subsample(n, zeta, 1, Recorded(make_rng(0), 10**4))[0]
        assert everything.tolist() == list(range(n))

    def test_a_step_draws_about_b_uniforms(self):
        n, zeta, steps = 20000, 0.0025, 2000
        source = Recorded(make_rng(10, stream=1))
        poisson_subsample(n, zeta, steps, source)
        assert sum(map(len, source.drawn)) / steps < 2 * n * zeta + 48


class Recorded:
    """A source that hands out ``zeros`` exact zeros, then ``rng``'s
    uniforms, and keeps every array it hands out."""

    def __init__(self, rng, zeros: int = 0):
        self.rng, self.zeros, self.drawn = rng, zeros, []

    def uniform(self, size: int) -> np.ndarray:
        head = min(size, self.zeros)
        self.zeros -= head
        self.drawn.append(np.concatenate([np.zeros(head), self.rng.uniform(size - head)]))
        return self.drawn[-1]


def gap_walk(n: int, zeta: float, us: np.ndarray) -> tuple[list[int], int]:
    """The batch of one step, one uniform at a time: index i joins after a
    Geometric(zeta) gap of 1 + floor(log1p(-u) / log1p(-zeta)), until an
    index passes n - 1. Also returns how many uniforms the walk used."""
    out, i = [], -1
    for used, u in enumerate(us, 1):
        i += 1 + math.floor(np.log1p(-u) / np.log1p(-zeta))
        if i >= n:
            return out, used
        out.append(i)
    raise AssertionError("the uniforms drawn never pass n")


class TestGradients:
    def test_sigmoid_saturates_without_warning(self):
        # margins y <w, x> of about +-1e3: exp overflows, the sigmoid does not
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, -1.0, 1.0])
        w = np.array([1000.0, 999.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = _loss_slopes(w, x, y)
            a_flip = _loss_slopes(-w, x, y)
        # margin +1e3: slope exactly 0; margin -1e3: slope exactly -y
        assert np.array_equal(a, [0.0, 1.0, 0.0])
        assert np.array_equal(a_flip, [-1.0, 0.0, -1.0])


class TestNoisyStep:
    def run(self, **kw):
        base = dict(mechanism=GaussianParams(sigma=1e-12), model_dim=2,
                    n_examples=64, epochs=1, batch_size=64, clip_C=1.0,
                    learning_rate=0.2, seed=0)
        base.update(kw)
        return TrainingRun(**base)

    def test_full_batch_no_noise_decreases_loss(self):
        run = self.run()
        rng = make_rng(10)
        x, y = make_blobs(64, 2, make_rng(11))
        norms = np.linalg.norm(x, axis=1)

        def loss(w):
            return float(np.mean(np.log1p(np.exp(-y * (x @ w)))))

        w = np.zeros(2)
        losses = [loss(w)]
        for _ in range(30):
            w = noisy_step(w, x, y, norms, sample_gaussian_noise(1e-12, 2, rng), run)
            losses.append(loss(w))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_step_matches_clipped_gradient_rows(self):
        # reference: materialize each gradient row, clip it by its own norm,
        # sum the rows; the step's factored form agrees to rounding
        run = self.run(model_dim=16, batch_size=40, clip_C=0.5)
        x, y = make_blobs(50, 16, make_rng(12))
        w = np.random.default_rng(1).standard_normal(16)
        g = _loss_slopes(w, x, y)[:, None] * x
        g *= np.minimum(1.0, 0.5 / np.maximum(np.linalg.norm(g, axis=1), 1e-300))[:, None]
        noise = np.zeros(16)
        want = w - run.learning_rate * (g.sum(axis=0) / 40)
        # the float32 rows' norms in float64, as ``train`` takes them
        norms = np.linalg.norm(x.astype(np.float64), axis=1)
        got = noisy_step(w, x, y, norms, noise, run)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(w))

    def test_empty_batch_is_noise_only(self):
        run = self.run(mechanism=GammaPlrvParams(k=10.0, theta=0.1))
        w = np.array([1.0, -1.0])
        _, z = sample_plrv_noise_rows(run.mechanism, 1, 2, make_rng(20))
        stepped = noisy_step(w, np.zeros((0, 2)), np.zeros(0), np.zeros(0), z[0], run)
        assert np.array_equal(stepped, w - run.learning_rate * z[0])

    def test_plrv_noise_magnitude_matches_distortion(self):
        run = self.run(mechanism=GammaPlrvParams(k=10.0, theta=0.1), model_dim=8)
        _, noise = sample_plrv_noise_rows(run.mechanism, 3000, 8, make_rng(30))
        mags = []
        w = np.zeros(8)
        for z in noise:
            new_w = noisy_step(w, np.zeros((0, 8)), np.zeros(0), np.zeros(0), z, run)
            mags.append(np.abs((w - new_w) / run.learning_rate))
        assert np.mean(mags) == pytest.approx(1.0 / (9 * 0.1), rel=0.05)


class TestTrain:
    def test_determinism_bitwise(self):
        run = TrainingRun(mechanism=GammaPlrvParams(k=30.0, theta=0.01),
                          model_dim=2, n_examples=100, epochs=2, batch_size=20,
                          clip_C=1.0, learning_rate=0.3, seed=7)
        a = train(run)
        b = train(run)
        assert a == b

    def test_steps_and_rate_consistent(self):
        run = TrainingRun(mechanism=GaussianParams(sigma=1.0), n_examples=150,
                          epochs=3, batch_size=40)
        assert run.job.steps_T == math.ceil(3 * 150 / 40)
        assert run.job.sampling_rate_zeta == 40 / 150

    def test_ledger_reports_loop_parameters(self):
        run = TrainingRun(mechanism=GaussianParams(sigma=2.0), model_dim=2,
                          n_examples=80, epochs=1, batch_size=20, seed=3)
        ledger = train(run)
        assert ledger["steps_T"] == math.ceil(80 / 20)
        assert ledger["sampling_rate_zeta"] == 20 / 80
        direct = account(run.mechanism,
                         AccountingJob(steps_T=4, sampling_rate_zeta=0.25,
                                       model_dim_N=2, clip_C=1.0, delta=1e-5,
                                       lambda_max=64))
        assert ledger["epsilon_report"]["epsilon"] == direct.epsilon

    def test_epsilon_grows_with_epochs(self):
        def eps(epochs):
            run = TrainingRun(mechanism=GammaPlrvParams(k=30.0, theta=0.01),
                              model_dim=2, n_examples=100, epochs=epochs,
                              batch_size=10, seed=1)
            return train(run)["epsilon_report"]["epsilon"]
        assert eps(1) < eps(3) < eps(9)

    def test_both_mechanisms_learn_separable_blobs(self):
        # matched epsilon on the 2-d blob task; ordering recorded, not asserted
        from plrvo.optimizer import FeasibilityConfig, solve
        from plrvo.params import PrivacyTarget

        n, batch, epochs = 1000, 25, 8
        job = AccountingJob(steps_T=math.ceil(epochs * n / batch),
                            sampling_rate_zeta=batch / n, model_dim_N=2,
                            clip_C=1.0, delta=1e-5, lambda_max=64)
        sigma = calibrate_gaussian_sigma(2.0, job)
        solved = solve(FeasibilityConfig(
            clip_min=1.0, clip_max=1.0,
            target=PrivacyTarget(epsilon_star=2.0, delta_star=1e-5),
            job_skeleton=job))
        accs = {}
        for name, mech in [("gaussian", GaussianParams(sigma=sigma)),
                           ("plrvo", GammaPlrvParams(k=solved.k_star,
                                                     theta=solved.theta_star))]:
            run = TrainingRun(mechanism=mech, model_dim=2, n_examples=n,
                              epochs=epochs, batch_size=batch, clip_C=1.0,
                              learning_rate=0.2, seed=42)
            ledger = train(run)
            assert ledger["epsilon_report"]["epsilon"] <= 2.0
            accs[name] = ledger["test_accuracy"]
        assert accs["gaussian"] > 0.9 and accs["plrvo"] > 0.9


class TestOneDataSet:
    N, D = 4000, 256

    @pytest.fixture(scope="class")
    def peak(self):
        run = TrainingRun(mechanism=GaussianParams(sigma=1.0), model_dim=self.D,
                          n_examples=self.N, epochs=1, batch_size=50, seed=0)
        tracemalloc.start()
        try:
            train(run)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_below_both_data_sets(self, peak):
        # the test set is drawn after the loop, once the train set is released
        n, d = self.N, self.D
        assert peak < 8 * n * d + 8 * (n // 2) * d

    def test_peak_below_one_and_a_half_float32_sets(self, peak):
        # no float64 copy of either set: not while drawing the train set,
        # taking its norms or scoring the test set
        assert peak < 1.5 * 4 * self.N * self.D

    def test_features_float32_labels_and_norms_float64(self, monkeypatch):
        x, y = make_blobs(300, 7, make_rng(2))
        assert x.dtype == np.float32 and y.dtype == np.float64
        seen = []

        def step(w, batch_x, batch_y, batch_norms, noise, run):
            seen.append((batch_x.dtype.name, batch_y.dtype.name, batch_norms.dtype.name))
            return noisy_step(w, batch_x, batch_y, batch_norms, noise, run)

        monkeypatch.setattr(dpsgd, "noisy_step", step)
        train(TrainingRun(mechanism=GaussianParams(sigma=1.0), model_dim=7, n_examples=300,
                          epochs=1, batch_size=30, seed=1))
        assert seen and set(seen) == {("float32", "float64", "float64")}


class TestCalibration:
    def test_gaussian_sigma_monotone_hit(self):
        job = AccountingJob(steps_T=100, sampling_rate_zeta=0.1, model_dim_N=2,
                            clip_C=1.0, delta=1e-5, lambda_max=64)
        sigma = calibrate_gaussian_sigma(1.5, job)
        achieved = account(GaussianParams(sigma=sigma), job).epsilon
        assert achieved <= 1.5
        # just below the returned sigma the budget must be exceeded
        worse = account(GaussianParams(sigma=sigma * 0.995), job).epsilon
        assert worse > 1.5

    def test_accuracy_helper(self):
        w = np.array([1.0, 0.0])
        x = np.array([[2.0, 0.0], [-3.0, 0.0]])
        y = np.array([1.0, -1.0])
        assert accuracy(w, x, y) == 1.0


PINS = json.loads((Path(__file__).parent / "train_demo_pins.json").read_text())


class TestPinnedLedgers:
    """train-demo ledgers recorded with float32 features, each step's batch
    drawn by geometric gaps and one noise row per step. Blocks keep every
    draw's bits; the clipping and averaging arithmetic may move the weights
    at the ulp level only."""

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_ledger_matches_pin(self, name, capsys):
        assert main(PINS[name]["argv"]) == 0
        got = json.loads(capsys.readouterr().out)
        want = dict(PINS[name]["ledger"])
        weights = want.pop("final_weights")
        assert got.pop("final_weights") == pytest.approx(weights, rel=1e-12, abs=0.0)
        assert got["test_accuracy"] == want["test_accuracy"]
        assert got["epsilon_report"]["epsilon"] == want["epsilon_report"]["epsilon"]
        assert got == want
