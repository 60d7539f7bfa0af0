"""Toy private training loop: Poisson subsampling, per-example l2 clipping,
one shared noise draw per step, plain SGD, and an accounting report for
exactly the (T, zeta, C, d) the loop used.

The model is a bias-free logistic regression on two symmetric synthetic
Gaussian blobs, so every trainable coordinate participates in the privacy
analysis and the demo stays auditable end to end. Noise is added after the
1/B average without rescaling (B is the expected batch size, a constant;
dividing by the realized size would change the sensitivity story). The
accountant's sensitivity-C semantics pair with this unscaled-noise reading;
see the README note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accountant import MECHANISM_TAGS, account
from .params import AccountingJob, GammaPlrvParams, GaussianParams, to_json_dict
from .sampler import make_rng, sample_gaussian_noise, sample_plrv_noise


def training_job(model_dim: int, n_examples: int, epochs: int, batch_size: int,
                 clip_C: float, delta: float, lambda_max: int) -> AccountingJob:
    """The accounting job of a training loop: T = ceil(E * n / B) steps at
    sampling rate zeta = B / n."""
    if not (1 <= model_dim <= 512):
        raise ValueError(f"model_dim must be in [1, 512], got {model_dim}")
    if not (0 < batch_size <= n_examples):
        raise ValueError(f"batch_size must be in (0, n_examples = {n_examples}], "
                         f"got {batch_size}")
    return AccountingJob(steps_T=-(-epochs * n_examples // batch_size),
                         sampling_rate_zeta=batch_size / n_examples,
                         model_dim_N=model_dim, clip_C=clip_C, delta=delta,
                         lambda_max=lambda_max)


@dataclass(frozen=True)
class TrainingRun:
    """Configuration of one demo run; everything else derives from the seed."""

    mechanism: GammaPlrvParams | GaussianParams
    model_dim: int = 2
    n_examples: int = 400
    epochs: int = 3
    batch_size: int = 40
    clip_C: float = 1.0
    learning_rate: float = 0.5
    delta: float = 1e-5
    lambda_max: int = 64
    seed: int = 0

    def __post_init__(self):
        self.job  # deriving the job validates the loop's sizes
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")

    @property
    def job(self) -> AccountingJob:
        """The accounting job of exactly this loop."""
        return training_job(self.model_dim, self.n_examples, self.epochs, self.batch_size,
                            self.clip_C, self.delta, self.lambda_max)


def make_blobs(n: int, dim: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Two unit-variance Gaussian blobs at +/- mu, labels in {-1, +1}.

    The separation scales like 1/sqrt(dim) per coordinate so the total
    signal stays comparable across dimensions.
    """
    from .sampler import standard_normal

    mu = 2.5 / math.sqrt(dim)
    y = np.where(rng.uniform(n) < 0.5, -1.0, 1.0)
    x = standard_normal(rng, n * dim).reshape(n, dim) + y[:, None] * mu
    return x, y


def poisson_subsample(n: int, zeta: float, rng) -> np.ndarray:
    """Indices of a Poisson-subsampled batch: each of the n examples joins
    independently with probability zeta. May be empty."""
    if not 0.0 < zeta <= 1.0:
        raise ValueError(f"zeta must be in (0, 1], got {zeta}")
    if zeta == 1.0:
        return np.arange(n)
    return np.nonzero(rng.uniform(n) < zeta)[0]


def l2_clip(g: np.ndarray, C: float) -> np.ndarray:
    """g * min(1, C / ||g||_2); the zero vector passes through untouched."""
    if not C > 0:
        raise ValueError(f"C must be > 0, got {C}")
    norm = float(np.linalg.norm(g))
    if norm <= C:
        return g
    return g * (C / norm)


def _per_example_gradients(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows are logistic-loss gradients, -y_i * sigmoid(-y_i <w, x_i>) * x_i."""
    margin = y * (x @ w)
    with np.errstate(over="ignore"):  # exp(margin) = inf saturates s to exactly 0
        s = 1.0 / (1.0 + np.exp(margin))
    return -(y * s)[:, None] * x


def _clip_rows(g: np.ndarray, C: float) -> np.ndarray:
    norms = np.linalg.norm(g, axis=1)
    factors = np.minimum(1.0, C / np.maximum(norms, 1e-300))
    return g * factors[:, None]


def _noise_draw(run: TrainingRun, rng) -> np.ndarray:
    if isinstance(run.mechanism, GammaPlrvParams):
        return sample_plrv_noise(run.mechanism, run.model_dim, rng).coords
    return sample_gaussian_noise(run.clip_C * run.mechanism.sigma, run.model_dim, rng)


def noisy_step(w: np.ndarray, batch_x: np.ndarray, batch_y: np.ndarray,
               run: TrainingRun, rng) -> np.ndarray:
    """One DP-SGD step: clip each per-example gradient, average over the
    expected batch size, add one mechanism draw, take a plain SGD step.
    An empty batch yields a noise-only update."""
    if batch_x.shape[0] > 0:
        grads = _clip_rows(_per_example_gradients(w, batch_x, batch_y), run.clip_C)
        avg = grads.sum(axis=0) / run.batch_size
    else:
        avg = np.zeros(run.model_dim)
    g_tilde = avg + _noise_draw(run, rng)
    return w - run.learning_rate * g_tilde


def accuracy(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.sign(x @ w) == y))


def train(run: TrainingRun) -> dict:
    """Execute the run and return its ledger: hyperparameters, seed, final
    weights, held-out accuracy, and the accountant's epsilon for the exact
    (T, zeta, C, d) used by the loop."""
    data_rng = make_rng(run.seed, stream=0)
    batch_rng = make_rng(run.seed, stream=1)
    noise_rng = make_rng(run.seed, stream=2)

    train_x, train_y = make_blobs(run.n_examples, run.model_dim, data_rng)
    test_x, test_y = make_blobs(max(200, run.n_examples // 2), run.model_dim, data_rng)

    job = run.job
    w = np.zeros(run.model_dim)
    for _ in range(job.steps_T):
        idx = poisson_subsample(run.n_examples, job.sampling_rate_zeta, batch_rng)
        w = noisy_step(w, train_x[idx], train_y[idx], run, noise_rng)

    report = account(run.mechanism, job, lambda_search="full")
    return {
        "mechanism": MECHANISM_TAGS[type(run.mechanism)],
        "mechanism_params": to_json_dict(run.mechanism),
        "model_dim": run.model_dim,
        "n_examples": run.n_examples,
        "epochs": run.epochs,
        "batch_size": run.batch_size,
        "clip_C": run.clip_C,
        "learning_rate": run.learning_rate,
        "delta": run.delta,
        "lambda_max": run.lambda_max,
        "seed": run.seed,
        "steps_T": job.steps_T,
        "sampling_rate_zeta": job.sampling_rate_zeta,
        "final_weights": [float(v) for v in w],
        "test_accuracy": accuracy(w, test_x, test_y),
        "epsilon_report": report.to_json_dict(),
    }


def calibrate_gaussian_sigma(target_epsilon: float, job: AccountingJob,
                             lo: float = 1e-2, hi: float = 1e3,
                             rel_tol: float = 1e-4) -> float:
    """Smallest noise multiplier whose accounted epsilon meets the target.

    epsilon(sigma) is monotone decreasing, so plain bisection on log sigma.
    """
    def eps(sigma: float) -> float:
        return account(GaussianParams(sigma=sigma), job, lambda_search="full").epsilon

    if eps(hi) > target_epsilon:
        raise ValueError(f"target epsilon {target_epsilon} unreachable below sigma = {hi}")
    if eps(lo) <= target_epsilon:
        return lo
    a, b = math.log(lo), math.log(hi)
    while b - a > rel_tol:
        mid = 0.5 * (a + b)
        if eps(math.exp(mid)) <= target_epsilon:
            b = mid
        else:
            a = mid
    return math.exp(b)
