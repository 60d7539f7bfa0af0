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
from .sampler import (make_rng, sample_gaussian_noise, sample_plrv_noise_rows,
                      standard_normal)

BLOCK_STEPS = 64  # training steps per block: one batch draw and one noise-row draw
SCORE_ROWS = 1024  # test rows scored at once: a float64 copy of at most 4 MiB at dim 512
SIGMA_LO, SIGMA_HI = 1e-2, 1e3  # calibrate_gaussian_sigma bisects this to 1e-4 in log


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
    """Configuration of one demo run; everything else derives from the seed.
    ``mechanism`` may be None while the noise is still to be calibrated, so
    a run's inputs can be checked before the calibration; ``train`` needs
    it set."""

    mechanism: GammaPlrvParams | GaussianParams | None
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
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed}")

    @property
    def job(self) -> AccountingJob:
        """The accounting job of exactly this loop."""
        return training_job(self.model_dim, self.n_examples, self.epochs, self.batch_size,
                            self.clip_C, self.delta, self.lambda_max)


def make_blobs(n: int, dim: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Two unit-variance Gaussian blobs at +/- mu, labels in {-1, +1}.

    The separation scales like 1/sqrt(dim) per coordinate so the total
    signal stays comparable across dimensions. The features are float32
    (4 n dim bytes): the normals are drawn straight into float32, and the
    offset y mu, rounded to float32, is added in float32. The labels are
    float64.
    """
    mu = 2.5 / math.sqrt(dim)
    y = np.where(rng.uniform(n) < 0.5, -1.0, 1.0)
    x = standard_normal(rng, n * dim, np.float32).reshape(n, dim)
    x += (y * mu).astype(np.float32)[:, None]
    return x, y


def poisson_subsample(n: int, zeta: float, steps: int, rng) -> list[np.ndarray]:
    """Indices of ``steps`` successive Poisson-subsampled batches: each of
    the n examples joins each batch independently with probability zeta.
    A batch may be empty; zeta = 1 draws nothing.

    The gaps between a batch's successive indices (and from -1 to its
    first) are i.i.d. Geometric(zeta), drawn by inversion as
    1 + floor(log1p(-u) / log1p(-zeta)) (Devroye 1986, *Non-Uniform Random
    Variate Generation*). A step draws its uniforms in chunks of a size
    fixed by (n, zeta), about n zeta + 4 sqrt(n zeta) + 16 and never above
    n + 1, and stops at the first chunk whose gaps pass n; the rest of that
    chunk is dropped. That stop depends only on the step's own gaps, so the
    batch keeps its distribution, up to the rounding of log, and ``steps``
    steps draw exactly what ``steps`` one-step calls draw."""
    if not 0.0 < zeta <= 1.0:
        raise ValueError(f"zeta must be in (0, 1], got {zeta}")
    if zeta == 1.0:
        return [np.arange(n)] * steps
    log_q = np.log1p(-zeta)
    chunk = min(n + 1, math.ceil(n * zeta + 4.0 * math.sqrt(n * zeta)) + 16)
    batches = []
    # At a subnormal zeta, log1p(-u) / log_q can overflow to inf: a gap past n.
    with np.errstate(over="ignore"):
        for _ in range(steps):
            taken, last = [], -1.0  # last: the last index drawn
            while last < n:
                gaps = np.floor(np.log1p(-rng.uniform(chunk)) / log_q) + 1.0
                taken.append(last + np.cumsum(gaps))
                last = taken[-1][-1]
            idx = np.concatenate(taken)
            batches.append(idx[:np.searchsorted(idx, n)].astype(np.intp))
    return batches


def _loss_slopes(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a_i = -y_i * sigmoid(-y_i <w, x_i>): example i's logistic-loss
    gradient is a_i x_i."""
    margin = y * (x @ w)
    with np.errstate(over="ignore"):  # exp(margin) = inf saturates s to exactly 0
        s = 1.0 / (1.0 + np.exp(margin))
    return -(y * s)


def _clip_factors(slopes: np.ndarray, x_norms: np.ndarray, C: float) -> np.ndarray:
    """min(1, C / ||a_i x_i||_2), the norm taken as |a_i| ||x_i||_2; a zero
    gradient keeps factor 1."""
    return np.minimum(1.0, C / np.maximum(np.abs(slopes) * x_norms, 1e-300))


def noisy_step(w: np.ndarray, batch_x: np.ndarray, batch_y: np.ndarray,
               batch_norms: np.ndarray, noise: np.ndarray, run: TrainingRun) -> np.ndarray:
    """One DP-SGD step: clip each per-example gradient (``batch_norms`` are
    the rows' l2 norms), average over the expected batch size, add the
    step's noise row, take a plain SGD step. An empty batch yields a
    noise-only update."""
    if batch_x.shape[0] > 0:
        a = _loss_slopes(w, batch_x, batch_y)
        a *= _clip_factors(a, batch_norms, run.clip_C)
        avg = (a @ batch_x) / run.batch_size
    else:
        avg = np.zeros(run.model_dim)
    return w - run.learning_rate * (avg + noise)


def _noise_rows(run: TrainingRun, steps: int, rng) -> np.ndarray:
    """The noise rows of ``steps`` successive steps."""
    if isinstance(run.mechanism, GammaPlrvParams):
        return sample_plrv_noise_rows(run.mechanism, steps, run.model_dim, rng)[1]
    return np.stack([sample_gaussian_noise(run.clip_C * run.mechanism.sigma, run.model_dim, rng)
                     for _ in range(steps)])


def accuracy(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Share of rows whose sign(<w, x_i>) is y_i. The rows are scored
    ``SCORE_ROWS`` at a time, so float32 rows are never all copied to
    float64 at once."""
    hits = 0
    for lo in range(0, len(y), SCORE_ROWS):
        rows = slice(lo, lo + SCORE_ROWS)
        hits += int(np.count_nonzero(np.sign(x[rows] @ w) == y[rows]))
    return hits / len(y)


def train(run: TrainingRun) -> dict:
    """Execute the run and return its ledger: hyperparameters, seed, final
    weights, held-out accuracy, and the accountant's epsilon for the exact
    (T, zeta, C, d) used by the loop.

    Three streams of the seed drive the loop: 0 the data, 1 the batches, 2
    the noise. Stream 0 draws the train set, then the test set; the test
    set is drawn after the last step, once the train set is released, so a
    run holds one data set at a time. The loop runs in blocks of
    ``BLOCK_STEPS`` steps, each drawing its batches (by geometric gaps, see
    ``poisson_subsample``) and its noise rows at once; every step's draws
    keep the bits they have one step at a time.

    The features are float32 (see ``make_blobs``): 4 n d bytes while
    training, half that while scoring. Their row norms are summed in
    float64, and labels, weights, gradients, noise and accounting are
    float64."""
    if run.mechanism is None:
        raise ValueError("train needs a mechanism")
    data_rng = make_rng(run.seed, stream=0)
    batch_rng = make_rng(run.seed, stream=1)
    noise_rng = make_rng(run.seed, stream=2)

    train_x, train_y = make_blobs(run.n_examples, run.model_dim, data_rng)
    train_norms = np.sqrt(np.einsum("ij,ij->i", train_x, train_x, dtype=np.float64))

    job = run.job
    w = np.zeros(run.model_dim)
    for first in range(0, job.steps_T, BLOCK_STEPS):
        steps = min(BLOCK_STEPS, job.steps_T - first)
        batches = poisson_subsample(run.n_examples, job.sampling_rate_zeta, steps, batch_rng)
        for idx, noise in zip(batches, _noise_rows(run, steps, noise_rng)):
            w = noisy_step(w, train_x[idx], train_y[idx], train_norms[idx], noise, run)
    del train_x, train_y, train_norms

    test_accuracy = accuracy(w, *make_blobs(max(200, run.n_examples // 2), run.model_dim,
                                            data_rng))

    report = account(run.mechanism, job)
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
        "test_accuracy": test_accuracy,
        "epsilon_report": report.to_json_dict(),
    }


def calibrate_gaussian_sigma(target_epsilon: float, job: AccountingJob) -> float:
    """Smallest noise multiplier whose accounted epsilon meets the target.

    epsilon(sigma) is monotone decreasing, so plain bisection on log sigma.
    """
    def eps(sigma: float) -> float:
        return account(GaussianParams(sigma=sigma), job).epsilon

    if eps(SIGMA_HI) > target_epsilon:
        raise ValueError(f"target epsilon {target_epsilon} unreachable below sigma = {SIGMA_HI}")
    if eps(SIGMA_LO) <= target_epsilon:
        return SIGMA_LO
    a, b = math.log(SIGMA_LO), math.log(SIGMA_HI)
    while b - a > 1e-4:
        mid = 0.5 * (a + b)
        if eps(math.exp(mid)) <= target_epsilon:
            b = mid
        else:
            a = mid
    return math.exp(b)
