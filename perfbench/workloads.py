"""The benchmark's workloads: fixed job lists run through ``plrvo.cli.main``,
each job gated against a reference taken from the program at the commit that
introduced the benchmark (``references.json``).

Why each workload exists:

* ``account-paper-1e6``: ``account --lambda-search coarse`` on the paper
  configuration at N = 1e6. The coordinate sum over 16 chunks of 65,536
  coordinates does most of the work, so changes to the coordinate sum,
  chunking or threads show here; the optimizer does no work.
* ``sweep-paper-1e5``: ``sweep-t`` over ten step counts at N = 1e5 on the
  full lambda grid. All 119 orders are evaluated, so the per-order
  log-sum-exp (O(L^2 N)) dominates; the curve is reused across T, which
  exercises the conversion layer.
* ``optimize-crit8``: ``optimize`` on three of acceptance criterion 8's
  seed-88 configs: the two cheapest with a fixed clip (indices 3 and 6) and
  the cheapest with a clip range (index 7). Thousands of small single-chunk
  accountant calls plus pure-Python c1 bisection: per-call overhead
  dominates and N does not matter. Cheap configs let a run hold several
  batches (the first two configs alone take 20 s), and an odd job count
  keeps the median job time on one config instead of between two.
* ``train-plrvo``: ``train-demo`` with a pinned clip. The only workload that
  runs ``sampler`` and ``dpsgd``, and it drives the optimizer in another
  regime (one clip, T = 4000, zeta = 0.0025).

``--seed`` is the workload seed. It sets train-plrvo's training seed (taken
modulo the 128 seeds whose reference accuracies are stored; the tiny scale
stores seed 0 only). The other inputs are fixed: account and sweep run the
paper configuration, and optimize-crit8's configs are always criterion 8's
seed-88 draw, because one config takes 1.7 s to 20 s, so configs drawn per
run would swamp the run-to-run comparison the benchmark exists for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("account-paper-1e6", "sweep-paper-1e5", "optimize-crit8", "train-plrvo")
SCALES = ("full", "tiny")
TRAIN_SEEDS = 128
CRIT8_SEED = 88

PAPER_PARAMS = {"k": 141.06, "theta": 8.32e-4}
PAPER_JOB = {"steps_T": 250, "sampling_rate_zeta": 0.01024, "clip_C": 10.0,
             "delta": 2e-5, "lambda_max": 119}
SWEEP_T = "1,2,5,10,25,50,100,250,500,1000"

# Sizes per scale. "tiny" keeps every code path and runs in seconds; it is
# what the harness self-test uses.
SIZES = {
    "full": {"account_n": 1_000_000, "sweep_n": 100_000, "crit8_jobs": (3, 6, 7),
             "train": ["--epochs", "10", "--examples", "20000", "--dim", "512"]},
    "tiny": {"account_n": 1000, "sweep_n": 1000, "crit8_jobs": (3,),
             "train": ["--epochs", "2", "--examples", "1000", "--dim", "16"]},
}

REL_TOL_EPSILON = 1e-5
REL_TOL_SNR = 1e-4
ABS_TOL_ACCURACY = 0.02
TRAIN_EPSILON = 2.0
TRAIN_STEPS = {"full": 4000, "tiny": 40}

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``argv`` follows the global ``--threads`` option;
    ``check`` returns None for a correct stdout, else the reason it fails."""

    label: str
    argv: tuple[str, ...]
    check: Check

    def cli_argv(self, threads: int) -> list[str]:
        return ["--threads", str(threads), *self.argv]


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _check_account(ref: dict) -> Check:
    def check(out: str) -> str | None:
        got = json.loads(out)
        if got["argmin_lambda"] != ref["argmin_lambda"]:
            return f"argmin {got['argmin_lambda']} != reference {ref['argmin_lambda']}"
        if not _rel_err(got["epsilon"], ref["epsilon"]) <= REL_TOL_EPSILON:
            return f"epsilon {got['epsilon']!r} != reference {ref['epsilon']!r}"
        return None
    return check


def _check_sweep(ref_rows: list[list]) -> Check:
    def check(out: str) -> str | None:
        lines = out.strip().splitlines()
        if lines[0] != "T,epsilon":
            return f"unexpected header {lines[0]!r}"
        rows = [(int(t), float(e)) for t, e in (ln.split(",") for ln in lines[1:])]
        if [t for t, _ in rows] != [t for t, _ in ref_rows]:
            return f"T rows {[t for t, _ in rows]} differ from the reference"
        for (t, eps), (_, want) in zip(rows, ref_rows):
            if not _rel_err(eps, want) <= REL_TOL_EPSILON:
                return f"epsilon at T={t} {eps!r} != reference {want!r}"
        return None
    return check


def _check_optimize(epsilon_star: float, ref_snr: float) -> Check:
    def check(out: str) -> str | None:
        got = json.loads(out)
        if not got["achieved_epsilon"] <= epsilon_star:
            return f"achieved epsilon {got['achieved_epsilon']!r} > target {epsilon_star!r}"
        snr = got["C_star"] * (got["k_star"] - 1.0) * got["theta_star"]
        if not _rel_err(got["snr"], snr) <= 1e-12:
            return f"snr {got['snr']!r} is not C*(k-1)*theta = {snr!r}"
        if not _rel_err(got["snr"], ref_snr) <= REL_TOL_SNR:
            return f"snr {got['snr']!r} != reference {ref_snr!r}"
        return None
    return check


def _check_train(ref_accuracy: float | None, steps: int) -> Check:
    def check(out: str) -> str | None:
        got = json.loads(out)
        eps = got["epsilon_report"]["epsilon"]
        if not eps <= TRAIN_EPSILON:
            return f"epsilon {eps!r} > {TRAIN_EPSILON}"
        if got["steps_T"] != steps:
            return f"steps_T {got['steps_T']} != {steps}"
        if ref_accuracy is None:
            return "no reference accuracy for this training seed"
        if not abs(got["test_accuracy"] - ref_accuracy) <= ABS_TOL_ACCURACY:
            return f"test_accuracy {got['test_accuracy']!r} not within " \
                   f"{ABS_TOL_ACCURACY} of reference {ref_accuracy!r}"
        return None
    return check


def crit8_configs(seed: int, count: int) -> list[dict]:
    """Job files drawn exactly as acceptance criterion 8 draws its configs
    (same generator, same order of draws)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        clip_min = float(rng.uniform(0.3, 1.0))
        clip_max = clip_min if i % 3 == 0 else clip_min * float(rng.uniform(1.2, 2.0))
        epsilon_star = float(rng.uniform(0.5, 4.0))
        job = {"steps_T": int(rng.integers(20, 400)),
               "sampling_rate_zeta": float(rng.uniform(0.01, 0.2)),
               "model_dim_N": int(rng.integers(50, 1000)),
               "clip_C": 1.0, "delta": 1e-5,
               "lambda_max": int(rng.choice([16, 32]))}
        out.append({
            "mechanism": "plrvo",
            # optimize ignores params; the job file schema requires them
            "params": {"k": 2.0, "theta": 1e-3},
            "job": job,
            "target": {"epsilon_star": epsilon_star, "delta_star": 1e-5},
            "optimizer": {"clip_min": clip_min, "clip_max": clip_max},
        })
    return out


def _write(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj, sort_keys=True))
    return str(path)


def build(name: str, seed: int, scale: str, workdir: Path, references: dict) -> list[Job]:
    """The job list of workload ``name``; job files are written to ``workdir``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    size, ref = SIZES[scale], references[scale]
    paper = {"mechanism": "plrvo", "params": PAPER_PARAMS}

    if name == "account-paper-1e6":
        job = dict(PAPER_JOB, model_dim_N=size["account_n"])
        path = _write(workdir / "account.json", dict(paper, job=job))
        return [Job("account", ("account", path, "--lambda-search", "coarse"),
                    _check_account(ref[name]))]

    if name == "sweep-paper-1e5":
        job = dict(PAPER_JOB, model_dim_N=size["sweep_n"])
        path = _write(workdir / "sweep.json", dict(paper, job=job))
        return [Job("sweep-t", ("sweep-t", path, "--t-values", SWEEP_T),
                    _check_sweep(ref[name]["rows"]))]

    if name == "optimize-crit8":
        indices = size["crit8_jobs"]
        configs = crit8_configs(CRIT8_SEED, max(indices) + 1)
        snr = ref[name]["snr_by_config"]
        jobs = []
        for i in indices:
            path = _write(workdir / f"crit8-{i}.json", configs[i])
            jobs.append(Job(f"optimize-{i}", ("optimize", path),
                            _check_optimize(configs[i]["target"]["epsilon_star"],
                                            snr[str(i)])))
        return jobs

    train_seed = seed % TRAIN_SEEDS
    argv = ("train-demo", "--mechanism", "plrvo", "--epsilon", str(TRAIN_EPSILON),
            "--batch", "50", "--clip", "1.0", *size["train"], "--seed", str(train_seed))
    accuracy = ref[name]["accuracy_by_seed"].get(str(train_seed))
    return [Job(f"train-seed-{train_seed}", argv,
                _check_train(accuracy, TRAIN_STEPS[scale]))]


def load_references(path: Path) -> dict:
    refs = json.loads(path.read_text())
    for scale in SCALES:
        if not set(NAMES) <= set(refs[scale]):
            raise ValueError(f"{path}: scale {scale!r} lacks references for "
                             f"{sorted(set(NAMES) - set(refs[scale]))}")
    return refs
