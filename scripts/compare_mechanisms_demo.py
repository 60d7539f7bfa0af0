#!/usr/bin/env python3
"""Matched-budget comparison of gamma-seed and Gaussian noise on the toy
training task.

For a shared (epsilon, delta) target the Gaussian noise multiplier is
calibrated by bisection and the gamma-seed parameters by the constrained
optimizer (clip pinned), then both mechanisms train the same logistic
regression across several seeds. Accuracies are printed per seed; the
ordering is informative, not a guarantee.
"""

import argparse
import math

from plrvo.dpsgd import TrainingRun, calibrate_gaussian_sigma, train, training_job
from plrvo.optimizer import FeasibilityConfig, solve
from plrvo.params import GammaPlrvParams, GaussianParams, PrivacyTarget


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=2.0)
    ap.add_argument("--delta", type=float, default=1e-5)
    ap.add_argument("--examples", type=int, default=1000)
    ap.add_argument("--batch", type=int, default=25)
    ap.add_argument("--epochs", type=int, default=8)
    ap.add_argument("--clip", type=float, default=1.0)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--lr", type=float, default=0.2)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    args = ap.parse_args()

    job = training_job(args.dim, args.examples, args.epochs, args.batch, args.clip,
                       args.delta, lambda_max=64)
    sigma = calibrate_gaussian_sigma(args.epsilon, job)
    solved = solve(FeasibilityConfig(
        clip_min=args.clip, clip_max=args.clip,
        target=PrivacyTarget(epsilon_star=args.epsilon, delta_star=args.delta),
        job_skeleton=job))
    print(f"target epsilon={args.epsilon}: gaussian sigma={sigma:.4f} "
          f"(distortion {args.clip * sigma * math.sqrt(2 / math.pi):.3f}); "
          f"gamma seed k={solved.k_star:.4g} theta={solved.theta_star:.4g} "
          f"(distortion {solved.achieved_distortion:.3f})")

    mechanisms = {
        "gaussian": GaussianParams(sigma=sigma),
        "plrvo": GammaPlrvParams(k=solved.k_star, theta=solved.theta_star),
    }
    print(f"{'seed':>6} {'gaussian':>10} {'plrvo':>10}")
    for seed in [int(s) for s in args.seeds.split(",")]:
        accs = {}
        for name, mech in mechanisms.items():
            run = TrainingRun(mechanism=mech, model_dim=args.dim,
                              n_examples=args.examples, epochs=args.epochs,
                              batch_size=args.batch, clip_C=args.clip,
                              learning_rate=args.lr, delta=args.delta, seed=seed)
            ledger = train(run)
            accs[name] = ledger["test_accuracy"]
        print(f"{seed:>6} {accs['gaussian']:>10.3f} {accs['plrvo']:>10.3f}")


if __name__ == "__main__":
    main()
