#!/usr/bin/env python3
"""Desk-scale privacy-loss sweep: epsilon vs step count for several clipping
thresholds, using one per-step moment curve per clip.

Writes one CSV per clip (T,epsilon) and prints a summary table. The default
parameters are the gamma-seed configuration used for the published
privacy-loss-vs-steps panels, at a reduced coordinate count so the sweep
finishes in seconds.
"""

import argparse
import pathlib

from plrvo.accountant import build_curve, compose, epsilon_from_delta
from plrvo.params import AccountingJob, GammaPlrvParams


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=float, default=414.2857)
    ap.add_argument("--theta", type=float, default=2.4196e-4)
    ap.add_argument("--zeta", type=float, default=0.00977631)
    ap.add_argument("--delta", type=float, default=1e-5)
    ap.add_argument("--model-dim", type=int, default=10**5)
    ap.add_argument("--clips", default="0.05,0.1,0.5,1.0")
    ap.add_argument("--t-max", type=int, default=500,
                    help="largest step count; the rows stop there")
    ap.add_argument("--lambda-max", type=int, default=256)
    ap.add_argument("--out-dir", default="sweep_out")
    args = ap.parse_args()
    if args.t_max < 1:
        ap.error(f"--t-max must be a positive integer, got {args.t_max}")

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = GammaPlrvParams(k=args.k, theta=args.theta)
    t_values = sorted({t for t in (1, 2, 5, 10, 25, 50, 100, 250) if t < args.t_max}
                      | {args.t_max})

    print(f"{'T':>6} " + " ".join(f"C={c:>8}" for c in args.clips.split(",")))
    rows = {t: [] for t in t_values}
    for clip in [float(c) for c in args.clips.split(",")]:
        job = AccountingJob(steps_T=1, sampling_rate_zeta=args.zeta,
                            model_dim_N=args.model_dim, clip_C=clip,
                            delta=args.delta, lambda_max=args.lambda_max)
        curve = build_curve(params, job)
        path = out_dir / f"epsilon_vs_T_clip{clip:g}.csv"
        with open(path, "w") as fh:
            fh.write("T,epsilon\n")
            for t in t_values:
                eps, _ = epsilon_from_delta(compose(curve, t), args.delta)
                fh.write(f"{t},{eps:.17g}\n")
                rows[t].append(eps)
        print(f"wrote {path}")
    for t in t_values:
        print(f"{t:>6} " + " ".join(f"{e:10.4f}" for e in rows[t]))


if __name__ == "__main__":
    main()
