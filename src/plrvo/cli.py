"""Command-line front end: accounting jobs, T-sweeps, noise-parameter
optimization, distortion reports, noise sampling, and the toy training demo.

Job files are JSON with top-level keys ``mechanism`` ("plrvo" | "gaussian" |
"laplace"), ``params`` (mechanism-specific), ``job`` (accounting fields),
and optional ``target`` / ``optimizer`` for the solver. Unknown keys are
rejected. Exit codes: 0 success, 1 input or schema error, 2 numerical-domain
error, 3 infeasible. Stdout JSON is stable-key-ordered; every command is
deterministic given (input file, flags, seed). ``--threads`` (or the
PLRV_THREADS environment variable), ``--mode`` and ``--lambda-search`` are
compatibility flags: validated and, for ``account``, echoed, but the
library takes none of them and no result depends on them.

Each command imports its own module: the top level loads only ``accountant``
and ``params``, so ``account``, ``sweep-t`` and ``optimize`` never load the
sampler, the training loop or the distortion calculus.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

import numpy as np

from . import accountant
from .params import (
    AccountingJob,
    GammaPlrvParams,
    GaussianParams,
    InfeasibleError,
    LaplaceParams,
    MgfDomainViolation,
    PrivacyTarget,
    check_json_section,
    from_json_dict,
)

MECHANISM_PARAM_TYPES = {tag: cls for cls, tag in accountant.MECHANISM_TAGS.items()}

_JOBFILE_KEYS = {"mechanism", "params", "job", "target", "optimizer"}
_OPTIMIZER_KEYS = {"clip_min", "clip_max", "gamma_cdf_tol", "distortion_cap"}


def check_threads(threads: int | None) -> None:
    """Check ``--threads``, or PLRV_THREADS (ASCII digits) when the flag is
    absent: a count below 1 is an input error, not coerced to 1."""
    if threads is not None:
        if threads < 1:
            raise ValueError(f"--threads must be >= 1, got {threads}")
        return
    env = os.environ.get("PLRV_THREADS")
    digits = (env or "").strip()
    if env and not (digits.isascii() and digits.isdigit() and int(digits) >= 1):
        raise ValueError(f"PLRV_THREADS must be an integer >= 1, got {env!r}")


def _ascii(convert):
    """argparse type: ``convert`` (int or float) of an ASCII literal without
    '_' separators, which ``int()`` and ``float()`` would otherwise take
    (non-ASCII digits, "1_0"); a rejected value is argparse's usage error."""

    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        return convert(text)

    parse.__name__ = convert.__name__  # argparse names it: "invalid int value"
    return parse


INT, FLOAT = _ascii(int), _ascii(float)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def load_job_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("job file must be a JSON object")
    unknown = set(data) - _JOBFILE_KEYS
    if unknown:
        raise ValueError(f"job file: unknown keys {sorted(unknown)}")
    for key in ("mechanism", "params", "job"):
        if key not in data:
            raise ValueError(f"job file: missing required key {key!r}")
    mech = data["mechanism"]
    if mech not in MECHANISM_PARAM_TYPES:
        raise ValueError(f"unknown mechanism {mech!r}; "
                         f"expected one of {sorted(MECHANISM_PARAM_TYPES)}")
    out = {
        "mechanism": mech,
        "params": from_json_dict(MECHANISM_PARAM_TYPES[mech], data["params"]),
        "job": from_json_dict(AccountingJob, data["job"]),
        "target": None,
        "optimizer": None,
    }
    if "target" in data:
        out["target"] = from_json_dict(PrivacyTarget, data["target"])
    if "optimizer" in data:
        check_json_section("optimizer", data["optimizer"], _OPTIMIZER_KEYS)
        out["optimizer"] = data["optimizer"]
    return out


def cmd_account(args) -> int:
    spec = load_job_file(args.job_file)
    params, job = spec["params"], spec["job"]
    out = accountant.account(params, job).to_json_dict()
    out.update(mode=args.mode, lambda_search=args.lambda_search)
    if args.mode == "accelerated":
        slack = accountant.tail_slack(params, job)
        if slack is not None:
            out["accel_error_estimate"] = slack
    if args.curve:  # written first, so a failed write prints nothing
        csv = accountant.build_curve(params, job).to_csv()
        with open(args.curve, "w") as fh:
            fh.write(csv)
    _emit(out)
    return 0


def cmd_sweep_t(args) -> int:
    spec = load_job_file(args.job_file)
    fields = [t.strip() for t in args.t_values.split(",")]
    if not all(t.isascii() and t.isdigit() and int(t) >= 1 for t in fields):
        raise ValueError(f"--t-values must be positive integers, got {args.t_values!r}")
    t_values = [int(t) for t in fields]
    job = spec["job"]
    curve = accountant.build_curve(spec["params"], job)
    lines = ["T,epsilon"]
    for t in t_values:
        eps, _ = accountant.epsilon_from_delta(accountant.compose(curve, t), job.delta)
        lines.append(f"{t},{eps:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_optimize(args) -> int:
    from . import optimizer

    spec = load_job_file(args.job_file)
    if spec["target"] is None or spec["optimizer"] is None:
        raise ValueError("optimize requires 'target' and 'optimizer' sections in the job file")
    cfg = optimizer.FeasibilityConfig(target=spec["target"], job_skeleton=spec["job"],
                                      **spec["optimizer"])
    result = optimizer.solve(cfg)
    _emit(result.to_json_dict())
    return 0


_TABLE2_CHECKS = [
    ("plrvo", GammaPlrvParams(k=141.06, theta=8.32e-4), None, 8.58),
    ("plrvo", GammaPlrvParams(k=5242.4, theta=2.08e-5), None, 9.17),
    ("gaussian", GaussianParams(sigma=0.9456), 5.0, 3.77),
    ("gaussian", GaussianParams(sigma=1.8812), 15.0, 22.51),
]


def cmd_distortion(args) -> int:
    from . import distortion

    if args.table2:
        rows = []
        ok = True
        for mech, params, clip, expected in _TABLE2_CHECKS:
            if mech == "plrvo":
                got = distortion.plrv_distortion(params).per_coordinate_l1
            else:
                got = distortion.gaussian_distortion(params, clip)
            passed = abs(got - expected) <= 0.01
            ok &= passed
            rows.append({"mechanism": mech, "expected": expected,
                         "computed": got, "passed": passed})
        _emit({"table2": rows, "all_passed": ok})
        return 0 if ok else 2
    if args.mechanism == "plrvo":
        if args.k is None or args.theta is None:
            raise ValueError("plrvo distortion requires --k and --theta")
        report = distortion.plrv_distortion(GammaPlrvParams(k=args.k, theta=args.theta))
    else:
        if args.sigma is None or args.clip is None:
            raise ValueError("gaussian distortion requires --sigma and --clip")
        value = distortion.gaussian_distortion(GaussianParams(sigma=args.sigma), args.clip)
        report = distortion.DistortionReport("gaussian", value, True)
    if args.csv:
        sys.stdout.write(report.csv_header() + "\n" + report.to_csv_row() + "\n")
    else:
        _emit(report.to_json_dict())
    return 0


def cmd_sample(args) -> int:
    from . import sampler

    for flag, value, least in (("--n", args.n, 1), ("--draws", args.draws, 1),
                               ("--seed", args.seed, 0)):
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    n, draws = args.n, args.draws
    rng = sampler.make_rng(args.seed, secure=args.secure)
    if args.mechanism == "plrvo":
        if args.k is None or args.theta is None:
            raise ValueError("plrvo sampling requires --k and --theta")
        params = GammaPlrvParams(k=args.k, theta=args.theta)
        scales, coords = sampler.sample_plrv_noise_matrix(params, draws, n, rng)
    elif args.mechanism == "gaussian":
        if args.sigma_eff is None:
            raise ValueError("gaussian sampling requires --sigma-eff")
        coords = np.stack([sampler.sample_gaussian_noise(args.sigma_eff, n, rng)
                           for _ in range(draws)])
        scales = np.full(draws, args.sigma_eff)
    else:
        if args.b is None:
            raise ValueError("laplace sampling requires --b")
        b = LaplaceParams(b=args.b).b
        with np.errstate(over="ignore"):
            coords = sampler.sample_laplace_vector(b, (draws, n), rng)
        bad = ~np.isfinite(coords).all(axis=1)
        if bad.any():
            raise ArithmeticError(f"laplace noise draw {int(bad.argmax())} is not finite "
                                  f"at b={b!r}")
        scales = np.full(draws, b)

    header = "draw_index,scale_b," + ",".join(f"coord_{j}" for j in range(n))
    lines = [header]
    for i in range(draws):
        row = ",".join(f"{v:.17g}" for v in coords[i])
        lines.append(f"{i},{scales[i]:.17g},{row}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_train_demo(args) -> int:
    from . import dpsgd

    # every training input is checked before the noise is calibrated
    loop = dpsgd.TrainingRun(
        mechanism=None, model_dim=args.dim, n_examples=args.examples,
        epochs=args.epochs, batch_size=args.batch, clip_C=args.clip,
        learning_rate=args.lr, delta=args.delta, lambda_max=args.lambda_max,
        seed=args.seed,
    )
    target = PrivacyTarget(epsilon_star=args.epsilon, delta_star=args.delta)
    if args.mechanism == "gaussian":
        mechanism = GaussianParams(sigma=dpsgd.calibrate_gaussian_sigma(args.epsilon, loop.job))
    else:
        from . import optimizer

        cfg = optimizer.FeasibilityConfig(clip_min=args.clip, clip_max=args.clip,
                                          target=target, job_skeleton=loop.job)
        result = optimizer.solve(cfg)
        mechanism = GammaPlrvParams(k=result.k_star, theta=result.theta_star)

    ledger = dpsgd.train(dataclasses.replace(loop, mechanism=mechanism))
    ledger["target_epsilon"] = args.epsilon
    _emit(ledger)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plrvo",
        description="noise design for DP-SGD: accounting, optimization, sampling")
    parser.add_argument("--threads", type=INT, default=None,
                        help="accepted and validated (>= 1, default PLRV_THREADS); "
                             "results do not depend on it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("account", help="epsilon(delta) for one job file")
    p.add_argument("job_file")
    p.add_argument("--mode", choices=["exact", "accelerated"], default="exact",
                   help="echoed; 'accelerated' adds the tail slack, accel_error_estimate")
    p.add_argument("--lambda-search", choices=["full", "coarse"], default="full",
                   help="echoed; every value runs the one order search")
    p.add_argument("--curve", metavar="OUT_CSV", default=None,
                   help="also write the full per-step moment curve")
    p.set_defaults(fn=cmd_account)

    p = sub.add_parser("sweep-t", help="epsilon vs step count, one curve reused")
    p.add_argument("job_file")
    p.add_argument("--t-values", required=True, help="comma-separated step counts")
    p.add_argument("--lambda-search", choices=["full", "coarse"], default="full",
                   help="accepted; every value runs the full order grid")
    p.add_argument("--out", default=None, help="CSV destination (default stdout)")
    p.set_defaults(fn=cmd_sweep_t)

    p = sub.add_parser("optimize", help="solve for (k*, theta*, C*)")
    p.add_argument("job_file")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("distortion", help="expected |noise| per coordinate")
    p.add_argument("--mechanism", choices=["plrvo", "gaussian"], default="plrvo")
    p.add_argument("--k", type=FLOAT, default=None)
    p.add_argument("--theta", type=FLOAT, default=None)
    p.add_argument("--sigma", type=FLOAT, default=None)
    p.add_argument("--clip", type=FLOAT, default=None)
    p.add_argument("--csv", action="store_true", help="CSV row instead of JSON")
    p.add_argument("--table2", action="store_true",
                   help="run the built-in reference-value self-test")
    p.set_defaults(fn=cmd_distortion)

    p = sub.add_parser("sample", help="draw noise vectors to CSV")
    p.add_argument("--mechanism", choices=["plrvo", "gaussian", "laplace"], default="plrvo")
    p.add_argument("--k", type=FLOAT, default=None)
    p.add_argument("--theta", type=FLOAT, default=None)
    p.add_argument("--sigma-eff", type=FLOAT, default=None)
    p.add_argument("--b", type=FLOAT, default=None)
    p.add_argument("--n", type=INT, required=True, help="coordinates per draw")
    p.add_argument("--draws", type=INT, required=True)
    p.add_argument("--seed", type=INT, default=0)
    p.add_argument("--secure", action="store_true",
                   help="cryptographic randomness (not reproducible; "
                        "test vectors do not apply)")
    p.add_argument("--out", default=None, help="CSV destination (default stdout)")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("train-demo", help="toy DP-SGD run with accounting ledger")
    p.add_argument("--mechanism", choices=["plrvo", "gaussian"], default="plrvo")
    p.add_argument("--epsilon", type=FLOAT, required=True)
    p.add_argument("--delta", type=FLOAT, default=1e-5)
    p.add_argument("--epochs", type=INT, default=3)
    p.add_argument("--batch", type=INT, default=40)
    p.add_argument("--clip", type=FLOAT, default=1.0)
    p.add_argument("--dim", type=INT, default=2)
    p.add_argument("--examples", type=INT, default=400)
    p.add_argument("--lr", type=FLOAT, default=0.5)
    p.add_argument("--lambda-max", type=INT, default=64)
    p.add_argument("--seed", type=INT, default=0)
    p.set_defaults(fn=cmd_train_demo)

    for p in (parser, *sub.choices.values()):  # argparse's own takes "-7", not "-1e-3"
        p._negative_number_matcher = re.compile(r"^-(\.?\d|inf(inity)?$|nan$)", re.I)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_threads(args.threads)
        return args.fn(args)
    except MgfDomainViolation as exc:
        print(f"numerical domain error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        print(json.dumps(exc.diagnostics, sort_keys=True, indent=2), file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a job too large for this machine
        print(f"input error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
