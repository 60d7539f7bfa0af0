"""Domain types for noise mechanisms, accounting jobs, and results.

All types are immutable, validate their invariants at construction (no silent
clamping), and serialize to JSON dicts whose keys match the field names
exactly. ``from_json_dict`` rejects unknown keys and booleans so malformed
job files fail loudly at the boundary.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping, Type, TypeVar

import numpy as np

T = TypeVar("T")

GAUSSIAN_LAPLACE_DEFAULT_LAMBDA_MAX = 64
# Largest moment cap a job may ask for: the accountant's (lambda, eta)
# weight matrices grow with its square (at 1e5 the first alone is 9.3 GiB)
LAMBDA_MAX_LIMIT = 4096


class MgfDomainViolation(ValueError):
    """The Gamma-seed MGF does not exist at a required argument.

    Carries the largest moment cap that keeps every MGF evaluation inside
    its domain for the offending (C, theta) pair.
    """

    def __init__(self, message: str, max_admissible_lambda: int | None = None):
        super().__init__(message)
        self.max_admissible_lambda = max_admissible_lambda


class InfeasibleError(RuntimeError):
    """No point in the optimizer's configured box satisfies every constraint."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _require(cond: bool, msg: str, *args: Any) -> None:
    """Raise ValueError(msg.format(*args)) unless cond: the message is
    formatted only on failure."""
    if not cond:
        raise ValueError(msg.format(*args))


def _finite(x: float) -> bool:
    return math.isfinite(x)


def to_json_dict(obj: Any) -> dict:
    """Dataclass -> plain dict with exact field names (recursive)."""
    out = {}
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if dataclasses.is_dataclass(v) and not isinstance(v, type):
            v = to_json_dict(v)
        out[f.name] = v
    return out


def check_json_section(name: str, data: Any, allowed: set[str]) -> None:
    """Reject a job-file section that is not an object, has unknown keys, or
    holds a value that is not a number: every section field is numeric, and
    a JSON ``true`` would otherwise pass as the integer 1."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{name}: expected a JSON object, got {type(data).__name__}")
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"{name}: unknown keys {sorted(unknown)}")
    flags = sorted(key for key, value in data.items() if isinstance(value, bool))
    if flags:
        raise ValueError(f"{name}: {flags} must be numbers, not booleans")
    for key, value in sorted(data.items()):
        if not isinstance(value, numbers.Real):
            raise ValueError(f"{name}: {key} must be a number, got {value!r}")


def from_json_dict(cls: Type[T], data: Mapping[str, Any]) -> T:
    """Construct a dataclass from a job-file section (see
    :func:`check_json_section`)."""
    check_json_section(cls.__name__, data, {f.name for f in dataclasses.fields(cls)})
    return cls(**data)


@dataclass(frozen=True)
class GammaPlrvParams:
    """Gamma seed of the randomized-scale Laplace noise family.

    ``k`` is the shape and ``theta`` the scale of the Gamma distribution of
    the inverse noise scale u = 1/b.
    """

    k: float
    theta: float

    def __post_init__(self):
        _require(_finite(self.k) and self.k > 0, "k must be > 0, got {}", self.k)
        _require(_finite(self.theta) and self.theta > 0,
                 "theta must be > 0, got {}", self.theta)


@dataclass(frozen=True)
class GaussianParams:
    """Noise multiplier; the effective standard deviation is C * sigma."""

    sigma: float

    def __post_init__(self):
        _require(_finite(self.sigma) and self.sigma > 0,
                 "sigma must be > 0, got {}", self.sigma)


@dataclass(frozen=True)
class LaplaceParams:
    """Fixed Laplace scale, in the units of the clipped gradient."""

    b: float

    def __post_init__(self):
        _require(_finite(self.b) and self.b > 0, "b must be > 0, got {}", self.b)


MechanismParams = GammaPlrvParams | GaussianParams | LaplaceParams


@dataclass(frozen=True)
class PrivacyTarget:
    epsilon_star: float
    delta_star: float

    def __post_init__(self):
        _require(self.epsilon_star > 0, "epsilon_star must be > 0, got {}", self.epsilon_star)
        _require(_finite(self.epsilon_star), "epsilon_star must be finite, got {}",
                 self.epsilon_star)
        _require(0.0 < self.delta_star < 1.0,
                 "delta_star must be in (0, 1), got {}", self.delta_star)


@dataclass(frozen=True)
class AccountingJob:
    """One mechanism-accounting request.

    ``model_dim_N`` is the number of model coordinates summed by the
    majorized accountant (the per-parameter composition), not the dataset
    size. ``lambda_max`` caps the moment-order grid; the effective cap for
    the gamma-seed mechanism is further reduced so every MGF argument stays
    inside its domain (see :func:`effective_lambda_max`).

    ``sampling_rate_zeta`` admits 0 so that no-subsampling edge jobs can be
    expressed; every moment is then exactly zero.
    """

    steps_T: int
    sampling_rate_zeta: float
    model_dim_N: int
    clip_C: float
    delta: float
    lambda_max: int = GAUSSIAN_LAPLACE_DEFAULT_LAMBDA_MAX

    def __post_init__(self):
        _require(isinstance(self.steps_T, int) and self.steps_T >= 1,
                 "steps_T must be a positive integer, got {!r}", self.steps_T)
        _require(0.0 <= self.sampling_rate_zeta <= 1.0,
                 "sampling_rate_zeta must be in [0, 1], got {}", self.sampling_rate_zeta)
        _require(isinstance(self.model_dim_N, int) and self.model_dim_N >= 1,
                 "model_dim_N must be a positive integer, got {!r}", self.model_dim_N)
        _require(_finite(self.clip_C) and self.clip_C > 0,
                 "clip_C must be > 0, got {}", self.clip_C)
        _require(0.0 < self.delta < 1.0, "delta must be in (0, 1), got {}", self.delta)
        _require(isinstance(self.lambda_max, int) and self.lambda_max >= 1,
                 "lambda_max must be a positive integer, got {!r}", self.lambda_max)
        _require(self.lambda_max <= LAMBDA_MAX_LIMIT, "lambda_max must be at most {}, got {}",
                 LAMBDA_MAX_LIMIT, self.lambda_max)


def gamma_seed_lambda_cap(clip_C: float, theta: float) -> int:
    """Largest safe moment cap: floor(1 / (C * theta)) - 1.

    The accountant evaluates the seed MGF at arguments up to
    (lambda_max + 1 - 1) * C = lambda_max * C, so this keeps every argument
    strictly below 1/theta.
    """
    return int(math.floor(1.0 / (clip_C * theta))) - 1


def validate(job: AccountingJob, params: GammaPlrvParams) -> None:
    """Check that every MGF evaluation the accountant will make exists.

    The worst-case moment index eta = lambda_max + 1 produces the argument
    t = lambda_max * C; existence requires t * theta < 1.
    """
    worst = job.lambda_max * job.clip_C * params.theta
    if worst >= 1.0:
        cap = gamma_seed_lambda_cap(job.clip_C, params.theta)
        remedy = (f"maximal admissible lambda_max is {cap}" if cap >= 1 else
                  f"no moment order is admissible at this (C, theta): "
                  f"C * theta = {job.clip_C * params.theta:.6g}")
        raise MgfDomainViolation(
            f"lambda_max * C * theta = {worst:.6g} >= 1: the gamma-seed MGF "
            f"does not exist at the largest moment; {remedy}",
            max_admissible_lambda=cap,
        )


def effective_lambda_max(job: AccountingJob, params: MechanismParams) -> int:
    """Moment-grid cap actually used for a job.

    Gamma-seed jobs shrink the user cap to the MGF-safe value; the other
    mechanisms use the user cap as-is.
    """
    if not isinstance(params, GammaPlrvParams):
        return job.lambda_max
    return max(1, min(job.lambda_max, gamma_seed_lambda_cap(job.clip_C, params.theta)))


@dataclass(frozen=True)
class LogMomentCurve:
    """alpha(lambda) samples for one mechanism, one step (or composed).

    ``alpha_per_step`` maps integer moment orders to log moments. Values are
    finite (else FloatingPointError), nonnegative and nondecreasing in lambda
    (with a 1e-10 slack for floating-point wobble); construction enforces it.
    """

    mechanism: str
    alpha_per_step: dict[int, float]
    job: dict = field(default_factory=dict)

    def __post_init__(self):
        _require(len(self.alpha_per_step) > 0, "curve must contain at least one moment")
        ordered = dict(sorted((int(l), float(a)) for l, a in self.alpha_per_step.items()))
        a = np.fromiter(ordered.values(), np.float64, len(ordered))
        prev = a[:-1]
        if not (next(iter(ordered)) >= 1 and np.isfinite(a).all() and (a >= 0.0).all()
                and (a[1:] >= prev - 1e-10 * np.maximum(1.0, np.abs(prev))).all()):
            self._raise_first_fault(ordered)
        object.__setattr__(self, "alpha_per_step", ordered)

    def _raise_first_fault(self, ordered: dict[int, float]) -> None:
        """Run the construction checks one order at a time and raise at the
        first that fails, so that the message names that order. They make
        the comparisons of the vector pass in ``__post_init__``."""
        prev = None
        for lam, a in ordered.items():
            _require(lam >= 1, "moment orders must be >= 1, got {}", lam)
            if not _finite(a):
                raise FloatingPointError(f"{self.mechanism} per-step log moment of order "
                                         f"{lam} is {a}")
            _require(a >= 0.0, "alpha({}) = {} violates alpha >= 0", lam, a)
            if prev is not None:
                _require(a >= prev - 1e-10 * max(1.0, abs(prev)),
                         "alpha must be nondecreasing in lambda; "
                         "alpha({}) = {} < {}", lam, a, prev)
            prev = a

    def to_json_dict(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "alpha_per_step": {str(l): a for l, a in self.alpha_per_step.items()},
            "job": dict(self.job),
        }

    def to_csv(self) -> str:
        lines = ["lambda,alpha_per_step"]
        lines += [f"{l},{a:.17g}" for l, a in self.alpha_per_step.items()]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OptimizationResult:
    """Optimal (k*, theta*, C*) with the diagnostics that certified it."""

    k_star: float
    theta_star: float
    C_star: float
    achieved_epsilon: float
    achieved_distortion: float
    snr: float
    constraint_report: dict

    def __post_init__(self):
        for name, entry in self.constraint_report.items():
            _require(bool(entry.get("passed", False)),
                     "OptimizationResult carries a failing constraint {!r}", name)

    def to_json_dict(self) -> dict:
        return to_json_dict(self)
