"""Expected per-coordinate noise magnitude, the SNR objective, and the
l1/l2 clipping-volume comparison.

Distortion here is per coordinate, E|z_i|. For the gamma-seed mechanism it
equals 1 / ((k - 1) * theta) when k > 1 and diverges otherwise, and it does
not depend on the clipping threshold (C enters the accounting, not the noise
scale). Gaussian distortion is C * sigma * sqrt(2 / pi) and scales with C.
That asymmetry is deliberate and surfaced in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import log_gamma
from .params import GammaPlrvParams, GaussianParams


@dataclass(frozen=True)
class DistortionReport:
    mechanism: str
    per_coordinate_l1: float
    finite: bool

    def __post_init__(self):
        if self.finite and not self.per_coordinate_l1 >= 0:
            raise ValueError(f"finite distortion must be >= 0, got {self.per_coordinate_l1}")

    def to_json_dict(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "per_coordinate_l1": self.per_coordinate_l1,
            "finite": self.finite,
        }

    def to_csv_row(self) -> str:
        return f"{self.mechanism},{self.per_coordinate_l1:.17g},{self.finite}"

    @staticmethod
    def csv_header() -> str:
        return "mechanism,l1_per_coord,finite"


def plrv_distortion(params: GammaPlrvParams) -> DistortionReport:
    """Closed-form E|z_i| = 1 / ((k - 1) * theta) for k > 1; divergence is a
    report state, not an exception."""
    if params.k > 1.0:
        return DistortionReport("plrvo", 1.0 / ((params.k - 1.0) * params.theta), True)
    return DistortionReport("plrvo", math.inf, False)


def gaussian_distortion(params: GaussianParams, clip_C: float) -> float:
    """E|z_i| of the Gaussian mechanism at effective scale C * sigma."""
    if not (math.isfinite(clip_C) and clip_C >= 0):
        raise ValueError(f"clip_C must be finite and >= 0, got {clip_C}")
    return clip_C * params.sigma * math.sqrt(2.0 / math.pi)


def snr(params: GammaPlrvParams, clip_C: float) -> float:
    """Clip-to-distortion ratio J = C * (k - 1) * theta, the objective the
    parameter optimizer maximizes."""
    if not params.k > 1.0:
        raise ValueError(f"snr undefined for k <= 1 (infinite distortion), got k = {params.k}")
    if not clip_C > 0:
        raise ValueError(f"clip_C must be > 0, got {clip_C}")
    return clip_C * (params.k - 1.0) * params.theta


def l1_l2_volume_log_ratio(n: int) -> float:
    """log of V_l1 / V_l2 in dimension n: n log(2/sqrt(pi)) + lnGamma(n/2+1)
    - lnGamma(n+1). Independent of the clip radius (C^n cancels)."""
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n}")
    return n * math.log(2.0 / math.sqrt(math.pi)) + log_gamma(n / 2.0 + 1.0) - log_gamma(n + 1.0)
