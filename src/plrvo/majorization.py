"""The majorization set that dominates every l2-clipped gradient.

The set x_i = C * (sqrt(i) - sqrt(i-1)) weakly majorizes the absolute
coordinates of any vector with l2 norm at most C: its partial sums telescope
to exactly C * sqrt(i), while the AM-QM inequality bounds the gradient's
partial sums by the same quantity. Coordinates are evaluated lazily by index
so the set is usable at model scale (1e8 coordinates) without materializing
anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def majorizing_coordinates(clip_C: float, t):
    """x(t) = C (sqrt(t) - sqrt(t-1)) for real t >= 1 (a number or an
    array), via the cancellation-free form C / (sqrt(t) + sqrt(t-1))
    (algebraically identical, accurate at any t)."""
    return clip_C / (np.sqrt(t) + np.sqrt(t - 1.0))


@dataclass(frozen=True)
class MajorizationSet:
    clip_C: float
    dim_n: int

    def __post_init__(self):
        if not self.clip_C > 0:
            raise ValueError(f"clip_C must be > 0, got {self.clip_C}")
        if not (isinstance(self.dim_n, int) and self.dim_n >= 1):
            raise ValueError(f"dim_n must be a positive integer, got {self.dim_n}")

    def coordinate(self, i: int) -> float:
        """x_i, by :func:`majorizing_coordinates`."""
        if not 1 <= i <= self.dim_n:
            raise IndexError(f"index {i} outside [1, {self.dim_n}]")
        return majorizing_coordinates(self.clip_C, i)

    def coordinates(self, lo: int, hi: int) -> np.ndarray:
        """Vector of x_i for i in [lo, hi], inclusive. Streaming-friendly."""
        if not (1 <= lo <= hi <= self.dim_n):
            raise IndexError(f"range [{lo}, {hi}] outside [1, {self.dim_n}]")
        return majorizing_coordinates(self.clip_C, np.arange(lo, hi + 1, dtype=np.float64))
