"""Seedable noise generation: gamma-seed randomized-scale Laplace noise,
plain Laplace, and Gaussian.

The deterministic source is PCG64 (numpy's Generator bit stream) with a
fixed 53-bit float conversion path; the same (seed, stream) pair yields a
bitwise-identical draw sequence on every platform. Distribution transforms
are implemented here so both sources share one code path:

  * gamma: Marsaglia-Tsang squeeze/rejection for shape >= 1, with the
    power-boost transform below 1;
  * normal: Marsaglia polar rejection;
  * Laplace: inverse CDF, z = -b * sign(v) * ln(1 - 2|v|) for v uniform on
    (-1/2, 1/2).

A cryptographic source (os.urandom) is available behind ``secure=True`` for
production-privacy use. It is not seedable; the published test vectors apply
only to the deterministic source. Floating-point side channels of noise
sampling are out of scope and documented as a known gap.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .params import GammaPlrvParams


class DeterministicSource:
    """PCG64-backed uniforms in [0, 1) with 53-bit resolution."""

    def __init__(self, seed: int, stream: int = 0):
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))

    def uniform(self, size: int) -> np.ndarray:
        return self._gen.random(size)


class CryptoSource:
    """os.urandom-backed uniforms; not seedable, not reproducible."""

    def uniform(self, size: int) -> np.ndarray:
        raw = np.frombuffer(os.urandom(8 * size), dtype=np.uint64)
        return (raw >> np.uint64(11)) * (2.0 ** -53)


def make_rng(seed: int | None = None, stream: int = 0, secure: bool = False):
    """Build a random source. ``secure=True`` selects the cryptographic
    source and ignores the seed (with no reproducibility guarantees)."""
    if secure:
        return CryptoSource()
    if seed is None:
        raise ValueError("deterministic source requires a seed")
    return DeterministicSource(seed, stream)


def _uniform_open(rng, size: int) -> np.ndarray:
    """Uniforms in the open interval (0, 1): exact zeros are redrawn."""
    u = rng.uniform(size)
    while True:
        zeros = u == 0.0
        if not np.any(zeros):
            return u
        u[zeros] = rng.uniform(int(np.count_nonzero(zeros)))


def standard_normal(rng, size: int) -> np.ndarray:
    """Marsaglia polar method; consumes uniforms in pairs until filled."""
    out = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        pairs = (need + 1) // 2
        x = rng.uniform(pairs)
        x *= 2.0
        x -= 1.0
        y = rng.uniform(pairs)
        y *= 2.0
        y -= 1.0
        s = x * x
        s += y * y
        ok = (s > 0.0) & (s < 1.0)
        s = s[ok]
        f = np.log(s)
        f *= -2.0
        f /= s
        np.sqrt(f, out=f)
        # the x draws come first, then as many y draws as still fit
        m = f.size  # m <= pairs <= need
        np.multiply(x[ok], f, out=out[filled:filled + m])
        tail = min(m, need - m)
        np.multiply(y[ok][:tail], f[:tail], out=out[filled + m:filled + m + tail])
        filled += m + tail
    return out


def sample_gamma_vector(k: float, theta: float, size: int, rng) -> np.ndarray:
    """Gamma(shape k, scale theta) draws via Marsaglia-Tsang."""
    if not (k > 0 and theta > 0):
        raise ValueError(f"gamma requires k > 0 and theta > 0, got k={k}, theta={theta}")
    boost = None
    shape = k
    if k < 1.0:
        boost = _uniform_open(rng, size) ** (1.0 / k)
        shape = k + 1.0
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        x = standard_normal(rng, need)
        v = (1.0 + c * x) ** 3
        u = _uniform_open(rng, need)
        pos = v > 0.0
        x2 = x * x
        squeeze = u < 1.0 - 0.0331 * x2 * x2
        with np.errstate(divide="ignore", invalid="ignore"):
            slow = np.log(u) < 0.5 * x2 + d * (1.0 - v + np.log(v))
        ok = pos & (squeeze | slow)
        accepted = d * v[ok]
        take = min(accepted.size, need)
        out[filled:filled + take] = accepted[:take]
        filled += take
    out *= theta
    if boost is not None:
        out *= boost
    return out


def sample_gamma(k: float, theta: float, rng) -> float:
    """One Gamma(shape k, scale theta) draw."""
    return float(sample_gamma_vector(k, theta, 1, rng)[0])


def sample_laplace_vector(b: np.ndarray | float, shape: tuple[int, ...], rng) -> np.ndarray:
    """Laplace(0, b) via the inverse CDF; b broadcasts against ``shape``."""
    size = int(np.prod(shape))
    v = _uniform_open(rng, size).reshape(shape) - 0.5
    return -np.asarray(b) * np.sign(v) * np.log1p(-2.0 * np.abs(v))


@dataclass(frozen=True)
class NoiseDraw:
    """One randomized-scale draw: the realized scale b = 1/u plus the noise
    coordinates generated from it (all coordinates share this one b)."""

    scale_b: float
    coords: np.ndarray

    def __post_init__(self):
        if not self.scale_b > 0:
            raise ValueError(f"scale_b must be > 0, got {self.scale_b}")


def sample_plrv_noise(params: GammaPlrvParams, n: int, rng) -> NoiseDraw:
    """Two-step draw: u ~ Gamma(k, theta), b = 1/u, then n i.i.d.
    Laplace(0, b) coordinates sharing that b."""
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n}")
    u = sample_gamma(params.k, params.theta, rng)
    b = 1.0 / u
    return NoiseDraw(scale_b=b, coords=sample_laplace_vector(b, (n,), rng))


def sample_plrv_noise_matrix(params: GammaPlrvParams, draws: int, n: int,
                             rng) -> tuple[np.ndarray, np.ndarray]:
    """Batch form: (scales, coords) with coords of shape (draws, n); row i
    shares scales[i]."""
    u = sample_gamma_vector(params.k, params.theta, draws, rng)
    b = 1.0 / u
    coords = sample_laplace_vector(b[:, None], (draws, n), rng)
    return b, coords


def sample_gaussian_noise(sigma_eff: float, n: int, rng) -> np.ndarray:
    """n i.i.d. normal draws with standard deviation sigma_eff."""
    if not sigma_eff >= 0:
        raise ValueError(f"sigma_eff must be >= 0, got {sigma_eff}")
    return sigma_eff * standard_normal(rng, n)
