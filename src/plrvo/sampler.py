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

A source's ``uniform(a)`` followed by ``uniform(b)`` returns the bits of
``uniform(a + b)``, and numpy's elementwise ufuncs return the same bits at
any array length. A source also has a second cursor: ``ahead(a)`` is a
source that reads the uniforms after the next ``a`` and leaves this one
where it is, and ``skip(a)`` moves this one past them. Block samplers rely
on all three: ``standard_normal`` works through a pass in cache-sized
blocks, reading a large pass's y uniforms through the second cursor while
it reads the x uniforms, and ``sample_plrv_noise_rows`` returns the bits of
successive one-row draws, from exactly their uniforms. (Python's
``math.log`` differs from numpy's ``log`` on some inputs, so no transform
here uses it.)

A cryptographic source (os.urandom) is available behind ``secure=True`` for
production-privacy use. It is not seedable; the published test vectors apply
only to the deterministic source. Floating-point side channels of noise
sampling are out of scope and documented as a known gap.
"""

from __future__ import annotations

import copy
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

    def ahead(self, count: int) -> "DeterministicSource":
        """A second cursor: a copy of this source moved past its next
        ``count`` uniforms (each uniform is one 64-bit PCG64 output)."""
        twin = copy.deepcopy(self)
        twin.skip(count)
        return twin

    def skip(self, count: int) -> None:
        """Move past the next ``count`` uniforms without drawing them."""
        self._gen.bit_generator.advance(count)


class CryptoSource:
    """os.urandom-backed uniforms; not seedable, not reproducible. Its
    uniforms are independent wherever they are read, so a second cursor is
    the source itself and there is nothing to skip."""

    def uniform(self, size: int) -> np.ndarray:
        raw = np.frombuffer(os.urandom(8 * size), dtype=np.uint64)
        return (raw >> np.uint64(11)) * (2.0 ** -53)

    def ahead(self, count: int) -> "CryptoSource":
        return self

    def skip(self, count: int) -> None:
        pass


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


_NORMAL_BLOCK = 1 << 13  # polar pairs per block: a few 64 KiB arrays stay in cache


def _polar_factor(s: np.ndarray) -> np.ndarray:
    """sqrt(-2 ln s / s), the polar method's factor for accepted pairs."""
    f = np.log(s)
    f *= -2.0
    f /= s
    np.sqrt(f, out=f)
    return f


def standard_normal(rng, size: int, dtype=np.float64) -> np.ndarray:
    """Marsaglia polar method; consumes uniforms in pairs until filled.

    Each pass draws all of its x uniforms, then all of its y uniforms, and
    keeps the normals x f of the accepted pairs followed by as many y f as
    still fit. The normals are computed in float64 and stored as ``dtype``,
    so a float32 draw holds the float64 draw's values rounded, and consumes
    the same uniforms. A pass works in blocks of ``_NORMAL_BLOCK`` pairs; a
    pass of more than one block reads its y uniforms through a second
    cursor, ``rng.ahead(pairs)``, and then ``rng.skip(pairs)`` moves the
    source past them, so consumption is as in one pass's x then y draws.
    A block's accepted pairs are compacted by index into block buffers, and
    the pass's kept y f products wait in the part of ``out`` after its
    pairs, so no full-size temporary is built.
    """
    out = np.empty(size, dtype)
    block = min(_NORMAL_BLOCK, (size + 1) // 2)
    sq, kept_s, kept = np.empty(block), np.empty(block), np.empty(block)
    filled = 0
    while filled < size:
        need = size - filled
        pairs = (need + 1) // 2
        y_rng = rng if pairs <= _NORMAL_BLOCK else rng.ahead(pairs)
        # x f of the m accepted pairs so far go to out[filled:filled + m]; the
        # first need - pairs y f products, which is every one the pass keeps,
        # go to ys
        ys = out[filled + pairs:filled + need]
        m = kept_y = 0
        for lo in range(0, pairs, _NORMAL_BLOCK):
            count = min(_NORMAL_BLOCK, pairs - lo)
            x = rng.uniform(count)
            x *= 2.0
            x -= 1.0
            y = y_rng.uniform(count)
            y *= 2.0
            y -= 1.0
            s = np.multiply(x, x, out=sq[:count])
            s += np.multiply(y, y, out=kept[:count])
            ok = s < 1.0
            ok &= s > 0.0
            idx = np.flatnonzero(ok)
            k = idx.size
            f = _polar_factor(np.take(s, idx, out=kept_s[:k]))
            np.multiply(np.take(x, idx, out=kept[:k]), f, out=out[filled + m:filled + m + k])
            m += k
            take = min(k, ys.size - kept_y)
            np.multiply(np.take(y, idx[:take], out=kept[:take]), f[:take],
                        out=ys[kept_y:kept_y + take])
            kept_y += take
        if y_rng is not rng:
            rng.skip(pairs)
        tail = min(m, need - m)
        out[filled + m:filled + m + tail] = ys[:tail]
        filled += m + tail
    return out


def _gamma_constants(k: float) -> tuple[float, float]:
    """Marsaglia-Tsang's (d, c) for shape k, boosted to k + 1 below 1."""
    d = (k + 1.0 if k < 1.0 else k) - 1.0 / 3.0
    return d, 1.0 / math.sqrt(9.0 * d)


def _marsaglia_tsang(x: np.ndarray, u: np.ndarray, d: float, c: float):
    """Verdicts and cubes v of the candidates d v for normals x and open
    uniforms u."""
    v = (1.0 + c * x) ** 3
    x2 = x * x
    squeeze = u < 1.0 - 0.0331 * x2 * x2
    with np.errstate(divide="ignore", invalid="ignore"):
        slow = np.log(u) < 0.5 * x2 + d * (1.0 - v + np.log(v))
    return (v > 0.0) & (squeeze | slow), v


def sample_gamma_vector(k: float, theta: float, size: int, rng) -> np.ndarray:
    """Gamma(shape k, scale theta) draws via Marsaglia-Tsang."""
    if not (k > 0 and theta > 0):
        raise ValueError(f"gamma requires k > 0 and theta > 0, got k={k}, theta={theta}")
    boost = _uniform_open(rng, size) ** (1.0 / k) if k < 1.0 else None
    d, c = _gamma_constants(k)
    out = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        x = standard_normal(rng, need)
        ok, v = _marsaglia_tsang(x, _uniform_open(rng, need), d, c)
        accepted = d * v[ok]
        take = min(accepted.size, need)
        out[filled:filled + take] = accepted[:take]
        filled += take
    out *= theta
    if boost is not None:
        out *= boost
    return out


def _laplace(b, v: np.ndarray) -> np.ndarray:
    """Laplace(0, b) from uniforms v on (-1/2, 1/2), computed in place in v
    as ((-b) sign(v)) log1p(-2 |v|)."""
    t = np.abs(v)
    t *= -2.0
    np.log1p(t, out=t)
    np.sign(v, out=v)
    v *= -np.asarray(b)
    v *= t
    return v


def sample_laplace_vector(b: np.ndarray | float, shape: tuple[int, ...], rng) -> np.ndarray:
    """Laplace(0, b) via the inverse CDF; b broadcasts against ``shape``."""
    size = int(np.prod(shape))
    return _laplace(b, _uniform_open(rng, size).reshape(shape) - 0.5)


def _finite_noise(params: GammaPlrvParams, scales: np.ndarray,
                  coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(scales, coords) as given; ArithmeticError naming the first draw
    whose scale or coordinates are not finite. Below k = 1 the Gamma(k)
    seed is boosted by u^(1/k), which can underflow to 0 (or to a seed
    whose b = 1/u overflows)."""
    bad = ~(np.isfinite(scales) & np.isfinite(coords).all(axis=1))
    if bad.any():
        i = int(bad.argmax())
        raise ArithmeticError(
            f"plrvo noise draw {i} is not finite at k={params.k!r}, theta={params.theta!r}: "
            f"scale b = {float(scales[i])!r}, from a Gamma(k, theta) seed too close to 0")
    return scales, coords


def sample_plrv_noise_matrix(params: GammaPlrvParams, draws: int, n: int,
                             rng) -> tuple[np.ndarray, np.ndarray]:
    """Batch form: (scales, coords) with coords of shape (draws, n); row i
    shares scales[i]. All draws' gamma seeds come first, then all
    coordinates. A draw that is not finite raises ArithmeticError."""
    u = sample_gamma_vector(params.k, params.theta, draws, rng)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        b = 1.0 / u
        coords = sample_laplace_vector(b[:, None], (draws, n), rng)
    return _finite_noise(params, b, coords)


@dataclass
class _Row:
    """Tape positions of one noise row: the k < 1 boost, the accepted polar
    pair (x, then y), the Marsaglia-Tsang uniform and the n Laplace
    uniforms (the first of n in a row, or their index array when exact
    zeros were redrawn). ``begin`` is where the row's polar tries start."""

    begin: int
    boost_at: int | None = None
    x_at: int | None = None
    u_at: int | None = None
    laplace: int | np.ndarray | None = None
    end: int = 0


class _Short(Exception):
    """A walk needs tape position ``need``, which is not drawn yet."""

    def __init__(self, need: int):
        super().__init__(need)
        self.need = need


def _walk_row(u: np.ndarray, row: _Row, n: int, boosted: bool) -> _Row:
    """Fill in ``row``'s positions on tape ``u`` as if its Marsaglia-Tsang
    candidate is accepted: the polar tries of ``standard_normal(rng, 1)``,
    in exactly rounded arithmetic, and the draws of ``_uniform_open``, which
    redraws exact zeros from the positions that follow."""

    def open_at(p: int) -> int:
        while p < u.size and u[p] == 0.0:
            p += 1
        if p >= u.size:
            raise _Short(p)
        return p

    if boosted and row.boost_at is None:
        row.boost_at = open_at(row.begin)
        row.begin = row.boost_at + 1
    p = row.begin
    while True:
        if p + 1 >= u.size:
            raise _Short(p + 1)
        x = u[p] * 2.0 - 1.0
        y = u[p + 1] * 2.0 - 1.0
        p += 2
        if 0.0 < x * x + y * y < 1.0:
            break
    row.x_at = p - 2
    row.u_at = open_at(p)
    p = row.u_at + 1
    q = p + n
    if q > u.size:
        raise _Short(q - 1)
    if u[p:q].all():
        row.laplace, row.end = p, q
        return row
    idx = np.arange(p, q)
    redo = np.flatnonzero(u[idx] == 0.0)
    while redo.size:
        if q + redo.size > u.size:
            raise _Short(q + redo.size - 1)
        idx[redo] = np.arange(q, q + redo.size)
        q += redo.size
        redo = redo[u[idx[redo]] == 0.0]
    row.laplace, row.end = idx, q
    return row


def _gamma_candidates(u: np.ndarray, rows: list[_Row], k: float,
                      theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Marsaglia-Tsang verdicts and Gamma(k, theta) values of the walked
    rows' candidates, with the arithmetic of ``sample_gamma_vector``."""
    d, c = _gamma_constants(k)
    x_at = np.array([r.x_at for r in rows])
    x = u[x_at] * 2.0
    x -= 1.0
    y = u[x_at + 1] * 2.0
    y -= 1.0
    s = x * x
    s += y * y
    x *= _polar_factor(s)
    ok, v = _marsaglia_tsang(x, u[[r.u_at for r in rows]], d, c)
    gamma = d * v
    gamma *= theta
    if k < 1.0:
        gamma *= u[[r.boost_at for r in rows]] ** (1.0 / k)
    return ok, gamma


def sample_plrv_noise_rows(params: GammaPlrvParams, rows: int, n: int,
                           rng) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` successive randomized-scale draws: u ~ Gamma(k, theta),
    b = 1/u, then n i.i.d. Laplace(0, b) coordinates sharing that b.

    Returns (scales, coords), coords of shape (rows, n). Row i holds the
    bits of the i-th of ``rows`` one-row draws (``sample_gamma_vector(k,
    theta, 1, rng)``, then ``sample_laplace_vector(b, (n,), rng)``), and the
    call consumes exactly the uniforms those draws consume. It replays them
    on a tape of uniforms: a walk finds each row's positions as if every
    Marsaglia-Tsang candidate is accepted, one vector checks the walked
    candidates, and the walk resumes after the first rejected one. The tape
    only grows by uniforms the draws are certain to consume. A draw that is
    not finite raises ArithmeticError.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n}")
    boosted = params.k < 1.0
    row_min = n + 3 + boosted  # the fewest uniforms a row consumes
    u = rng.uniform(rows * row_min)
    final: list[_Row] = []
    scales = np.empty(rows)
    row = _Row(0)  # the first row not yet final
    while len(final) < rows:
        walked, short = [], None
        try:
            while len(final) + len(walked) < rows:
                walked.append(_walk_row(u, row, n, boosted))
                row = _Row(row.end)
        except _Short as exc:
            short = exc
        # a row cut short in its Laplace uniforms is checked too
        checked = walked + [row] if short and row.u_at is not None else walked
        if checked:
            ok, gamma = _gamma_candidates(u, checked, params.k, params.theta)
            good = len(checked) if ok.all() else int(np.argmin(ok))
            kept = min(good, len(walked))
            with np.errstate(divide="ignore", over="ignore"):
                scales[len(final):len(final) + kept] = 1.0 / gamma[:kept]
            final += walked[:kept]
            if good < len(checked):  # rejected: the next try follows its uniform
                row = _Row(checked[good].u_at + 1, checked[good].boost_at)
                continue
        if short is None:
            break
        # the rows before ``row`` are final and its walk so far is certain:
        # draw up to the position it needs, and the fewest the rest need
        row = _Row(row.begin, row.boost_at)
        more = short.need + 1 - u.size + (rows - len(final) - 1) * row_min
        u = np.concatenate([u, rng.uniform(more)])
    v = np.empty((rows, n))
    for vrow, r in zip(v, final):
        if isinstance(r.laplace, int):
            vrow[:] = u[r.laplace:r.laplace + n]
        else:
            np.take(u, r.laplace, out=vrow)
    v -= 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        coords = _laplace(scales[:, None], v)
    return _finite_noise(params, scales, coords)


def sample_gaussian_noise(sigma_eff: float, n: int, rng) -> np.ndarray:
    """n i.i.d. normal draws with standard deviation sigma_eff. A draw that
    overflows (sigma_eff near the float maximum) raises ArithmeticError."""
    if not (math.isfinite(sigma_eff) and sigma_eff >= 0):
        raise ValueError(f"sigma_eff must be finite and >= 0, got {sigma_eff}")
    with np.errstate(over="ignore"):
        z = sigma_eff * standard_normal(rng, n)
    if not np.isfinite(z).all():
        raise ArithmeticError(f"gaussian noise draw is not finite at sigma_eff={sigma_eff!r}")
    return z
