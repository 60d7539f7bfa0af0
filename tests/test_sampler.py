import hashlib
import math
import warnings

import numpy as np
import pytest

from plrvo.numerics import regularized_lower_gamma
from plrvo.params import GammaPlrvParams
from plrvo.sampler import (
    CryptoSource,
    DeterministicSource,
    make_rng,
    sample_gamma_vector,
    sample_gaussian_noise,
    sample_laplace_vector,
    sample_plrv_noise_matrix,
    sample_plrv_noise_rows,
    standard_normal,
)


class TestGammaSampler:
    def test_moments(self):
        k, theta, n = 10.0, 0.1, 10**6
        draws = sample_gamma_vector(k, theta, n, make_rng(101))
        mean_se = math.sqrt(k * theta**2 / n)
        assert abs(draws.mean() - k * theta) <= 4 * mean_se
        # SE of the sample variance via the fourth central moment of Gamma
        var = k * theta**2
        mu4 = 3 * k * (k + 2) * theta**4
        var_se = math.sqrt((mu4 - var**2) / n)
        assert abs(draws.var(ddof=1) - var) <= 4 * var_se

    @pytest.mark.parametrize("k,theta", [(0.5, 2.0), (1.0, 1.0), (3.3, 0.4), (80.0, 0.01)])
    def test_cdf_against_incomplete_gamma(self, k, theta):
        n = 10**5
        draws = np.sort(sample_gamma_vector(k, theta, n, make_rng(7)))
        # Kolmogorov bound: P(D_n > c/sqrt(n)) <= 2 exp(-2 c^2); c = 2.5 -> 7e-6
        grid = np.quantile(draws, np.linspace(0.02, 0.98, 25))
        for x in grid:
            empirical = np.searchsorted(draws, x, side="right") / n
            exact = regularized_lower_gamma(k, float(x) / theta)
            assert abs(empirical - exact) <= 2.5 / math.sqrt(n)

    def test_chi_squared_goodness_of_fit(self):
        import scipy.stats
        k, theta, n = 5.0, 0.3, 10**5
        draws = sample_gamma_vector(k, theta, n, make_rng(23))
        edges = np.quantile(draws, np.linspace(0, 1, 41))
        edges[0], edges[-1] = 0.0, np.inf
        counts, _ = np.histogram(draws, edges)
        probs = np.diff([regularized_lower_gamma(k, float(e) / theta)
                         if np.isfinite(e) else 1.0 for e in edges])
        stat = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
        p_value = 1.0 - scipy.stats.chi2.cdf(stat, df=len(counts) - 1)
        assert p_value > 0.001

    def test_scalar_draw_and_validation(self):
        assert sample_gamma_vector(2.0, 0.5, 1, make_rng(1))[0] > 0
        with pytest.raises(ValueError):
            sample_gamma_vector(0.0, 1.0, 1, make_rng(1))


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = sample_gamma_vector(3.3, 0.5, 1000, make_rng(42))
        b = sample_gamma_vector(3.3, 0.5, 1000, make_rng(42))
        assert np.array_equal(a, b)

    def test_stream_separation(self):
        a = sample_gamma_vector(3.3, 0.5, 1000, make_rng(42, stream=0))
        b = sample_gamma_vector(3.3, 0.5, 1000, make_rng(42, stream=1))
        assert not np.array_equal(a, b)

    def test_pinned_vector(self):
        # regression pin for the documented PCG64 stream
        draws = sample_gamma_vector(2.0, 1.0, 3, make_rng(12345))
        assert draws == pytest.approx(
            [0.982008313491289, 0.5569365261026236, 2.7127161047315558], rel=1e-15)

    def test_seed_required_unless_secure(self):
        with pytest.raises(ValueError):
            make_rng(None)
        assert isinstance(make_rng(secure=True), CryptoSource)

    def test_crypto_source_draws_valid(self):
        rng = make_rng(secure=True)
        u = rng.uniform(10_000)
        assert np.all((u >= 0) & (u < 1))
        draws = sample_gamma_vector(2.0, 1.0, 1000, rng)
        assert np.all(draws > 0)


class TestPlrvNoise:
    def test_distortion_matches_closed_form(self):
        p = GammaPlrvParams(k=10.0, theta=0.1)
        _, coords = sample_plrv_noise_matrix(p, 10**5, 10, make_rng(3))
        expected = 1.0 / ((p.k - 1.0) * p.theta)
        assert np.abs(coords).mean() == pytest.approx(expected, rel=0.05)

    def test_median_zero(self):
        p = GammaPlrvParams(k=10.0, theta=0.1)
        _, coords = sample_plrv_noise_matrix(p, 20_000, 4, make_rng(9))
        # binomial(n, 1/2) sign-test bound on each coordinate's median
        n = coords.shape[0]
        for j in range(coords.shape[1]):
            positives = int(np.sum(coords[:, j] > 0))
            assert abs(positives - n / 2) <= 4 * math.sqrt(n / 4)

    def test_coordinates_share_scale(self):
        p = GammaPlrvParams(k=50.0, theta=0.02)
        scales, coords = sample_plrv_noise_rows(p, 1, 4000, make_rng(17))
        # conditional on b, |z_i| are Exp(b): their mean concentrates at b
        assert np.abs(coords[0]).mean() == pytest.approx(
            scales[0], rel=4 / math.sqrt(4000) * 1.5)
        assert scales[0] > 0

    def test_heavy_tail_when_k_below_one(self):
        # running mean of |z| diverges for k <= 1; with this pinned seed the
        # growth over decades is strictly monotone
        p = GammaPlrvParams(k=0.8, theta=0.5)
        _, coords = sample_plrv_noise_matrix(p, 10**6, 1, make_rng(26))
        magnitudes = np.abs(coords[:, 0])
        running = [magnitudes[:n].mean() for n in (10**3, 10**4, 10**5, 10**6)]
        assert all(b > a for a, b in zip(running, running[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_plrv_noise_rows(GammaPlrvParams(k=2.0, theta=0.5), 1, 0, make_rng(1))

    @pytest.mark.parametrize("sample", [sample_plrv_noise_matrix, sample_plrv_noise_rows])
    @pytest.mark.parametrize("k", [0.003, 0.001, 1e-320])
    def test_underflowing_seed_raises(self, sample, k):
        # the k < 1 boost u^(1/k) drives the Gamma(k) seed to 0 and b = 1/u past
        # the float range: an error naming k, theta and the draw, and no warning
        p = GammaPlrvParams(k=k, theta=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError,
                               match=rf"noise draw \d+ is not finite at k={k!r}, theta=1.0"):
                sample(p, 200, 2, make_rng(1))

    @pytest.mark.parametrize("sample", [sample_plrv_noise_matrix, sample_plrv_noise_rows])
    def test_finite_draws_at_small_k(self, sample):
        # k = 0.05 keeps every draw of this stream finite: no error
        p = GammaPlrvParams(k=0.05, theta=1.0)
        scales, coords = sample(p, 200, 2, make_rng(1))
        assert np.all(np.isfinite(scales)) and np.all(np.isfinite(coords))


class TestGaussianAndLaplace:
    def test_gaussian_moments(self):
        n = 10**6
        x = sample_gaussian_noise(2.0, n, make_rng(55))
        assert abs(x.mean()) <= 4 * 2.0 / math.sqrt(n)
        half_normal_mean = 2.0 * math.sqrt(2.0 / math.pi)
        half_normal_sd = 2.0 * math.sqrt(1.0 - 2.0 / math.pi)
        assert abs(np.abs(x).mean() - half_normal_mean) <= 4 * half_normal_sd / math.sqrt(n)

    def test_polar_normal_variance(self):
        x = standard_normal(make_rng(66), 10**6)
        assert x.var() == pytest.approx(1.0, abs=0.005)

    def test_polar_normal_pinned(self):
        # recorded from the concatenating implementation the in-place one replaced
        x = standard_normal(make_rng(0), 10**5)
        assert x[:6].tolist() == [1.9453335290214984, -0.03788632696769502,
                                  0.9365559772114249, 0.5418023698919924,
                                  1.7556858138890616, 0.6982323219455142]
        assert hashlib.sha256(x.tobytes()).hexdigest() == \
            "e2ff101e497897bc533f7d53a6416a891306a14848d3dba1fbc6dfee07291147"

    def test_laplace_inverse_cdf_moments(self):
        z = sample_laplace_vector(2.0, (10**6,), make_rng(77))
        assert np.abs(z).mean() == pytest.approx(2.0, rel=0.01)
        assert z.var() == pytest.approx(8.0, rel=0.02)

    def test_gaussian_determinism(self):
        assert np.array_equal(sample_gaussian_noise(1.0, 64, make_rng(5)),
                              sample_gaussian_noise(1.0, 64, make_rng(5)))


def _one_row(params, n, rng):
    """One randomized-scale draw made on its own: a size-1 gamma draw, then
    n Laplace coordinates."""
    b = 1.0 / float(sample_gamma_vector(params.k, params.theta, 1, rng)[0])
    return b, sample_laplace_vector(b, (n,), rng)


class _ScriptedSource:
    """Replays a fixed sequence of uniforms, exact zeros included."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.pos = 0

    def uniform(self, size):
        out = self.values[self.pos:self.pos + size].copy()
        assert out.size == size, "script exhausted"
        self.pos += size
        return out


class TestBlockedStreams:
    """The stream contract the block samplers rely on: they return the bits,
    and consume the uniforms, of the draws they stand for."""

    def test_uniform_calls_concatenate(self):
        a, b = DeterministicSource(3, 1), DeterministicSource(3, 1)
        assert np.array_equal(np.concatenate([a.uniform(7), a.uniform(12)]), b.uniform(19))

    @pytest.mark.parametrize("k,m", [(0, 5), (1, 1), (8192, 3), (100_001, 17)])
    def test_second_cursor(self, k, m):
        # ahead(k) reads the uniforms after the next k and leaves the source
        # where it was; skip(k) moves the source past those k
        source, twin = DeterministicSource(5, 2), DeterministicSource(5, 2)
        run = twin.uniform(k + m)
        assert np.array_equal(source.ahead(k).uniform(m), run[k:])
        assert np.array_equal(source.uniform(k + m), run)
        source, twin = DeterministicSource(5, 2), DeterministicSource(5, 2)
        source.skip(k)
        assert np.array_equal(source.uniform(m), twin.uniform(k + m)[k:])
        # a cryptographic source's uniforms are independent wherever read
        crypto = CryptoSource()
        assert crypto.ahead(k) is crypto

    @pytest.mark.parametrize("seed,size", [(0, 1), (2, 3), (4, 16383), (5, 16384), (6, 16385),
                                           (7, 16386), (8, 32769), (9, 100_001),
                                           (10, 1_000_000)])
    def test_float32_normals_are_rounded_float64_normals(self, seed, size):
        wide, narrow = make_rng(seed, stream=seed % 3), make_rng(seed, stream=seed % 3)
        x64 = standard_normal(wide, size)
        x32 = standard_normal(narrow, size, np.float32)
        assert x32.dtype == np.float32
        assert np.array_equal(x32.view(np.uint32), x64.astype(np.float32).view(np.uint32))
        assert np.array_equal(wide.uniform(5), narrow.uniform(5))

    @pytest.mark.parametrize("k,theta", [(0.8, 0.5), (1.0, 0.2), (2.5, 0.1),
                                         (141.06, 8.32e-4), (29822.05, 3.4e-5)])
    @pytest.mark.parametrize("n", [1, 7, 512])
    def test_rows_match_single_draws(self, k, theta, n):
        params = GammaPlrvParams(k=k, theta=theta)
        for rows in (1, 63, 64, 65, 130):
            blocked, single = make_rng(8, stream=2), make_rng(8, stream=2)
            scales, coords = sample_plrv_noise_rows(params, rows, n, blocked)
            draws = [_one_row(params, n, single) for _ in range(rows)]
            assert np.array_equal(scales, [b for b, _ in draws])
            assert np.array_equal(coords, np.stack([z for _, z in draws]))
            assert np.array_equal(blocked.uniform(5), single.uniform(5))

    @pytest.mark.parametrize("k", [0.8, 2.5])
    @pytest.mark.parametrize("n", [1, 7])
    def test_rows_redraw_exact_zeros(self, k, n):
        # zeros, some in runs, land on boosts, polar pairs, Marsaglia-Tsang
        # uniforms, Laplace uniforms and their redraws
        values = make_rng(4).uniform(20_000)
        values[::5] = 0.0
        values[1::37] = 0.0
        values[2::37] = 0.0
        params = GammaPlrvParams(k=k, theta=0.3)
        blocked, single = _ScriptedSource(values), _ScriptedSource(values)
        scales, coords = sample_plrv_noise_rows(params, 200, n, blocked)
        draws = [_one_row(params, n, single) for _ in range(200)]
        assert np.array_equal(scales, [b for b, _ in draws])
        assert np.array_equal(coords, np.stack([z for _, z in draws]))
        assert blocked.pos == single.pos
        assert np.count_nonzero(values[:blocked.pos] == 0.0) > 100

    # sha256 of standard_normal(make_rng(seed, stream=seed % 3), size), recorded
    # from the one-pass implementation: sizes around the 8,192-pair block edge,
    # and sizes whose refill passes span several blocks
    @pytest.mark.parametrize("seed,size,digest", [
        (0, 1, "cd539723b478b812860fc60b6e8020f7759cf37689f9316f9a2a58157f674160"),
        (1, 2, "d32085d14540720fff89b12223697a22ea3468ac83fb980fd2909ec874a99c8a"),
        (2, 3, "7b45d12799811d6310b07e47052129ba042304e8400e325b673464899bd98962"),
        (3, 7, "7c3f32644a827d4a92e365a391bb1279564471ddcf2bcef79a04fcafd5a26919"),
        (4, 16383, "e4aca2dbcd8571d68253b0e64cbcd027ff4acb752cdc41b1a735b9e0bc18a423"),
        (5, 16384, "cc4b9b74cb2010527f0a92cabc92aac188ef06cef6d56a6ce718a3b0b916fa51"),
        (6, 16385, "c6749adbfe58301192a5694f44bf3ff0b716525e80cbd574d842e244913f5e18"),
        (7, 16386, "f95b61ae4403e9fb7486b4adb02388bae64f5e1996ec34a42dcca018113b5955"),
        (8, 32769, "7d9709a8a6546eeaff7e61e7a81a4a9f65321df37c1374a6ae45b3769a5b424d"),
        (9, 100_001, "69783f27329f44c7c38f131288fa192bb6dc9876ac3833ead81682f1d56b836f"),
        (10, 1_000_000, "5b047509968fc6d61ca1a4bcfd08dc8f34327f7f97b46d458c75ffa31df70f2a"),
    ])
    def test_standard_normal_blocks_keep_bits(self, seed, size, digest):
        x = standard_normal(make_rng(seed, stream=seed % 3), size)
        assert hashlib.sha256(x.tobytes()).hexdigest() == digest
