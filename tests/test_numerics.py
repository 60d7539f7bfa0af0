import math

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.special
from hypothesis import given

from plrvo.numerics import log_binomial, log_gamma, regularized_lower_gamma
from quadrature import QuadratureError, integrate_decaying


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    @pytest.mark.parametrize("x", [1e-3, 0.02, 0.9, 1.5, 7.3, 123.4, 9.9e5, 1e8])
    def test_precision_across_domain(self, x):
        import mpmath
        exact = float(mpmath.log(mpmath.gamma(x)))
        if exact == 0.0:
            assert abs(log_gamma(x)) <= 1e-12
        else:
            assert abs(log_gamma(x) - exact) / abs(exact) <= 1e-12

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            log_gamma(x)


class TestLogBinomial:
    def test_edges(self):
        assert log_binomial(7, 0) == 0.0
        assert log_binomial(7, 7) == 0.0
        assert log_binomial(5, 2) == pytest.approx(math.log(10.0), rel=1e-13)

    def test_against_exact_big_integer(self):
        # independent oracle: exact integer binomial
        exact = math.log(math.comb(100, 50))
        assert log_binomial(100, 50) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("n,r", [(1_000_000, 3), (1_000_000, 500_000), (10_000, 9_999)])
    def test_large_n(self, n, r):
        import mpmath
        exact = float(mpmath.log(mpmath.binomial(n, r)))
        assert abs(log_binomial(n, r) - exact) / abs(exact) <= 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_binomial(5, 6)
        with pytest.raises(ValueError):
            log_binomial(-1, 0)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 7, 31, 60])
    def test_binomial_weights_sum_to_one(self, n, p):
        total = sum(math.exp(log_binomial(n, r)) * p**r * (1 - p) ** (n - r)
                    for r in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestRegularizedLowerGamma:
    def test_exponential_cdf_special_case(self):
        for x in [0.1, 1.0, 2.5, 10.0]:
            assert regularized_lower_gamma(1.0, x) == pytest.approx(
                -math.expm1(-x), rel=1e-12)

    def test_zero(self):
        assert regularized_lower_gamma(3.0, 0.0) == 0.0

    def test_monte_carlo_cdf_oracle(self):
        # Pr[G <= 2.5], G ~ Gamma(shape 3, scale 1), via 1e6 draws
        rng = np.random.default_rng(20240817)
        n = 10**6
        draws = rng.gamma(3.0, 1.0, size=n)
        p_hat = float(np.mean(draws <= 2.5))
        se = math.sqrt(p_hat * (1 - p_hat) / n)
        assert abs(regularized_lower_gamma(3.0, 2.5) - p_hat) <= 3 * se

    @pytest.mark.parametrize("k", [0.3, 1.0, 2.7, 15.0, 420.0])
    def test_against_scipy(self, k):
        for x in np.geomspace(1e-3, 5 * k, 40):
            assert regularized_lower_gamma(k, float(x)) == pytest.approx(
                float(scipy.special.gammainc(k, x)), abs=1e-12)

    @given(st.floats(min_value=0.05, max_value=200),
           st.floats(min_value=0, max_value=500),
           st.floats(min_value=0, max_value=500))
    def test_monotone_and_bounded(self, k, x1, x2):
        lo, hi = sorted([x1, x2])
        p_lo = regularized_lower_gamma(k, lo)
        p_hi = regularized_lower_gamma(k, hi)
        assert 0.0 <= p_lo <= p_hi <= 1.0

    @pytest.mark.parametrize("k", np.geomspace(1.001, 1e6, 13).tolist())
    def test_documented_bound_at_optimizer_points(self, k):
        # the c1 roots at three tolerances, and both sides of the switch from
        # the series to the continued fraction at x = k + 1
        xs = [float(scipy.special.gammaincinv(k, tol)) for tol in (1e-3, 1e-6, 1e-9)]
        xs += [math.nextafter(k + 1.0, 0.0), k + 1.0]
        for x in xs:
            assert regularized_lower_gamma(k, x) == pytest.approx(
                float(scipy.special.gammainc(k, x)), abs=3e-15 * max(k, 1.0))

    def test_nondecreasing_near_c1_root_at_large_k(self):
        # the c1 root at k = 615,120, tol = 1e-9; k ln x there is 8e6, whose
        # rounding once moved log P in steps of 1e-9
        k = 615_120.0
        root = float(scipy.special.gammaincinv(k, 1e-9))
        xs = np.linspace(root * (1.0 - 2e-13), root * (1.0 + 2e-13), 201)
        ps = [regularized_lower_gamma(k, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(ps, ps[1:]))
        assert ps == pytest.approx([1e-9] * len(ps), rel=1e-9)

    def test_iteration_cap_raises(self):
        # near x = k the series needs about 8 sqrt(k) terms, 25,000 at k = 1e7
        k = 1e7
        with pytest.raises(ArithmeticError, match="did not converge"):
            regularized_lower_gamma(k, k - 3.0 * math.sqrt(k))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_lower_gamma(2.0, -0.1)

    @pytest.mark.parametrize("k", [2.5, 5000.0])
    def test_nan_x_raises(self, k):
        with pytest.raises(ValueError, match="x >= 0"):
            regularized_lower_gamma(k, math.nan)

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
    def test_non_finite_k_raises(self, k):
        with pytest.raises(ValueError, match="finite k"):
            regularized_lower_gamma(k, 1.0)

    @pytest.mark.parametrize("k", [0.3, 2.5, 5000.0, 1e7])
    def test_infinite_x_is_one(self, k):
        assert regularized_lower_gamma(k, math.inf) == 1.0


def scalar_series(k: float, x: float) -> float:
    """The incomplete gamma series summed term by term, the loop the
    library's accumulates replace: the oracle for their bits."""
    term = 1.0 / k
    total = term
    denom = k
    for _ in range(10_000):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-17:
            return total
    raise ArithmeticError("series did not converge in 10000 terms")


def series_length(k: float, x: float) -> int:
    """The number of terms :func:`scalar_series` adds before it stops."""
    term = total = 1.0 / k
    denom, n = k, 0
    while True:
        denom += 1.0
        term *= x / denom
        total += term
        n += 1
        if abs(term) < abs(total) * 1e-17:
            return n


class TestSeriesOracle:
    @staticmethod
    def corpus(n: int) -> list[tuple[float, float]]:
        """Seeded (k, x) in the series branch 0 < x < k + 1: log-uniform k
        up to 1.4e6, and x uniform below k + 1, log-uniform far below k, or
        within a few sqrt(k) of k (the c1 roots and the longest series)."""
        rng = np.random.default_rng(20261018)
        ks = np.exp(rng.uniform(math.log(1e-3), math.log(1.4e6), n))
        kind = rng.integers(0, 3, n)
        xs = np.where(kind == 0, rng.uniform(0.0, 1.0, n) * (ks + 1.0),
                      np.where(kind == 1, ks * np.exp(rng.uniform(-40.0, 0.0, n)),
                               ks - rng.uniform(-1.0, 10.0, n) * np.sqrt(ks)))
        return [(k, x) for k, x in zip(ks.tolist(), xs.tolist()) if 0.0 < x < k + 1.0]

    def test_bitwise_equal_to_scalar_loop(self, monkeypatch):
        from plrvo import numerics
        cases = self.corpus(12_000) + [(1.4e6, 1.4e6), (1.4e6, 1.4e6 + 0.5)]
        for k, x in cases:
            want = scalar_series(k, x)
            assert numerics._lower_gamma_series(k, x) == want, (k, x)
        assert len(cases) >= 10_000
        # and P itself, by swapping the oracle in
        sample = [c for c in cases[:300] if c[0] < 1.3e6]
        got = [regularized_lower_gamma(k, x) for k, x in sample]
        monkeypatch.setattr(numerics, "_lower_gamma_series", scalar_series)
        assert [regularized_lower_gamma(k, x) for k, x in sample] == got

    def test_bitwise_equal_across_the_scalar_head(self):
        # the first 64 terms are summed by the scalar loop, the rest by
        # accumulates: series ending on either side of that switch
        from plrvo import numerics
        lengths = set()
        for k in (0.5, 3.0, 50.0, 400.0):
            for x in np.linspace(0.0, k + 1.0, 1000, endpoint=False)[1:].tolist():
                assert numerics._lower_gamma_series(k, x) == scalar_series(k, x), (k, x)
                lengths.add(series_length(k, x))
        assert {62, 63, 64, 65, 66} <= lengths

    @pytest.mark.parametrize("k", [2e6, 3e6, 1e7])
    def test_same_arithmetic_error_above_cap(self, k):
        # at x = k the series needs about 8 sqrt(k) terms, past the
        # 10,000-term cap once k is above about 1.5e6
        for x in (k, k + 0.5, math.nextafter(k + 1.0, 0.0)):
            with pytest.raises(ArithmeticError):
                scalar_series(k, x)
            with pytest.raises(ArithmeticError, match="series did not converge"):
                regularized_lower_gamma(k, x)


class TestIntegrateDecaying:
    def test_exponential(self):
        assert integrate_decaying(lambda z: np.exp(-z), 0.0) == pytest.approx(1.0, rel=1e-8)

    def test_inverse_square(self):
        assert integrate_decaying(lambda z: (1.0 + z) ** -2, 0.0) == pytest.approx(1.0, rel=1e-8)

    def test_slow_tail_closed_form(self):
        # antiderivative of (1 + 0.01 z)^-10 gives 100/9
        got = integrate_decaying(lambda z: (1.0 + 0.01 * z) ** -10, 0.0)
        assert got == pytest.approx(100.0 / 9.0, rel=1e-8)

    def test_nonzero_lower_limit(self):
        got = integrate_decaying(lambda z: np.exp(-z), 2.0)
        assert got == pytest.approx(math.exp(-2.0), rel=1e-8)

    def test_divergent_raises(self):
        with pytest.raises(QuadratureError):
            integrate_decaying(lambda z: (1.0 + z) ** -1, 0.0, max_panels=200)
