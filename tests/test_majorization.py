import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from plrvo.majorization import MajorizationSet


def weakly_majorizes(mset: MajorizationSet, g) -> bool:
    """Oracle: True iff the sorted |g| is weakly majorized from below by the
    set, i.e. every descending partial sum of |g| stays under C * sqrt(i)."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (mset.dim_n,):
        raise ValueError(f"expected a vector of length {mset.dim_n}, got shape {g.shape}")
    partial = np.cumsum(np.sort(np.abs(g))[::-1])
    bound = mset.clip_C * np.sqrt(np.arange(1, mset.dim_n + 1, dtype=np.float64))
    return bool(np.all(partial <= bound + 1e-12))


class TestCoordinate:
    def test_first_coordinate_is_clip(self):
        assert MajorizationSet(1.0, 10).coordinate(1) == pytest.approx(1.0, rel=1e-15)

    def test_second_coordinate(self):
        assert MajorizationSet(1.0, 10).coordinate(2) == pytest.approx(
            math.sqrt(2) - 1.0, rel=1e-12)

    def test_scaled_fourth_coordinate(self):
        assert MajorizationSet(2.0, 10).coordinate(4) == pytest.approx(
            2.0 * (2.0 - math.sqrt(3.0)), rel=1e-12)

    def test_strictly_decreasing(self):
        s = MajorizationSet(3.0, 1000)
        xs = s.coordinates(1, 1000)
        assert np.all(np.diff(xs) < 0)

    def test_index_out_of_range(self):
        s = MajorizationSet(1.0, 5)
        with pytest.raises(IndexError):
            s.coordinate(0)
        with pytest.raises(IndexError):
            s.coordinate(6)

    def test_cancellation_free_at_large_index(self):
        # naive sqrt(i) - sqrt(i-1) loses digits; the reciprocal form must not
        s = MajorizationSet(1.0, 10**12)
        i = 10**11
        import mpmath
        with mpmath.workdps(50):
            exact = float(mpmath.sqrt(i) - mpmath.sqrt(i - 1))
        assert s.coordinate(i) == pytest.approx(exact, rel=1e-13)


class TestPartialSums:
    def test_telescoping_identity_smallish(self):
        C = 2.5
        s = MajorizationSet(C, 10_000)
        sums = np.cumsum(s.coordinates(1, 10_000))
        expected = C * np.sqrt(np.arange(1, 10_001, dtype=float))
        assert np.max(np.abs(sums / expected - 1.0)) <= 1e-12

    def test_l2_norm_exceeds_clip_for_n_ge_2(self):
        # the set dominates the ball; it is not inside it
        for n in [2, 10, 1000]:
            s = MajorizationSet(1.0, n)
            assert np.linalg.norm(s.coordinates(1, n)) > 1.0


class TestWeaklyMajorizes:
    def test_single_spike_at_equality(self):
        n, C = 8, 2.0
        g = np.zeros(n)
        g[3] = C  # l2 norm exactly C, all mass on one coordinate
        assert weakly_majorizes(MajorizationSet(C, n), g)

    def test_zero_vector(self):
        assert weakly_majorizes(MajorizationSet(1.0, 5), np.zeros(5))

    def test_outside_ball_fails(self):
        n, C = 4, 1.0
        g = np.full(n, C)  # l1 partial sums exceed C sqrt(i)
        assert not weakly_majorizes(MajorizationSet(C, n), g)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            weakly_majorizes(MajorizationSet(1.0, 4), np.zeros(5))

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=0.0, max_value=1.0))
    def test_every_ball_vector_majorized(self, n, seed, radius_frac):
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal(n)
        norm = np.linalg.norm(direction)
        if norm == 0:
            g = np.zeros(n)
        else:
            C = 1.7
            g = direction / norm * (C * radius_frac)
        assert weakly_majorizes(MajorizationSet(1.7, n), g)
