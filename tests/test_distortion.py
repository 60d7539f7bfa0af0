import math

import numpy as np
import pytest

from plrvo.distortion import (
    DistortionReport,
    gaussian_distortion,
    l1_l2_volume_log_ratio,
    plrv_distortion,
    snr,
)
from plrvo.params import GammaPlrvParams, GaussianParams
from quadrature import plrv_distortion_by_quadrature


class TestPlrvDistortion:
    @pytest.mark.parametrize("k,theta,expected", [
        (141.06, 8.32e-4, 8.58),
        (5242.4, 2.08e-5, 9.17),
    ])
    def test_reference_values(self, k, theta, expected):
        report = plrv_distortion(GammaPlrvParams(k=k, theta=theta))
        assert report.finite
        assert report.per_coordinate_l1 == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("k", [1.0, 0.5, 0.9999])
    def test_divergence_is_data(self, k):
        report = plrv_distortion(GammaPlrvParams(k=k, theta=0.1))
        assert not report.finite
        assert math.isinf(report.per_coordinate_l1)

    def test_independent_of_clip(self):
        # the gamma-seed noise scale never sees C; only accounting does
        assert plrv_distortion(GammaPlrvParams(k=5.0, theta=0.1)).per_coordinate_l1 \
            == pytest.approx(1.0 / (4.0 * 0.1), rel=1e-15)


class TestQuadratureRoute:
    def test_unit_case(self):
        assert plrv_distortion_by_quadrature(GammaPlrvParams(k=2.0, theta=1.0)) \
            == pytest.approx(1.0, rel=1e-6)

    def test_closed_form_case(self):
        assert plrv_distortion_by_quadrature(GammaPlrvParams(k=10.0, theta=0.01)) \
            == pytest.approx(100.0 / 9.0, rel=1e-6)

    def test_reference_value(self):
        assert plrv_distortion_by_quadrature(GammaPlrvParams(k=141.06, theta=8.32e-4)) \
            == pytest.approx(8.58, abs=0.01)

    def test_diverges_for_small_k(self):
        with pytest.raises(ValueError):
            plrv_distortion_by_quadrature(GammaPlrvParams(k=1.0, theta=0.1))

    def test_agrees_with_closed_form_broadly(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = float(np.exp(rng.uniform(np.log(1.1), np.log(1e4))))
            theta = float(np.exp(rng.uniform(np.log(1e-6), np.log(1.0))))
            p = GammaPlrvParams(k=k, theta=theta)
            closed = plrv_distortion(p).per_coordinate_l1
            assert plrv_distortion_by_quadrature(p) == pytest.approx(closed, rel=1e-6)

    def test_strictly_decreasing_in_k_and_theta(self):
        base = plrv_distortion(GammaPlrvParams(k=3.0, theta=0.05)).per_coordinate_l1
        assert plrv_distortion(GammaPlrvParams(k=4.0, theta=0.05)).per_coordinate_l1 < base
        assert plrv_distortion(GammaPlrvParams(k=3.0, theta=0.06)).per_coordinate_l1 < base


class TestGaussianDistortion:
    @pytest.mark.parametrize("sigma,clip,expected", [
        (0.9456, 5.0, 3.77),
        (1.8812, 15.0, 22.51),
    ])
    def test_reference_values(self, sigma, clip, expected):
        assert gaussian_distortion(GaussianParams(sigma=sigma), clip) \
            == pytest.approx(expected, abs=0.01)

    def test_zero_clip(self):
        assert gaussian_distortion(GaussianParams(sigma=1.0), 0.0) == 0.0


class TestSnr:
    def test_reference_ratio(self):
        p = GammaPlrvParams(k=141.06, theta=8.32e-4)
        assert snr(p, 10.0) == pytest.approx(10.0 / 8.58, abs=2e-3)

    def test_unit_case(self):
        assert snr(GammaPlrvParams(k=2.0, theta=1.0), 1.0) == 1.0

    def test_linear_in_clip(self):
        p = GammaPlrvParams(k=7.0, theta=0.02)
        assert snr(p, 2.0) == pytest.approx(2 * snr(p, 1.0), rel=1e-15)

    def test_consistent_with_distortion(self):
        p = GammaPlrvParams(k=33.3, theta=4.5e-3)
        assert snr(p, 2.5) == pytest.approx(
            2.5 / plrv_distortion(p).per_coordinate_l1, rel=1e-12)

    def test_k_le_one_rejected(self):
        with pytest.raises(ValueError):
            snr(GammaPlrvParams(k=1.0, theta=0.1), 1.0)


class TestVolumeRatio:
    def test_dimension_one_is_unity(self):
        assert abs(l1_l2_volume_log_ratio(1)) <= 1e-12

    def test_dimension_two(self):
        assert l1_l2_volume_log_ratio(2) == pytest.approx(math.log(2 / math.pi), rel=1e-12)

    def test_exact_formula_dimension_100(self):
        import mpmath
        with mpmath.workdps(50):
            exact = float(mpmath.log(
                (2 / mpmath.sqrt(mpmath.pi)) ** 100
                * mpmath.gamma(51) / mpmath.gamma(101)))
        assert l1_l2_volume_log_ratio(100) == pytest.approx(exact, rel=1e-12)

    def test_strictly_decreasing_and_fast(self):
        vals = [l1_l2_volume_log_ratio(n) for n in range(2, 200)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < -100  # exponential shrinkage


class TestReportSerialization:
    def test_json_and_csv(self):
        r = plrv_distortion(GammaPlrvParams(k=5.0, theta=0.1))
        assert r.to_json_dict() == {"mechanism": "plrvo",
                                    "per_coordinate_l1": r.per_coordinate_l1,
                                    "finite": True}
        assert DistortionReport.csv_header() == "mechanism,l1_per_coord,finite"
        assert r.to_csv_row().startswith("plrvo,2.5")
