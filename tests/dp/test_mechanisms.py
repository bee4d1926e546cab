"""Tests for the discrete Gaussian histogram mechanism."""

import numpy as np
import pytest

from repro.dp.mechanisms import GaussianHistogramMechanism, noisy_count
from repro.exceptions import ConfigurationError


class TestNoisyCount:
    def test_zero_noise_returns_count(self):
        assert noisy_count(42, 0, seed=0) == 42

    def test_returns_int(self):
        assert isinstance(noisy_count(10, 25, seed=1), int)

    def test_noise_actually_added(self):
        draws = {noisy_count(0, 1000, seed=s) for s in range(10)}
        assert len(draws) > 1


class TestGaussianHistogramMechanism:
    def test_rejects_bad_bins(self):
        with pytest.raises(ConfigurationError):
            GaussianHistogramMechanism(0, 1.0)

    def test_release_shape_validation(self):
        mechanism = GaussianHistogramMechanism(4, 10, seed=0)
        with pytest.raises(ConfigurationError):
            mechanism.release(np.zeros(5, dtype=np.int64))

    def test_release_dtype_validation(self):
        mechanism = GaussianHistogramMechanism(4, 10, seed=0)
        with pytest.raises(ConfigurationError):
            mechanism.release(np.zeros(4, dtype=np.float64))

    def test_zero_variance_identity(self):
        mechanism = GaussianHistogramMechanism(8, 0, seed=0)
        counts = np.arange(8)
        assert (mechanism.release(counts) == counts).all()

    def test_rho_per_release_matches_paper(self):
        # sigma^2 = (T-k+1)/(2 rho): per release rho/(T-k+1).
        horizon_steps, rho = 10, 0.005
        sigma_sq = horizon_steps / (2 * rho)
        mechanism = GaussianHistogramMechanism(8, sigma_sq, seed=0)
        assert mechanism.rho_per_release == pytest.approx(rho / horizon_steps)

    def test_rho_per_release_infinite_when_noiseless(self):
        mechanism = GaussianHistogramMechanism(4, 0, seed=0)
        assert mechanism.rho_per_release == float("inf")

    def test_sensitivity_scales_cost(self):
        base = GaussianHistogramMechanism(4, 100, sensitivity=1.0, seed=0)
        subst = GaussianHistogramMechanism(4, 100, sensitivity=2**0.5, seed=0)
        assert subst.rho_per_release == pytest.approx(2 * base.rho_per_release)

    def test_noise_is_integer_valued(self):
        mechanism = GaussianHistogramMechanism(16, 50, seed=1)
        released = mechanism.release(np.zeros(16, dtype=np.int64))
        assert np.issubdtype(released.dtype, np.integer)

    def test_noise_roughly_centered(self):
        mechanism = GaussianHistogramMechanism(512, 100, seed=2)
        released = mechanism.release(np.zeros(512, dtype=np.int64))
        assert abs(released.mean()) < 3.0

    def test_negative_outputs_possible(self):
        mechanism = GaussianHistogramMechanism(256, 10000, seed=3)
        released = mechanism.release(np.zeros(256, dtype=np.int64))
        assert (released < 0).any()
