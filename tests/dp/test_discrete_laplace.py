"""Tests for the discrete Laplace sampler."""

from fractions import Fraction

import numpy as np
import pytest

from repro.dp.discrete_laplace import DiscreteLaplaceSampler, sample_discrete_laplace
from repro.rng import ExactRandom, as_generator


class TestSampleDiscreteLaplace:
    def test_rejects_nonpositive_scale(self):
        random = ExactRandom(as_generator(0))
        with pytest.raises(ValueError):
            sample_discrete_laplace(Fraction(0), random)
        with pytest.raises(ValueError):
            sample_discrete_laplace(Fraction(-1), random)

    def test_returns_integers(self):
        random = ExactRandom(as_generator(1))
        for _ in range(20):
            assert isinstance(sample_discrete_laplace(Fraction(3, 2), random), int)

    def test_roughly_symmetric(self):
        random = ExactRandom(as_generator(2))
        draws = [sample_discrete_laplace(Fraction(4), random) for _ in range(3000)]
        assert abs(np.mean(draws)) < 0.4

    def test_rational_scale_supported(self):
        random = ExactRandom(as_generator(3))
        draws = [sample_discrete_laplace(Fraction(7, 3), random) for _ in range(500)]
        assert all(isinstance(d, int) for d in draws)


class TestDiscreteLaplaceSampler:
    """The exact draws, and the float rep-axis block (``vectorized`` cases)."""

    def test_invalid_method(self):
        # No setting chooses the noise: every release draw is exact.
        with pytest.raises(TypeError):
            DiscreteLaplaceSampler(2, method="vectorized")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            DiscreteLaplaceSampler(0)

    def test_sample_array_shape(self):
        sampler = DiscreteLaplaceSampler(3, seed=0)
        assert sampler.sample_array((4, 5)).shape == (4, 5)
        assert sampler.sample_array_2d([3] * 5, 4).shape == (4, 5)

    def test_exact_array_shape(self):
        sampler = DiscreteLaplaceSampler(3, seed=0)
        assert sampler.sample_array(7).shape == (7,)

    def test_variance_property_positive(self):
        sampler = DiscreteLaplaceSampler(5, seed=0)
        assert sampler.variance > 0

    def test_exact_and_vectorized_agree_in_distribution(self):
        exact = DiscreteLaplaceSampler(3, seed=1).sample_array(2500)
        vec = DiscreteLaplaceSampler(3, seed=2).sample_array_2d([3], 20000)
        # Means near zero and variances within sampling tolerance of each other.
        assert abs(exact.mean()) < 0.5
        assert abs(vec.mean()) < 0.2
        assert abs(exact.var() / vec.var() - 1.0) < 0.30

    def test_vectorized_variance_matches_theory(self):
        sampler = DiscreteLaplaceSampler(4, seed=3)
        draws = sampler.sample_array_2d([4], 50000)
        assert abs(draws.var() / sampler.variance - 1.0) < 0.08

    def test_sample_returns_int(self):
        assert isinstance(DiscreteLaplaceSampler(2, seed=0).sample(), int)

    def test_reproducible_with_seed(self):
        a = DiscreteLaplaceSampler(2, seed=11).sample_array(20)
        b = DiscreteLaplaceSampler(2, seed=11).sample_array(20)
        assert (a == b).all()
