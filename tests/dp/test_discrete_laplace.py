"""Tests for the exact discrete Laplace sampler (the discrete Gaussian's proposal)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.dp.discrete_laplace import sample_discrete_laplace
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

    @pytest.mark.parametrize(
        "scale, seed", [(Fraction(3), 4), (Fraction(7, 3), 5)], ids=["3", "7_3"]
    )
    def test_variance_matches_theory(self, scale, seed):
        # Var Lap_Z(s) = 2p / (1 - p)^2 with p = exp(-1/s); the relative
        # standard error of a 4,000-draw sample variance is about 3.5%.
        random = ExactRandom(as_generator(seed))
        draws = np.array([sample_discrete_laplace(scale, random) for _ in range(4000)])
        p = math.exp(-1 / float(scale))
        assert abs(draws.var() / (2 * p / (1 - p) ** 2) - 1.0) < 0.12
