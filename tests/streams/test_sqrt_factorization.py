"""Tests for the square-root factorization counter."""

import math

import numpy as np
import pytest

from repro.streams.binary_tree import BinaryTreeCounter
from repro.streams.sqrt_factorization import (
    SqrtFactorizationCounter,
    sqrt_factorization_coefficients,
)


class TestCoefficients:
    def test_first_values(self):
        coeffs = sqrt_factorization_coefficients(5)
        # f_k = binom(2k, k) / 4^k: 1, 1/2, 3/8, 5/16, 35/128.
        assert coeffs[0] == pytest.approx(1.0)
        assert coeffs[1] == pytest.approx(0.5)
        assert coeffs[2] == pytest.approx(3 / 8)
        assert coeffs[3] == pytest.approx(5 / 16)
        assert coeffs[4] == pytest.approx(35 / 128)

    def test_monotone_decreasing(self):
        coeffs = sqrt_factorization_coefficients(50)
        assert (np.diff(coeffs) < 0).all()

    def test_squared_factorization_reconstructs_all_ones(self):
        # A^(1/2) @ A^(1/2) must equal the lower-triangular all-ones matrix.
        size = 16
        coeffs = sqrt_factorization_coefficients(size)
        half = np.zeros((size, size))
        for i in range(size):
            for j in range(i + 1):
                half[i, j] = coeffs[i - j]
        product = half @ half
        expected = np.tril(np.ones((size, size)))
        assert np.allclose(product, expected, atol=1e-10)

    def test_empty_length(self):
        assert sqrt_factorization_coefficients(0).shape == (0,)


class TestSqrtFactorizationCounter:
    def test_noiseless_exact(self):
        counter = SqrtFactorizationCounter(8, math.inf, seed=0)
        stream = [1, 0, 2, 0, 1, 3, 0, 1]
        assert np.allclose(counter.run(stream), np.cumsum(stream))

    def test_error_stddev_nearly_flat_over_time(self):
        counter = SqrtFactorizationCounter(64, 0.5)
        # Unlike the tree's popcount oscillation, the factorization error
        # grows smoothly: adjacent steps differ by a vanishing amount.
        sds = [counter.error_stddev(t) for t in range(1, 65)]
        assert all(b >= a for a, b in zip(sds, sds[1:]))  # monotone
        assert sds[63] / sds[32] < 1.2  # slow growth

    def test_beats_tree_constants_small_horizon(self):
        factorization = SqrtFactorizationCounter(12, 0.5)
        tree = BinaryTreeCounter(12, 0.5)
        # "Constant matters": at the worst-case popcount time the
        # factorization's predicted error is smaller.
        worst_tree = max(tree.error_stddev(t) for t in range(1, 13))
        worst_fact = max(factorization.error_stddev(t) for t in range(1, 13))
        assert worst_fact < worst_tree

    def test_empirical_std_matches_prediction(self):
        stream = [1] * 12
        errors = []
        for seed in range(300):
            counter = SqrtFactorizationCounter(
                12, 0.5, seed=seed
            )
            errors.append(counter.run(stream)[-1] - 12)
        predicted = SqrtFactorizationCounter(12, 0.5).error_stddev(12)
        assert abs(np.std(errors) / predicted - 1.0) < 0.25

    def test_noise_is_correlated_across_time(self):
        # Consecutive outputs reuse earlier noise draws: out_1 = xi_1 and
        # out_2 = xi_2 + f_1 xi_1, so corr(out_1, out_2) = 0.5/sqrt(1.25)
        # ~= 0.447.  An independent-noise counter would show ~0.
        firsts, seconds = [], []
        for seed in range(400):
            counter = SqrtFactorizationCounter(4, 0.5, seed=seed)
            outputs = counter.run([0, 0, 0, 0])
            firsts.append(outputs[0])
            seconds.append(outputs[1])
        correlation = np.corrcoef(firsts, seconds)[0, 1]
        assert abs(correlation - 0.447) < 0.15
