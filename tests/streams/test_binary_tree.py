"""Tests for the binary tree counter (paper Algorithm 3)."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, StreamLengthError
from repro.streams.binary_tree import BinaryTreeCounter, _lowest_set_bit


class TestLowestSetBit:
    def test_powers_of_two(self):
        assert _lowest_set_bit(1) == 0
        assert _lowest_set_bit(2) == 1
        assert _lowest_set_bit(8) == 3

    def test_odd_numbers(self):
        for t in (1, 3, 5, 7, 9, 11):
            assert _lowest_set_bit(t) == 0

    def test_mixed(self):
        assert _lowest_set_bit(12) == 2  # 1100b
        assert _lowest_set_bit(6) == 1  # 110b


class TestBinaryTreeCounter:
    def test_noiseless_exact_prefix_sums(self):
        counter = BinaryTreeCounter(16, math.inf, seed=0)
        stream = [3, 0, 1, 2, 5, 0, 0, 1, 4, 2, 2, 0, 1, 1, 0, 7]
        assert np.allclose(counter.run(stream), np.cumsum(stream))

    def test_levels_matches_bit_length(self):
        assert BinaryTreeCounter(12, 1.0).levels == 4
        assert BinaryTreeCounter(16, 1.0).levels == 5
        assert BinaryTreeCounter(1, 1.0).levels == 1

    def test_sigma_sq_calibration(self):
        counter = BinaryTreeCounter(16, 0.5)
        assert float(counter.sigma_sq) == pytest.approx(5 / (2 * 0.5))

    def test_horizon_enforced(self):
        counter = BinaryTreeCounter(3, 1.0, seed=0)
        counter.run([1, 1, 1])
        with pytest.raises(StreamLengthError):
            counter.feed(1)

    def test_negative_element_rejected(self):
        counter = BinaryTreeCounter(4, 1.0, seed=0)
        with pytest.raises(ConfigurationError):
            counter.feed(-1)

    def test_nodes_in_estimate_is_popcount(self):
        counter = BinaryTreeCounter(16, 1.0)
        assert counter.nodes_in_estimate(7) == 3
        assert counter.nodes_in_estimate(8) == 1
        assert counter.nodes_in_estimate(0) == 0

    def test_error_stddev_power_of_two_smaller(self):
        # At t=8 only one node contributes; at t=7 three do.
        counter = BinaryTreeCounter(16, 1.0)
        assert counter.error_stddev(8) < counter.error_stddev(7)

    def test_empirical_error_matches_prediction(self):
        stream = [1] * 12
        errors = []
        for seed in range(400):
            counter = BinaryTreeCounter(12, 1.0, seed=seed)
            errors.append(counter.run(stream)[-1] - 12)
        predicted = BinaryTreeCounter(12, 1.0).error_stddev(12)
        assert abs(np.std(errors) / predicted - 1.0) < 0.20

    def test_estimates_are_integers(self):
        counter = BinaryTreeCounter(8, 0.5, seed=1)
        outputs = counter.run([1, 0, 2, 1, 0, 0, 3, 1])
        assert all(float(v).is_integer() for v in outputs)

    def test_true_sum_tracked(self):
        counter = BinaryTreeCounter(4, 1.0, seed=0)
        counter.run([2, 3, 0, 1])
        assert counter.true_sum == 6

    def test_accuracy_statement(self):
        counter = BinaryTreeCounter(16, 0.5)
        accuracy = counter.accuracy(beta=0.05)
        assert accuracy.alpha > 0
        assert accuracy.beta == 0.05

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            BinaryTreeCounter(0, 1.0)
        with pytest.raises(ConfigurationError):
            BinaryTreeCounter(4, 0.0)
        with pytest.raises(TypeError):
            BinaryTreeCounter(4, 1.0, noise_method="vectorized")
