"""Tests for the block counter and the naive counter."""

import math

import numpy as np
import pytest

from repro.streams.binary_tree import BinaryTreeCounter
from repro.streams.block import BlockCounter
from repro.streams.simple import SimpleCounter


class TestBlockCounter:
    def test_default_block_size_is_sqrt(self):
        assert BlockCounter(16, 1.0).block_size == 4
        assert BlockCounter(12, 1.0).block_size == 4  # ceil(sqrt(12))

    def test_custom_block_size(self):
        assert BlockCounter(12, 1.0, block_size=3).block_size == 3

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            BlockCounter(12, 1.0, block_size=0)

    def test_noiseless_exact(self):
        counter = BlockCounter(10, math.inf, seed=0)
        stream = [1, 2, 0, 1, 1, 0, 0, 3, 1, 1]
        assert np.allclose(counter.run(stream), np.cumsum(stream))

    def test_error_terms_reset_at_block_boundary(self):
        counter = BlockCounter(16, 1.0, block_size=4)
        # Just after a boundary the open block holds 1 singleton.
        assert counter.error_stddev(5) < counter.error_stddev(4)

    def test_sigma_sq_covers_two_measurements(self):
        counter = BlockCounter(16, 0.5)
        assert float(counter.sigma_sq) == pytest.approx(1 / 0.5)


class TestSimpleCounter:
    def test_noiseless_exact(self):
        counter = SimpleCounter(6, math.inf, seed=0)
        assert np.allclose(counter.run([1, 1, 0, 2, 0, 1]), [1, 2, 2, 4, 4, 5])

    def test_sigma_sq_scales_with_horizon(self):
        assert float(SimpleCounter(100, 0.5).sigma_sq) == pytest.approx(100.0)
        assert float(SimpleCounter(10, 0.5).sigma_sq) == pytest.approx(10.0)

    def test_error_flat_over_time(self):
        counter = SimpleCounter(12, 0.5)
        assert counter.error_stddev(1) == counter.error_stddev(12)

    def test_worse_than_tree_for_large_horizon(self):
        simple = SimpleCounter(1024, 0.5)
        tree = BinaryTreeCounter(1024, 0.5)
        assert tree.error_stddev(1023) < simple.error_stddev(1023)
