"""Tests for the Honaker-refined tree counter."""

import math

import numpy as np
import pytest

from repro.streams.binary_tree import BinaryTreeCounter
from repro.streams.honaker import HonakerCounter


class TestHonakerCounter:
    def test_noiseless_exact(self):
        counter = HonakerCounter(10, math.inf, seed=0)
        stream = [1, 2, 0, 0, 3, 1, 1, 0, 2, 1]
        assert np.allclose(counter.run(stream), np.cumsum(stream))

    def test_node_variance_strictly_improves_with_level(self):
        counter = HonakerCounter(16, 0.5)
        sigma_sq = float(counter.sigma_sq)
        assert counter.node_variance(0) == pytest.approx(sigma_sq)
        for level in range(1, 5):
            assert counter.node_variance(level) < sigma_sq
            assert counter.node_variance(level) < counter.node_variance(level - 1) * 1.01

    def test_node_variance_zero_when_noiseless(self):
        counter = HonakerCounter(16, math.inf)
        assert counter.node_variance(3) == 0.0

    def test_predicted_error_beats_plain_tree(self):
        honaker = HonakerCounter(16, 0.5)
        tree = BinaryTreeCounter(16, 0.5)
        # Same per-node noise scale; refinement shrinks every node estimate.
        for t in (3, 7, 11, 15):
            assert honaker.error_stddev(t) < tree.error_stddev(t)

    def test_empirical_error_beats_plain_tree(self):
        stream = [1] * 15  # popcount(15)=4: worst case for the plain tree
        honaker_errors, tree_errors = [], []
        for seed in range(300):
            honaker = HonakerCounter(15, 0.5, seed=seed)
            tree = BinaryTreeCounter(15, 0.5, seed=seed)
            honaker_errors.append(honaker.run(stream)[-1] - 15)
            tree_errors.append(tree.run(stream)[-1] - 15)
        assert np.std(honaker_errors) < np.std(tree_errors)

    def test_pending_nodes_tile_prefix(self):
        # Internal invariant: at every t, pending nodes' true sums add to S_t.
        counter = HonakerCounter(12, 0.5, seed=1)
        stream = [2, 0, 1, 3, 1, 1, 0, 2, 1, 0, 0, 4]
        for t, z in enumerate(stream, start=1):
            counter.feed(z)
            tiled = sum(
                node.true_sum for node in counter._pending if node is not None
            )
            assert tiled == sum(stream[:t])

    def test_empirical_std_matches_prediction(self):
        stream = [1] * 12
        errors = []
        for seed in range(300):
            counter = HonakerCounter(12, 0.5, seed=seed)
            errors.append(counter.run(stream)[-1] - 12)
        predicted = HonakerCounter(12, 0.5).error_stddev(12)
        assert abs(np.std(errors) / predicted - 1.0) < 0.25
