"""Tests for the pure-DP Laplace tree counter."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.streams.binary_tree import BinaryTreeCounter
from repro.streams.laplace_tree import LaplaceTreeCounter


class TestLaplaceTreeCounter:
    def test_noiseless_exact(self):
        counter = LaplaceTreeCounter(10, math.inf, seed=0)
        stream = [1, 0, 2, 1, 0, 3, 1, 0, 0, 2]
        assert np.allclose(counter.run(stream), np.cumsum(stream))

    def test_epsilon_from_rho_conversion(self):
        counter = LaplaceTreeCounter(16, 0.5)
        assert counter.epsilon == pytest.approx(math.sqrt(1.0))

    def test_from_epsilon_constructor(self):
        counter = LaplaceTreeCounter.from_epsilon(16, 2.0)
        assert counter.epsilon == pytest.approx(2.0)
        assert counter.rho == pytest.approx(2.0)

    def test_from_epsilon_validation(self):
        with pytest.raises(ConfigurationError):
            LaplaceTreeCounter.from_epsilon(16, 0.0)

    def test_scale_is_levels_over_epsilon(self):
        counter = LaplaceTreeCounter.from_epsilon(16, 2.0)
        assert float(counter.scale) == pytest.approx(5 / 2.0)  # L=5 for T=16

    def test_estimates_are_integers(self):
        counter = LaplaceTreeCounter(8, 0.5, seed=1)
        outputs = counter.run([1, 0, 2, 1, 0, 0, 3, 1])
        assert all(float(v).is_integer() for v in outputs)

    def test_empirical_std_matches_prediction(self):
        stream = [1] * 12
        errors = []
        for seed in range(300):
            counter = LaplaceTreeCounter(
                12, 0.5, seed=seed
            )
            errors.append(counter.run(stream)[-1] - 12)
        predicted = LaplaceTreeCounter(12, 0.5).error_stddev(12)
        assert abs(np.std(errors) / predicted - 1.0) < 0.25

    def test_worse_than_gaussian_tree_at_same_zcdp(self):
        # At the same zCDP level, Laplace noise pays the pure-DP premium.
        laplace = LaplaceTreeCounter(12, 0.05)
        gaussian = BinaryTreeCounter(12, 0.05)
        assert laplace.error_stddev(11) > gaussian.error_stddev(11)

    def test_registered(self):
        from repro.streams.registry import available_counters, make_counter

        assert "laplace_tree" in available_counters()
        counter = make_counter("laplace_tree", horizon=8, rho=0.5, seed=2)
        assert isinstance(counter, LaplaceTreeCounter)

    def test_works_inside_algorithm_2(self, small_markov_panel):
        from repro.core.cumulative import CumulativeSynthesizer

        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon,
            rho=0.05,
            counter="laplace_tree",
            seed=3,
        )
        synth.run(small_markov_panel)
        assert synth.check_invariants()
