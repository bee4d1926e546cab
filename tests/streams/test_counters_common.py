"""Behavioural contract tests shared by every registered stream counter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StreamLengthError
from repro.streams.registry import available_counters, make_counter

ALL_COUNTERS = list(available_counters())


@pytest.mark.parametrize("name", ALL_COUNTERS)
class TestCounterContract:
    def test_noiseless_mode_exact(self, name):
        counter = make_counter(name, horizon=12, rho=math.inf, seed=0)
        stream = [1, 0, 2, 1, 1, 0, 3, 1, 0, 2, 1, 1]
        assert np.allclose(counter.run(stream), np.cumsum(stream))

    def test_outputs_have_horizon_length(self, name):
        counter = make_counter(name, horizon=9, rho=1.0, seed=1)
        assert counter.run([1] * 9).shape == (9,)

    def test_horizon_enforced(self, name):
        counter = make_counter(name, horizon=2, rho=1.0, seed=2)
        counter.run([1, 1])
        with pytest.raises(StreamLengthError):
            counter.feed(0)

    def test_error_stddev_positive_under_noise(self, name):
        counter = make_counter(name, horizon=12, rho=0.5, seed=3)
        assert counter.error_stddev(12) > 0

    def test_error_stddev_zero_when_noiseless(self, name):
        counter = make_counter(name, horizon=12, rho=math.inf, seed=3)
        assert counter.error_stddev(12) == 0.0

    def test_error_scale_shrinks_with_budget(self, name):
        low = make_counter(name, horizon=12, rho=0.01, seed=4)
        high = make_counter(name, horizon=12, rho=1.0, seed=4)
        assert high.error_stddev(12) < low.error_stddev(12)

    def test_empirical_error_within_predicted_scale(self, name):
        stream = [2] * 12
        errors = []
        for seed in range(150):
            counter = make_counter(
                name, horizon=12, rho=0.5, seed=seed
            )
            errors.append(counter.run(stream)[-1] - 24)
        predicted = make_counter(name, horizon=12, rho=0.5).error_stddev(12)
        # Empirical stddev should be within 35% of the analytic prediction.
        assert abs(np.std(errors) / predicted - 1.0) < 0.35

    def test_unbiasedness(self, name):
        stream = [1] * 8
        finals = []
        for seed in range(200):
            counter = make_counter(
                name, horizon=8, rho=0.5, seed=seed
            )
            finals.append(counter.run(stream)[-1])
        standard_error = np.std(finals) / math.sqrt(len(finals))
        assert abs(np.mean(finals) - 8) < 5 * standard_error + 1e-9

    def test_repr_contains_name(self, name):
        counter = make_counter(name, horizon=4, rho=1.0)
        assert type(counter).__name__ in repr(counter)

    @given(stream=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=16))
    @settings(max_examples=15, deadline=None)
    def test_noiseless_exact_on_arbitrary_streams(self, name, stream):
        counter = make_counter(name, horizon=len(stream), rho=math.inf, seed=0)
        assert np.allclose(counter.run(stream), np.cumsum(stream))
