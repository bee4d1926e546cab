"""Release-view robustness: defensive copies, kwargs plumbing, accessors."""

import math

import numpy as np
import pytest

from repro.core.cumulative import CumulativeSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.exceptions import NotFittedError
from repro.queries.cumulative import HammingAtLeast
from repro.streams.base import CounterAccuracy
from repro.streams.binary_tree import BinaryTreeCounter


class TestDefensiveCopies:
    def test_window_histogram_is_a_copy(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.1, seed=0,
            noise_method="vectorized",
        )
        release = synth.run(small_markov_panel)
        histogram = release.histogram(5)
        histogram[:] = -999
        assert (release.histogram(5) >= 0).all()

    def test_threshold_table_is_a_copy(self, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.1, seed=1,
            noise_method="vectorized",
        )
        release = synth.run(small_markov_panel)
        table = release.threshold_table()
        table[:] = -999
        assert release.threshold_table().min() >= 0

    def test_synthetic_panels_are_immutable(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.1, seed=2,
            noise_method="vectorized",
        )
        release = synth.run(small_markov_panel)
        with pytest.raises(ValueError):
            release.synthetic_data().matrix[0, 0] = 1


class TestCounterKwargsPlumbing:
    def test_block_size_reaches_counters(self, small_markov_panel):
        # counter_kwargs travel in the config, so counters restored from a
        # checkpoint (and those activating after it) keep them too.
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon,
            rho=0.1,
            counter="block",
            counter_kwargs={"block_size": 2},
            seed=3,
            noise_method="vectorized",
        )
        columns = list(small_markov_panel.columns())
        for column in columns[:4]:
            synth.observe(column)
        restored = CumulativeSynthesizer.from_config(synth.config_dict())
        restored.load_state(synth.state_dict())
        for column in columns[4:]:
            restored.observe(column)
        assert len(restored.bank.counters) == small_markov_panel.horizon
        assert all(c.block_size == 2 for c in restored.bank.counters)
        assert restored.check_invariants()

    def test_block_size_reaches_bank_counters(self, small_markov_panel):
        # counter_kwargs route through the fallback bank's wrapped counters.
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon,
            rho=0.1,
            counter="block",
            counter_kwargs={"block_size": 2},
            seed=3,
            noise_method="vectorized",
        )
        synth.run(small_markov_panel)
        assert synth.bank.counters
        assert all(c.block_size == 2 for c in synth.bank.counters)
        assert synth.check_invariants()


class TestAccessors:
    def test_release_metadata_before_any_data(self):
        synth = FixedWindowSynthesizer(horizon=6, window=2, rho=0.5, seed=4)
        with pytest.raises(NotFittedError):
            synth.release.n_original
        with pytest.raises(NotFittedError):
            synth.release.n_synthetic

    def test_cumulative_m_before_data(self):
        synth = CumulativeSynthesizer(horizon=6, rho=0.5, seed=5)
        with pytest.raises(NotFittedError):
            synth.release.m

    def test_released_times_ascending(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.1, seed=6,
            noise_method="vectorized",
        )
        release = synth.run(small_markov_panel)
        times = release.released_times()
        assert times == sorted(times)
        assert times[0] == 3 and times[-1] == small_markov_panel.horizon

    def test_answer_accepts_numpy_time(self, small_markov_panel):
        # Times coming out of numpy arrays must work as indices.
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.1, seed=7,
            noise_method="vectorized",
        )
        release = synth.run(small_markov_panel)
        t = np.int64(5)
        value = release.answer(HammingAtLeast(2), int(t))
        assert 0.0 <= value <= 1.0


class TestCounterAccuracy:
    def test_accuracy_dataclass(self):
        counter = BinaryTreeCounter(16, 0.5)
        accuracy = counter.accuracy(beta=0.1, t=7)
        assert isinstance(accuracy, CounterAccuracy)
        assert accuracy.alpha == pytest.approx(
            counter.error_stddev(7) * math.sqrt(2 * math.log(2 / 0.1))
        )

    def test_accuracy_beta_validation(self):
        counter = BinaryTreeCounter(16, 0.5)
        with pytest.raises(Exception):
            counter.accuracy(beta=0.0)

    def test_noiseless_accuracy_zero(self):
        counter = BinaryTreeCounter(16, math.inf)
        assert counter.accuracy(beta=0.05).alpha == 0.0
