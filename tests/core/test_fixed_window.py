"""Tests for Algorithm 1 — the fixed-window synthesizer."""

import math

import numpy as np
import pytest

from repro.core.fixed_window import FixedWindowSynthesizer
from repro.data.generators import iid_bernoulli, two_state_markov
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
)
from repro.queries.window import AllOnes, AtLeastMOnes, PatternQuery


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            FixedWindowSynthesizer(horizon=0, window=1, rho=1.0)
        with pytest.raises(ConfigurationError):
            FixedWindowSynthesizer(horizon=5, window=6, rho=1.0)
        with pytest.raises(ConfigurationError):
            FixedWindowSynthesizer(horizon=5, window=2, rho=0.0)
        with pytest.raises(ConfigurationError):
            FixedWindowSynthesizer(horizon=5, window=2, rho=1.0, on_negative="skip")

    def test_noise_scale_matches_paper(self):
        synth = FixedWindowSynthesizer(horizon=12, window=3, rho=0.005)
        assert float(synth.sigma_sq) == pytest.approx((12 - 3 + 1) / (2 * 0.005))

    def test_auto_padding_positive(self):
        synth = FixedWindowSynthesizer(horizon=12, window=3, rho=0.005)
        assert synth.padding.n_pad > 0

    def test_explicit_padding_respected(self):
        synth = FixedWindowSynthesizer(horizon=12, window=3, rho=0.005, n_pad=17)
        assert synth.padding.n_pad == 17

    def test_noiseless_mode_defaults_to_zero_padding(self):
        synth = FixedWindowSynthesizer(horizon=12, window=3, rho=math.inf)
        assert synth.padding.n_pad == 0
        assert synth.accountant is None


class TestOracleMode:
    """rho = inf: the synthesizer must reproduce all statistics exactly."""

    def test_all_window_queries_exact(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=math.inf, seed=0
        )
        release = synth.run(small_markov_panel)
        for t in range(3, small_markov_panel.horizon + 1):
            for code in range(8):
                query = PatternQuery(3, code)
                assert release.answer(query, t) == pytest.approx(
                    query.evaluate(small_markov_panel, t)
                )

    def test_smaller_width_queries_exact(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=math.inf, seed=1
        )
        release = synth.run(small_markov_panel)
        for t in range(3, small_markov_panel.horizon + 1):
            query = AtLeastMOnes(2, 1)
            assert release.answer(query, t) == pytest.approx(
                query.evaluate(small_markov_panel, t)
            )

    def test_synthetic_population_size_equals_n(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=2, rho=math.inf, seed=2
        )
        release = synth.run(small_markov_panel)
        assert release.n_synthetic == small_markov_panel.n_individuals


class TestStreamingAPI:
    def test_observe_matches_run(self, small_markov_panel):
        batch = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=2, rho=0.5, seed=42
        ).run(small_markov_panel)
        streaming_synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=2, rho=0.5, seed=42
        )
        for column in small_markov_panel.columns():
            streaming_synth.observe(column)
        streaming = streaming_synth.release
        for t in (2, 5, 8):
            assert (batch.histogram(t) == streaming.histogram(t)).all()

    def test_no_release_before_window_fills(self):
        synth = FixedWindowSynthesizer(horizon=6, window=3, rho=0.5, seed=0)
        synth.observe(np.array([1, 0, 1]))
        synth.observe(np.array([0, 0, 1]))
        with pytest.raises(NotFittedError):
            synth.release.histogram(2)
        with pytest.raises(NotFittedError):
            synth.release.synthetic_data()

    def test_column_validation(self):
        synth = FixedWindowSynthesizer(horizon=4, window=2, rho=0.5, seed=0)
        with pytest.raises(DataValidationError):
            synth.observe(np.array([[1, 0]]))
        with pytest.raises(DataValidationError):
            synth.observe(np.array([1, 2]))
        synth.observe(np.array([1, 0]))
        with pytest.raises(DataValidationError):
            synth.observe(np.array([1, 0, 1]))  # n changed

    def test_horizon_exhaustion(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=2, rho=0.5, seed=0
        )
        synth.run(small_markov_panel)
        with pytest.raises(DataValidationError):
            synth.observe(small_markov_panel.column(1))

    def test_run_requires_fresh_synthesizer(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=2, rho=0.5, seed=0
        )
        synth.run(small_markov_panel)
        with pytest.raises(ConfigurationError):
            synth.run(small_markov_panel)

    def test_horizon_mismatch(self, small_markov_panel):
        synth = FixedWindowSynthesizer(horizon=20, window=2, rho=0.5, seed=0)
        with pytest.raises(DataValidationError):
            synth.run(small_markov_panel)


class TestConsistencyInvariants:
    def test_histograms_satisfy_overlap_constraint(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.2, seed=5,
        )
        release = synth.run(small_markov_panel)
        half = 4
        for t in range(4, small_markov_panel.horizon + 1):
            previous = release.histogram(t - 1)
            current = release.histogram(t)
            pair_sums = current[0::2] + current[1::2]
            overlap = previous[:half] + previous[half:]
            assert (pair_sums == overlap).all(), t

    def test_release_histogram_equals_record_census(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.2, seed=6,
        )
        release = synth.run(small_markov_panel)
        for t in range(3, small_markov_panel.horizon + 1):
            panel = release.synthetic_data(t)
            census = panel.suffix_histogram(t, 3)
            assert (census == release.histogram(t)).all(), t

    def test_population_size_constant_over_time(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.2, seed=7,
        )
        release = synth.run(small_markov_panel)
        sizes = {int(release.histogram(t).sum()) for t in release.released_times()}
        assert len(sizes) == 1

    def test_records_never_rewritten(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.2, seed=8,
        )
        snapshots = {}
        for t, column in enumerate(small_markov_panel.columns(), start=1):
            synth.observe(column)
            if t >= 3:
                snapshots[t] = synth.release.synthetic_data(t).matrix.copy()
        final = synth.release.synthetic_data().matrix
        for t, snapshot in snapshots.items():
            assert (final[:, :t] == snapshot).all(), t

    def test_window_one_supported(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=1, rho=0.5, seed=9,
        )
        release = synth.run(small_markov_panel)
        assert release.histogram(small_markov_panel.horizon).shape == (2,)

    def test_window_equals_horizon_single_step(self):
        panel = iid_bernoulli(80, 4, 0.5, seed=10)
        synth = FixedWindowSynthesizer(horizon=4, window=4, rho=0.5, seed=11)
        release = synth.run(panel)
        assert release.released_times() == [4]


class TestPrivacyAccounting:
    def test_budget_fully_spent(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.01, seed=12,
        )
        synth.run(small_markov_panel)
        assert synth.accountant.spent == pytest.approx(0.01)

    def test_one_charge_per_update_step(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.01, seed=13,
        )
        synth.run(small_markov_panel)
        assert len(synth.accountant.charges) == small_markov_panel.horizon - 3 + 1

    def test_sensitivity_sqrt2_doubles_noise(self):
        base = FixedWindowSynthesizer(horizon=12, window=3, rho=0.01)
        strict = FixedWindowSynthesizer(
            horizon=12, window=3, rho=0.01, sensitivity=math.sqrt(2)
        )
        # Same rho per step => variance must double for sensitivity sqrt(2).
        assert float(strict._mechanism.sigma_sq) == pytest.approx(
            float(base._mechanism.sigma_sq)
        )
        assert strict._mechanism.rho_per_release == pytest.approx(
            2 * base._mechanism.rho_per_release
        )


class TestAnswers:
    def test_biased_vs_debiased_relationship(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.05, seed=14,
        )
        release = synth.run(small_markov_panel)
        query = AtLeastMOnes(3, 1)
        t = 6
        biased = release.answer(query, t, debias=False)
        debiased = release.answer(query, t, debias=True)
        # Reconstruct the identity: biased * n* = debiased * n + pad answer.
        lhs = biased * release.n_synthetic
        rhs = debiased * release.n_original + release.padding.count_contribution(query)
        assert lhs == pytest.approx(rhs)

    def test_invalid_padding_convention(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.05, seed=15,
        )
        release = synth.run(small_markov_panel)
        with pytest.raises(ConfigurationError):
            release.answer(AllOnes(3), 6, padding_convention="bogus")

    def test_larger_width_query_answered_from_records(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=2, rho=0.05, seed=16,
        )
        release = synth.run(small_markov_panel)
        value = release.answer(AllOnes(3), 6, debias=False)
        panel = release.synthetic_data(6)
        assert value == pytest.approx(AllOnes(3).evaluate(panel, 6))

    def test_query_time_guard(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.05, seed=17,
        )
        release = synth.run(small_markov_panel)
        with pytest.raises(ConfigurationError):
            release.answer(AllOnes(3), 2)


class TestNegativeCountHandling:
    def test_raise_policy_fires_without_padding(self):
        # Tiny population + huge noise: negative counts guaranteed quickly.
        panel = iid_bernoulli(10, 12, 0.5, seed=18)
        with pytest.raises(Exception) as info:
            FixedWindowSynthesizer(
                horizon=12, window=3, rho=0.0001, n_pad=0, on_negative="raise",
                seed=19,
            ).run(panel)
        assert "n_pad" in str(info.value)

    def test_redistribute_policy_completes(self):
        panel = iid_bernoulli(10, 12, 0.5, seed=20)
        synth = FixedWindowSynthesizer(
            horizon=12, window=3, rho=0.0001, n_pad=0, seed=21,
        )
        release = synth.run(panel)
        assert release.negative_count_events > 0
        # Consistency still holds after redistribution.
        for t in range(4, 13):
            previous = release.histogram(t - 1)
            current = release.histogram(t)
            assert (current[0::2] + current[1::2] == previous[:4] + previous[4:]).all()

    def test_full_padding_prevents_events(self):
        panel = two_state_markov(400, 12, 0.8, 0.05, seed=22)
        synth = FixedWindowSynthesizer(
            horizon=12, window=3, rho=0.01, beta=0.01, seed=23,
        )
        release = synth.run(panel)
        assert release.negative_count_events == 0
