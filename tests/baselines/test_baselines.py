"""Tests for the baseline synthesizers."""

import math

import numpy as np
import pytest

from repro.baselines.clamped import ClampingBaseline
from repro.baselines.nonprivate import NonPrivateSynthesizer
from repro.baselines.recompute import (
    RecomputeBaseline,
    ever_pattern_fraction,
    ever_spell_fraction,
)
from repro.data.generators import iid_bernoulli, two_state_markov
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.queries.window import AtLeastMOnes, PatternQuery


class TestEverStatistics:
    def test_ever_pattern_known(self, tiny_panel):
        # Pattern (1,1) with k=2: row 0 at t=4, row 2 throughout.
        assert ever_pattern_fraction(tiny_panel, 2, 0b11, 5) == pytest.approx(0.5)

    def test_ever_pattern_before_window(self, tiny_panel):
        assert ever_pattern_fraction(tiny_panel, 3, 0, 2) == 0.0

    def test_ever_pattern_monotone_in_t(self, markov_panel):
        values = [
            ever_pattern_fraction(markov_panel, 3, 0b111, t) for t in range(3, 13)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_ever_spell_known(self, tiny_panel):
        # Row 2 is all ones: only row with a 4-run by t=5.
        assert ever_spell_fraction(tiny_panel, 4, 5) == pytest.approx(0.25)

    def test_ever_spell_short_horizon(self, tiny_panel):
        assert ever_spell_fraction(tiny_panel, 6, 5) == 0.0

    def test_ever_spell_zero_length(self, tiny_panel):
        assert ever_spell_fraction(tiny_panel, 0, 5) == 1.0

    def test_ever_spell_monotone_in_t(self, markov_panel):
        values = [ever_spell_fraction(markov_panel, 3, t) for t in range(1, 13)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestRecomputeBaseline:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RecomputeBaseline(horizon=0, window=1, rho=1.0)
        with pytest.raises(ConfigurationError):
            RecomputeBaseline(horizon=4, window=5, rho=1.0)
        with pytest.raises(ConfigurationError):
            RecomputeBaseline(horizon=4, window=2, rho=0.0)

    def test_budget_split_across_rounds(self, small_markov_panel):
        baseline = RecomputeBaseline(
            horizon=small_markov_panel.horizon, window=3, rho=0.06, seed=0,
        )
        baseline.run(small_markov_panel)
        rounds = small_markov_panel.horizon - 3 + 1
        assert baseline.rho_per_round == pytest.approx(0.06 / rounds)
        assert baseline.accountant.spent == pytest.approx(0.06)

    def test_fresh_panel_every_round(self, small_markov_panel):
        baseline = RecomputeBaseline(
            horizon=small_markov_panel.horizon, window=2, rho=0.5, seed=1,
        )
        release = baseline.run(small_markov_panel)
        # Panels at different rounds have (generically) different sizes:
        # they were generated by independent noisy runs.
        sizes = {release.panel(t).n_individuals for t in range(2, 9)}
        assert len(sizes) > 1

    def test_panel_covers_prefix(self, small_markov_panel):
        baseline = RecomputeBaseline(
            horizon=small_markov_panel.horizon, window=2, rho=0.5, seed=2,
        )
        release = baseline.run(small_markov_panel)
        for t in (2, 5, 8):
            assert release.panel(t).horizon == t

    def test_error_factor_shows_composition_penalty(self):
        baseline = RecomputeBaseline(horizon=12, window=3, rho=0.005)
        rounds = 10
        single_shot_sd = math.sqrt(rounds / (2 * 0.005))
        assert baseline.error_stddev_factor() == pytest.approx(
            single_shot_sd * math.sqrt(rounds)
        )

    def test_answers_available_per_round(self, small_markov_panel):
        baseline = RecomputeBaseline(
            horizon=small_markov_panel.horizon, window=3, rho=0.5, seed=3,
        )
        release = baseline.run(small_markov_panel)
        value = release.answer(AtLeastMOnes(3, 1), 5)
        assert 0.0 <= value <= 1.5  # noisy but in a plausible range

    def test_no_release_before_window(self):
        baseline = RecomputeBaseline(horizon=5, window=3, rho=0.5, seed=4)
        baseline.observe(np.array([1, 0]))
        with pytest.raises(NotFittedError):
            baseline.release.panel(1)

    def test_noiseless_recompute_is_exact(self, small_markov_panel):
        baseline = RecomputeBaseline(
            horizon=small_markov_panel.horizon, window=3, rho=math.inf, seed=5
        )
        release = baseline.run(small_markov_panel)
        query = AtLeastMOnes(3, 1)
        for t in (3, 6, 8):
            assert release.answer(query, t) == pytest.approx(
                query.evaluate(small_markov_panel, t)
            )

    def test_horizon_mismatch(self, small_markov_panel):
        baseline = RecomputeBaseline(horizon=20, window=3, rho=0.5)
        with pytest.raises(DataValidationError):
            baseline.run(small_markov_panel)

    def test_consistency_violations_occur_under_noise(self):
        panel = two_state_markov(800, 12, 0.85, 0.02, seed=6)
        total = 0
        for seed in range(6):
            baseline = RecomputeBaseline(
                horizon=12, window=3, rho=0.05, seed=seed
            )
            release = baseline.run(panel)
            total += release.spell_violations((5, 6))
        assert total > 0


class TestClampingBaseline:
    def test_no_padding(self):
        baseline = ClampingBaseline(horizon=12, window=3, rho=0.01, seed=0)
        assert baseline.padding.n_pad == 0

    def test_events_recorded(self):
        panel = iid_bernoulli(50, 12, 0.3, seed=1)
        baseline = ClampingBaseline(
            horizon=12, window=3, rho=0.001, seed=2
        )
        release = baseline.run(panel)
        assert release.negative_count_events > 0

    def test_consistency_survives_clamping(self):
        panel = iid_bernoulli(50, 12, 0.3, seed=3)
        baseline = ClampingBaseline(
            horizon=12, window=3, rho=0.001, seed=4
        )
        release = baseline.run(panel)
        for t in range(4, 13):
            previous = release.histogram(t - 1)
            current = release.histogram(t)
            assert (
                current[0::2] + current[1::2] == previous[:4] + previous[4:]
            ).all()


class TestNonPrivateSynthesizer:
    def test_exact_answers(self, small_markov_panel):
        oracle = NonPrivateSynthesizer(small_markov_panel.horizon)
        release = oracle.run(small_markov_panel)
        query = PatternQuery(2, 0b10)
        for t in (2, 5, 8):
            assert release.answer(query, t) == pytest.approx(
                query.evaluate(small_markov_panel, t)
            )

    def test_synthetic_data_is_raw_panel(self, small_markov_panel):
        oracle = NonPrivateSynthesizer(small_markov_panel.horizon)
        release = oracle.run(small_markov_panel)
        assert release.synthetic_data() == small_markov_panel
        assert release.synthetic_data(4).horizon == 4

    def test_not_fitted(self):
        oracle = NonPrivateSynthesizer(5)
        with pytest.raises(NotFittedError):
            oracle.release

    def test_horizon_mismatch(self, small_markov_panel):
        oracle = NonPrivateSynthesizer(99)
        with pytest.raises(DataValidationError):
            oracle.run(small_markov_panel)

    def test_invalid_horizon(self):
        with pytest.raises(ConfigurationError):
            NonPrivateSynthesizer(0)

    @pytest.mark.parametrize(
        "bad", [0.5, math.nan, 2, -1], ids=["half", "nan", "two", "minus-one"]
    )
    def test_bad_report_is_refused_before_the_round_counts(self, bad):
        oracle = NonPrivateSynthesizer(3)
        column = np.array([bad, 1, 0])
        with pytest.raises(DataValidationError, match="0 or 1"):
            oracle.observe(column)
        assert oracle.t == 0
        oracle.observe(np.array([1, 1, 0]))
        with pytest.raises(DataValidationError, match="0 or 1"):
            oracle.observe(column)
        assert oracle.t == 1
        release = oracle.observe(np.array([0, 1, 1]))
        assert oracle.t == 2
        assert (release.synthetic_data().matrix == [[1, 0], [1, 1], [0, 1]]).all()
