"""Tests for the categorical fixed-window synthesizer (Algorithm 1, q > 2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.categorical_window import CategoricalWindowSynthesizer
from repro.core.consistency import apply_group_correction
from repro.core.debias import lift_window_weights
from repro.data.categorical import CategoricalDataset, categorical_iid, categorical_markov
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    NegativeCountError,
)
from repro.queries.categorical import (
    CategoricalPatternQuery,
    CategoryAtLeastM,
)
from repro.rng import as_generator


@pytest.fixture(scope="module")
def employment_panel():
    """3-state employment-status panel (employed/unemployed/out of LF)."""
    transition = np.array(
        [[0.90, 0.05, 0.05], [0.30, 0.60, 0.10], [0.05, 0.10, 0.85]]
    )
    return categorical_markov(1200, 10, transition, seed=0)


class TestCategoricalCorrection:
    def test_preserves_group_sums(self, rng):
        q, k = 3, 2
        previous = np.arange(q**k, dtype=np.int64) + 5
        noisy = previous + rng.integers(-4, 5, size=q**k)
        corrected, events = apply_group_correction(previous, noisy, q, rng)
        group_totals = previous.reshape(q, q).sum(axis=0)
        child_sums = corrected.reshape(q, q).sum(axis=1)
        assert (child_sums == group_totals).all()
        assert (corrected >= 0).all()
        assert events == 0

    def test_binary_case_matches_pair_semantics(self, rng):
        # q=2 must satisfy the same constraint as the binary module.
        from repro.core.consistency import check_window_consistency

        previous = np.array([8, 6, 7, 9], dtype=np.int64)
        noisy = np.array([7, 8, 4, 12], dtype=np.int64)
        corrected, _ = apply_group_correction(previous, noisy, 2, rng)
        assert check_window_consistency(previous, corrected)

    def test_residue_distributed_fairly(self):
        q = 3
        previous = np.array([4, 4, 4, 0, 0, 0, 0, 0, 0], dtype=np.int64)  # M_0=4
        noisy = np.zeros(9, dtype=np.int64)
        noisy[0:3] = [1, 1, 0]  # group 0 children sum 2; D = 2 -> base 0, residue 2
        totals = np.zeros(3)
        trials = 300
        for seed in range(trials):
            corrected, _ = apply_group_correction(previous, noisy, q, as_generator(seed))
            totals += corrected[0:3]
        # Each child gets +1 with probability 2/3 on top of its noisy count.
        expected = np.array([1, 1, 0]) + 2 / 3
        assert np.abs(totals / trials - expected).max() < 0.15

    def test_negative_raise(self, rng):
        previous = np.array([1, 0, 0, 0], dtype=np.int64)
        noisy = np.array([-40, 40, 0, 0], dtype=np.int64)
        with pytest.raises(NegativeCountError):
            apply_group_correction(previous, noisy, 2, rng, on_negative="raise")

    def test_negative_redistribute_keeps_sums(self, rng):
        q = 3
        previous = np.zeros(9, dtype=np.int64)
        previous[0] = 6  # M_0 = 6 (pattern 00 has leading digit 0, code 0)
        noisy = np.zeros(9, dtype=np.int64)
        noisy[0:3] = [-50, 40, 4]
        corrected, events = apply_group_correction(previous, noisy, q, rng)
        assert events >= 1
        assert (corrected >= 0).all()
        group_totals = previous.reshape(q, q).sum(axis=0)
        assert (corrected.reshape(q, q).sum(axis=1) == group_totals).all()

    def test_invalid_policy(self, rng):
        with pytest.raises(ConfigurationError):
            apply_group_correction(
                np.zeros(4, dtype=np.int64),
                np.zeros(4, dtype=np.int64),
                2,
                rng,
                on_negative="clamp",
            )

    @given(seed=st.integers(0, 200), q=st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_property_group_sums_always_preserved(self, seed, q):
        generator = as_generator(seed)
        k = 2
        previous = generator.integers(0, 20, size=q**k).astype(np.int64)
        noisy = previous + generator.integers(-8, 9, size=q**k)
        corrected, _ = apply_group_correction(previous, noisy, q, generator)
        group_totals = previous.reshape(q, q ** (k - 1)).sum(axis=0)
        child_sums = corrected.reshape(q ** (k - 1), q).sum(axis=1)
        assert (child_sums == group_totals).all()
        assert (corrected >= 0).all()


class TestLiftCategoricalWeights:
    def test_lift_preserves_answers(self, employment_panel):
        query = CategoryAtLeastM(1, 3, category=1, m=1)
        lifted = lift_window_weights(query.weights, 1, 2, alphabet=3)
        t = 5
        hist2 = employment_panel.suffix_histogram(t, 2)
        direct = query.evaluate(employment_panel, t)
        via_lift = float(lifted @ hist2) / employment_panel.n_individuals
        assert direct == pytest.approx(via_lift)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            lift_window_weights(np.zeros(3), 1, 2, alphabet=4)  # wrong length
        with pytest.raises(ConfigurationError):
            lift_window_weights(np.zeros(9), 2, 1, alphabet=3)  # downward


class TestCategoricalSynthesizer:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CategoricalWindowSynthesizer(horizon=5, window=2, alphabet=1, rho=1.0)
        with pytest.raises(ConfigurationError):
            CategoricalWindowSynthesizer(horizon=5, window=9, alphabet=3, rho=1.0)
        with pytest.raises(ConfigurationError):
            CategoricalWindowSynthesizer(horizon=5, window=2, alphabet=3, rho=0.0)
        with pytest.raises(ConfigurationError):
            # 17 bits of window over alphabet 2 exceed the bin guard.
            CategoricalWindowSynthesizer(horizon=20, window=17, alphabet=2, rho=1.0)

    def test_oracle_mode_exact(self, employment_panel):
        synth = CategoricalWindowSynthesizer(
            horizon=employment_panel.horizon, window=2, alphabet=3, rho=math.inf,
            seed=1,
        )
        release = synth.run(employment_panel)
        for t in (2, 5, 10):
            for code in range(9):
                query = CategoricalPatternQuery(2, code, 3)
                assert release.answer(query, t) == pytest.approx(
                    query.evaluate(employment_panel, t)
                )

    def test_consistency_and_census(self, employment_panel):
        synth = CategoricalWindowSynthesizer(
            horizon=employment_panel.horizon, window=2, alphabet=3, rho=0.1,
            seed=2,
        )
        release = synth.run(employment_panel)
        q = 3
        for t in range(3, employment_panel.horizon + 1):
            previous = release.histogram(t - 1)
            current = release.histogram(t)
            group_totals = previous.reshape(q, q).sum(axis=0)
            child_sums = current.reshape(q, q).sum(axis=1)
            assert (child_sums == group_totals).all()
            census = release.synthetic_data(t).suffix_histogram(t, 2)
            assert (census == current).all()

    def test_population_constant(self, employment_panel):
        synth = CategoricalWindowSynthesizer(
            horizon=employment_panel.horizon, window=2, alphabet=3, rho=0.1,
            seed=3,
        )
        release = synth.run(employment_panel)
        sizes = {int(release.histogram(t).sum()) for t in release.released_times()}
        assert sizes == {release.n_synthetic}

    def test_debiasing_identity(self, employment_panel):
        synth = CategoricalWindowSynthesizer(
            horizon=employment_panel.horizon, window=2, alphabet=3, rho=0.1,
            seed=4,
        )
        release = synth.run(employment_panel)
        query = CategoryAtLeastM(2, 3, category=1, m=1)
        t = 6
        biased = release.answer(query, t, debias=False)
        debiased = release.answer(query, t, debias=True)
        padding_count = release.n_pad * query.weight_sum
        assert biased * release.n_synthetic == pytest.approx(
            debiased * release.n_original + padding_count
        )

    def test_debiased_accuracy(self, employment_panel):
        synth = CategoricalWindowSynthesizer(
            horizon=employment_panel.horizon, window=2, alphabet=3, rho=0.2,
            seed=5,
        )
        release = synth.run(employment_panel)
        query = CategoryAtLeastM(2, 3, category=0, m=2)
        for t in (2, 6, 10):
            assert abs(
                release.answer(query, t) - query.evaluate(employment_panel, t)
            ) < 0.08

    def test_privacy_accounting(self, employment_panel):
        synth = CategoricalWindowSynthesizer(
            horizon=employment_panel.horizon, window=2, alphabet=3, rho=0.05,
            seed=6,
        )
        synth.run(employment_panel)
        assert synth.accountant.spent == pytest.approx(0.05)

    def test_alphabet_mismatch_rejected(self, employment_panel):
        synth = CategoricalWindowSynthesizer(
            horizon=employment_panel.horizon, window=2, alphabet=4, rho=0.1, seed=7
        )
        with pytest.raises(DataValidationError):
            synth.run(employment_panel)

    def test_column_value_validation(self):
        synth = CategoricalWindowSynthesizer(
            horizon=4, window=2, alphabet=3, rho=0.5, seed=8
        )
        with pytest.raises(DataValidationError):
            synth.observe(np.array([0, 3]))

    def test_padding_panel_uniform(self):
        synth = CategoricalWindowSynthesizer(
            horizon=6, window=2, alphabet=3, rho=0.1, n_pad=2, seed=9
        )
        panel = synth.padding_panel()
        for t in range(2, 7):
            assert (panel.suffix_histogram(t, 2) == 2).all()

    def test_query_width_above_window_answered_from_records(self, employment_panel):
        # Parity with the binary release: wider queries fall back to the
        # synthetic records (no accuracy guarantee — the Figure 3 caveat).
        synth = CategoricalWindowSynthesizer(
            horizon=employment_panel.horizon, window=2, alphabet=3, rho=0.1,
            seed=10,
        )
        release = synth.run(employment_panel)
        query = CategoryAtLeastM(3, 3, category=0, m=1)
        biased = release.answer(query, 5, debias=False)
        direct = query.evaluate(release.synthetic_data(5), 5)
        assert biased == pytest.approx(direct)
        # A wide series is the row of per-round record-level answers.
        times = [t for t in release.released_times() if t >= query.k]
        series = release.answer_series(query, debias=False)
        assert series.tolist() == [release.answer(query, t, debias=False) for t in times]
        assert series == pytest.approx(
            [query.evaluate(release.synthetic_data(t), t) for t in times]
        )

    def test_answer_series_unreleased_round_raises_not_fitted(self, employment_panel):
        from repro.exceptions import NotFittedError

        synth = CategoricalWindowSynthesizer(
            horizon=employment_panel.horizon, window=3, alphabet=3, rho=0.1,
            seed=11,
        )
        release = synth.run(employment_panel)
        narrow = CategoryAtLeastM(2, 3, category=1, m=1)
        # t=2 satisfies the query's lower bound but precedes the first
        # released histogram (window=3) — same error as answer().
        with pytest.raises(NotFittedError):
            release.answer_series(narrow, times=[2])
        with pytest.raises(NotFittedError):
            release.answer(narrow, 2)

    def test_binary_alphabet_agrees_with_binary_synthesizer_oracle(self):
        # q=2 categorical synthesizer and the binary one agree exactly in
        # oracle mode on the same data.
        from repro.core.fixed_window import FixedWindowSynthesizer
        from repro.data.dataset import LongitudinalDataset

        matrix = np.random.default_rng(11).integers(0, 2, size=(300, 8))
        binary_panel = LongitudinalDataset(matrix)
        categorical_panel = CategoricalDataset(matrix, alphabet=2)

        binary = FixedWindowSynthesizer(
            horizon=8, window=3, rho=math.inf, seed=12
        ).run(binary_panel)
        categorical = CategoricalWindowSynthesizer(
            horizon=8, window=3, alphabet=2, rho=math.inf, seed=13
        ).run(categorical_panel)
        for t in range(3, 9):
            assert (binary.histogram(t) == categorical.histogram(t)).all()

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_property_invariants_random_panels(self, seed):
        panel = categorical_iid(100, 6, [0.3, 0.4, 0.3], seed=seed)
        synth = CategoricalWindowSynthesizer(
            horizon=6, window=2, alphabet=3, rho=0.2, seed=seed,
        )
        release = synth.run(panel)
        for t in range(3, 7):
            previous = release.histogram(t - 1)
            current = release.histogram(t)
            assert (current >= 0).all()
            assert current.sum() == previous.sum()
