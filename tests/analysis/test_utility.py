"""Tests for the pMSE utility scorer and replicated utility harness."""

import numpy as np
import pytest

from repro.analysis.utility import (
    PMSEProbe,
    PMSEScore,
    expected_null_pmse,
    panel_hamming_codes,
    panel_window_codes,
    pmse_panels,
    pmse_release,
    propensity_pmse,
    propensity_pmse_counts,
    score_synthesizer,
    utility_answer,
)
from repro.baselines.clamped import ClampingBaseline
from repro.baselines.nonprivate import NonPrivateSynthesizer
from repro.baselines.recompute import RecomputeBaseline
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.data.categorical import CategoricalDataset
from repro.data.dataset import LongitudinalDataset
from repro.data.generators import two_state_markov
from repro.exceptions import ConfigurationError, DataValidationError
from repro.queries.window import AtLeastMOnes


class TestPropensityPMSE:
    def test_identical_codes_score_zero(self):
        codes = np.array([0, 1, 2, 3, 0, 1])
        score = propensity_pmse(codes, codes.copy())
        assert score.pmse == 0.0
        assert score.ratio == 0.0

    def test_fresh_sample_ratio_near_one(self):
        # Independent draws from one distribution should average ratio ~1.
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(200):
            real = rng.integers(0, 8, size=400)
            synthetic = rng.integers(0, 8, size=400)
            ratios.append(propensity_pmse(real, synthetic, n_cells=8).ratio)
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.15)

    def test_shifted_distribution_scores_large(self):
        rng = np.random.default_rng(1)
        real = rng.integers(0, 4, size=500)
        synthetic = rng.integers(4, 8, size=500)
        assert propensity_pmse(real, synthetic).ratio > 10.0

    def test_single_cell_ratio_zero_by_convention(self):
        score = propensity_pmse(np.zeros(10, dtype=int), np.zeros(7, dtype=int))
        assert score.null_pmse == 0.0
        assert score.ratio == 0.0

    @pytest.mark.parametrize(
        "real, synthetic",
        [
            (np.array([]), np.array([0])),
            (np.array([0]), np.array([])),
            (np.zeros((2, 2), dtype=int), np.array([0])),
            (np.array([0.5]), np.array([0])),
            (np.array([-1]), np.array([0])),
        ],
    )
    def test_invalid_codes_rejected(self, real, synthetic):
        with pytest.raises(DataValidationError):
            propensity_pmse(real, synthetic)

    def test_n_cells_too_small_rejected(self):
        with pytest.raises(DataValidationError, match="n_cells"):
            propensity_pmse(np.array([0, 5]), np.array([1]), n_cells=4)

    def test_matches_counts_variant(self):
        rng = np.random.default_rng(2)
        real = rng.integers(0, 6, size=300)
        synthetic = rng.integers(0, 6, size=200)
        from_codes = propensity_pmse(real, synthetic, n_cells=6)
        from_counts = propensity_pmse_counts(
            np.bincount(real, minlength=6), np.bincount(synthetic, minlength=6)
        )
        assert from_codes == from_counts


class TestPropensityPMSECounts:
    def test_fractional_counts_accepted(self):
        score = propensity_pmse_counts([10.5, 4.25], [10.5, 4.25])
        assert score.pmse == 0.0
        assert score.n_real == pytest.approx(14.75)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataValidationError, match="cell space"):
            propensity_pmse_counts([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_negative_counts_rejected(self):
        with pytest.raises(DataValidationError, match="non-negative"):
            propensity_pmse_counts([1.0, -0.5], [1.0, 1.0])

    def test_zero_mass_rejected(self):
        with pytest.raises(DataValidationError, match="positive mass"):
            propensity_pmse_counts([0.0, 0.0], [1.0, 1.0])


class TestExpectedNullPMSE:
    def test_closed_form(self):
        # df * c(1-c) / N with c = 1/2, N = 200.
        assert expected_null_pmse(100, 100, 7) == pytest.approx(7 * 0.25 / 200)

    def test_zero_df(self):
        assert expected_null_pmse(10, 10, 0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            expected_null_pmse(0, 10, 3)
        with pytest.raises(ConfigurationError):
            expected_null_pmse(10, 10, -1)


class TestFeaturizers:
    @pytest.fixture
    def panel(self):
        return two_state_markov(100, 8, 0.8, 0.1, seed=0)

    def test_window_codes_match_dataset(self, panel):
        codes = panel_window_codes(panel, 5, 3)
        assert np.array_equal(codes, panel.window_codes(5, 3))

    def test_window_width_clipped_to_t(self, panel):
        codes = panel_window_codes(panel, 2, 5)
        assert np.array_equal(codes, panel.window_codes(2, 2))

    def test_window_validation(self, panel):
        with pytest.raises(ConfigurationError):
            panel_window_codes(panel, 5, 0)
        with pytest.raises(ConfigurationError):
            panel_window_codes(panel, 9, 3)

    def test_hamming_codes_match_dataset(self, panel):
        codes = panel_hamming_codes(panel, 6)
        assert np.array_equal(codes, panel.hamming_weights(6))

    def test_hamming_needs_binary_panel(self):
        cat = CategoricalDataset(np.zeros((4, 3), dtype=np.int64), 3)
        with pytest.raises(ConfigurationError, match="hamming_weights"):
            panel_hamming_codes(cat, 2)

    def test_hamming_time_validation(self, panel):
        with pytest.raises(ConfigurationError):
            panel_hamming_codes(panel, 0)


class TestPMSEPanels:
    def test_identical_panels_score_zero(self):
        panel = two_state_markov(200, 6, 0.8, 0.1, seed=1)
        assert pmse_panels(panel, panel, 6, 3).pmse == 0.0

    def test_alphabet_mismatch_rejected(self):
        binary = two_state_markov(50, 4, 0.8, 0.1, seed=2)
        cat = CategoricalDataset(np.zeros((50, 4), dtype=np.int64), 3)
        with pytest.raises(DataValidationError, match="alphabet"):
            pmse_panels(binary, cat, 4, 2)

    def test_width_clipped_to_synthetic_horizon(self):
        real = two_state_markov(100, 8, 0.8, 0.1, seed=3)
        short = LongitudinalDataset(real.matrix[:, :2])
        score = pmse_panels(real, short, 8, 4)
        # Effective width 2 -> at most 4 binary cells.
        assert score.n_cells <= 4


class TestPMSERelease:
    @pytest.fixture
    def panel(self):
        return two_state_markov(600, 8, 0.85, 0.08, seed=4)

    def test_oracle_scores_zero(self, panel):
        release = NonPrivateSynthesizer(8).run(panel)
        assert pmse_release(panel, release, 8, 3).ratio == 0.0

    def test_padded_release_beats_clamped(self, panel):
        # The §3 story in one assertion: padding + debias scores closer to
        # the truth than clamping, under the same budget and seed count.
        reps = 6
        window_scores = []
        clamped_scores = []
        for seed in range(reps):
            window = FixedWindowSynthesizer(8, 3, 0.05, seed=seed).run(panel)
            clamped = ClampingBaseline(8, 3, 0.05, seed=seed).run(panel)
            window_scores.append(pmse_release(panel, window, 8, 3).ratio)
            clamped_scores.append(pmse_release(panel, clamped, 8, 3).ratio)
        assert 0.0 < np.mean(window_scores) < np.mean(clamped_scores)

    def test_recompute_callable_padding(self, panel):
        release = RecomputeBaseline(8, 3, 0.2, seed=0).run(panel)
        score = pmse_release(panel, release, 8, 3)
        assert np.isfinite(score.ratio)
        # The padded target inflates the real mass by n_pad per cell.
        assert score.n_real > panel.n_individuals

    def test_hamming_features(self, panel):
        release = NonPrivateSynthesizer(8).run(panel)
        score = pmse_release(panel, release, 8, 3, features="hamming")
        assert score.ratio == 0.0
        assert score.n_cells <= 9

    def test_invalid_features_rejected(self, panel):
        release = NonPrivateSynthesizer(8).run(panel)
        with pytest.raises(ConfigurationError, match="features"):
            pmse_release(panel, release, 8, 3, features="logistic")

    def test_release_without_panel_surface_rejected(self, panel):
        with pytest.raises(ConfigurationError, match="no synthetic_data"):
            pmse_release(panel, object(), 8, 3)


class TestProbeAndHarness:
    @pytest.fixture
    def panel(self):
        return two_state_markov(300, 6, 0.85, 0.08, seed=5)

    def test_probe_truth_is_zero(self, panel):
        probe = PMSEProbe(panel, 3)
        assert probe.evaluate(panel, 4) == 0.0
        assert probe.min_time() == 1

    def test_probe_validation(self, panel):
        with pytest.raises(ConfigurationError):
            PMSEProbe(panel, 0)
        with pytest.raises(ConfigurationError):
            PMSEProbe(panel, 3, features="nope")

    def test_utility_answer_dispatch(self, panel):
        release = NonPrivateSynthesizer(6).run(panel)
        probe = PMSEProbe(panel, 3)
        query = AtLeastMOnes(3, 1)
        grid = utility_answer(release, [probe, query], [2, 6], True)
        assert grid[0].tolist() == [0.0, 0.0]
        assert np.isnan(grid[1, 0])  # the width-3 query is undefined at t=2
        assert grid[1, 1] == pytest.approx(query.evaluate(panel, 6))

    def test_score_synthesizer_report(self, panel):
        report = score_synthesizer(
            lambda g: FixedWindowSynthesizer(6, 3, 0.2, seed=g),
            panel,
            [AtLeastMOnes(3, 1)],
            [3, 4, 5, 6],
            n_reps=3,
            seed=11,
            width=3,
            label="window",
        )
        assert report.label == "window"
        assert report.probe_names == ("pmse_ratio",)
        assert report.pmse_ratios().shape == (3, 4)
        assert np.isfinite(report.mean_pmse_ratio)
        assert np.isfinite(report.final_pmse_ratio)
        assert report.query_rmse() > 0.0
        assert report.query_max_abs_error() >= report.query_rmse()

    def test_score_synthesizer_deterministic(self, panel):
        def run():
            return score_synthesizer(
                lambda g: FixedWindowSynthesizer(6, 3, 0.2, seed=g),
                panel,
                [AtLeastMOnes(3, 1)],
                [3, 6],
                n_reps=2,
                seed=42,
            )

        first, second = run(), run()
        assert np.array_equal(first.grid.answers, second.grid.answers)

    def test_unknown_row_rejected(self, panel):
        report = score_synthesizer(
            lambda g: NonPrivateSynthesizer(6),
            panel,
            [AtLeastMOnes(3, 1)],
            [6],
            n_reps=1,
            seed=0,
        )
        with pytest.raises(ConfigurationError, match="unknown row"):
            report.query_rmse("nope")

    def test_report_without_queries(self, panel):
        report = score_synthesizer(
            lambda g: NonPrivateSynthesizer(6),
            panel,
            [],
            [6],
            n_reps=1,
            seed=0,
        )
        assert report.mean_pmse_ratio == 0.0
        with pytest.raises(ConfigurationError, match="no query rows"):
            report.query_rmse()


class TestPMSEScoreDataclass:
    def test_ratio_property(self):
        score = PMSEScore(
            pmse=0.02, null_pmse=0.01, n_real=10, n_synthetic=10, n_cells=4
        )
        assert score.ratio == pytest.approx(2.0)

    def test_zero_null_ratio_zero(self):
        score = PMSEScore(
            pmse=0.0, null_pmse=0.0, n_real=10, n_synthetic=10, n_cells=1
        )
        assert score.ratio == 0.0
