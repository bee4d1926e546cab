"""Tests for the private density-estimation baseline."""

import math

import numpy as np
import pytest

from repro.baselines.density import DensityRelease, PrivateDensityBaseline
from repro.data.categorical import CategoricalDataset, employment_status_panel
from repro.data.generators import two_state_markov
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
)
from repro.queries.categorical import CategoryAtLeastM
from repro.queries.window import AtLeastMOnes


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": 0, "window": 1, "rho": 0.1},
            {"horizon": 4, "window": 0, "rho": 0.1},
            {"horizon": 4, "window": 5, "rho": 0.1},
            {"horizon": 4, "window": 2, "rho": 0.0},
            {"horizon": 4, "window": 2, "rho": -1.0},
            {"horizon": 4, "window": 2, "rho": 0.1, "alphabet": 1},
            {"horizon": 4, "window": 2, "rho": 0.1, "n_synthetic": 0},
        ],
    )
    def test_bad_constructor_args(self, kwargs):
        with pytest.raises(ConfigurationError):
            PrivateDensityBaseline(**kwargs)

    def test_column_validation(self):
        baseline = PrivateDensityBaseline(4, 2, 1.0, seed=0)
        with pytest.raises(DataValidationError, match="1-D"):
            baseline.observe(np.zeros((2, 2), dtype=int))
        with pytest.raises(DataValidationError, match="empty"):
            baseline.observe(np.array([], dtype=int))
        for bad in ([0.5, 0.5], [0, 2], [0.0, np.nan]):
            with pytest.raises(DataValidationError, match="0 or 1"):
                baseline.observe(np.array(bad))
        with pytest.raises(DataValidationError, match=r"\[0, 3\)"):
            PrivateDensityBaseline(4, 2, 1.0, alphabet=3, seed=0).observe(np.array([0, 3]))
        assert baseline.t == 0

    def test_integral_float_reports_release_what_integers_do(self):
        panel = two_state_markov(200, 4, 0.85, 0.1, seed=2)
        releases = []
        for dtype in (np.int64, np.float64):
            baseline = PrivateDensityBaseline(4, 2, 0.5, seed=7)
            for column in panel.matrix.T:
                release = baseline.observe(column.astype(dtype))
            releases.append(release)
        ints, floats = releases
        for t in range(2, 5):
            assert ints.density(t).tobytes() == floats.density(t).tobytes()
            assert (
                ints.synthetic_data(t).matrix.tobytes()
                == floats.synthetic_data(t).matrix.tobytes()
            )

    def test_population_size_locked_after_first_column(self):
        baseline = PrivateDensityBaseline(4, 2, 1.0, seed=0)
        baseline.observe(np.array([0, 1, 0]))
        with pytest.raises(DataValidationError, match="entries"):
            baseline.observe(np.array([0, 1]))

    def test_horizon_exhausted(self):
        baseline = PrivateDensityBaseline(2, 1, 1.0, seed=0)
        column = np.array([0, 1])
        baseline.observe(column)
        baseline.observe(column)
        with pytest.raises(DataValidationError, match="exhausted"):
            baseline.observe(column)

    def test_run_requires_matching_panel(self):
        panel = two_state_markov(50, 6, 0.8, 0.1, seed=0)
        with pytest.raises(DataValidationError, match="horizon"):
            PrivateDensityBaseline(4, 2, 1.0, seed=0).run(panel)
        with pytest.raises(DataValidationError, match="alphabet"):
            PrivateDensityBaseline(6, 2, 1.0, alphabet=3, seed=0).run(panel)

    def test_run_requires_fresh_baseline(self):
        panel = two_state_markov(50, 4, 0.8, 0.1, seed=1)
        baseline = PrivateDensityBaseline(4, 2, 1.0, seed=0)
        baseline.observe(panel.matrix[:, 0])
        with pytest.raises(ConfigurationError, match="fresh"):
            baseline.run(panel)


class TestReleaseSurfaces:
    @pytest.fixture
    def panel(self):
        return two_state_markov(400, 6, 0.85, 0.1, seed=2)

    def test_no_release_before_window_fills(self, panel):
        baseline = PrivateDensityBaseline(6, 3, 1.0, seed=0)
        release = baseline.observe(panel.matrix[:, 0])
        assert isinstance(release, DensityRelease)
        with pytest.raises(NotFittedError):
            release.density(1)
        with pytest.raises(NotFittedError):
            release.synthetic_data()

    def test_densities_normalized(self, panel):
        release = PrivateDensityBaseline(6, 3, 0.5, seed=3).run(panel)
        for t in range(3, 7):
            density = release.density(t)
            assert density.shape == (8,)
            assert density.min() >= 0.0
            assert density.sum() == pytest.approx(1.0)

    def test_synthetic_panels_fresh_each_round(self, panel):
        release = PrivateDensityBaseline(6, 3, 0.5, seed=4).run(panel)
        latest = release.synthetic_data()
        assert latest is release.synthetic_data(6)
        assert latest.n_individuals == panel.n_individuals
        assert latest.horizon == 3
        # Rounds are independent samples, not views of one panel.
        assert release.synthetic_data(5) is not latest

    def test_n_synthetic_override(self, panel):
        release = PrivateDensityBaseline(
            6, 3, 0.5, n_synthetic=77, seed=5
        ).run(panel)
        assert release.synthetic_data(6).n_individuals == 77

    def test_infinite_rho_is_oracle(self, panel):
        baseline = PrivateDensityBaseline(6, 3, math.inf, seed=6)
        release = baseline.run(panel)
        truth = np.bincount(panel.window_codes(6, 3), minlength=8)
        expected = truth / truth.sum()
        assert np.allclose(release.density(6), expected)
        assert baseline.zcdp_spent() == 0.0

    def test_budget_accounting(self, panel):
        baseline = PrivateDensityBaseline(6, 3, 0.5, seed=7)
        baseline.run(panel)
        # 4 release rounds at rho/4 each exhaust the budget exactly.
        assert baseline.zcdp_spent() == pytest.approx(0.5)

    def test_deterministic_under_seed(self, panel):
        first = PrivateDensityBaseline(6, 3, 0.5, seed=8).run(panel)
        second = PrivateDensityBaseline(6, 3, 0.5, seed=8).run(panel)
        assert np.array_equal(first.density(6), second.density(6))
        assert np.array_equal(
            first.synthetic_data(6).matrix, second.synthetic_data(6).matrix
        )


class TestAnswers:
    @pytest.fixture
    def panel(self):
        return two_state_markov(500, 6, 0.85, 0.1, seed=9)

    def test_answer_matches_marginal_dot_weights(self, panel):
        release = PrivateDensityBaseline(6, 3, math.inf, seed=0).run(panel)
        query = AtLeastMOnes(3, 1)
        answer = release.answer(query, 6)
        truth = query.evaluate(panel, 6)
        assert answer == pytest.approx(truth)

    def test_narrower_query_marginalized(self, panel):
        release = PrivateDensityBaseline(6, 3, math.inf, seed=0).run(panel)
        query = AtLeastMOnes(2, 1)
        assert release.answer(query, 6) == pytest.approx(query.evaluate(panel, 6))

    def test_too_wide_query_rejected(self, panel):
        release = PrivateDensityBaseline(6, 3, 1.0, seed=0).run(panel)
        with pytest.raises(ConfigurationError, match="width"):
            release.answer(AtLeastMOnes(4, 1), 6)

    def test_non_window_query_rejected(self, panel):
        release = PrivateDensityBaseline(6, 3, 1.0, seed=0).run(panel)
        with pytest.raises(ConfigurationError, match="window query"):
            release.answer(object(), 6)

    def test_alphabet_mismatch_rejected(self, panel):
        release = PrivateDensityBaseline(6, 2, 1.0, seed=0).run(panel)
        with pytest.raises(ConfigurationError, match="alphabet"):
            release.answer(CategoryAtLeastM(2, 3, 1, 1), 6)


class TestCategorical:
    def test_categorical_alphabet(self):
        panel = employment_status_panel(300, 6, alphabet=3, seed=10)
        release = PrivateDensityBaseline(6, 2, math.inf, alphabet=3, seed=0).run(
            panel
        )
        assert release.density(6).shape == (9,)
        sample = release.synthetic_data(6)
        assert isinstance(sample, CategoricalDataset)
        assert sample.alphabet == 3
        query = CategoryAtLeastM(2, 3, 1, 1)
        assert release.answer(query, 6) == pytest.approx(
            query.evaluate(panel, 6), abs=0.05
        )
