"""Tests for the batched Algorithm-2 replication engine."""

import math

import numpy as np
import pytest

from repro.core.cumulative import CumulativeSynthesizer
from repro.core.monotonize import is_monotone_table, monotonize_rows
from repro.core.replicated import ReplicatedCumulativeRelease, replicate_cumulative
from repro.exceptions import ConfigurationError
from repro.queries.cumulative import HammingAtLeast, HammingExactly
from repro.queries.window import AllOnes

NATIVE_COUNTERS = ("binary_tree", "simple", "sqrt_factorization")


class TestReplicateCumulative:
    @pytest.mark.parametrize("counter", NATIVE_COUNTERS)
    def test_noiseless_tables_bit_exact_with_serial(self, small_markov_panel, counter):
        replicated = replicate_cumulative(
            small_markov_panel, 3, rho=math.inf, counter=counter, seed=1
        )
        serial = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=math.inf, counter=counter, seed=2
        )
        table = serial.run(small_markov_panel).threshold_table()
        for r in range(replicated.n_reps):
            assert (replicated.tables[r, : table.shape[0]] == table).all()

    def test_tables_monotone_with_noise(self, small_markov_panel):
        replicated = replicate_cumulative(small_markov_panel, 8, rho=0.05, seed=3)
        assert replicated.check_invariants()
        for r in range(8):
            assert is_monotone_table(
                replicated.tables[r], population=small_markov_panel.n_individuals
            )

    def test_reps_are_independent_with_noise(self, small_markov_panel):
        replicated = replicate_cumulative(small_markov_panel, 6, rho=0.05, seed=4)
        final = replicated.tables[:, -1, 1]
        assert len(set(final.tolist())) > 1

    def test_ledger_identical_to_serial(self, small_markov_panel):
        replicated = replicate_cumulative(small_markov_panel, 5, rho=0.05, seed=5)
        serial = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.05, seed=6,
        )
        serial.run(small_markov_panel)
        assert replicated.accountant.charges == serial.accountant.charges
        assert replicated.accountant.spent == pytest.approx(serial.accountant.spent)

    def test_noiseless_has_no_accountant(self, small_markov_panel):
        replicated = replicate_cumulative(small_markov_panel, 2, rho=math.inf, seed=7)
        assert replicated.accountant is None

    def test_explicit_budget_vector(self, small_markov_panel):
        horizon = small_markov_panel.horizon
        budget = np.full(horizon, 0.05 / horizon)
        replicated = replicate_cumulative(
            small_markov_panel, 2, rho=0.05, budget=budget, seed=8
        )
        assert replicated.n_reps == 2

    def test_validation(self, small_markov_panel):
        with pytest.raises(ConfigurationError):
            replicate_cumulative(small_markov_panel, 0, rho=0.1)
        with pytest.raises(ConfigurationError):
            replicate_cumulative(small_markov_panel, 2, rho=-1.0)
        with pytest.raises(ConfigurationError):
            replicate_cumulative(small_markov_panel, 2, rho=0.1, counter="nope")
        with pytest.raises(ConfigurationError):
            # No native bank => no rep axis.
            replicate_cumulative(small_markov_panel, 2, rho=0.1, counter="honaker")


class TestReplicatedRelease:
    @pytest.fixture()
    def release(self, small_markov_panel) -> ReplicatedCumulativeRelease:
        return replicate_cumulative(small_markov_panel, 4, rho=math.inf, seed=9)

    def test_answers_match_serial_release(self, small_markov_panel, release):
        serial = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=math.inf, seed=10
        ).run(small_markov_panel)
        for query in (HammingAtLeast(0), HammingAtLeast(2), HammingExactly(1)):
            for t in (1, 4, small_markov_panel.horizon):
                expected = serial.answer(query, t)
                assert (release.answer(query, t) == expected).all()

    def test_threshold_above_horizon(self, release, small_markov_panel):
        t = small_markov_panel.horizon
        query = HammingAtLeast(t + 5)
        assert (release.answer(query, t) == 0.0).all()
        boundary = HammingExactly(t)  # b+1 above the horizon
        assert np.isfinite(release.answer(boundary, t)).all()

    def test_answer_grid_shapes_and_nan(self, release):
        queries = [HammingAtLeast(1), HammingExactly(2)]
        grid = release.answer_grid(queries, (1, 3, 8))
        assert grid.shape == (4, 2, 3)
        assert np.isfinite(grid).all()  # Hamming queries defined from t=1

    def test_bounds_checked(self, release, small_markov_panel):
        with pytest.raises(ConfigurationError):
            release.threshold_counts(-1, 1)
        with pytest.raises(ConfigurationError):
            release.threshold_counts(1, 0)
        with pytest.raises(ConfigurationError):
            release.threshold_counts(1, small_markov_panel.horizon + 1)
        with pytest.raises(ConfigurationError):
            release.answer(AllOnes(3), 4)

    def test_repr(self, release):
        assert "n_reps=4" in repr(release)


class TestMonotonizeRows:
    def test_matches_scalar_rowwise(self, rng):
        from repro.core.monotonize import monotonize_row

        population = 50
        previous = np.array([[50, 30, 20, 0], [50, 40, 10, 0]], dtype=np.int64)
        noisy = rng.integers(-5, 60, size=(2, 3)).astype(np.int64)
        batched = monotonize_rows(noisy, previous, population)
        for r in range(2):
            assert (
                batched[r] == monotonize_row(noisy[r], previous[r], population)
            ).all()

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            monotonize_rows(np.zeros(3, dtype=np.int64), np.zeros((1, 4)), 5)
        with pytest.raises(ConfigurationError):
            monotonize_rows(np.zeros((2, 3)), np.zeros((2, 3)), 5)

    def test_population_validation(self):
        previous = np.array([[5, 2, 0], [4, 2, 0]], dtype=np.int64)
        with pytest.raises(ConfigurationError):
            monotonize_rows(np.zeros((2, 2), dtype=np.int64), previous, 5)

    def test_non_monotone_previous_rejected(self):
        previous = np.array([[5, 2, 3, 0]], dtype=np.int64)  # 3 > 2
        with pytest.raises(ConfigurationError):
            monotonize_rows(np.zeros((1, 3), dtype=np.int64), previous, 5)
