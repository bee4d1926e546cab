"""Tests for Algorithm 2 — the cumulative synthesizer."""

import math

import numpy as np
import pytest

from repro.core.cumulative import CumulativeSynthesizer
from repro.core.monotonize import is_monotone_table
from repro.data.generators import iid_bernoulli
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
    SerializationError,
)
from repro.queries.cumulative import HammingAtLeast, HammingExactly
from repro.queries.window import AllOnes
from repro.streams.registry import available_counters


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CumulativeSynthesizer(horizon=0, rho=1.0)
        with pytest.raises(ConfigurationError):
            CumulativeSynthesizer(horizon=5, rho=0.0)
        with pytest.raises(ConfigurationError):
            CumulativeSynthesizer(horizon=5, rho=1.0, counter="bogus")
        with pytest.raises(ConfigurationError):
            CumulativeSynthesizer(horizon=5, rho=1.0, budget="bogus")

    def test_budget_allocation_sums_to_rho(self):
        synth = CumulativeSynthesizer(horizon=12, rho=0.005)
        assert synth.rho_per_threshold.sum() == pytest.approx(0.005)

    def test_release_before_data(self):
        synth = CumulativeSynthesizer(horizon=5, rho=1.0)
        with pytest.raises(NotFittedError):
            synth.release.synthetic_data()
        with pytest.raises(NotFittedError):
            synth.release.threshold_table()


class TestOracleMode:
    def test_exact_threshold_counts(self, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=math.inf, seed=0
        )
        release = synth.run(small_markov_panel)
        for t in range(1, small_markov_panel.horizon + 1):
            expected = small_markov_panel.threshold_counts(t)
            for b in range(small_markov_panel.horizon + 1):
                assert release.threshold_count(b, t) == expected[b], (b, t)

    def test_exact_query_answers(self, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=math.inf, seed=1
        )
        release = synth.run(small_markov_panel)
        for t in (2, 5, 8):
            for b in (1, 2, 4):
                query = HammingAtLeast(b)
                assert release.answer(query, t) == pytest.approx(
                    query.evaluate(small_markov_panel, t)
                )


class TestInvariants:
    @pytest.mark.parametrize("counter", sorted(available_counters()))
    def test_invariants_hold_for_every_counter(self, counter, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon,
            rho=0.05,
            counter=counter,
            seed=2,
            noise_method="vectorized",
        )
        synth.run(small_markov_panel)
        assert synth.check_invariants()

    def test_table_monotone(self, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.05, seed=3,
            noise_method="vectorized",
        )
        release = synth.run(small_markov_panel)
        table = release.threshold_table()
        assert is_monotone_table(table, population=small_markov_panel.n_individuals)

    def test_synthetic_census_equals_table(self, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.05, seed=4,
            noise_method="vectorized",
        )
        release = synth.run(small_markov_panel)
        panel = release.synthetic_data()
        for t in range(1, small_markov_panel.horizon + 1):
            weights = panel.hamming_weights(t)
            for b in range(t + 1):
                assert (weights >= b).sum() == release.threshold_count(b, t)

    def test_records_never_rewritten(self, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.05, seed=5,
            noise_method="vectorized",
        )
        snapshots = {}
        for t, column in enumerate(small_markov_panel.columns(), start=1):
            synth.observe(column)
            snapshots[t] = synth.release.synthetic_data(t).matrix.copy()
        final = synth.release.synthetic_data().matrix
        for t, snapshot in snapshots.items():
            assert (final[:, :t] == snapshot).all()

    def test_m_equals_n(self, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.05, seed=6,
            noise_method="vectorized",
        )
        release = synth.run(small_markov_panel)
        assert release.m == small_markov_panel.n_individuals


class TestAnswers:
    def test_hamming_exactly_difference(self, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.05, seed=7,
            noise_method="vectorized",
        )
        release = synth.run(small_markov_panel)
        t = 6
        for b in range(4):
            expected = release.answer(HammingAtLeast(b), t) - release.answer(
                HammingAtLeast(b + 1), t
            )
            assert release.answer(HammingExactly(b), t) == pytest.approx(expected)

    def test_unsupported_query_rejected(self, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.05, seed=8,
            noise_method="vectorized",
        )
        release = synth.run(small_markov_panel)
        with pytest.raises(ConfigurationError):
            release.answer(AllOnes(3), 5)

    def test_threshold_count_bounds(self, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.05, seed=9,
            noise_method="vectorized",
        )
        release = synth.run(small_markov_panel)
        with pytest.raises(ConfigurationError):
            release.threshold_count(100, 5)
        with pytest.raises(ConfigurationError):
            release.threshold_count(1, 0)

    def test_answer_beyond_horizon_threshold_is_zero(self, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.05, seed=10,
            noise_method="vectorized",
        )
        release = synth.run(small_markov_panel)
        assert release.answer(HammingAtLeast(100), 5) == 0.0


class TestPrivacyAccounting:
    def test_budget_spent_matches_active_counters(self, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.02, seed=11,
            noise_method="vectorized",
        )
        synth.run(small_markov_panel)
        # All T counters activate (one per round).
        assert synth.accountant.spent == pytest.approx(0.02)
        assert len(synth.accountant.charges) == small_markov_panel.horizon

    def test_uniform_budget_option(self, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.02, budget="uniform", seed=12,
            noise_method="vectorized",
        )
        assert np.allclose(
            synth.rho_per_threshold, 0.02 / small_markov_panel.horizon
        )

    def test_explicit_budget_option(self, small_markov_panel):
        horizon = small_markov_panel.horizon
        budget = np.full(horizon, 0.02 / horizon)
        synth = CumulativeSynthesizer(
            horizon=horizon, rho=0.02, budget=budget, seed=13,
            noise_method="vectorized",
        )
        release = synth.run(small_markov_panel)
        assert synth.check_invariants()
        assert release.t == horizon


class TestStreamingAPI:
    def test_column_validation(self):
        synth = CumulativeSynthesizer(horizon=4, rho=0.5, seed=14)
        with pytest.raises(DataValidationError):
            synth.observe(np.array([[1], [0]]))
        with pytest.raises(DataValidationError):
            synth.observe(np.array([0, 3]))
        synth.observe(np.array([1, 0]))
        with pytest.raises(DataValidationError):
            synth.observe(np.array([1, 0, 1]))

    def test_horizon_exhaustion(self):
        panel = iid_bernoulli(30, 3, 0.5, seed=15)
        synth = CumulativeSynthesizer(horizon=3, rho=0.5, seed=16)
        synth.run(panel)
        with pytest.raises(DataValidationError):
            synth.observe(panel.column(1))

    def test_run_requires_fresh(self):
        panel = iid_bernoulli(30, 3, 0.5, seed=17)
        synth = CumulativeSynthesizer(horizon=3, rho=0.5, seed=18)
        synth.run(panel)
        with pytest.raises(ConfigurationError):
            synth.run(panel)

    def test_horizon_mismatch(self):
        panel = iid_bernoulli(30, 3, 0.5, seed=19)
        synth = CumulativeSynthesizer(horizon=5, rho=0.5, seed=20)
        with pytest.raises(DataValidationError):
            synth.run(panel)


class TestLazyMaterialization:
    """Lazy synthetic records equal records drawn every round (bit-exact contract).

    "Eager" is the lazy synthesizer with the panel requested after every
    round, which draws each round's records as soon as they are
    prescribed.
    """

    def _run(self, panel, materialize, seed=21, rho=0.05):
        synth = CumulativeSynthesizer(
            horizon=panel.horizon, rho=rho, seed=seed, noise_method="vectorized"
        )
        for column in panel.columns():
            synth.observe(column)
            if materialize == "eager":
                synth.release.synthetic_data()
        return synth

    def test_lazy_is_default_and_defers_draws(self, small_markov_panel):
        synth = self._run(small_markov_panel, "lazy")
        # No record has been drawn yet: the store clock is still at zero.
        assert synth._store.t == 0
        panel = synth.release.synthetic_data()
        assert panel.horizon == small_markov_panel.horizon
        assert synth._store.t == small_markov_panel.horizon

    def test_lazy_matches_eager_bitwise(self, small_markov_panel):
        lazy = self._run(small_markov_panel, "lazy")
        eager = self._run(small_markov_panel, "eager")
        assert (
            lazy.release.synthetic_data().matrix
            == eager.release.synthetic_data().matrix
        ).all()
        assert (
            lazy.release.threshold_table() == eager.release.threshold_table()
        ).all()

    def test_invariants_after_on_demand_materialization(self, small_markov_panel):
        synth = self._run(small_markov_panel, "lazy")
        # check_invariants itself materializes on demand and must pass.
        assert synth.check_invariants()
        # Repeated calls don't re-extend (the pending queue was drained).
        assert synth.check_invariants()

    @pytest.mark.parametrize("rho", [math.inf, 0.1])
    def test_interleaved_requests_match_eager(self, small_markov_panel, rho):
        # Requesting the panel mid-stream must not disturb the replayed
        # generator order: draws happen in release order either way.
        lazy = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=rho, seed=5,
            noise_method="vectorized",
        )
        for i, column in enumerate(small_markov_panel.columns()):
            lazy.observe(column)
            if i == 3:
                lazy.release.synthetic_data()
        eager = self._run(small_markov_panel, "eager", seed=5, rho=rho)
        assert (
            lazy.release.synthetic_data().matrix
            == eager.release.synthetic_data().matrix
        ).all()

    def test_materialize_validated(self):
        # Older configs name the materialization mode; both legacy modes
        # restore, anything else fails closed.
        config = CumulativeSynthesizer(horizon=4, rho=1.0).config_dict()
        assert "materialize" not in config
        for mode in ("lazy", "eager"):
            CumulativeSynthesizer.from_config({**config, "materialize": mode})
        with pytest.raises(SerializationError):
            CumulativeSynthesizer.from_config({**config, "materialize": "sometimes"})
