"""Dynamic populations: entry/exit churn across both synthesizers.

The contract under test (see ``docs/source/dynamic-populations.rst``):

* zero-churn runs are **bit-exact** with the fixed-population path on
  both engines and both synthesizers, noise included;
* noiseless churned releases equal the zero-filled ground truth at every
  threshold/bin except the (public) population column;
* lifespans are enforced — exits are permanent, re-entry is rejected;
* checkpoints taken mid-churn restore byte-identically.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.scalar import fallback_reference
from repro.core.cumulative import CumulativeSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.core.monotonize import is_monotone_table
from repro.core.population import PopulationLedger
from repro.data.dataset import DynamicPanel
from repro.data.generators import apply_churn, churn_two_state_markov, iid_bernoulli
from repro.exceptions import (
    ConfigurationError,
    ConsistencyError,
    DataValidationError,
    SerializationError,
)
from repro.queries import AtLeastMOnes, HammingAtLeast


@pytest.fixture(scope="module")
def churned_panel():
    return churn_two_state_markov(
        60, 10, 0.85, 0.2, entry_rate=0.25, exit_hazard=0.08, seed=7
    )


class TestPopulationLedger:
    def test_admission_and_retirement_bookkeeping(self):
        ledger = PopulationLedger()
        ledger.admit(4, 1)
        assert (ledger.n_ever, ledger.n_active, ledger.churned) == (4, 4, False)
        ledger.retire([1, 3], 2)
        assert ledger.n_active == 2 and ledger.churned
        ledger.admit(3, 3)
        assert ledger.n_ever == 7
        assert ledger.active_ids().tolist() == [0, 2, 4, 5, 6]
        spans = ledger.lifespans()
        assert spans[1].tolist() == [1, 2] and spans[5].tolist() == [3, 0]
        assert ledger.n_ever_at(1) == 4 and ledger.n_ever_at(3) == 7

    def test_retire_rejects_departed_unknown_and_duplicate_ids(self):
        ledger = PopulationLedger()
        ledger.admit(3, 1)
        ledger.retire([0], 2)
        with pytest.raises(DataValidationError, match="already departed"):
            ledger.retire([0], 3)
        with pytest.raises(DataValidationError, match="must lie in"):
            ledger.retire([5], 3)
        with pytest.raises(DataValidationError, match="unique"):
            ledger.retire([1, 1], 3)

    def test_scatter_column_zero_fills_departed(self):
        ledger = PopulationLedger()
        ledger.admit(4, 1)
        ledger.retire([2], 2)
        full = ledger.scatter_column(np.array([1, 0, 1], dtype=np.int64))
        assert full.tolist() == [1, 0, 0, 1]

    def test_scatter_is_identity_without_churn(self):
        ledger = PopulationLedger()
        ledger.admit(3, 1)
        column = np.array([1, 0, 1], dtype=np.int64)
        assert ledger.scatter_column(column) is column

    def test_state_round_trip(self):
        ledger = PopulationLedger()
        ledger.admit(3, 1)
        ledger.retire([1], 2)
        restored = PopulationLedger.from_state(ledger.state_dict())
        assert (restored.lifespans() == ledger.lifespans()).all()
        assert restored.churned
        with pytest.raises(SerializationError):
            PopulationLedger.from_state({})

    @given(
        initial=st.integers(0, 30),
        schedule=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 2**32 - 1)), max_size=12
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_lookups_equal_full_scans(self, initial, schedule):
        horizon = len(schedule) + 1

        def check(ledger):
            entry, exit_round = ledger.lifespans().T
            assert ledger.n_active == int((exit_round == 0).sum())
            for t in range(horizon + 2):
                assert ledger.n_ever_at(t) == int((entry <= t).sum())

        ledger = PopulationLedger()
        ledger.admit(initial, 1)
        check(ledger)
        for round_number, (entrants, seed) in enumerate(schedule, start=2):
            rng = np.random.default_rng(seed)
            active = ledger.active_ids()
            exits = rng.choice(active, size=rng.integers(active.size + 1), replace=False)
            ledger.retire(exits, round_number)
            ledger.admit(entrants, round_number)
            check(ledger)
            check(PopulationLedger.from_state(ledger.state_dict()))

    def test_entry_rounds_never_decrease(self):
        ledger = PopulationLedger()
        ledger.admit(2, 3)
        with pytest.raises(DataValidationError, match="after admitting at round 3"):
            ledger.admit(1, 2)
        state = {"entry_round": [1, 3, 2], "exit_round": [0, 0, 0]}
        with pytest.raises(SerializationError, match="non-decreasing"):
            PopulationLedger.from_state(state)


class TestDynamicPanel:
    def test_round_events_reconstruct_the_matrix(self, churned_panel):
        seen = np.zeros_like(churned_panel.matrix)
        ledger = PopulationLedger()
        for t, (column, entrants, exits) in enumerate(churned_panel.rounds(), start=1):
            if t == 1:
                ledger.admit(column.shape[0], 1)
            else:
                ledger.retire(exits, t)
                ledger.admit(entrants, t)
            seen[ledger.active_ids(), t - 1] = column
        assert (seen == churned_panel.matrix).all()

    def test_rejects_reports_outside_lifespans(self):
        matrix = np.array([[1, 1, 1], [1, 1, 1]], dtype=np.uint8)
        with pytest.raises(DataValidationError, match="zero-fill"):
            DynamicPanel(matrix, entry_round=[1, 2], exit_round=[0, 0])
        with pytest.raises(DataValidationError, match="zero-fill"):
            DynamicPanel(matrix, entry_round=[1, 1], exit_round=[0, 3])

    def test_rejects_unsorted_admission_order(self):
        matrix = np.zeros((2, 3), dtype=np.uint8)
        with pytest.raises(DataValidationError, match="ordered by admission"):
            DynamicPanel(matrix, entry_round=[2, 1], exit_round=[0, 0])

    def test_rejects_exit_before_entry(self):
        matrix = np.zeros((2, 3), dtype=np.uint8)
        with pytest.raises(DataValidationError, match="strictly after"):
            DynamicPanel(matrix, entry_round=[1, 2], exit_round=[0, 2])

    def test_apply_churn_zero_rates_is_static(self):
        static = iid_bernoulli(20, 6, 0.4, seed=3)
        panel = apply_churn(static, 0.0, 0.0, seed=1)
        assert not panel.churned
        assert (panel.matrix == static.matrix).all()

    def test_apply_churn_is_deterministic(self):
        static = iid_bernoulli(30, 8, 0.3, seed=2)
        a = apply_churn(static, 0.2, 0.1, seed=5)
        b = apply_churn(static, 0.2, 0.1, seed=5)
        assert (a.matrix == b.matrix).all()
        assert (a.entry_round == b.entry_round).all()
        assert (a.exit_round == b.exit_round).all()
        assert a.churned


def _cumulative(engine, *args, **kwargs):
    """A cumulative synthesizer; ``"scalar"`` runs it on per-threshold counters."""
    synth = CumulativeSynthesizer(*args, **kwargs)
    return fallback_reference(synth) if engine == "scalar" else synth


class TestCumulativeChurn:
    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    def test_noiseless_matches_zero_filled_truth(self, churned_panel, engine):
        synth = _cumulative(engine, 10, math.inf, seed=0)
        release = synth.run(churned_panel)
        full = churned_panel.as_longitudinal()
        entry = churned_panel.entry_round
        for t in range(1, 11):
            truth = full.threshold_counts(t)
            row = release.threshold_table()[t]
            assert (row[1:] == truth[1:]).all()
            assert row[0] == (entry <= t).sum()
        assert synth.check_invariants()

    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    def test_zero_churn_bit_exact_with_static_path_under_noise(self, engine):
        static = iid_bernoulli(50, 8, 0.35, seed=4)
        dynamic = apply_churn(static, 0.0, 0.0, seed=0)
        a = _cumulative(engine, 8, 0.4, seed=9)
        b = _cumulative(engine, 8, 0.4, seed=9)
        release_a = a.run(static)
        release_b = b.run(dynamic)
        assert (release_a.threshold_table() == release_b.threshold_table()).all()
        assert release_a.synthetic_data() == release_b.synthetic_data()
        assert a.accountant.charges == b.accountant.charges

    def test_answers_are_fractions_of_round_population(self, churned_panel):
        synth = CumulativeSynthesizer(10, math.inf, seed=0)
        release = synth.run(churned_panel)
        entry = churned_panel.entry_round
        for t in (1, 5, 10):
            population = int((entry <= t).sum())
            expected = release.threshold_count(2, t) / population
            assert release.answer(HammingAtLeast(2), t) == pytest.approx(expected)

    def test_lifespans_match_schedule(self, churned_panel):
        synth = CumulativeSynthesizer(10, math.inf, seed=0)
        synth.run(churned_panel)
        spans = synth.lifespans()
        assert (spans[:, 0] == churned_panel.entry_round).all()
        assert (spans[:, 1] == churned_panel.exit_round).all()

    def test_entrant_in_round_one_is_the_initial_admission(self):
        synth = CumulativeSynthesizer(4, math.inf, seed=0)
        synth.observe([1, 0, 1], entrants=2)
        assert synth.lifespans().tolist() == [[1, 0]] * 3
        with pytest.raises(DataValidationError, match="entrants"):
            CumulativeSynthesizer(4, math.inf, seed=0).observe(
                [1, 0], entrants=3
            )

    def test_exits_in_round_one_rejected(self):
        synth = CumulativeSynthesizer(4, math.inf, seed=0)
        with pytest.raises(DataValidationError, match="nobody can exit"):
            synth.observe([1, 0], exits=[0])

    def test_departure_in_final_round(self):
        synth = CumulativeSynthesizer(3, math.inf, seed=0)
        synth.observe([1, 1, 0])
        synth.observe([0, 1, 1])
        release = synth.observe([1, 0], exits=[1])
        table = release.threshold_table()
        # Individual 1's weight froze at 2; the final column has reports
        # from individuals 0 and 2 only.
        assert table[3].tolist()[:4] == [3, 3, 2, 0]
        assert synth.lifespans()[1].tolist() == [1, 3]

    def test_empty_population_mid_stream_then_reentry_of_fresh_ids(self):
        synth = CumulativeSynthesizer(5, math.inf, seed=0)
        synth.observe([1, 0])
        synth.observe([], exits=[0, 1])
        synth.observe([])
        release = synth.observe([1, 1, 0], entrants=3)
        assert synth.lifespans().tolist() == [[1, 2], [1, 2], [4, 0], [4, 0], [4, 0]]
        assert release.threshold_table()[4].tolist()[:3] == [5, 3, 0]
        assert synth.check_invariants()

    def test_reentry_rejected(self, churned_panel):
        synth = CumulativeSynthesizer(4, math.inf, seed=0)
        synth.observe([1, 0, 1])
        synth.observe([0, 1], exits=[2])
        with pytest.raises(DataValidationError, match="already departed"):
            synth.observe([0], exits=[2])
        # The failed round left the clock untouched.
        assert synth.t == 2

    def test_column_length_must_match_declared_churn(self):
        synth = CumulativeSynthesizer(4, math.inf, seed=0)
        synth.observe([1, 0, 1])
        with pytest.raises(DataValidationError, match="expected 3"):
            synth.observe([1, 0], entrants=0)
        with pytest.raises(DataValidationError, match="expected 4"):
            synth.observe([1, 0], entrants=1)

    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    def test_checkpoint_restore_mid_churn_byte_identity(self, churned_panel, engine):
        uninterrupted = _cumulative(engine, 10, 0.4, seed=3)
        paused = _cumulative(engine, 10, 0.4, seed=3)
        events = list(churned_panel.rounds())
        for column, entrants, exits in events[:6]:
            uninterrupted.observe(column, entrants=entrants, exits=exits)
            paused.observe(column, entrants=entrants, exits=exits)
        resumed = CumulativeSynthesizer.from_config(paused.config_dict())
        if engine == "scalar":
            fallback_reference(resumed)
        resumed.load_state(paused.state_dict())
        for column, entrants, exits in events[6:]:
            uninterrupted.observe(column, entrants=entrants, exits=exits)
            resumed.observe(column, entrants=entrants, exits=exits)
        assert (
            uninterrupted.release.threshold_table()
            == resumed.release.threshold_table()
        ).all()
        assert (
            uninterrupted.release.synthetic_data() == resumed.release.synthetic_data()
        )
        assert (uninterrupted.lifespans() == resumed.lifespans()).all()


class TestFixedWindowChurn:
    def test_noiseless_matches_zero_filled_truth(self, churned_panel):
        synth = FixedWindowSynthesizer(10, 3, math.inf, seed=0)
        release = synth.run(churned_panel)
        full = churned_panel.as_longitudinal()
        entry = churned_panel.entry_round
        for t in range(3, 11):
            hist = release.histogram(t)
            truth = full.suffix_histogram(t, 3)
            assert (hist[1:] == truth[1:]).all()
            assert hist.sum() == (entry <= t).sum()

    def test_zero_churn_bit_exact_with_static_path_under_noise(self):
        static = iid_bernoulli(50, 8, 0.35, seed=4)
        dynamic = apply_churn(static, 0.0, 0.0, seed=0)
        a = FixedWindowSynthesizer(8, 2, 0.4, seed=9)
        b = FixedWindowSynthesizer(8, 2, 0.4, seed=9)
        release_a = a.run(static)
        release_b = b.run(dynamic)
        for t in range(2, 9):
            assert (release_a.histogram(t) == release_b.histogram(t)).all()
        assert release_a.synthetic_data() == release_b.synthetic_data()
        assert a.accountant.charges == b.accountant.charges

    def test_churn_during_buffer_phase(self):
        # Window 3: entrants and exits before the first release land in
        # the first histogram via zero-filled codes.
        synth = FixedWindowSynthesizer(6, 3, math.inf, seed=0)
        synth.observe([1, 1])
        synth.observe([0, 1, 1], entrants=1)
        release = synth.observe([1, 0], exits=[1])
        hist = release.histogram(3)
        # id0: (1,0,1)=5; id1 departed: (1,1,0)->zero-filled (1,1,0)=6;
        # id2 entered at 2: (0,1,0)=2.
        assert hist[5] == 1 and hist[6] == 1 and hist[2] == 1 and hist.sum() == 3

    def test_debias_uses_round_population(self, churned_panel):
        synth = FixedWindowSynthesizer(10, 2, math.inf, seed=0)
        release = synth.run(churned_panel)
        entry = churned_panel.entry_round
        for t in (2, 6, 10):
            assert release.population(t) == int((entry <= t).sum())
        query = AtLeastMOnes(2, 1)
        answer = release.answer(query, 6)
        assert np.isfinite(answer)

    def test_checkpoint_restore_mid_churn_byte_identity(self, churned_panel):
        uninterrupted = FixedWindowSynthesizer(10, 3, 0.4, seed=3)
        paused = FixedWindowSynthesizer(10, 3, 0.4, seed=3)
        events = list(churned_panel.rounds())
        for column, entrants, exits in events[:6]:
            uninterrupted.observe(column, entrants=entrants, exits=exits)
            paused.observe(column, entrants=entrants, exits=exits)
        resumed = FixedWindowSynthesizer.from_config(paused.config_dict())
        resumed.load_state(paused.state_dict())
        for column, entrants, exits in events[6:]:
            uninterrupted.observe(column, entrants=entrants, exits=exits)
            resumed.observe(column, entrants=entrants, exits=exits)
        for t in range(3, 11):
            assert (
                uninterrupted.release.histogram(t) == resumed.release.histogram(t)
            ).all()
        assert (
            uninterrupted.release.synthetic_data() == resumed.release.synthetic_data()
        )


class TestStoreChurn:
    def test_cumulative_store_admit_retire_bookkeeping(self):
        from repro.core.synthetic_store import CumulativeSyntheticStore

        store = CumulativeSyntheticStore(5, 4, np.random.default_rng(0))
        store.admit(3)
        assert store.m == 8 and store.n_active == 8
        store.retire(2)
        assert store.n_active == 6 and store.n_retired == 2
        assert store.active_mask().sum() == 6
        with pytest.raises(ConsistencyError, match="only 6 active"):
            store.retire(7)
        with pytest.raises(ConfigurationError):
            store.retire(-1)

    def test_window_store_admit_appends_zero_code_records(self):
        from repro.core.synthetic_store import WindowSyntheticStore

        counts = np.array([2, 1, 0, 1], dtype=np.int64)
        store = WindowSyntheticStore(counts, 2, 5, np.random.default_rng(0))
        store.admit(2)
        assert store.m == 6 and store.counts()[0] == 4
        store.retire(1)
        assert store.n_active == 5 and store.n_retired == 1


class TestMonotoneTableDynamic:
    def test_per_round_population_vector(self):
        table = np.array([[3, 0], [3, 2], [5, 4]], dtype=np.int64)
        assert is_monotone_table(table, np.array([3, 3, 5]))
        # b=1 may exceed the previous round's population (entrants), but
        # never the current round's.
        bad = np.array([[3, 0], [3, 2], [5, 6]], dtype=np.int64)
        assert not is_monotone_table(bad, np.array([3, 3, 5]))
        # A shrinking population column is invalid.
        assert not is_monotone_table(table, np.array([3, 3, 4]))
        with pytest.raises(ConfigurationError):
            is_monotone_table(table, np.array([3, 3]))
