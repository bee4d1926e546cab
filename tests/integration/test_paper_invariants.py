"""Property-based end-to-end checks of the paper's core invariants.

These run both synthesizers on hypothesis-generated panels and verify the
structural guarantees the theory relies on, independent of any specific
noise realization.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.cumulative import CumulativeSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.core.monotonize import is_monotone_table
from repro.data.dataset import LongitudinalDataset

panels = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(8, 40), st.integers(4, 10)),
    elements=st.integers(0, 1),
)


class TestAlgorithm1Invariants:
    @given(matrix=panels, seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_consistency_and_census_for_any_panel(self, matrix, seed):
        panel = LongitudinalDataset(matrix)
        window = min(3, panel.horizon)
        synth = FixedWindowSynthesizer(
            horizon=panel.horizon,
            window=window,
            rho=0.1,
            seed=seed,
        )
        release = synth.run(panel)
        half = 1 << (window - 1)
        previous = None
        for t in release.released_times():
            histogram = release.histogram(t)
            # Non-negative counts and constant population.
            assert (histogram >= 0).all()
            assert histogram.sum() == release.n_synthetic
            # Overlap-consistency with the previous round.
            if previous is not None:
                pair_sums = histogram[0::2] + histogram[1::2]
                overlap = previous[:half] + previous[half:]
                assert (pair_sums == overlap).all()
            # Histogram equals the record census.
            census = release.synthetic_data(t).suffix_histogram(t, window)
            assert (census == histogram).all()
            previous = histogram

    @given(matrix=panels, seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_oracle_mode_reproduces_truth(self, matrix, seed):
        panel = LongitudinalDataset(matrix)
        window = min(2, panel.horizon)
        synth = FixedWindowSynthesizer(
            horizon=panel.horizon, window=window, rho=float("inf"), seed=seed
        )
        release = synth.run(panel)
        for t in release.released_times():
            truth = panel.suffix_histogram(t, window)
            assert (release.histogram(t) == truth).all()


class TestAlgorithm2Invariants:
    @given(matrix=panels, seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_table_and_census_for_any_panel(self, matrix, seed):
        panel = LongitudinalDataset(matrix)
        synth = CumulativeSynthesizer(
            horizon=panel.horizon, rho=0.1, seed=seed
        )
        release = synth.run(panel)
        assert synth.check_invariants()
        table = release.threshold_table()
        assert is_monotone_table(table, population=panel.n_individuals)
        # Row t has zero mass above threshold t.
        for t in range(1, panel.horizon + 1):
            assert (table[t, t + 1 :] == 0).all()

    @given(matrix=panels, seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_oracle_mode_reproduces_truth(self, matrix, seed):
        panel = LongitudinalDataset(matrix)
        synth = CumulativeSynthesizer(
            horizon=panel.horizon, rho=float("inf"), seed=seed
        )
        release = synth.run(panel)
        for t in range(1, panel.horizon + 1):
            truth = panel.threshold_counts(t)
            for b in range(panel.horizon + 1):
                assert release.threshold_count(b, t) == truth[b]

    @given(
        matrix=panels,
        seed=st.integers(0, 1000),
        counter=st.sampled_from(["binary_tree", "simple", "honaker", "block"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_invariants_counter_agnostic(self, matrix, seed, counter):
        panel = LongitudinalDataset(matrix)
        synth = CumulativeSynthesizer(
            horizon=panel.horizon,
            rho=0.2,
            counter=counter,
            seed=seed,
        )
        synth.run(panel)
        assert synth.check_invariants()


class TestExtremePanels:
    @pytest.mark.parametrize("fill", [0, 1])
    def test_constant_panels(self, fill):
        matrix = np.full((30, 8), fill, dtype=np.uint8)
        panel = LongitudinalDataset(matrix)
        window_synth = FixedWindowSynthesizer(
            horizon=8, window=3, rho=0.1, seed=0
        )
        window_synth.run(panel)
        cumulative_synth = CumulativeSynthesizer(
            horizon=8, rho=0.1, seed=0
        )
        cumulative_synth.run(panel)
        assert cumulative_synth.check_invariants()

    def test_single_individual(self):
        panel = LongitudinalDataset(np.array([[1, 0, 1, 1, 0, 1]], dtype=np.uint8))
        synth = CumulativeSynthesizer(
            horizon=6, rho=0.5, seed=1
        )
        synth.run(panel)
        assert synth.check_invariants()

    def test_single_round(self):
        panel = LongitudinalDataset(np.ones((20, 1), dtype=np.uint8))
        window_synth = FixedWindowSynthesizer(
            horizon=1, window=1, rho=0.5, seed=2
        )
        release = window_synth.run(panel)
        assert release.released_times() == [1]
        cumulative_synth = CumulativeSynthesizer(
            horizon=1, rho=0.5, seed=2
        )
        cumulative_synth.run(panel)
        assert cumulative_synth.check_invariants()
