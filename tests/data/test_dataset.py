"""Tests for the LongitudinalDataset container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.dataset import LongitudinalDataset
from repro.exceptions import DataValidationError

panels = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 10)),
    elements=st.integers(0, 1),
)


class TestConstruction:
    def test_basic_shape(self, tiny_panel):
        assert tiny_panel.n_individuals == 4
        assert tiny_panel.horizon == 5

    def test_rejects_non_binary(self):
        with pytest.raises(DataValidationError):
            LongitudinalDataset([[0, 2], [1, 0]])

    @pytest.mark.parametrize(
        "matrix",
        [[[0.5, 1.0]], [[np.nan, 0.0]], [[2, 0]], [[0, -1]], [[1.0, 2.0]]],
        ids=["half", "nan", "two", "minus-one", "float-two"],
    )
    def test_rejects_non_binary_entries_of_every_dtype(self, matrix):
        with pytest.raises(DataValidationError, match="panel entries must be 0 or 1"):
            LongitudinalDataset(matrix)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[True, False], [False, True]]),
            np.array([[0, 1], [1, 0]], dtype=np.int64),
            np.array([[0, 1], [1, 1]], dtype=np.uint8),
            np.array([[0.0, 1.0], [1.0, -0.0]]),
        ],
        ids=["bool", "int64", "uint8", "float"],
    )
    def test_accepts_binary_entries_of_every_dtype(self, matrix):
        panel = LongitudinalDataset(matrix)
        assert panel.matrix.dtype == np.uint8
        assert (panel.matrix == np.asarray(matrix, dtype=np.uint8)).all()

    def test_rejects_wrong_ndim(self):
        with pytest.raises(DataValidationError):
            LongitudinalDataset([1, 0, 1])

    def test_matrix_is_read_only(self, tiny_panel):
        with pytest.raises(ValueError):
            tiny_panel.matrix[0, 0] = 1

    def test_input_copied(self):
        source = np.zeros((2, 3), dtype=np.uint8)
        panel = LongitudinalDataset(source)
        source[0, 0] = 1
        assert panel.matrix[0, 0] == 0

    def test_equality_and_hash(self, tiny_panel):
        clone = LongitudinalDataset(tiny_panel.matrix)
        assert tiny_panel == clone
        assert hash(tiny_panel) == hash(clone)
        assert tiny_panel != LongitudinalDataset([[0] * 5] * 4)

    def test_repr(self, tiny_panel):
        assert "n=4" in repr(tiny_panel) and "T=5" in repr(tiny_panel)


class TestAccess:
    def test_column_is_one_indexed(self, tiny_panel):
        assert tiny_panel.column(1).tolist() == [1, 0, 1, 0]
        assert tiny_panel.column(5).tolist() == [0, 0, 1, 1]

    def test_column_bounds(self, tiny_panel):
        with pytest.raises(DataValidationError):
            tiny_panel.column(0)
        with pytest.raises(DataValidationError):
            tiny_panel.column(6)

    def test_columns_iterates_in_order(self, tiny_panel):
        columns = list(tiny_panel.columns())
        assert len(columns) == 5
        assert columns[0].tolist() == [1, 0, 1, 0]

    def test_prefix(self, tiny_panel):
        prefix = tiny_panel.prefix(2)
        assert prefix.horizon == 2
        assert prefix.n_individuals == 4

    def test_subset(self, tiny_panel):
        subset = tiny_panel.subset([0, 2])
        assert subset.n_individuals == 2
        assert (subset.matrix[1] == tiny_panel.matrix[2]).all()

    def test_concat(self, tiny_panel):
        doubled = tiny_panel.concat(tiny_panel)
        assert doubled.n_individuals == 8

    def test_concat_horizon_mismatch(self, tiny_panel):
        with pytest.raises(DataValidationError):
            tiny_panel.concat(tiny_panel.prefix(3))


class TestWindowPrimitives:
    def test_window_codes_known_values(self, tiny_panel):
        # Row 0 is 1,0,1,1,0; window (t=3, k=2) is (0,1) -> code 1.
        codes = tiny_panel.window_codes(3, 2)
        assert codes.tolist() == [1, 1, 3, 0]

    def test_window_codes_full_width(self, tiny_panel):
        codes = tiny_panel.window_codes(5, 5)
        # Row 2 is all ones: code 2^5 - 1.
        assert codes[2] == 31

    def test_window_before_k_rejected(self, tiny_panel):
        with pytest.raises(DataValidationError):
            tiny_panel.window_codes(1, 2)

    def test_suffix_histogram_sums_to_n(self, tiny_panel):
        for t in range(2, 6):
            assert tiny_panel.suffix_histogram(t, 2).sum() == 4

    def test_suffix_histogram_known(self, tiny_panel):
        hist = tiny_panel.suffix_histogram(3, 2)
        # Codes at t=3,k=2: [1,1,3,0].
        assert hist.tolist() == [1, 2, 0, 1]

    @given(panels, st.data())
    @settings(max_examples=30, deadline=None)
    def test_histogram_matches_bruteforce(self, matrix, data):
        panel = LongitudinalDataset(matrix)
        k = data.draw(st.integers(1, panel.horizon))
        t = data.draw(st.integers(k, panel.horizon))
        hist = panel.suffix_histogram(t, k)
        brute = np.zeros(1 << k, dtype=np.int64)
        for row in matrix:
            code = 0
            for bit in row[t - k : t]:
                code = (code << 1) | int(bit)
            brute[code] += 1
        assert (hist == brute).all()


class TestCumulativePrimitives:
    def test_hamming_weights(self, tiny_panel):
        assert tiny_panel.hamming_weights(5).tolist() == [3, 1, 5, 1]
        assert tiny_panel.hamming_weights(0).tolist() == [0, 0, 0, 0]

    def test_threshold_counts_structure(self, tiny_panel):
        counts = tiny_panel.threshold_counts(5)
        assert counts[0] == 4  # everyone has weight >= 0
        assert counts.shape == (6,)
        assert (np.diff(counts) <= 0).all()  # non-increasing in b

    def test_threshold_counts_known(self, tiny_panel):
        counts = tiny_panel.threshold_counts(5)
        # weights [3,1,5,1]: S_1=4, S_2=2, S_3=2, S_4=1, S_5=1.
        assert counts.tolist() == [4, 4, 2, 2, 1, 1]

    def test_increments_reconstruct_thresholds(self, markov_panel):
        # Summing z_b^t over t must reproduce S_b^T for every b.
        horizon = markov_panel.horizon
        totals = np.zeros(horizon + 1, dtype=np.int64)
        for t in range(1, horizon + 1):
            increments = markov_panel.increments(t)
            totals[1 : t + 1] += increments
        expected = markov_panel.threshold_counts(horizon)
        assert (totals[1:] == expected[1:]).all()

    def test_increments_first_round(self, tiny_panel):
        # z_1^1 = number of 1s in the first column.
        assert tiny_panel.increments(1).tolist() == [2]

    @given(panels)
    @settings(max_examples=30, deadline=None)
    def test_threshold_counts_monotone_in_t(self, matrix):
        panel = LongitudinalDataset(matrix)
        previous = np.zeros(panel.horizon + 1, dtype=np.int64)
        previous[0] = panel.n_individuals
        for t in range(1, panel.horizon + 1):
            current = panel.threshold_counts(t)
            assert (current >= previous).all() or (current[1:] >= previous[1:]).all()
            previous = current
