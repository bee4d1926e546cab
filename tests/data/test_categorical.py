"""Tests for the categorical data substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.categorical import CategoricalDataset, categorical_iid, categorical_markov
from repro.data.debruijn import debruijn_sequence, padding_panel
from repro.exceptions import ConfigurationError, DataValidationError


class TestCategoricalDataset:
    def test_shape_and_alphabet(self):
        panel = CategoricalDataset([[0, 1, 2], [2, 1, 0]], alphabet=3)
        assert panel.n_individuals == 2
        assert panel.horizon == 3
        assert panel.alphabet == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(DataValidationError):
            CategoricalDataset([[0, 3]], alphabet=3)
        with pytest.raises(DataValidationError):
            CategoricalDataset([[-1, 0]], alphabet=3)

    def test_rejects_small_alphabet(self):
        with pytest.raises(ConfigurationError):
            CategoricalDataset([[0, 0]], alphabet=1)

    def test_window_codes_base_q(self):
        panel = CategoricalDataset([[2, 1, 0]], alphabet=3)
        # Window (t=2, k=2) is (2, 1): code 2*3 + 1 = 7.
        assert panel.window_codes(2, 2).tolist() == [7]
        assert panel.window_codes(3, 3).tolist() == [2 * 9 + 1 * 3 + 0]

    def test_suffix_histogram_sums_to_n(self):
        panel = categorical_iid(200, 6, [0.2, 0.3, 0.5], seed=0)
        for t in range(2, 7):
            assert panel.suffix_histogram(t, 2).sum() == 200

    def test_binary_special_case_matches_longitudinal(self):
        from repro.data.dataset import LongitudinalDataset

        matrix = np.random.default_rng(1).integers(0, 2, size=(50, 6))
        categorical = CategoricalDataset(matrix, alphabet=2)
        binary = LongitudinalDataset(matrix)
        for t in range(3, 7):
            assert (
                categorical.suffix_histogram(t, 3) == binary.suffix_histogram(t, 3)
            ).all()

    def test_equality_and_prefix(self):
        panel = categorical_iid(20, 5, [0.5, 0.25, 0.25], seed=2)
        assert panel == CategoricalDataset(panel.matrix, alphabet=3)
        assert panel.prefix(3).horizon == 3

    def test_read_only(self):
        panel = CategoricalDataset([[0, 1]], alphabet=2)
        with pytest.raises(ValueError):
            panel.matrix[0, 0] = 1


class TestGenerators:
    def test_iid_marginals(self):
        probs = [0.2, 0.3, 0.5]
        panel = categorical_iid(20000, 4, probs, seed=3)
        for category, p in enumerate(probs):
            assert abs((panel.matrix == category).mean() - p) < 0.01

    def test_iid_validation(self):
        with pytest.raises(ConfigurationError):
            categorical_iid(10, 5, [1.0])
        with pytest.raises(ConfigurationError):
            categorical_iid(10, 5, [0.5, 0.6])
        with pytest.raises(ConfigurationError):
            categorical_iid(0, 5, [0.5, 0.5])

    def test_markov_respects_transitions(self):
        transition = np.array([[0.9, 0.1, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 0.9]])
        panel = categorical_markov(20000, 10, transition, seed=4)
        matrix = panel.matrix
        from_zero = matrix[:, 1:][matrix[:, :-1] == 0]
        assert abs((from_zero == 0).mean() - 0.9) < 0.02
        assert (from_zero == 2).mean() < 0.005  # forbidden transition

    def test_markov_initial_distribution(self):
        transition = np.full((3, 3), 1 / 3)
        panel = categorical_markov(
            9000, 2, transition, initial=[1.0, 0.0, 0.0], seed=5
        )
        assert (panel.matrix[:, 0] == 0).all()

    def test_markov_validation(self):
        with pytest.raises(ConfigurationError):
            categorical_markov(10, 5, np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ConfigurationError):
            categorical_markov(10, 5, np.ones((2, 3)))
        with pytest.raises(ConfigurationError):
            categorical_markov(
                10, 5, np.full((2, 2), 0.5), initial=[0.9, 0.2]
            )


class TestCategoricalDeBruijn:
    @pytest.mark.parametrize("alphabet,k", [(3, 1), (3, 2), (3, 3), (4, 2), (5, 2)])
    def test_cycle_enumerates_all_patterns(self, alphabet, k):
        cycle = debruijn_sequence(k, alphabet=alphabet)
        assert cycle.shape == (alphabet**k,)
        doubled = np.concatenate([cycle, cycle])
        seen = set()
        for start in range(alphabet**k):
            code = 0
            for digit in doubled[start : start + k]:
                code = code * alphabet + int(digit)
            seen.add(code)
        assert seen == set(range(alphabet**k))

    def test_invalid_alphabet(self):
        with pytest.raises(ConfigurationError):
            debruijn_sequence(2, alphabet=1)

    @pytest.mark.parametrize("alphabet,k,n_pad", [(3, 2, 1), (3, 2, 2), (4, 2, 1), (3, 3, 1)])
    def test_padding_panel_uniform_in_every_window(self, alphabet, k, n_pad):
        horizon = k + 6
        panel = padding_panel(k, n_pad, horizon, alphabet)
        assert panel.n_individuals == n_pad * alphabet**k
        for t in range(k, horizon + 1):
            assert (panel.suffix_histogram(t, k) == n_pad).all()

    def test_zero_padding(self):
        panel = padding_panel(2, 0, 6, 3)
        assert panel.n_individuals == 0

    @given(alphabet=st.integers(2, 4), k=st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_padding_uniformity_property(self, alphabet, k):
        horizon = k + 4
        panel = padding_panel(k, 1, horizon, alphabet)
        for t in range(k, horizon + 1):
            assert (panel.suffix_histogram(t, k) == 1).all()
