"""Tests for the unified alphabet-generic window engine.

The contract of the PR that introduced :mod:`repro.core.window_engine`:

* the binary synthesizer is the ``q = 2`` special case — a categorical
  synthesizer at ``alphabet=2`` is **bit-exact** with
  :class:`FixedWindowSynthesizer` (noise draws, synthetic records, and
  zCDP ledger included);
* the batched categorical projection and extension implement the same
  algorithm as the per-group/per-record reference loops of
  ``tests/oracles/scalar.py`` (identical noiseless releases, identical
  assignment laws);
* churn (``entrants=`` / ``exits=``) works through the categorical round
  loop exactly as it does through the binary one.
"""

import contextlib
import math

import numpy as np
import pytest

from oracles.scalar import scalar_assign, scalar_group_correction, scalar_loops
from repro.core.categorical_window import CategoricalWindowSynthesizer
from repro.core.consistency import (
    apply_group_correction,
    apply_overlap_correction,
    check_group_consistency,
    group_totals,
    pair_totals,
)
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.core.padding import PaddingSpec
from repro.core.synthetic_store import (
    WindowSyntheticStore,
    _assign_within_groups,
    _choose_within_groups,
)
from repro.data.categorical import CategoricalDataset, categorical_markov
from repro.data.dataset import LongitudinalDataset
from repro.data.generators import two_state_markov
from repro.exceptions import ConfigurationError, ConsistencyError, SerializationError
from repro.queries.categorical import CategoryAtLeastM
from repro.rng import as_generator


@pytest.fixture(scope="module")
def binary_matrix():
    return two_state_markov(400, 9, 0.25, 0.3, seed=3).matrix


@pytest.fixture(scope="module")
def q3_panel():
    transition = np.array(
        [[0.85, 0.10, 0.05], [0.25, 0.65, 0.10], [0.05, 0.15, 0.80]]
    )
    return categorical_markov(600, 8, transition, seed=4)


def _fingerprint(synth):
    release = synth.release
    parts = [release.histogram(t) for t in release.released_times()]
    parts.append(release.synthetic_data().matrix.astype(np.int64))
    return parts


class TestBinaryIsTheQ2SpecialCase:
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_bit_exact_under_noise(self, binary_matrix, window):
        horizon = binary_matrix.shape[1]
        binary = FixedWindowSynthesizer(horizon, window, 0.05, seed=11)
        categorical = CategoricalWindowSynthesizer(horizon, window, 2, 0.05, seed=11)
        binary.run(LongitudinalDataset(binary_matrix))
        categorical.run(CategoricalDataset(binary_matrix, alphabet=2))
        for left, right in zip(_fingerprint(binary), _fingerprint(categorical)):
            assert (left == right).all()
        assert binary.accountant.charges == categorical.accountant.charges
        assert (
            binary._generator.bit_generator.state
            == categorical._generator.bit_generator.state
        )

    def test_same_padding_and_config_shape(self, binary_matrix):
        horizon = binary_matrix.shape[1]
        binary = FixedWindowSynthesizer(horizon, 3, 0.05, seed=1)
        categorical = CategoricalWindowSynthesizer(horizon, 3, 2, 0.05, seed=1)
        assert binary.padding.n_pad == categorical.padding.n_pad
        assert binary.config_dict()["algorithm"] == "fixed_window"
        config = categorical.config_dict()
        assert config["algorithm"] == "categorical_window"
        assert config["alphabet"] == 2
        assert "engine" not in config

    def test_q2_release_keeps_the_categorical_contract(self, binary_matrix):
        # The shared store hands q = 2 panels back as binary datasets;
        # the categorical release must still expose CategoricalDataset —
        # including on the wide-query record fallback.
        horizon = binary_matrix.shape[1]
        synth = CategoricalWindowSynthesizer(horizon, 2, 2, 0.05, seed=15)
        release = synth.run(CategoricalDataset(binary_matrix, alphabet=2))
        panel = release.synthetic_data()
        assert isinstance(panel, CategoricalDataset)
        assert panel.alphabet == 2
        wide = CategoryAtLeastM(3, 2, category=1, m=1)
        assert np.isfinite(release.answer(wide, horizon, debias=False))

    def test_binary_ignores_repro_engine_env(self, binary_matrix, q3_panel, monkeypatch):
        # There is one engine: a leftover REPRO_ENGINE changes no byte,
        # binary or categorical.
        horizon = binary_matrix.shape[1]
        fingerprints = []
        for value in (None, "scalar"):
            if value is None:
                monkeypatch.delenv("REPRO_ENGINE", raising=False)
            else:
                monkeypatch.setenv("REPRO_ENGINE", value)
            binary = FixedWindowSynthesizer(horizon, 2, 0.05, seed=5)
            binary.run(LongitudinalDataset(binary_matrix))
            categorical = CategoricalWindowSynthesizer(q3_panel.horizon, 2, 3, 0.05, seed=5)
            categorical.run(q3_panel)
            fingerprints.append(_fingerprint(binary) + _fingerprint(categorical))
        for left, right in zip(*fingerprints):
            assert (left == right).all()


class TestEngineEquivalence:
    """The product against the reference loops patched in by ``scalar_loops``."""

    def test_noiseless_releases_identical(self, q3_panel):
        first = CategoricalWindowSynthesizer(
            q3_panel.horizon, 2, 3, math.inf, seed=7
        ).run(q3_panel)
        with scalar_loops():
            second = CategoricalWindowSynthesizer(
                q3_panel.horizon, 2, 3, math.inf, seed=7
            ).run(q3_panel)
        assert first.released_times() == second.released_times()
        for t in first.released_times():
            assert (first.histogram(t) == second.histogram(t)).all()

    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    def test_census_matches_histograms_under_noise(self, q3_panel, engine):
        synth = CategoricalWindowSynthesizer(
            q3_panel.horizon, 2, 3, 0.2, seed=8
        )
        with scalar_loops() if engine == "scalar" else contextlib.nullcontext():
            release = synth.run(q3_panel)
        for t in release.released_times():
            census = release.synthetic_data(t).suffix_histogram(t, 2)
            assert (census == release.histogram(t)).all()

    def test_invalid_engine_rejected(self):
        # Only the vectorized engine's configs can be continued.
        config = CategoricalWindowSynthesizer(6, 2, 3, 0.1).config_dict()
        CategoricalWindowSynthesizer.from_config({**config, "engine": "vectorized"})
        for engine in ("scalar", "sclar"):
            with pytest.raises(SerializationError):
                CategoricalWindowSynthesizer.from_config({**config, "engine": engine})


class TestAssignWithinGroups:
    @pytest.mark.parametrize("seed", range(5))
    def test_two_labels_match_binary_helper_and_stream(self, seed):
        generator = as_generator(seed)
        group_of = generator.integers(0, 7, size=500)
        sizes = np.bincount(group_of, minlength=7)
        ones = np.array([generator.integers(0, s + 1) for s in sizes])
        quotas = np.stack([sizes - ones, ones], axis=1)

        lhs_gen = as_generator(seed + 100)
        rhs_gen = as_generator(seed + 100)
        labels = _assign_within_groups(group_of, 7, quotas, lhs_gen)
        chosen = _choose_within_groups(group_of, 7, ones, rhs_gen)
        expected = np.zeros(group_of.shape[0], dtype=np.int64)
        expected[chosen] = 1
        assert (labels == expected).all()
        assert lhs_gen.bit_generator.state == rhs_gen.bit_generator.state

    def test_quota_mismatch_rejected(self):
        group_of = np.array([0, 0, 1])
        with pytest.raises(ConsistencyError):
            _assign_within_groups(
                group_of, 2, np.array([[1, 0], [1, 0]]), as_generator(0)
            )

    def test_exact_quotas_hit(self):
        generator = as_generator(9)
        group_of = generator.integers(0, 4, size=300)
        sizes = np.bincount(group_of, minlength=4)
        quotas = np.zeros((4, 3), dtype=np.int64)
        for g, size in enumerate(sizes):
            split = np.sort(generator.integers(0, size + 1, size=2))
            quotas[g] = [split[0], split[1] - split[0], size - split[1]]
        labels = _assign_within_groups(group_of, 4, quotas, generator)
        for g in range(4):
            for label in range(3):
                assert ((group_of == g) & (labels == label)).sum() == quotas[g, label]

    def test_forced_assignment_consumes_no_randomness(self):
        generator = as_generator(10)
        before = generator.bit_generator.state
        group_of = np.array([0, 0, 1, 1, 1])
        labels = _assign_within_groups(
            group_of, 2, np.array([[2, 0, 0], [3, 0, 0]]), generator
        )
        assert (labels == 0).all()
        assert generator.bit_generator.state == before


class TestGroupCorrection:
    def test_q2_matches_pair_semantics(self):
        previous = np.array([8, 6, 7, 9], dtype=np.int64)
        noisy = np.array([7, 8, 4, 12], dtype=np.int64)
        corrected, _ = apply_group_correction(
            previous, noisy, 2, as_generator(1)
        )
        assert check_group_consistency(previous, corrected, 2)
        assert (pair_totals(previous) == group_totals(previous, 2)).all()

    @pytest.mark.parametrize("method", ["vectorized", "scalar"])
    def test_group_sums_preserved(self, method):
        correct = apply_group_correction if method == "vectorized" else scalar_group_correction
        generator = as_generator(2)
        previous = generator.integers(0, 25, size=27).astype(np.int64)
        noisy = previous + generator.integers(-6, 7, size=27)
        corrected, _ = correct(previous, noisy, 3, generator)
        assert check_group_consistency(previous, corrected, 3)

    def test_vectorized_residue_uniform(self):
        # D_z = 2 over q = 3 children: each child gains +1 w.p. 2/3.
        previous = np.zeros(9, dtype=np.int64)
        previous[0] = 4  # M_0 = 4
        noisy = np.zeros(9, dtype=np.int64)
        noisy[0:3] = [1, 1, 0]
        totals = np.zeros(3)
        trials = 300
        for seed in range(trials):
            corrected, _ = apply_group_correction(previous, noisy, 3, as_generator(seed))
            totals += corrected[0:3]
        expected = np.array([1, 1, 0]) + 2 / 3
        assert np.abs(totals / trials - expected).max() < 0.15

    @pytest.mark.parametrize(
        "correct, assign",
        [
            (apply_group_correction, _assign_within_groups),
            (scalar_group_correction, scalar_assign),
        ],
        ids=["product", "oracle"],
    )
    def test_residue_and_label_laws(self, correct, assign):
        # Residue D_z = 2 over q = 3 children: each child gains 1 w.p.
        # residue/q = 2/3.  One group of 6 records with label quotas
        # (3, 2, 1): every record gets label l w.p. quota_l / 6.
        previous = np.zeros(9, dtype=np.int64)
        previous[0] = 4
        noisy = np.zeros(9, dtype=np.int64)
        noisy[0:3] = [1, 1, 0]
        group_of = np.zeros(6, dtype=np.int64)
        quotas = np.array([[3, 2, 1]])
        trials = 600
        gains = np.zeros(3)
        hits = np.zeros((6, 3))
        for seed in range(trials):
            generator = as_generator(seed)
            corrected, _ = correct(previous, noisy, 3, generator)
            gains += corrected[0:3] - noisy[0:3]
            hits[np.arange(6), assign(group_of, 1, quotas, generator)] += 1
        assert np.abs(gains / trials - 2 / 3).max() < 0.08
        assert np.abs(hits / trials - quotas / 6).max() < 0.08

    def test_binary_projection_unchanged(self):
        # The q = 2 engine path must keep using the paired correction,
        # drawing from the same generator stream as the standalone one.
        previous = np.array([5, 5, 5, 5], dtype=np.int64)
        noisy = np.array([4, 7, 6, 3], dtype=np.int64)
        reference, _ = apply_overlap_correction(previous, noisy, as_generator(42))
        synth = CategoricalWindowSynthesizer(4, 2, 2, 0.5, seed=42)
        via_engine, _ = synth._project(previous, noisy)
        assert (via_engine == reference).all()


class TestCategoricalChurn:
    def test_zero_churn_bit_exact_with_static_path(self, q3_panel):
        horizon = q3_panel.horizon
        static = CategoricalWindowSynthesizer(horizon, 2, 3, 0.1, seed=13)
        dynamic = CategoricalWindowSynthesizer(horizon, 2, 3, 0.1, seed=13)
        static.run(q3_panel)
        for column in q3_panel.columns():
            dynamic.observe(column, entrants=0, exits=None)
        for left, right in zip(_fingerprint(static), _fingerprint(dynamic)):
            assert (left == right).all()
        assert static.accountant.charges == dynamic.accountant.charges

    def test_entrants_and_exits_thread_through(self, q3_panel):
        horizon = q3_panel.horizon
        matrix = q3_panel.matrix
        synth = CategoricalWindowSynthesizer(horizon, 2, 3, 0.1, seed=14)
        n = matrix.shape[0] - 3  # rows n..n+2 enter at round 2
        synth.observe(matrix[:n, 0])
        synth.observe(matrix[:, 1], entrants=3)
        keep = np.setdiff1d(np.arange(matrix.shape[0]), [5, 9])
        synth.observe(matrix[keep, 2], exits=[5, 9])
        for t in range(3, horizon):
            synth.observe(matrix[keep, t])
        release = synth.release
        assert release.n_original == matrix.shape[0]
        spans = synth.lifespans()
        assert (spans[:, 0] == 1).sum() == n
        assert (spans[:, 0] == 2).sum() == 3
        assert sorted(np.flatnonzero(spans[:, 1] == 3).tolist()) == [5, 9]
        # Populations are churn-aware: the debias denominator grows at
        # round 2 and the census still matches the histograms.
        assert release.population(1) == n
        assert release.population(2) == matrix.shape[0]
        for t in release.released_times():
            census = release.synthetic_data(t).suffix_histogram(t, 2)
            assert (census == release.histogram(t)).all()

    def test_out_of_alphabet_column_rejected(self):
        from repro.exceptions import DataValidationError

        synth = CategoricalWindowSynthesizer(4, 2, 3, 0.5, seed=8)
        with pytest.raises(DataValidationError):
            synth.observe(np.array([0, 3]))


class TestGeneralizedStoreAndPadding:
    def test_store_state_roundtrip_q3(self):
        generator = as_generator(21)
        counts = generator.integers(0, 6, size=27).astype(np.int64)
        store = WindowSyntheticStore(counts, 3, 6, generator, alphabet=3)
        state = store.state_dict()
        assert state["alphabet"] == 3
        clone = WindowSyntheticStore.from_state(state, generator)
        assert clone.alphabet == 3
        assert (clone.counts() == store.counts()).all()
        assert clone.as_dataset().alphabet == 3

    def test_legacy_binary_state_defaults_to_q2(self):
        generator = as_generator(22)
        store = WindowSyntheticStore(
            np.array([2, 1, 0, 3], dtype=np.int64), 2, 4, generator
        )
        state = store.state_dict()
        del state["alphabet"]  # pre-categorical bundles lack the key
        clone = WindowSyntheticStore.from_state(state, generator)
        assert clone.alphabet == 2
        assert isinstance(clone.as_dataset(), LongitudinalDataset)

    def test_padding_spec_alphabet_arithmetic(self):
        spec = PaddingSpec(window=2, n_pad=3, horizon=5, alphabet=3)
        assert spec.total_records == 3 * 9
        query = CategoryAtLeastM(1, 3, category=1, m=1)
        # Width-1 bins aggregate q bins of width 2: n_pad * q per category.
        assert spec.count_contribution(query) == 3 * 3 * query.weight_sum
        panel = spec.panel
        assert panel.alphabet == 3
        for t in range(2, 6):
            assert (panel.suffix_histogram(t, 2) == 3).all()
        assert spec.panel_count_answer(query, 3) == pytest.approx(
            spec.count_contribution(query)
        )

    def test_padding_spec_validation(self):
        with pytest.raises(ConfigurationError):
            PaddingSpec(window=2, n_pad=1, horizon=5, alphabet=1)


def _q3_snapshot(rounds: int):
    """A q=3, k=3 synthesizer over 500 individuals after ``rounds`` rounds."""
    synth = CategoricalWindowSynthesizer(6, 3, 3, 1.0, seed=8)
    reports = np.random.default_rng(2).integers(0, 3, size=(500, rounds))
    for column in reports.T:
        synth.observe(column)
    return synth, synth.state_dict()


class TestLoadStateFailsClosed:
    """Engine state Algorithm 1 cannot produce is rejected before any cast."""

    def _load(self, source, state):
        fresh = CategoricalWindowSynthesizer.from_config(source.config_dict())
        fresh.load_state(state)
        return fresh

    def test_valid_snapshots_restore_narrow_and_continue(self):
        for rounds in (2, 4):
            source, state = _q3_snapshot(rounds)
            restored = self._load(source, state)
            column = np.random.default_rng(9).integers(0, 3, size=500)
            source.observe(column)
            restored.observe(column)
            for ours, theirs in zip(
                _fingerprint(restored), _fingerprint(source), strict=True
            ):
                assert np.array_equal(ours, theirs)
            snapshot = restored.state_dict()
            assert snapshot["window_codes"].dtype == np.int64
            expected = source.state_dict()["window_codes"]
            assert np.array_equal(snapshot["window_codes"], expected)

    @pytest.mark.parametrize("code", [27, 300, -1])
    def test_window_code_outside_the_histogram_rejected(self, code):
        # 300 would narrow to 44 and extend differently (44 % 9 != 300 % 9).
        source, state = _q3_snapshot(4)
        state["window_codes"][0] = code
        with pytest.raises(SerializationError, match=f"window_codes holds {code},"):
            self._load(source, state)

    @pytest.mark.parametrize("shape", [(1,), (500, 1)])
    def test_buffered_column_of_the_wrong_shape_rejected(self, shape):
        source, state = _q3_snapshot(2)
        state["recent_0"] = np.ones(shape, dtype=np.int64)
        with pytest.raises(SerializationError, match=r"recent_0 has shape .*\(500,\)"):
            self._load(source, state)

    def test_buffered_symbol_outside_the_alphabet_rejected(self):
        source, state = _q3_snapshot(2)
        state["recent_1"][3] = 7
        with pytest.raises(SerializationError, match="recent_1 holds 7, outside"):
            self._load(source, state)

    def test_fractional_buffered_reports_rejected(self):
        source, state = _q3_snapshot(2)
        state["recent_0"] = np.array([0.5, 1.5, 2.5] + [0.0] * 497)
        with pytest.raises(SerializationError, match="recent_0 must hold integers"):
            self._load(source, state)
