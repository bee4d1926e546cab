"""Tests for panel and release serialization."""

import json

import pytest

from repro.core.fixed_window import FixedWindowSynthesizer
from repro.data.categorical import categorical_iid
from repro.data.generators import iid_bernoulli
from repro.data.io import (
    load_panel_csv,
    load_panel_npz,
    save_panel_csv,
    save_panel_npz,
    save_release_csv,
)
from repro.exceptions import DataValidationError


class TestCsvRoundtrip:
    def test_binary_roundtrip(self, tmp_path, tiny_panel):
        path = save_panel_csv(tiny_panel, tmp_path / "panel.csv")
        loaded = load_panel_csv(path)
        assert loaded == tiny_panel

    def test_categorical_roundtrip(self, tmp_path):
        panel = categorical_iid(40, 6, [0.2, 0.5, 0.3], seed=0)
        path = save_panel_csv(panel, tmp_path / "cat.csv")
        loaded = load_panel_csv(path, alphabet=3)
        assert loaded == panel

    def test_header_written(self, tmp_path, tiny_panel):
        path = save_panel_csv(tiny_panel, tmp_path / "panel.csv")
        first_line = path.read_text().splitlines()[0]
        assert first_line == "t1,t2,t3,t4,t5"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataValidationError):
            load_panel_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1,0\n0,1\n")
        with pytest.raises(DataValidationError):
            load_panel_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("t1,t2\n1,0\n1\n")
        with pytest.raises(DataValidationError):
            load_panel_csv(path)

    def test_non_binary_content_rejected_for_binary_load(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("t1,t2\n0,2\n")
        with pytest.raises(DataValidationError):
            load_panel_csv(path, alphabet=2)


class TestNpzRoundtrip:
    def test_binary_roundtrip(self, tmp_path):
        panel = iid_bernoulli(30, 8, 0.4, seed=1)
        path = save_panel_npz(panel, tmp_path / "panel.npz")
        loaded = load_panel_npz(path)
        assert loaded == panel

    def test_categorical_roundtrip(self, tmp_path):
        panel = categorical_iid(30, 8, [0.1, 0.2, 0.3, 0.4], seed=2)
        path = save_panel_npz(panel, tmp_path / "cat.npz")
        loaded = load_panel_npz(path)
        assert loaded == panel
        assert loaded.alphabet == 4


class TestReleaseExport:
    def test_fixed_window_release_export(self, tmp_path, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.05, seed=3,
        )
        release = synth.run(small_markov_panel)
        csv_path, json_path = save_release_csv(release, tmp_path / "out")
        loaded = load_panel_csv(csv_path)
        assert loaded == release.synthetic_data()
        metadata = json.loads(json_path.read_text())
        assert metadata["kind"] == "fixed_window"
        assert metadata["n_pad"] == release.padding.n_pad
        assert metadata["n_original"] == small_markov_panel.n_individuals

    def test_exported_metadata_enables_offline_debiasing(
        self, tmp_path, small_markov_panel
    ):
        from repro.queries.window import AtLeastMOnes

        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.05, seed=4,
        )
        release = synth.run(small_markov_panel)
        csv_path, json_path = save_release_csv(release, tmp_path / "out")
        panel = load_panel_csv(csv_path)
        metadata = json.loads(json_path.read_text())

        # An analyst with only the two files reproduces the debiased answer.
        query = AtLeastMOnes(3, 1)
        t = small_markov_panel.horizon
        count = query.evaluate(panel, t) * panel.n_individuals
        multiplicity = 2 ** (metadata["window"] - query.k)
        padding_count = metadata["n_pad"] * multiplicity * query.weight_sum
        offline = (count - padding_count) / metadata["n_original"]
        assert offline == pytest.approx(release.answer(query, t))

    def test_categorical_release_export(self, tmp_path):
        from repro.core.categorical_window import CategoricalWindowSynthesizer

        panel = categorical_iid(100, 6, [0.3, 0.4, 0.3], seed=5)
        synth = CategoricalWindowSynthesizer(
            horizon=6, window=2, alphabet=3, rho=0.1, seed=6,
        )
        release = synth.run(panel)
        csv_path, json_path = save_release_csv(release, tmp_path / "cat")
        metadata = json.loads(json_path.read_text())
        assert metadata["kind"] == "categorical_window"
        assert metadata["alphabet"] == 3
        loaded = load_panel_csv(csv_path, alphabet=3)
        assert loaded == release.synthetic_data()

    def test_q2_categorical_release_keeps_categorical_kind(self, tmp_path):
        # The discriminator is the release type, not the alphabet value:
        # a q=2 categorical export must not masquerade as binary metadata.
        from repro.core.categorical_window import CategoricalWindowSynthesizer

        panel = categorical_iid(80, 5, [0.6, 0.4], seed=7)
        synth = CategoricalWindowSynthesizer(
            horizon=5, window=2, alphabet=2, rho=0.2, seed=8,
        )
        release = synth.run(panel)
        _, json_path = save_release_csv(release, tmp_path / "cat2")
        metadata = json.loads(json_path.read_text())
        assert metadata["kind"] == "categorical_window"
        assert metadata["alphabet"] == 2
