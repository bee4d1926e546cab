"""Every output check passes on good outputs and rejects a corrupted one."""

import math

import numpy as np
import pytest

from perfbench import checks

from repro.core.categorical_window import CategoricalWindowSynthesizer
from repro.experiments.config import FigureResult
from repro.queries.cumulative import HammingAtLeast
from repro.serve import StreamingSynthesizer


def test_spend_check_rejects_an_overspent_or_unfinished_ledger():
    rho = 0.005
    ledger = [rho * t / 10 for t in range(1, 11)]
    assert checks.check_spend(ledger, rho) == []
    overspent = list(ledger)
    overspent[4] = rho * 1.5
    assert len(checks.check_spend(overspent, rho)) == 1
    assert len(checks.check_spend(ledger[:-1], rho)) == 1


@pytest.fixture(scope="module")
def cumulative_release():
    rng = np.random.default_rng(3)
    columns = (rng.random((8, 400)) < 0.3).astype(np.int8)
    service = StreamingSynthesizer.cumulative(8, 1.0, seed=5)
    for column in columns:
        release = service.observe(column)
    queries = [HammingAtLeast(b) for b in range(1, 9)]
    times = list(range(1, 9))
    return columns, release, queries, times, release.answer_batch(queries, times)


def test_batch_check_rejects_a_corrupted_grid(cumulative_release):
    _, release, queries, times, grid = cumulative_release
    cells = checks.sample_cells(grid.shape, 64, seed=1)
    assert len(cells) == 64
    assert checks.check_batch_matches_scalar(grid, release.answer, queries, times, cells) == []
    corrupted = grid.copy()
    row, col = cells[7]
    corrupted[row, col] = np.nextafter(corrupted[row, col], 2.0)
    failures = checks.check_batch_matches_scalar(corrupted, release.answer, queries, times, cells)
    assert len(failures) == 1


def test_cumulative_accuracy_rejects_a_corrupted_grid(cumulative_release):
    columns, _, _, _, grid = cumulative_release
    truth = checks.cumulative_truth(columns)
    weights = columns.sum(axis=0)
    assert truth[2, 7] == np.mean(weights >= 3)
    assert checks.check_cumulative_accuracy(truth, truth, alpha=1e-12) == []
    alpha = float(np.abs(grid - truth).max()) + 1e-9
    assert checks.check_cumulative_accuracy(grid, truth, alpha) == []
    corrupted = grid.copy()
    corrupted[3, 5] += 2 * alpha
    assert len(checks.check_cumulative_accuracy(corrupted, truth, alpha)) == 1


def test_window_accuracy_rejects_a_corrupted_histogram():
    rng = np.random.default_rng(4)
    columns = rng.integers(0, 3, size=(6, 500)).astype(np.int8)
    synth = CategoricalWindowSynthesizer(6, 3, 3, math.inf, seed=0)
    for column in columns:
        release = synth.observe(column)
    truth = checks.window_histograms(columns, 3, 3)
    assert sorted(truth) == [3, 4, 5, 6]
    n_pad = release.padding.n_pad
    assert checks.check_window_accuracy(release.histogram, truth, n_pad, bound=0.0) == []

    def corrupted(t):
        histogram = release.histogram(t)
        if t == 5:
            histogram[7] += 11
        return histogram

    assert len(checks.check_window_accuracy(corrupted, truth, n_pad, bound=10.0)) == 1


def test_recovery_check_rejects_a_different_recovered_answer():
    before = np.array([[0.1, np.nan], [0.25, 0.5]])
    assert checks.check_identical("workload", before, before.copy()) == []
    after = before.copy()
    after[1, 0] = 0.2500000001
    assert len(checks.check_identical("workload", before, after)) == 1
    assert len(checks.check_identical("probe", [0.1, 0.2], [0.1])) == 1


def test_figure_check_rejects_a_failed_shape_check():
    result = FigureResult(experiment_id="fig1", title="t")
    result.check("biased answers sit above the truth", True)
    assert checks.check_figure(result) == []
    result.check("debiased mean unbiased", False)
    assert checks.check_figure(result) == ["fig1: failed checks ['debiased mean unbiased']"]
