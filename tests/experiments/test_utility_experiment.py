"""Tests for the ``utility`` experiment and its gateable frontier metrics."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.registry import list_experiments
from repro.experiments.utility import (
    UTILITY_HORIZONS,
    UTILITY_RHOS,
    frontier_metrics,
    run_utility_experiment,
)

TINY = dict(
    n_reps=2,
    seed=0,
    rhos=(0.05,),
    horizons=(6,),
    n_households=300,
)


@pytest.fixture(scope="module")
def tiny_result():
    return run_utility_experiment(**TINY)


class TestRunUtilityExperiment:
    def test_registered(self):
        assert "utility" in list_experiments()

    def test_default_sweep_constants(self):
        assert UTILITY_RHOS == tuple(sorted(UTILITY_RHOS))
        assert UTILITY_HORIZONS == tuple(sorted(UTILITY_HORIZONS))

    def test_all_checks_pass_on_tiny_config(self, tiny_result):
        assert tiny_result.all_checks_pass, tiny_result.render()

    def test_row_count(self, tiny_result):
        # One oracle row per horizon + 6 private scenarios per (rho, horizon).
        assert len(tiny_result.comparison_rows) == 1 + 6

    def test_ordering_check_present(self, tiny_result):
        names = [name for name, _ in tiny_result.checks]
        assert any("oracle < window < clamped" in name for name in names)

    def test_render_mentions_every_scenario(self, tiny_result):
        text = tiny_result.render()
        for scenario in (
            "nonprivate",
            "window",
            "clamped",
            "density",
            "recompute",
            "cumulative",
            "categorical",
        ):
            assert scenario in text

    def test_summaries_cover_anchor(self, tiny_result):
        labels = [summary.label for summary in tiny_result.summaries]
        assert len(labels) == 3
        assert all("rho0.05" in label or "rho=0.05" in label for label in labels)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rhos": ()},
            {"rhos": (0.0,)},
            {"rhos": (-0.1,)},
            {"horizons": ()},
            {"horizons": (3,)},  # must exceed window=3
        ],
    )
    def test_bad_sweeps_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            run_utility_experiment(**{**TINY, **kwargs})


class TestFrontierMetrics:
    def test_keys_and_values(self, tiny_result):
        metrics = frontier_metrics(tiny_result)
        for scenario in (
            "window",
            "clamped",
            "density",
            "recompute",
            "cumulative",
            "categorical",
        ):
            assert f"pmse_{scenario}_rho0.05_T6" in metrics
            assert f"rmse_{scenario}_rho0.05_T6" in metrics
        assert "margin_clamped_over_window_rho0.05_T6" in metrics
        assert metrics["margin_clamped_over_window_rho0.05_T6"] == pytest.approx(
            metrics["pmse_clamped_rho0.05_T6"] - metrics["pmse_window_rho0.05_T6"]
        )

    def test_oracle_rows_excluded(self, tiny_result):
        metrics = frontier_metrics(tiny_result)
        assert not any("nonprivate" in name for name in metrics)

    def test_all_finite_floats(self, tiny_result):
        for name, value in frontier_metrics(tiny_result).items():
            assert isinstance(value, float), name
            assert value == value, name  # no NaN


class TestSeedDeterminism:
    def test_repeated_runs_byte_identical(self):
        # The regression gate only works if a fixed seed pins every byte
        # of the report: run the experiment twice in-process and compare
        # the serialized frontier and the rendered table verbatim.
        first = run_utility_experiment(**TINY)
        second = run_utility_experiment(**TINY)

        def encode(result):
            return json.dumps(frontier_metrics(result), sort_keys=True)

        assert encode(first) == encode(second)
        assert json.dumps(first.comparison_rows) == json.dumps(
            second.comparison_rows
        )
        assert first.render() == second.render()

    def test_seed_changes_output(self):
        base = run_utility_experiment(**TINY)
        other = run_utility_experiment(**{**TINY, "seed": 1})
        assert json.dumps(frontier_metrics(base), sort_keys=True) != json.dumps(
            frontier_metrics(other), sort_keys=True
        )
