"""Tests for the experiment definitions, registry, and CLI.

Experiment runs here use tiny repetition counts and small data so the whole
module stays fast; the statistically meaningful runs live in benchmarks/.
"""

import pytest

from repro.data.generators import two_state_markov
from repro.exceptions import ConfigurationError
from repro.experiments.cli import build_parser, main
from repro.experiments.config import FigureResult, bench_reps, default_reps
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments
from repro.experiments.simulated_window import run_simulated_window_experiment
from repro.experiments.sipp_cumulative import run_sipp_cumulative_experiment
from repro.experiments.sipp_window import run_sipp_window_experiment


@pytest.fixture(scope="module")
def small_sipp_like():
    """A SIPP-shaped but small panel so experiment tests stay fast."""
    return two_state_markov(1500, 12, p_stay=0.87, p_enter=0.017, seed=42)


class TestFigureResult:
    def test_checks_aggregate(self):
        result = FigureResult(experiment_id="x", title="t")
        result.check("a", True)
        assert result.all_checks_pass
        result.check("b", False)
        assert not result.all_checks_pass

    def test_render_contains_sections(self):
        result = FigureResult(
            experiment_id="x",
            title="demo title",
            parameters={"rho": 0.01},
            paper_expectation="something holds",
        )
        result.check("a check", True)
        text = result.render()
        assert "demo title" in text
        assert "rho=0.01" in text
        assert "[PASS] a check" in text

    def test_bench_reps_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_REPS", "7")
        assert bench_reps() == 7
        monkeypatch.setenv("REPRO_BENCH_REPS", "junk")
        assert bench_reps() == default_reps
        monkeypatch.setenv("REPRO_BENCH_REPS", "-3")
        assert bench_reps() == default_reps


class TestRegistry:
    def test_all_figures_present(self):
        for experiment_id in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
            assert experiment_id in EXPERIMENTS

    def test_ablations_present(self):
        for experiment_id in ("abl-counter", "abl-npad", "abl-budget", "abl-baseline"):
            assert experiment_id in EXPERIMENTS

    def test_get_unknown(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_list_sorted(self):
        assert list_experiments() == sorted(list_experiments())


class TestSippWindowExperiment:
    def test_biased_figure_shape(self, small_sipp_like):
        result = run_sipp_window_experiment(
            rho=0.05, n_reps=4, seed=0, debias=False, data=small_sipp_like,
            include_debiased_panel=False,
        )
        assert len(result.summaries) == 4  # four quarterly queries
        assert result.parameters["rho"] == 0.05
        assert result.all_checks_pass, result.render()

    def test_debiased_panel_appended(self, small_sipp_like):
        result = run_sipp_window_experiment(
            rho=0.05, n_reps=4, seed=0, debias=False, data=small_sipp_like,
            include_debiased_panel=True,
        )
        assert len(result.summaries) == 8
        labels = [summary.label for summary in result.summaries]
        assert any("debiased" in label for label in labels)

    def test_quarters_on_x_axis(self, small_sipp_like):
        result = run_sipp_window_experiment(
            rho=0.05, n_reps=2, seed=1, data=small_sipp_like,
            include_debiased_panel=False,
        )
        assert result.summaries[0].x.tolist() == [3.0, 6.0, 9.0, 12.0]


class TestSippCumulativeExperiment:
    def test_series_and_checks(self, small_sipp_like):
        result = run_sipp_cumulative_experiment(
            rho=0.05, n_reps=4, seed=0, b=3, data=small_sipp_like
        )
        assert len(result.summaries) == 1
        assert result.summaries[0].x.tolist() == list(map(float, range(1, 13)))
        assert result.all_checks_pass, result.render()

    def test_custom_counter(self, small_sipp_like):
        result = run_sipp_cumulative_experiment(
            rho=0.05, n_reps=2, seed=1, b=2, counter="sqrt_factorization",
            data=small_sipp_like,
        )
        assert result.parameters["counter"] == "sqrt_factorization"


class TestSimulatedWindowExperiment:
    def test_debiased_run_passes_checks(self):
        result = run_simulated_window_experiment(
            n_reps=6, seed=0, debias=True, n=4000, rho=0.05
        )
        assert result.all_checks_pass, result.render()

    def test_biased_run_passes_checks(self):
        result = run_simulated_window_experiment(
            n_reps=6, seed=0, debias=False, n=4000, rho=0.05
        )
        assert result.all_checks_pass, result.render()

    def test_bound_lines_attached_to_supported_widths(self):
        result = run_simulated_window_experiment(
            n_reps=2, seed=1, debias=True, n=2000, rho=0.05
        )
        assert len(result.bound_lines) == 2  # k=2 and k=3 series


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "abl-counter" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_command_executes(self, capsys, monkeypatch):
        # Patch in a fast fake experiment to keep the CLI test quick.
        from repro.experiments import registry

        def fake(n_reps, seed=0, alphabet=None, attributes=None):
            result = FigureResult(experiment_id="fake", title="fake experiment")
            result.check("always true", True)
            return result

        monkeypatch.setitem(registry.EXPERIMENTS, "fake", fake)
        assert main(["run", "fake", "--reps", "1"]) == 0
        assert "fake experiment" in capsys.readouterr().out

    def test_run_command_fails_on_failed_checks(self, capsys, monkeypatch):
        from repro.experiments import registry

        def fake(n_reps, seed=0, alphabet=None, attributes=None):
            result = FigureResult(experiment_id="fake2", title="failing experiment")
            result.check("always false", False)
            return result

        monkeypatch.setitem(registry.EXPERIMENTS, "fake2", fake)
        assert main(["run", "fake2"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "nope"],
            ["run", "fig2", "--reps", "0"],
            ["run", "multiattr", "--attributes", "0"],
            ["serve-demo", "--shards", "0"],
        ],
    )
    def test_argument_errors_exit_2_with_one_line(self, capsys, argv):
        # Exit 1 means a shape check failed; a bad argument is a usage error.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-experiments: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_bound_checks_report_once_under_thm32(self, capsys):
        assert "corB1" not in list_experiments()
        assert main(["run", "thm32", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("### ") == 1
        assert "theorem_3_2 (counts)" in out and "corollary_B1 (fractions)" in out


class TestLeftoverEnvironment:
    def test_removed_variables_change_no_output(self, monkeypatch):
        # Variables that once picked the replication path, the shard
        # executor or the attribute count are ignored.
        panel = two_state_markov(2000, 12, p_stay=0.87, p_enter=0.017, seed=42)

        def figure2():
            return run_sipp_cumulative_experiment(
                rho=0.005, n_reps=3, seed=0, data=panel
            ).render()

        for name in (
            "REPRO_REPLICATION_STRATEGY",
            "REPRO_N_JOBS",
            "REPRO_SHARD_EXECUTOR",
            "REPRO_ATTRIBUTES",
        ):
            monkeypatch.delenv(name, raising=False)
        unset = figure2()
        monkeypatch.setenv("REPRO_REPLICATION_STRATEGY", "serial")
        monkeypatch.setenv("REPRO_N_JOBS", "1")
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "thread")
        monkeypatch.setenv("REPRO_ATTRIBUTES", "3")
        assert figure2().encode() == unset.encode()


class TestChurnExperiment:
    def test_attrition_sweep_passes_all_checks(self):
        from repro.experiments.churn import run_churn_experiment

        result = run_churn_experiment(
            n_reps=2, seed=1, n_households=300, hazards=(0.0, 0.05)
        )
        assert result.experiment_id == "churn"
        assert result.all_checks_pass, result.checks
        assert len(result.summaries) == 2
        check_names = [name for name, _ in result.checks]
        assert any("bit-exact" in name for name in check_names)
        retained = [row["retained_final"] for row in result.comparison_rows]
        assert retained[0] == 1.0 and retained[1] < 1.0

    def test_registered_and_runnable_from_cli(self, capsys):
        assert "churn" in list_experiments()


class TestCategoricalExperiment:
    def test_figure_passes_all_checks(self):
        from repro.experiments.categorical import run_categorical_experiment

        result = run_categorical_experiment(
            n_reps=2, seed=1, n_individuals=400, horizon=8, window=2
        )
        assert result.experiment_id == "categorical"
        assert result.all_checks_pass, result.checks
        assert len(result.summaries) == 3
        check_names = [name for name, _ in result.checks]
        assert any("bit-exact" in name for name in check_names)

    def test_alphabet_threads_through_registry(self):
        result = get_experiment("categorical")(2, seed=2, alphabet=4)
        assert result.parameters["alphabet"] == 4
        assert result.all_checks_pass, result.checks

    def test_registered(self):
        assert "categorical" in list_experiments()
