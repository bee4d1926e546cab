"""Tests for the replication harness."""

import math

import numpy as np
import pytest

from oracles.scalar import fallback_reference
from repro.analysis.replication import replicate_synthesizer
from repro.core.cumulative import CumulativeSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.exceptions import ConfigurationError
from repro.queries.cumulative import HammingAtLeast, HammingExactly
from repro.queries.window import AtLeastMOnes


def window_factory(panel, rho=math.inf):
    def factory(generator):
        return FixedWindowSynthesizer(
            horizon=panel.horizon, window=3, rho=rho, seed=generator,
            noise_method="vectorized",
        )

    return factory


class TestReplicateSynthesizer:
    def test_shapes(self, small_markov_panel):
        result = replicate_synthesizer(
            window_factory(small_markov_panel),
            small_markov_panel,
            [AtLeastMOnes(3, 1), AtLeastMOnes(3, 2)],
            times=[3, 6],
            n_reps=4,
            seed=0,
        )
        assert result.answers.shape == (4, 2, 2)
        assert result.truth.shape == (2, 2)
        assert result.n_reps == 4
        assert result.query_names == ("at_least_1_of_3", "at_least_2_of_3")

    def test_oracle_runs_have_zero_error(self, small_markov_panel):
        result = replicate_synthesizer(
            window_factory(small_markov_panel),
            small_markov_panel,
            [AtLeastMOnes(3, 1)],
            times=[3, 5, 8],
            n_reps=3,
            seed=1,
        )
        assert np.allclose(result.errors(), 0.0)
        assert np.allclose(result.max_abs_error_per_rep(), 0.0)

    def test_undefined_times_are_nan(self, small_markov_panel):
        result = replicate_synthesizer(
            window_factory(small_markov_panel),
            small_markov_panel,
            [AtLeastMOnes(3, 1)],
            times=[2, 3],  # query undefined at t=2
            n_reps=2,
            seed=2,
        )
        assert np.isnan(result.truth[0, 0])
        assert np.isnan(result.answers[:, 0, 0]).all()

    def test_cumulative_release_dispatch(self, small_markov_panel):
        def factory(generator):
            return CumulativeSynthesizer(
                horizon=small_markov_panel.horizon, rho=math.inf, seed=generator
            )

        result = replicate_synthesizer(
            factory,
            small_markov_panel,
            [HammingAtLeast(2)],
            times=[4, 8],
            n_reps=2,
            seed=3,
        )
        assert np.allclose(result.errors(), 0.0)

    def test_reproducible_across_calls(self, small_markov_panel):
        kwargs = dict(
            dataset=small_markov_panel,
            queries=[AtLeastMOnes(3, 1)],
            times=[3, 6],
            n_reps=3,
            seed=7,
        )
        a = replicate_synthesizer(window_factory(small_markov_panel, rho=0.1), **kwargs)
        b = replicate_synthesizer(window_factory(small_markov_panel, rho=0.1), **kwargs)
        assert np.allclose(a.answers, b.answers)

    def test_reps_are_independent(self, small_markov_panel):
        result = replicate_synthesizer(
            window_factory(small_markov_panel, rho=0.05),
            small_markov_panel,
            [AtLeastMOnes(3, 1)],
            times=[6],
            n_reps=6,
            seed=8,
        )
        assert len(set(result.answers[:, 0, 0].tolist())) > 1

    def test_summary_and_summaries(self, small_markov_panel):
        result = replicate_synthesizer(
            window_factory(small_markov_panel, rho=0.1),
            small_markov_panel,
            [AtLeastMOnes(3, 1), AtLeastMOnes(3, 3)],
            times=[3, 6],
            n_reps=5,
            seed=9,
        )
        summaries = result.summaries()
        assert len(summaries) == 2
        assert summaries[1].label == "at_least_3_of_3"
        with pytest.raises(ConfigurationError):
            result.summary(5)

    def test_custom_answer_fn(self, small_markov_panel):
        calls = []

        def spy(release, query, t, debias):
            calls.append((query.name, t, debias))
            return 0.5

        result = replicate_synthesizer(
            window_factory(small_markov_panel),
            small_markov_panel,
            [AtLeastMOnes(3, 1)],
            times=[3],
            n_reps=1,
            seed=10,
            debias=False,
            answer_fn=spy,
            # The spy records calls in-process; forked workers would keep
            # their side effects, so pin the serial strategy here.
            strategy="serial",
        )
        assert calls == [("at_least_1_of_3", 3, False)]
        assert result.answers[0, 0, 0] == 0.5

    def test_validation(self, small_markov_panel):
        with pytest.raises(ConfigurationError):
            replicate_synthesizer(
                window_factory(small_markov_panel), small_markov_panel, [], [3], 2
            )
        with pytest.raises(ConfigurationError):
            replicate_synthesizer(
                window_factory(small_markov_panel),
                small_markov_panel,
                [AtLeastMOnes(3, 1)],
                [],
                2,
            )
        with pytest.raises(ConfigurationError):
            replicate_synthesizer(
                window_factory(small_markov_panel),
                small_markov_panel,
                [AtLeastMOnes(3, 1)],
                [3],
                0,
            )


def cumulative_factory(panel, rho=math.inf, counter="binary_tree"):
    def factory(generator):
        return CumulativeSynthesizer(
            horizon=panel.horizon, rho=rho, counter=counter, seed=generator,
            noise_method="vectorized",
        )

    return factory


class TestStrategies:
    """The batched / process / serial strategies agree where promised."""

    def test_noiseless_bit_exact_across_strategies(self, small_markov_panel):
        kwargs = dict(
            dataset=small_markov_panel,
            queries=[HammingAtLeast(1), HammingAtLeast(3)],
            times=[2, 5, 8],
            n_reps=4,
            seed=0,
        )
        results = {
            s: replicate_synthesizer(
                cumulative_factory(small_markov_panel), strategy=s, **kwargs
            )
            for s in ("serial", "process", "batched")
        }
        assert (results["serial"].answers == results["batched"].answers).all()
        assert (results["serial"].answers == results["process"].answers).all()

    def test_process_bit_exact_with_noise(self, small_markov_panel):
        # Same spawned per-rep generators => identical answers, noise and all.
        kwargs = dict(
            dataset=small_markov_panel,
            queries=[AtLeastMOnes(3, 1)],
            times=[3, 6],
            n_reps=5,
            seed=1,
        )
        serial = replicate_synthesizer(
            window_factory(small_markov_panel, rho=0.05), strategy="serial", **kwargs
        )
        pooled = replicate_synthesizer(
            window_factory(small_markov_panel, rho=0.05),
            strategy="process",
            n_jobs=2,
            **kwargs,
        )
        assert (serial.answers == pooled.answers).all()

    def test_batched_with_noise_shapes_truth_and_masks(self, small_markov_panel):
        kwargs = dict(
            dataset=small_markov_panel,
            queries=[HammingAtLeast(2), HammingExactly(1)],
            times=[1, 4, 8],
            n_reps=6,
            seed=2,
        )
        batched = replicate_synthesizer(
            cumulative_factory(small_markov_panel, rho=0.1),
            strategy="batched",
            **kwargs,
        )
        serial = replicate_synthesizer(
            cumulative_factory(small_markov_panel, rho=0.1),
            strategy="serial",
            **kwargs,
        )
        assert batched.answers.shape == serial.answers.shape
        assert batched.query_names == serial.query_names
        assert (batched.truth == serial.truth).all()
        assert (np.isnan(batched.answers) == np.isnan(serial.answers)).all()
        # Noise realizations differ across reps (not a broadcasting bug).
        assert len(set(batched.answers[:, 0, -1].tolist())) > 1

    def test_auto_uses_batched_for_cumulative(self, small_markov_panel, monkeypatch):
        # auto == batched for an eligible factory: identical under one seed.
        calls = []
        from repro.core import replicated

        original = replicated.replicate_cumulative

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(replicated, "replicate_cumulative", spy)
        monkeypatch.delenv("REPRO_REPLICATION_STRATEGY", raising=False)
        replicate_synthesizer(
            cumulative_factory(small_markov_panel),
            small_markov_panel,
            [HammingAtLeast(1)],
            [4],
            n_reps=2,
            seed=3,
        )
        assert calls  # default strategy (auto) took the batched path

    def test_auto_falls_back_for_window_factory(self, small_markov_panel):
        result = replicate_synthesizer(
            window_factory(small_markov_panel),
            small_markov_panel,
            [AtLeastMOnes(3, 1)],
            [4],
            n_reps=2,
            seed=4,
            strategy="auto",
        )
        assert np.allclose(result.errors(), 0.0)

    def test_explicit_batched_rejects_window_factory(self, small_markov_panel):
        with pytest.raises(ConfigurationError):
            replicate_synthesizer(
                window_factory(small_markov_panel),
                small_markov_panel,
                [AtLeastMOnes(3, 1)],
                [4],
                n_reps=2,
                strategy="batched",
            )

    def test_explicit_batched_rejects_scalar_engine(self, small_markov_panel):
        # Per-threshold scalar counters have no rep axis to batch over.
        factory = cumulative_factory(small_markov_panel)
        with pytest.raises(ConfigurationError):
            replicate_synthesizer(
                lambda generator: fallback_reference(factory(generator)),
                small_markov_panel,
                [HammingAtLeast(1)],
                [4],
                n_reps=2,
                strategy="batched",
            )

    def test_explicit_batched_rejects_fallback_counter(self, small_markov_panel):
        with pytest.raises(ConfigurationError):
            replicate_synthesizer(
                cumulative_factory(small_markov_panel, counter="honaker"),
                small_markov_panel,
                [HammingAtLeast(1)],
                [4],
                n_reps=2,
                strategy="batched",
            )

    def test_custom_answer_fn_skips_batched(self, small_markov_panel):
        calls = []

        def spy(release, query, t, debias):
            calls.append(t)
            return 0.0

        replicate_synthesizer(
            cumulative_factory(small_markov_panel),
            small_markov_panel,
            [HammingAtLeast(1)],
            [4],
            n_reps=1,
            seed=5,
            answer_fn=spy,
            strategy="auto",
        )
        assert calls == [4]

    def test_unknown_strategy_rejected(self, small_markov_panel):
        with pytest.raises(ConfigurationError):
            replicate_synthesizer(
                window_factory(small_markov_panel),
                small_markov_panel,
                [AtLeastMOnes(3, 1)],
                [4],
                n_reps=1,
                strategy="gpu",
            )


class TestStrategyResolution:
    def test_env_var_resolution(self, monkeypatch):
        from repro.analysis.replication import resolve_strategy

        monkeypatch.delenv("REPRO_REPLICATION_STRATEGY", raising=False)
        assert resolve_strategy(None) == "auto"
        monkeypatch.setenv("REPRO_REPLICATION_STRATEGY", "serial")
        assert resolve_strategy(None) == "serial"
        assert resolve_strategy("batched") == "batched"  # explicit beats env
        monkeypatch.setenv("REPRO_REPLICATION_STRATEGY", "sclar")
        with pytest.raises(ConfigurationError):
            resolve_strategy(None)

    def test_n_jobs_resolution(self, monkeypatch):
        from repro.analysis.replication import resolve_n_jobs

        monkeypatch.delenv("REPRO_N_JOBS", raising=False)
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(None) >= 1
        monkeypatch.setenv("REPRO_N_JOBS", "2")
        assert resolve_n_jobs(None) == 2
        monkeypatch.setenv("REPRO_N_JOBS", "zero")
        with pytest.raises(ConfigurationError):
            resolve_n_jobs(None)
        with pytest.raises(ConfigurationError):
            resolve_n_jobs(0)


class TestStrategySoftening:
    """window_strategy / cumulative_strategy downgrade inapplicable 'batched'."""

    def test_window_strategy_softens_explicit_and_env(self, monkeypatch):
        from repro.analysis.replication import window_strategy

        monkeypatch.delenv("REPRO_REPLICATION_STRATEGY", raising=False)
        assert window_strategy("batched") == "auto"
        assert window_strategy("process") == "process"
        assert window_strategy(None) == "auto"
        # The env var must soften exactly like the explicit flag.
        monkeypatch.setenv("REPRO_REPLICATION_STRATEGY", "batched")
        assert window_strategy(None) == "auto"

    def test_cumulative_strategy_softens_ineligible_combos(self, monkeypatch):
        from repro.analysis.replication import cumulative_strategy

        monkeypatch.delenv("REPRO_REPLICATION_STRATEGY", raising=False)
        assert cumulative_strategy("batched", "binary_tree") == "batched"
        assert cumulative_strategy("batched", "honaker") == "auto"
        assert cumulative_strategy("serial", "honaker") == "serial"
        monkeypatch.setenv("REPRO_REPLICATION_STRATEGY", "batched")
        assert cumulative_strategy(None, "honaker") == "auto"

    def test_window_experiment_runs_under_batched_env(
        self, small_markov_panel, monkeypatch
    ):
        from repro.experiments.sweeps import _mean_abs_error

        monkeypatch.setenv("REPRO_REPLICATION_STRATEGY", "batched")
        error = _mean_abs_error(
            small_markov_panel, 0.1, n_reps=2, seed=0, noise_method="vectorized"
        )
        assert error >= 0.0


class TestHammingExactlyAboveHorizon:
    def test_all_strategies_agree_on_structurally_empty_threshold(
        self, small_markov_panel
    ):
        horizon = small_markov_panel.horizon
        query = HammingExactly(horizon + 2)
        kwargs = dict(
            dataset=small_markov_panel,
            queries=[query],
            times=[horizon],
            n_reps=2,
            seed=6,
        )
        for strategy in ("serial", "process", "batched"):
            result = replicate_synthesizer(
                cumulative_factory(small_markov_panel), strategy=strategy, **kwargs
            )
            assert (result.answers == 0.0).all(), strategy
