"""Tests for the replication harness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.replication import grid_answer
from oracles.scalar import fallback_reference
from repro.analysis.replication import _batched_config, replicate_synthesizer
from repro.core.cumulative import CumulativeSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.data.generators import two_state_markov
from repro.exceptions import ConfigurationError
from repro.queries.cumulative import HammingAtLeast, HammingExactly
from repro.queries.window import AtLeastMOnes
from repro.streams.registry import available_banks, available_counters


def window_factory(panel, rho=math.inf):
    def factory(generator):
        return FixedWindowSynthesizer(
            horizon=panel.horizon, window=3, rho=rho, seed=generator,
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

        def spy(release, queries, times, debias):
            calls.append(([query.name for query in queries], tuple(times), debias))
            return np.full((len(queries), len(times)), 0.5)

        result = replicate_synthesizer(
            window_factory(small_markov_panel),
            small_markov_panel,
            [AtLeastMOnes(3, 1), AtLeastMOnes(2, 1)],
            times=[3, 4],
            n_reps=2,
            seed=10,
            debias=False,
            answer_fn=spy,
        )
        grid = (["at_least_1_of_3", "at_least_1_of_2"], (3, 4), False)
        assert calls == [grid, grid]  # one whole grid per repetition
        assert (result.answers == 0.5).all()

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
        )

    return factory


class TestStrategies:
    """The batched path agrees with the one-repetition loop where promised."""

    def test_noiseless_bit_exact_across_strategies(self, small_markov_panel):
        kwargs = dict(
            dataset=small_markov_panel,
            queries=[HammingAtLeast(1), HammingAtLeast(3)],
            times=[2, 5, 8],
            n_reps=4,
            seed=0,
        )
        factory = cumulative_factory(small_markov_panel)
        batched = replicate_synthesizer(factory, **kwargs)
        serial = replicate_synthesizer(factory, answer_fn=grid_answer, **kwargs)
        assert (serial.answers == batched.answers).all()

    def test_batched_with_noise_shapes_truth_and_masks(self, small_markov_panel):
        kwargs = dict(
            dataset=small_markov_panel,
            queries=[HammingAtLeast(2), HammingExactly(1)],
            times=[1, 4, 8],
            n_reps=6,
            seed=2,
        )
        factory = cumulative_factory(small_markov_panel, rho=0.1)
        batched = replicate_synthesizer(factory, **kwargs)
        serial = replicate_synthesizer(factory, answer_fn=grid_answer, **kwargs)
        assert batched.answers.shape == serial.answers.shape
        assert batched.query_names == serial.query_names
        assert (batched.truth == serial.truth).all()
        assert (np.isnan(batched.answers) == np.isnan(serial.answers)).all()
        # Noise realizations differ across reps (not a broadcasting bug).
        assert len(set(batched.answers[:, 0, -1].tolist())) > 1

    def test_auto_uses_batched_for_cumulative(self, small_markov_panel, monkeypatch):
        calls = _spy_on_batched(monkeypatch)
        replicate_synthesizer(
            cumulative_factory(small_markov_panel),
            small_markov_panel,
            [HammingAtLeast(1)],
            [4],
            n_reps=2,
            seed=3,
        )
        assert calls  # a qualifying run took the batched path

    def test_auto_falls_back_for_window_factory(self, small_markov_panel):
        result = replicate_synthesizer(
            window_factory(small_markov_panel),
            small_markov_panel,
            [AtLeastMOnes(3, 1)],
            [4],
            n_reps=2,
            seed=4,
        )
        assert np.allclose(result.errors(), 0.0)

    def test_custom_answer_fn_skips_batched(self, small_markov_panel):
        calls = []

        def spy(release, queries, times, debias):
            calls.append(tuple(times))
            return np.zeros((len(queries), len(times)))

        replicate_synthesizer(
            cumulative_factory(small_markov_panel),
            small_markov_panel,
            [HammingAtLeast(1)],
            [4],
            n_reps=1,
            seed=5,
            answer_fn=spy,
        )
        assert calls == [(4,)]

    def test_unknown_strategy_rejected(self, small_markov_panel):
        # The path is not selectable: a caller still passing a strategy
        # fails loudly instead of having it ignored.
        for strategy in ("serial", "gpu"):
            with pytest.raises(TypeError):
                replicate_synthesizer(
                    window_factory(small_markov_panel),
                    small_markov_panel,
                    [AtLeastMOnes(3, 1)],
                    [4],
                    n_reps=1,
                    strategy=strategy,
                )


class TestStrategyResolution:
    """Replication reads no environment variable: leftover ones change nothing."""

    def test_env_var_resolution(self, small_markov_panel, monkeypatch):
        kwargs = dict(
            dataset=small_markov_panel,
            queries=[HammingAtLeast(1)],
            times=[4, 8],
            n_reps=2,
            seed=3,
        )
        factory = cumulative_factory(small_markov_panel, rho=0.1)
        monkeypatch.delenv("REPRO_REPLICATION_STRATEGY", raising=False)
        unset = replicate_synthesizer(factory, **kwargs)
        for value in ("serial", "sclar"):
            monkeypatch.setenv("REPRO_REPLICATION_STRATEGY", value)
            with pytest.MonkeyPatch.context() as spy_patch:
                calls = _spy_on_batched(spy_patch)
                result = replicate_synthesizer(factory, **kwargs)
            assert calls, value
            assert result.answers.tobytes() == unset.answers.tobytes()

    def test_n_jobs_resolution(self, small_markov_panel, monkeypatch):
        kwargs = dict(
            dataset=small_markov_panel,
            queries=[AtLeastMOnes(3, 1)],
            times=[4],
            n_reps=2,
            seed=3,
        )
        factory = window_factory(small_markov_panel, rho=0.1)
        monkeypatch.delenv("REPRO_N_JOBS", raising=False)
        unset = replicate_synthesizer(factory, **kwargs)
        monkeypatch.setenv("REPRO_N_JOBS", "zero")
        assert replicate_synthesizer(factory, **kwargs).answers.tobytes() == (
            unset.answers.tobytes()
        )
        with pytest.raises(TypeError):
            replicate_synthesizer(factory, n_jobs=2, **kwargs)


class TestStrategySoftening:
    def test_window_experiment_runs_under_batched_env(
        self, small_markov_panel, monkeypatch
    ):
        from repro.experiments.sweeps import _mean_abs_error

        monkeypatch.setenv("REPRO_REPLICATION_STRATEGY", "batched")
        error = _mean_abs_error(small_markov_panel, 0.1, n_reps=2, seed=0)
        assert error >= 0.0


def _spy_on_batched(monkeypatch) -> list:
    from repro.core import replicated

    calls = []
    original = replicated.replicate_cumulative

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(replicated, "replicate_cumulative", spy)
    return calls


PROPERTY_PANEL = two_state_markov(60, 6, p_stay=0.8, p_enter=0.1, seed=5)

QUERY_LISTS = {
    "hamming": [HammingAtLeast(2), HammingExactly(1)],
    "mixed": [HammingAtLeast(2), AtLeastMOnes(3, 1)],
}

FACTORIES = st.one_of(
    st.tuples(
        st.sampled_from(["cumulative", "fallback"]), st.sampled_from(available_counters())
    ),
    st.just(("window", None)),
)


def _property_factory(kind, counter, rho):
    """A factory of the drawn kind."""
    if kind == "window":
        return window_factory(PROPERTY_PANEL, rho=rho)

    def factory(generator):
        synth = CumulativeSynthesizer(
            horizon=PROPERTY_PANEL.horizon, rho=rho, counter=counter, seed=generator
        )
        return fallback_reference(synth) if kind == "fallback" else synth

    return factory


class TestAutomaticPath:
    """replicate_synthesizer batches exactly the runs the rule admits."""

    @given(
        spec=FACTORIES,
        query_list=st.sampled_from(sorted(QUERY_LISTS)),
        use_grid_answer=st.booleans(),
        noisy=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_exactly_when_qualifying(self, spec, query_list, use_grid_answer, noisy):
        kind, counter = spec
        factory = _property_factory(kind, counter, 0.5 if noisy else math.inf)
        queries = QUERY_LISTS[query_list]
        answer_fn = grid_answer if use_grid_answer else None
        qualifies = (
            kind == "cumulative"
            and counter in available_banks()
            and query_list == "hamming"
            and answer_fn is None
        )
        assert (_batched_config(factory, PROPERTY_PANEL, queries, answer_fn) is not None) == (
            qualifies
        )

        def run(fn):
            # A cumulative release rejects window queries and a window
            # release rejects Hamming queries: both paths must fail alike.
            try:
                return replicate_synthesizer(
                    factory, PROPERTY_PANEL, queries, [1, 3, 6], n_reps=3, seed=11,
                    answer_fn=fn,
                )
            except ConfigurationError as exc:
                return f"{type(exc).__name__}: {exc}"

        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _spy_on_batched(monkeypatch)
            result = run(answer_fn)
        assert bool(calls) == qualifies
        reference = run(grid_answer)
        if isinstance(reference, str) or isinstance(result, str):
            assert result == reference
        elif noisy:
            assert (result.truth == reference.truth).all()
            assert (np.isnan(result.answers) == np.isnan(reference.answers)).all()
        else:
            assert result.answers.tobytes() == reference.answers.tobytes()


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
        for answer_fn in (None, grid_answer):
            result = replicate_synthesizer(
                cumulative_factory(small_markov_panel), answer_fn=answer_fn, **kwargs
            )
            assert (result.answers == 0.0).all(), answer_fn
