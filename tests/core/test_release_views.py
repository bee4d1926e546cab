"""Release-view robustness: defensive copies, kwargs plumbing, accessors."""

import gc
import math
import weakref

import numpy as np
import pytest

from repro.core.categorical_window import CategoricalWindowSynthesizer
from repro.core.cumulative import CumulativeSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.core.multi_attribute import MultiAttributeSynthesizer
from repro.exceptions import ConfigurationError, NotFittedError
from repro.queries.categorical import CategoricalWindowQuery, CategoryAtLeastM
from repro.queries.cumulative import HammingAtLeast, HammingExactly
from repro.queries.window import AtLeastMOnes
from repro.serve import ShardedService, StreamingSynthesizer
from repro.streams.base import CounterAccuracy
from repro.streams.binary_tree import BinaryTreeCounter


class TestDefensiveCopies:
    def test_window_histogram_is_a_copy(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.1, seed=0,
        )
        release = synth.run(small_markov_panel)
        histogram = release.histogram(5)
        histogram[:] = -999
        assert (release.histogram(5) >= 0).all()

    def test_threshold_table_is_a_copy(self, small_markov_panel):
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.1, seed=1,
        )
        release = synth.run(small_markov_panel)
        table = release.threshold_table()
        table[:] = -999
        assert release.threshold_table().min() >= 0

    def test_synthetic_panels_are_immutable(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.1, seed=2,
        )
        release = synth.run(small_markov_panel)
        with pytest.raises(ValueError):
            release.synthetic_data().matrix[0, 0] = 1


class TestReleaseViewLifetime:
    """A release view holds its synthesizer, never the other way round."""

    PANEL = np.random.default_rng(4).integers(0, 2, size=(40, 4))

    BUILDERS = {
        "cumulative": lambda: CumulativeSynthesizer(horizon=4, rho=0.5, seed=0),
        "fixed_window": lambda: FixedWindowSynthesizer(horizon=4, window=2, rho=0.5, seed=0),
        "categorical_window": lambda: CategoricalWindowSynthesizer(4, 2, 3, 0.5, seed=0),
        "multi_attribute": lambda: MultiAttributeSynthesizer(
            4, 2, 0.5, attributes=["a", "b"], seed=0
        ),
        "streaming_cumulative": lambda: StreamingSynthesizer.cumulative(4, 0.5, seed=0),
        "streaming_fixed_window": lambda: StreamingSynthesizer.fixed_window(
            4, 2, 0.5, seed=0
        ),
    }

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_dropped_synthesizer_is_freed_without_the_cycle_collector(self, kind):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            synth = self.BUILDERS[kind]()
            for column in self.PANEL.T:
                if kind == "multi_attribute":
                    synth.observe({"a": column, "b": 1 - column})
                else:
                    synth.observe(column)
            release = synth.release
            assert release.t == 4
            # A streaming service's state lives in its wrapped synthesizer.
            refs = [weakref.ref(synth), weakref.ref(getattr(synth, "synthesizer", synth))]
            del synth, release
            assert [ref() for ref in refs] == [None, None]
        finally:
            if was_enabled:
                gc.enable()


class TestAccessors:
    def test_release_metadata_before_any_data(self):
        synth = FixedWindowSynthesizer(horizon=6, window=2, rho=0.5, seed=4)
        with pytest.raises(NotFittedError):
            synth.release.n_original
        with pytest.raises(NotFittedError):
            synth.release.n_synthetic

    def test_cumulative_m_before_data(self):
        synth = CumulativeSynthesizer(horizon=6, rho=0.5, seed=5)
        with pytest.raises(NotFittedError):
            synth.release.m

    def test_released_times_ascending(self, small_markov_panel):
        synth = FixedWindowSynthesizer(
            horizon=small_markov_panel.horizon, window=3, rho=0.1, seed=6,
        )
        release = synth.run(small_markov_panel)
        times = release.released_times()
        assert times == sorted(times)
        assert times[0] == 3 and times[-1] == small_markov_panel.horizon

    def test_answer_accepts_numpy_time(self, small_markov_panel):
        # Times coming out of numpy arrays must work as indices.
        synth = CumulativeSynthesizer(
            horizon=small_markov_panel.horizon, rho=0.1, seed=7,
        )
        release = synth.run(small_markov_panel)
        t = np.int64(5)
        value = release.answer(HammingAtLeast(2), int(t))
        assert 0.0 <= value <= 1.0


class TestCounterAccuracy:
    def test_accuracy_dataclass(self):
        counter = BinaryTreeCounter(16, 0.5)
        accuracy = counter.accuracy(beta=0.1, t=7)
        assert isinstance(accuracy, CounterAccuracy)
        assert accuracy.alpha == pytest.approx(
            counter.error_stddev(7) * math.sqrt(2 * math.log(2 / 0.1))
        )

    def test_accuracy_beta_validation(self):
        counter = BinaryTreeCounter(16, 0.5)
        with pytest.raises(Exception):
            counter.accuracy(beta=0.0)

    def test_noiseless_accuracy_zero(self):
        counter = BinaryTreeCounter(16, math.inf)
        assert counter.accuracy(beta=0.05).alpha == 0.0


class TestForeignQueries:
    """Window releases reject query types they cannot answer, by name."""

    PANEL = np.random.default_rng(4).integers(0, 3, size=(40, 6))
    CASES = {
        "fixed_window": (
            {},
            2,
            "fixed-window release answers WindowQuery/CategoricalWindowQuery",
        ),
        "categorical_window": (
            {"alphabet": 3},
            3,
            "categorical window release answers CategoricalWindowQuery",
        ),
    }

    def _release(self, algorithm):
        kwargs, alphabet, _ = self.CASES[algorithm]
        service = getattr(StreamingSynthesizer, algorithm)(
            horizon=6, window=2, rho=math.inf, seed=0, **kwargs
        )
        for column in (self.PANEL % alphabet).T:
            service.observe(column)
        return service.release

    @pytest.mark.parametrize("algorithm", sorted(CASES))
    @pytest.mark.parametrize(
        "query", [HammingAtLeast(2), HammingExactly(1)], ids=["at_least", "exactly"]
    )
    def test_answer_and_batch_reject(self, algorithm, query):
        release = self._release(algorithm)
        message = self.CASES[algorithm][2]
        with pytest.raises(ConfigurationError, match=message):
            release.answer(query, 4)
        with pytest.raises(ConfigurationError, match=message):
            release.answer_batch([query], [4])

    def test_categorical_release_rejects_binary_window_query(self):
        release = self._release("categorical_window")
        with pytest.raises(ConfigurationError, match="CategoricalWindowQuery"):
            release.answer(AtLeastMOnes(2, 1), 4)
        with pytest.raises(ConfigurationError, match="CategoricalWindowQuery"):
            release.answer_series(AtLeastMOnes(2, 1))

    @pytest.mark.parametrize("algorithm", sorted(CASES))
    def test_sharded_answer_rejects(self, algorithm):
        kwargs, alphabet, message = self.CASES[algorithm]
        with ShardedService(
            2,
            algorithm=algorithm,
            seed=0,
            executor="serial",
            horizon=6,
            window=2,
            rho=math.inf,
            **kwargs,
        ) as service:
            for column in (self.PANEL % alphabet).T:
                service.observe(column)
            with pytest.raises(ConfigurationError, match=message):
                service.answer(HammingAtLeast(2), 4)
            with pytest.raises(ConfigurationError, match=message):
                service.answer_batch([HammingAtLeast(2)], [4])


class TestOneWindowRelease:
    """The binary and categorical releases answer through one code path."""

    PANEL = np.random.default_rng(9).integers(0, 2, size=(120, 8))
    TIMES = list(range(3, 9))

    def _release(self, algorithm):
        kwargs = {"alphabet": 2} if algorithm == "categorical_window" else {}
        service = getattr(StreamingSynthesizer, algorithm)(
            horizon=8, window=3, rho=0.5, seed=1, **kwargs
        )
        for column in self.PANEL.T:
            service.observe(column)
        return service.release

    @pytest.mark.parametrize("convention", ["uniform", "panel"])
    def test_binary_release_answers_wide_binary_categorical_query(self, convention):
        release = self._release("fixed_window")
        categorical = CategoricalWindowQuery.from_predicate(
            5, 2, lambda digits: sum(digits) >= 2, name="two of five"
        )
        binary = AtLeastMOnes(5, 2)
        conv = {"padding_convention": convention}
        for t in range(5, 9):
            assert release.answer(categorical, t, **conv) == release.answer(binary, t, **conv)
        grids = [release.answer_batch([q], self.TIMES, **conv) for q in (categorical, binary)]
        assert grids[0].tobytes() == grids[1].tobytes()

    def test_categorical_release_takes_padding_convention(self):
        release = self._release("categorical_window")
        queries = [CategoryAtLeastM(2, 2, category=1, m=1), CategoryAtLeastM(5, 2, 1, 2)]
        default = release.answer_batch(queries, self.TIMES)
        uniform = release.answer_batch(queries, self.TIMES, padding_convention="uniform")
        assert uniform.tobytes() == default.tobytes()
        panel = release.answer_batch(queries, self.TIMES, padding_convention="panel")
        for i, t in enumerate(self.TIMES):
            narrow = release.answer(queries[0], t)
            assert release.answer(queries[0], t, padding_convention="uniform") == narrow
            assert panel[0, i] == pytest.approx(narrow)
            if t >= 5:
                assert panel[1, i] == release.answer(queries[1], t, padding_convention="panel")
        with pytest.raises(ConfigurationError, match="padding_convention"):
            release.answer(queries[0], 4, padding_convention="bogus")

    def test_sharded_categorical_service_takes_padding_convention(self):
        queries = [CategoryAtLeastM(2, 2, category=1, m=1), CategoryAtLeastM(5, 2, 1, 2)]
        with ShardedService(
            2,
            algorithm="categorical_window",
            seed=0,
            executor="serial",
            horizon=8,
            window=3,
            alphabet=2,
            rho=0.5,
        ) as service:
            for column in self.PANEL.T:
                service.observe(column)
            default = service.answer_batch(queries, self.TIMES)
            uniform = service.answer_batch(queries, self.TIMES, padding_convention="uniform")
            assert uniform.tobytes() == default.tobytes()
            panel = service.answer_batch(queries, self.TIMES, padding_convention="panel")
            for t in range(5, 9):
                expected = service.answer(queries[1], t, padding_convention="panel")
                assert panel[1, t - 3] == expected

    @pytest.mark.parametrize("debias", [True, False])
    def test_binary_answer_series_equals_the_answer_loop(self, debias):
        release = self._release("fixed_window")
        # Widths below, at and above the window (the last from records).
        for query in (AtLeastMOnes(2, 1), AtLeastMOnes(3, 2), AtLeastMOnes(5, 2)):
            series = release.answer_series(query, debias=debias)
            times = [t for t in self.TIMES if t >= query.k]
            looped = [release.answer(query, t, debias=debias) for t in times]
            assert series.tolist() == looped

    @pytest.mark.parametrize("algorithm", ["fixed_window", "categorical_window"])
    def test_every_path_rejects_the_same_queries(self, algorithm):
        release = self._release(algorithm)
        foreign = [HammingAtLeast(2), CategoryAtLeastM(2, 3, category=1, m=1)]
        if algorithm == "categorical_window":
            foreign.append(AtLeastMOnes(2, 1))
        for query in foreign:
            with pytest.raises(ConfigurationError):
                release.answer(query, 4)
            with pytest.raises(ConfigurationError):
                release.answer_batch([query], [4])
            with pytest.raises(ConfigurationError):
                release.answer_series(query)

    @pytest.mark.parametrize(
        "module,name",
        [
            ("repro.core.categorical_window", "lift_categorical_weights"),
            ("repro.core.categorical_window", "apply_categorical_correction"),
            ("repro.data.categorical", "categorical_padding_panel"),
        ],
    )
    def test_removed_twins_are_gone(self, module, name):
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})
