"""Query planner: compilation, workload round-trips, and answer caching.

The contracts the batched read path stands on:

* ``compile_cumulative`` maps Hamming-threshold queries onto threshold
  table columns exactly (including the virtual zero column for
  ``b > horizon``);
* a mixed workload sent to process-executor shard workers as query
  objects comes back as the serial grid, byte for byte;
* ``AnswerCache`` serves a grid back only at the version it was stored
  under — every ``observe()`` and ``load_state()`` bumps the release
  version, so churny services can never serve stale answers.
"""

import math
import multiprocessing as mp

import numpy as np
import pytest

from repro.core import CumulativeSynthesizer, FixedWindowSynthesizer
from repro.exceptions import ConfigurationError
from repro.queries import AtLeastMOnes, HammingAtLeast, HammingExactly
from repro.queries.base import WindowQuery
from repro.queries.categorical import CategoricalWindowQuery
from repro.queries.plan import (
    AnswerCache,
    compile_cumulative,
    release_answer_grid,
    scalar_answer_grid,
    workload_key,
)
from repro.serve import ShardedService

HORIZON = 6
N = 40


def _column(t: int) -> np.ndarray:
    return (np.arange(N) + t) % 2


def _driven_cumulative():
    synth = CumulativeSynthesizer(HORIZON, math.inf, seed=0)
    for t in range(1, HORIZON + 1):
        synth.observe(_column(t))
    return synth


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


class TestCompileCumulative:
    def test_column_indices_reproduce_threshold_differences(self):
        synth = _driven_cumulative()
        release = synth.release
        queries = [HammingAtLeast(1), HammingAtLeast(4), HammingExactly(2)]
        lower, upper = compile_cumulative(queries, HORIZON)
        augmented = np.concatenate(
            [release.threshold_table(), np.zeros((HORIZON + 1, 1), dtype=np.int64)],
            axis=1,
        )
        for t in range(1, HORIZON + 1):
            counts = augmented[t, lower] - augmented[t, upper]
            for qi, query in enumerate(queries):
                assert counts[qi] / N == release.answer(query, t)

    def test_b_above_horizon_maps_to_the_virtual_zero_column(self):
        lower, upper = compile_cumulative(
            [HammingAtLeast(HORIZON + 3), HammingExactly(HORIZON)], HORIZON
        )
        zero = HORIZON + 1
        assert lower[0] == zero and upper[0] == zero
        assert lower[1] == HORIZON and upper[1] == zero

    def test_non_hamming_queries_are_rejected(self):
        with pytest.raises(ConfigurationError, match="cumulative planner"):
            compile_cumulative([AtLeastMOnes(3, 1)], HORIZON)


# ----------------------------------------------------------------------
# Workload round-trips
# ----------------------------------------------------------------------


#: The mixed workload, split by the service algorithm whose releases
#: answer each part: ``algorithm -> (service kwargs, queries)``.
MIXED_WORKLOAD = {
    "cumulative": (dict(horizon=HORIZON), [HammingAtLeast(2), HammingExactly(1)]),
    "fixed_window": (
        dict(horizon=HORIZON, window=3),
        [
            AtLeastMOnes(3, 2),
            WindowQuery(2, np.array([0.25, -1.5, 3.0, 0.0]), "custom"),
        ],
    ),
    "categorical_window": (
        dict(horizon=HORIZON, window=2, alphabet=3),
        [CategoricalWindowQuery(1, np.array([0.0, 1.0, 0.5]), 3, name="cat-probe")],
    ),
}


class TestWorkloadRoundTrip:
    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(),
        reason="process executor needs the fork start method",
    )
    def test_mixed_workload_round_trips_bit_identically(self):
        """Query objects cross the worker pipes and answer as in-process."""
        for algorithm, (kwargs, queries) in MIXED_WORKLOAD.items():
            alphabet = kwargs.get("alphabet", 2)
            # Windowed releases answer from their first full window on.
            times = list(range(kwargs.get("window", 1), HORIZON + 1))
            grids = {}
            for executor in ("serial", "process"):
                with ShardedService(
                    2, algorithm=algorithm, rho=0.5, seed=3, executor=executor, **kwargs
                ) as service:
                    for t in range(1, HORIZON + 1):
                        service.observe((np.arange(N) * t // 3 + t) % alphabet)
                    grids[executor] = service.answer_batch(queries, times)
            assert grids["process"].tobytes() == grids["serial"].tobytes(), algorithm
            assert not np.isnan(grids["serial"][:, -1]).any()


# ----------------------------------------------------------------------
# Signatures and workload keys
# ----------------------------------------------------------------------


class TestWorkloadKey:
    def test_equal_workloads_share_a_key(self):
        queries = [HammingAtLeast(2), HammingExactly(1)]
        clones = [HammingAtLeast(2), HammingExactly(1)]
        assert workload_key(queries, [1, 2]) == workload_key(clones, [1, 2])

    def test_key_separates_times_queries_and_kwargs(self):
        queries = [AtLeastMOnes(3, 1)]
        base = workload_key(queries, [3, 4])
        assert base != workload_key(queries, [3, 5])
        assert base != workload_key([AtLeastMOnes(3, 2)], [3, 4])
        assert base != workload_key(queries, [3, 4], debias=False)

    def test_unknown_query_or_unhashable_kwargs_disable_caching(self):
        assert workload_key([object()], [1]) is None
        assert workload_key([HammingAtLeast(1)], [1], bad=[1, 2]) is None


# ----------------------------------------------------------------------
# AnswerCache
# ----------------------------------------------------------------------


class TestAnswerCache:
    def test_hit_only_at_the_stored_version(self):
        cache = AnswerCache()
        grid = np.array([[1.0, 2.0]])
        cache.put(0, "key", grid)
        assert np.array_equal(cache.get(0, "key"), grid)
        assert cache.get(1, "key") is None

    def test_new_version_evicts_every_stale_entry(self):
        cache = AnswerCache()
        cache.put(0, "a", np.zeros((1, 1)))
        cache.put(0, "b", np.ones((1, 1)))
        assert len(cache) == 2
        cache.put(1, "a", np.zeros((1, 1)))
        assert len(cache) == 1
        assert cache.get(1, "b") is None

    def test_grids_are_copied_both_ways(self):
        cache = AnswerCache()
        grid = np.array([[1.0]])
        cache.put(0, "key", grid)
        grid[0, 0] = 99.0
        served = cache.get(0, "key")
        assert served[0, 0] == 1.0
        served[0, 0] = -1.0
        assert cache.get(0, "key")[0, 0] == 1.0


# ----------------------------------------------------------------------
# Grid semantics and dispatch
# ----------------------------------------------------------------------


class TestGridSemantics:
    def test_scalar_grid_nans_below_min_time(self):
        release = _driven_cumulative().release
        grid = scalar_answer_grid(release, [HammingAtLeast(1)], [1, HORIZON])
        assert not np.isnan(grid).any()
        # HammingExactly(0) is answerable from t=1 too; fabricate a floor
        # via a window query against a window release instead.
        synth = FixedWindowSynthesizer(HORIZON, 3, math.inf, seed=0)
        for t in range(1, HORIZON + 1):
            synth.observe(_column(t))
        wide = AtLeastMOnes(5, 1)  # min_time 5
        grid = scalar_answer_grid(synth.release, [wide], [3, 4, 5, 6])
        assert np.isnan(grid[0, :2]).all() and not np.isnan(grid[0, 2:]).any()

    def test_release_answer_grid_matches_batch_and_scalar(self):
        release = _driven_cumulative().release
        queries = [HammingAtLeast(1), HammingExactly(2)]
        times = list(range(1, HORIZON + 1))
        via_dispatch = release_answer_grid(release, queries, times)
        via_batch = release.answer_batch(queries, times)
        via_scalar = scalar_answer_grid(release, queries, times)
        assert np.array_equal(via_dispatch, via_batch, equal_nan=True)
        assert np.array_equal(via_dispatch, via_scalar, equal_nan=True)

    def test_release_answer_grid_falls_back_without_answer_batch(self):
        class Flat:
            def answer(self, query, t):
                return float(t)

        grid = release_answer_grid(Flat(), [HammingAtLeast(1)], [1, 2])
        assert grid.tolist() == [[1.0, 2.0]]


# ----------------------------------------------------------------------
# Cache invalidation under state changes
# ----------------------------------------------------------------------


class TestCacheInvalidation:
    QUERIES = [HammingAtLeast(1), HammingExactly(0)]

    def _grid(self, synth, times):
        return synth.release.answer_batch(self.QUERIES, times)

    def test_observe_invalidates_cached_answers(self):
        synth = CumulativeSynthesizer(HORIZON, math.inf, seed=0)
        synth.observe(np.ones(N, dtype=np.int64))
        before = self._grid(synth, [1])
        assert np.array_equal(self._grid(synth, [1]), before)  # warm hit
        version = synth.release.version
        synth.observe(np.zeros(N, dtype=np.int64))
        assert synth.release.version != version
        after = self._grid(synth, [2])
        reference = scalar_answer_grid(synth.release, self.QUERIES, [2])
        assert np.array_equal(after, reference, equal_nan=True)

    def test_load_state_invalidates_cached_answers(self):
        donor = CumulativeSynthesizer(HORIZON, math.inf, seed=0)
        for t in range(1, 4):
            donor.observe(_column(t))
        snapshot = donor.state_dict()

        clone = CumulativeSynthesizer(HORIZON, math.inf, seed=0)
        version = clone.release.version
        clone.load_state(snapshot)
        assert clone.release.version != version
        restored = self._grid(clone, [1, 2, 3])
        reference = scalar_answer_grid(clone.release, self.QUERIES, [1, 2, 3])
        assert np.array_equal(restored, reference, equal_nan=True)
        # Post-restore rounds invalidate post-restore cached grids too.
        cached = self._grid(clone, [1, 2, 3])
        assert np.array_equal(cached, restored)
        clone.observe(_column(4))
        after = self._grid(clone, [1, 2, 3, 4])
        fresh = scalar_answer_grid(clone.release, self.QUERIES, [1, 2, 3, 4])
        assert np.array_equal(after, fresh, equal_nan=True)
