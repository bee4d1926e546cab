"""Batched serving: one fan-out per workload, bit-identical with the loop.

``ShardedService.answer_batch`` ships the compiled workload to every
shard in a single executor round-trip and merges the per-shard answer
matrices with the same shard-order weighted accumulation as the scalar
:meth:`answer` loop — so the merged grid must be *bit-identical* to
calling ``answer(query, t)`` per cell, for every executor strategy,
under noise and churn, warm or cold cache.  The answer cache is keyed
by the service release version, so committed rounds and shard
disablement must invalidate it; the supervised façade passes batches
through unchanged (recovering first when a round failed).
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.data.generators import churn_two_state_markov
from repro.exceptions import DegradedServiceWarning
from repro.queries import AtLeastMOnes, HammingAtLeast, HammingExactly
from repro.serve import ShardedService
from repro.serve.policy import RetryPolicy
from repro.serve.supervisor import SupervisedService

HORIZON = 8
K = 3

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="process executor needs the fork start method",
)

EXECUTORS = ["serial", pytest.param("process", marks=needs_fork)]

#: algorithm -> (service kwargs, mixed workload, first answerable round)
CONFIGS = {
    "cumulative": (
        dict(algorithm="cumulative", horizon=HORIZON, rho=0.3),
        [HammingAtLeast(2), HammingExactly(1), HammingAtLeast(HORIZON + 9)],
        1,
    ),
    "fixed_window": (
        dict(algorithm="fixed_window", horizon=HORIZON, window=3, rho=0.3),
        [AtLeastMOnes(3, 1), AtLeastMOnes(2, 2), AtLeastMOnes(4, 1)],
        3,
    ),
}


@pytest.fixture(scope="module")
def churn_events():
    panel = churn_two_state_markov(
        60, HORIZON, 0.85, 0.2, entry_rate=0.25, exit_hazard=0.08, seed=4
    )
    return list(panel.rounds())


def _drive(service, events):
    for column, entrants, exits in events:
        service.observe(column, entrants=entrants, exits=exits)
    return service


def _scalar_grid(service, queries, times):
    grid = np.full((len(queries), len(times)), np.nan, dtype=np.float64)
    for qi, query in enumerate(queries):
        for ti, t in enumerate(times):
            if t >= query.min_time():
                grid[qi, ti] = service.answer(query, t)
    return grid


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_batched_merge_is_bit_identical_to_scalar_loop(
    algorithm, executor, churn_events
):
    kwargs, queries, start = CONFIGS[algorithm]
    service = _drive(
        ShardedService(K, seed=9, executor=executor, **kwargs), churn_events
    )
    try:
        times = list(range(start, HORIZON + 1))
        cold = service.answer_batch(queries, times)
        warm = service.answer_batch(queries, times)
        reference = _scalar_grid(service, queries, times)
        assert np.array_equal(cold, reference, equal_nan=True)
        assert np.array_equal(warm, reference, equal_nan=True)
    finally:
        service.close()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_committed_rounds_invalidate_the_answer_cache(executor, churn_events):
    kwargs, queries, start = CONFIGS["cumulative"]
    service = ShardedService(K, seed=9, executor=executor, **kwargs)
    try:
        column, entrants, exits = churn_events[0]
        service.observe(column, entrants=entrants, exits=exits)
        first = service.answer_batch(queries, [1])
        assert np.array_equal(service.answer_batch(queries, [1]), first)
        for column, entrants, exits in churn_events[1:]:
            service.observe(column, entrants=entrants, exits=exits)
        times = list(range(start, HORIZON + 1))
        refreshed = service.answer_batch(queries, times)
        assert np.array_equal(
            refreshed, _scalar_grid(service, queries, times), equal_nan=True
        )
    finally:
        service.close()


def test_disable_shard_invalidates_the_answer_cache(churn_events):
    kwargs, queries, _ = CONFIGS["cumulative"]
    service = _drive(ShardedService(K, seed=9, **kwargs), churn_events)
    try:
        times = [HORIZON // 2, HORIZON]
        healthy = service.answer_batch(queries, times)
        service.disable_shard(1, "injected")
        with pytest.warns(DegradedServiceWarning):
            degraded = service.answer_batch(queries, times)
        assert not np.array_equal(healthy, degraded, equal_nan=True)
        with pytest.warns(DegradedServiceWarning):
            reference = _scalar_grid(service, queries, times)
        assert np.array_equal(degraded, reference, equal_nan=True)
    finally:
        service.close()


def test_supervised_service_passes_batches_through(tmp_path, churn_events):
    kwargs, queries, start = CONFIGS["cumulative"]
    policy = RetryPolicy(max_retries=1, backoff_base=0.01, checkpoint_every=100)
    service = SupervisedService(
        str(tmp_path / "svc"), n_shards=K, seed=9, policy=policy, **kwargs
    )
    try:
        for column, entrants, exits in churn_events:
            service.observe(column, entrants=entrants, exits=exits)
        times = list(range(start, HORIZON + 1))
        batched = service.answer_batch(queries, times)
        assert np.array_equal(
            batched, _scalar_grid(service, queries, times), equal_nan=True
        )
    finally:
        service.close()


def test_supervised_batch_answers_survive_reattach(tmp_path, churn_events):
    """A resumed service serves the same batched grid it journaled."""
    kwargs, queries, start = CONFIGS["cumulative"]
    policy = RetryPolicy(max_retries=1, backoff_base=0.01, checkpoint_every=2)
    directory = str(tmp_path / "svc")
    service = SupervisedService(
        directory, n_shards=K, seed=9, policy=policy, **kwargs
    )
    for column, entrants, exits in churn_events:
        service.observe(column, entrants=entrants, exits=exits)
    times = list(range(start, HORIZON + 1))
    published = service.answer_batch(queries, times)
    service.close()

    with SupervisedService.attach(directory, policy=policy) as resumed:
        assert np.array_equal(
            resumed.answer_batch(queries, times), published, equal_nan=True
        )


def test_unfamiliar_queries_fall_back_per_shard(churn_events):
    """An uncompilable query rides the scalar fallback inside the batch."""

    class Halves(AtLeastMOnes):
        pass

    kwargs, _, _ = CONFIGS["fixed_window"]
    service = _drive(ShardedService(K, seed=9, **kwargs), churn_events)
    try:
        queries = [Halves(3, 1), AtLeastMOnes(3, 1)]
        grid = service.answer_batch(queries, [4, HORIZON])
        reference = _scalar_grid(service, queries, [4, HORIZON])
        assert np.array_equal(grid, reference, equal_nan=True)
        # Halves compiles like its base class; both rows agree.
        assert np.array_equal(grid[0], grid[1])
    finally:
        service.close()
