"""Executor equivalence: serial and process shard stepping.

The contract the scale-out layer rests on: the two
:mod:`repro.serve.executor` strategies are *indistinguishable* from the
outside — byte-identical merged answers, zCDP ledgers, and checkpoint
bundles, under noise, churn, and mid-stream restore, for every
algorithm.  Noise draws come from per-shard spawned RNG streams, so no
stepping order can legally change any output byte; these tests make
that an enforced invariant rather than an argument.
"""

import io
import math
import multiprocessing as mp

import numpy as np
import pytest

from repro.data.generators import churn_two_state_markov
from repro.exceptions import ConfigurationError, ConsistencyError, DataValidationError
from repro.queries import AtLeastMOnes, HammingAtLeast
from repro.queries.categorical import CategoryAtLeastM
from repro.serve import EXECUTOR_STRATEGIES, ShardedService

HORIZON = 8
K = 3

HAS_FORK = "fork" in mp.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="process executor needs the fork start method"
)

#: algorithm -> (service kwargs, probe query, first answerable round)
CONFIGS = {
    "cumulative": (
        dict(algorithm="cumulative", horizon=HORIZON, rho=0.3),
        HammingAtLeast(2),
        1,
    ),
    "fixed_window": (
        dict(algorithm="fixed_window", horizon=HORIZON, window=3, rho=0.3),
        AtLeastMOnes(3, 1),
        3,
    ),
    "categorical_window": (
        dict(
            algorithm="categorical_window",
            horizon=HORIZON,
            window=2,
            alphabet=3,
            rho=0.3,
        ),
        CategoryAtLeastM(2, 3, category=1, m=1),
        2,
    ),
}

PARALLEL = [pytest.param("process", marks=needs_fork)]


@pytest.fixture(scope="module")
def churn_events():
    panel = churn_two_state_markov(
        60, HORIZON, 0.85, 0.2, entry_rate=0.25, exit_hazard=0.08, seed=4
    )
    return list(panel.rounds())


def _events_for(algorithm, churn_events):
    """Per-algorithm round events (categorical folds reports into [0, 3))."""
    if algorithm != "categorical_window":
        return churn_events
    return [
        ((column + np.arange(column.shape[0])) % 3, entrants, exits)
        for column, entrants, exits in churn_events
    ]


def _drive(service, events):
    for column, entrants, exits in events:
        service.observe(column, entrants=entrants, exits=exits)
    return service


def _observables(service, query, start):
    """Everything a client can see: answers, ledgers, loads, checkpoint."""
    answers = [service.answer(query, t) for t in range(start, HORIZON + 1)]
    buffer = io.BytesIO()
    service.checkpoint(buffer)
    return {
        "answers": answers,
        "ledgers": service.shard_ledgers(),
        "spent": service.zcdp_spent(),
        "loads": service.shard_loads().tolist(),
        "bundle": buffer.getvalue(),
    }


@pytest.mark.parametrize("executor", PARALLEL)
@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_parallel_executors_are_byte_identical_to_serial(
    algorithm, executor, churn_events
):
    kwargs, query, start = CONFIGS[algorithm]
    events = _events_for(algorithm, churn_events)
    serial = _drive(ShardedService(K, seed=9, executor="serial", **kwargs), events)
    parallel = _drive(ShardedService(K, seed=9, executor=executor, **kwargs), events)
    reference = _observables(serial, query, start)
    observed = _observables(parallel, query, start)
    parallel.close()
    serial.close()
    assert observed["answers"] == reference["answers"]
    assert observed["ledgers"] == reference["ledgers"]
    assert observed["spent"] == reference["spent"]
    assert observed["loads"] == reference["loads"]
    assert observed["bundle"] == reference["bundle"], (
        "checkpoint bundles differ between serial and " + executor
    )


@pytest.mark.parametrize("executor", PARALLEL)
def test_mid_churn_restore_crosses_executors(executor, churn_events):
    """A checkpoint written under one strategy restores under any other."""
    kwargs, query, start = CONFIGS["cumulative"]
    serial = _drive(ShardedService(K, seed=5, executor="serial", **kwargs), churn_events)

    partial = ShardedService(K, seed=5, executor=executor, **kwargs)
    _drive(partial, churn_events[:4])  # checkpoint lands mid-churn
    buffer = io.BytesIO()
    partial.checkpoint(buffer)
    partial.close()
    buffer.seek(0)
    resumed = ShardedService.restore(buffer, executor=executor)
    assert resumed.executor == executor
    assert resumed.t == 4
    _drive(resumed, churn_events[4:])

    reference = _observables(serial, query, start)
    observed = _observables(resumed, query, start)
    resumed.close()
    serial.close()
    assert observed == reference

    # And the parallel-written bundle restores under serial too.
    buffer.seek(0)
    again = ShardedService.restore(buffer, executor="serial")
    assert again.executor == "serial"
    _drive(again, churn_events[4:])
    assert _observables(again, query, start) == reference
    again.close()


@needs_fork
def test_process_executor_hides_shard_objects(churn_events):
    service = ShardedService(
        K, algorithm="cumulative", horizon=HORIZON, rho=math.inf, executor="process"
    )
    with pytest.raises(ConfigurationError, match="worker processes"):
        service.shards
    service.close()


@needs_fork
def test_rejected_round_does_not_poison_process_service():
    """Pre-dispatch validation rejects bad rounds without touching workers."""
    service = ShardedService(
        2,
        algorithm="cumulative",
        horizon=2,
        rho=math.inf,
        executor="process",
    )
    service.observe(np.ones(10, dtype=np.int64))
    with pytest.raises(Exception, match="entries"):
        service.observe(np.ones(11, dtype=np.int64))
    # The rejection happened before dispatch, so ingestion continues cleanly.
    service.observe(np.zeros(10, dtype=np.int64))
    assert service.t == 2
    service.close()


@needs_fork
def test_worker_exceptions_propagate_to_parent():
    """An exception raised inside a forked worker crosses the pipe intact."""
    service = ShardedService(
        2, algorithm="cumulative", horizon=4, rho=math.inf, executor="process"
    )
    service.observe(np.ones(8, dtype=np.int64))
    # Bypass service validation: hand shard 1 a column of the wrong length.
    with pytest.raises(DataValidationError) as raised:
        service._executor.dispatch_round(
            [
                (np.ones(4, dtype=np.int64), 0, None),
                (np.ones(99, dtype=np.int64), 0, None),
            ]
        )
    assert raised.value.shard_index == 1
    assert (raised.value.dispatched, raised.value.completed) == (2, 1)
    service.close()


@needs_fork
def test_process_worker_death_raises_consistency_error():
    service = ShardedService(
        2, algorithm="cumulative", horizon=4, rho=math.inf, executor="process"
    )
    service.observe(np.ones(8, dtype=np.int64))
    for process in service._executor._processes:
        process.terminate()
        process.join()
    with pytest.raises(ConsistencyError, match="died"):
        service.shard_ledgers()
    service.close()


def test_default_is_serial_and_thread_is_rejected(monkeypatch):
    # A REPRO_SHARD_EXECUTOR left in a deployment's environment changes
    # nothing.
    monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "thread")
    service = ShardedService(2, algorithm="cumulative", horizon=4, rho=math.inf)
    assert service.executor == "serial"
    service.close()
    with pytest.raises(ConfigurationError, match="'serial', 'process'"):
        ShardedService(
            2, algorithm="cumulative", horizon=4, rho=math.inf, executor="thread"
        )


def test_strategy_names_are_the_documented_set():
    assert EXECUTOR_STRATEGIES == ("serial", "process")


@needs_fork
def test_large_round_grows_staging_buffers():
    """Column staging survives capacity growth (new segment mid-stream)."""
    service = ShardedService(
        2, algorithm="cumulative", horizon=3, rho=math.inf, executor="process"
    )
    service.observe(np.ones(64, dtype=np.int64), entrants=0)
    # Entrants enlarge the column past the round-1 segment capacity.
    service.observe(np.ones(5000, dtype=np.int64), entrants=4936)
    service.observe(np.ones(5000, dtype=np.int64))
    assert service.n == 5000
    # Only the 64 round-1 members have three ones; noiseless => exact.
    assert service.answer(HammingAtLeast(3), t=3) == pytest.approx(64 / 5000)
    service.close()


@needs_fork
def test_staging_segment_grows_geometrically(monkeypatch):
    """A growing panel re-creates the staging segment O(log) times, not per round."""
    from multiprocessing import shared_memory

    rounds, initial, per_round = 40, 1000, 10
    service = ShardedService(
        2,
        algorithm="cumulative",
        horizon=rounds + 1,
        rho=math.inf,
        executor="process",
    )
    created = []
    real = shared_memory.SharedMemory

    def counting(*args, **kwargs):
        if kwargs.get("create"):
            created.append(kwargs["size"])
        return real(*args, **kwargs)

    monkeypatch.setattr(shared_memory, "SharedMemory", counting)
    service.observe(np.ones(initial, dtype=np.int64))
    for _ in range(rounds):
        service.observe(np.ones(service.n + per_round, dtype=np.int64), entrants=per_round)
    final = service.n
    assert final == initial + rounds * per_round
    # Noiseless: only the round-1 members report in every round.
    assert service.answer(HammingAtLeast(rounds + 1), t=rounds + 1) == pytest.approx(
        initial / final
    )
    service.close()
    assert 1 <= len(created) <= 1 + math.ceil(math.log2(final / initial))


@pytest.mark.parametrize("executor", ["serial", *PARALLEL])
def test_poison_message_counts_the_shards_that_ingested_the_round(executor):
    """Shard 2 of 3 rejects round 2 after shards 0 and 1 ingested it."""
    service = ShardedService(
        3, algorithm="cumulative", horizon=4, rho=math.inf, executor=executor
    )
    service.observe(np.ones(9, dtype=np.int64))
    real = service._executor.dispatch_round

    def short_last_shard(jobs):
        column, entrants, exits = jobs[2]
        return real([*jobs[:2], (column[:-1], entrants, exits)])

    service._executor.dispatch_round = short_last_shard
    with pytest.raises(DataValidationError):
        service.observe(np.zeros(9, dtype=np.int64))
    if executor == "serial":
        assert [shard.t for shard in service.shards] == [2, 2, 1]
    with pytest.raises(
        ConsistencyError, match="round 2 failed after 2 of 3 shards ingested it"
    ):
        service.answer(HammingAtLeast(1), t=1)
    service.close()
