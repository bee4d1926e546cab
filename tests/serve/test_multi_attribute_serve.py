"""Multi-attribute serving parity: executors, churn, checkpoint/restore.

Mirrors ``tests/serve/test_executors.py`` for
``algorithm="multi_attribute"``: the three shard-stepping strategies
must be byte-identical on frame streams — merged answers, ledgers,
loads, and checkpoint bundles — including under churn and across a
mid-stream checkpoint/restore, and a bundle written under one strategy
must restore under any other.
"""

import io
import multiprocessing as mp

import numpy as np
import pytest

from repro.data.generators import churn_two_state_markov
from repro.queries.categorical import CategoryAtLeastM
from repro.serve import ShardedService
from repro.types import AttributeFrame

HORIZON = 8
K = 3

HAS_FORK = "fork" in mp.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="process executor needs the fork start method"
)

PARALLEL = [pytest.param("process", marks=needs_fork)]

KWARGS = dict(
    algorithm="multi_attribute",
    horizon=HORIZON,
    window=3,
    rho=0.3,
    attributes=[
        {"name": "employment", "alphabet": 3},
        {"name": "income", "alphabet": 4},
    ],
)
QUERY = CategoryAtLeastM(3, 3, category=1, m=1)
START = 3


def _frame(column: np.ndarray) -> AttributeFrame:
    """Derive a two-attribute frame from one churn report column."""
    rows = np.arange(column.shape[0])
    return AttributeFrame.from_columns(
        {
            "employment": (column + rows) % 3,
            "income": (column * 2 + rows) % 4,
        }
    )


@pytest.fixture(scope="module")
def frame_events():
    panel = churn_two_state_markov(
        60, HORIZON, 0.85, 0.2, entry_rate=0.25, exit_hazard=0.08, seed=4
    )
    return [
        (_frame(column), entrants, exits) for column, entrants, exits in panel.rounds()
    ]


def _drive(service, events):
    for frame, entrants, exits in events:
        service.observe(frame, entrants=entrants, exits=exits)
    return service


def _observables(service):
    answers = [
        service.answer(QUERY, t, attribute="employment")
        for t in range(START, HORIZON + 1)
    ]
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
def test_parallel_executors_are_byte_identical_to_serial(executor, frame_events):
    serial = _drive(
        ShardedService(K, seed=9, executor="serial", **KWARGS), frame_events
    )
    parallel = _drive(
        ShardedService(K, seed=9, executor=executor, **KWARGS), frame_events
    )
    reference = _observables(serial)
    observed = _observables(parallel)
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
def test_mid_churn_restore_crosses_executors(executor, frame_events):
    """A frame-stream checkpoint restores under any strategy, mid-churn."""
    serial = _drive(
        ShardedService(K, seed=5, executor="serial", **KWARGS), frame_events
    )

    partial = ShardedService(K, seed=5, executor=executor, **KWARGS)
    _drive(partial, frame_events[:4])  # checkpoint lands mid-churn
    buffer = io.BytesIO()
    partial.checkpoint(buffer)
    partial.close()
    buffer.seek(0)
    resumed = ShardedService.restore(buffer, executor=executor)
    assert resumed.executor == executor
    assert resumed.t == 4
    assert resumed.algorithm == "multi_attribute"
    _drive(resumed, frame_events[4:])

    reference = _observables(serial)
    observed = _observables(resumed)
    resumed.close()
    serial.close()
    assert observed == reference

    # And the parallel-written bundle restores under serial too.
    buffer.seek(0)
    again = ShardedService.restore(buffer, executor="serial")
    assert again.executor == "serial"
    _drive(again, frame_events[4:])
    assert _observables(again) == reference
    again.close()


def test_mapping_and_matrix_inputs_round_like_frames(frame_events):
    """observe() accepts a plain dict of columns and produces the same bytes."""
    by_frame = ShardedService(K, seed=7, executor="serial", **KWARGS)
    by_dict = ShardedService(K, seed=7, executor="serial", **KWARGS)
    for frame, entrants, exits in frame_events:
        by_frame.observe(frame, entrants=entrants, exits=exits)
        by_dict.observe(
            {name: frame.column(name) for name in frame.names},
            entrants=entrants,
            exits=exits,
        )
    assert _observables(by_frame) == _observables(by_dict)
    by_frame.close()
    by_dict.close()


def test_cross_marginals_merge_is_exposed_per_shard(frame_events):
    """Per-shard releases expose cross marginals after frame ingestion."""
    service = _drive(
        ShardedService(K, seed=3, executor="serial", **KWARGS), frame_events
    )
    for shard in service.shards:
        marginal = shard.release.cross_marginal("employment", "income", HORIZON)
        assert marginal.shape == (12,)
        assert marginal.min() >= 0.0
        np.testing.assert_allclose(marginal.sum(), 1.0, rtol=1e-12)
    service.close()
