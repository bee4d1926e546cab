"""Merged sharded answers, pinned to literals.

A noisy three-shard service with entrant and exit rounds, for the
cumulative and the fixed-window algorithm and under every executor, is
answered through ``answer`` (one cell at a time) and ``answer_batch``
(the whole grid): with and without debiasing for the window queries,
and again after one shard is disabled, when both merge the surviving
shards.  The literals were computed by the implementation in which the
merged cell and the merged grid were two separately written merge
loops; a change to one merged answer bit moves one of them.
"""

import hashlib
import multiprocessing as mp
import warnings

import numpy as np
import pytest

from repro.data.generators import churn_two_state_markov
from repro.exceptions import DegradedServiceWarning
from repro.queries import AtLeastMOnes, HammingAtLeast, HammingExactly
from repro.queries.window import WindowLinearQuery
from repro.serve import ShardedService

HORIZON, K, SEED = 8, 3, 23

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="process executor needs the fork start method",
)

EXECUTORS = ["serial", pytest.param("process", marks=needs_fork)]

_RNG = np.random.default_rng(5)

#: algorithm -> (service kwargs, workload, keyword sets answered under,
#: first released round)
CONFIGS = {
    "cumulative": (
        dict(algorithm="cumulative", horizon=HORIZON, rho=0.4),
        [
            HammingAtLeast(2),
            HammingExactly(1),
            HammingExactly(HORIZON),
            HammingAtLeast(HORIZON + 2),
        ],
        [{}],
        1,
    ),
    "fixed_window": (
        dict(algorithm="fixed_window", horizon=HORIZON, window=3, rho=0.4),
        [
            WindowLinearQuery(1, _RNG.random(2), name="w1"),
            AtLeastMOnes(2, 1),
            WindowLinearQuery(3, _RNG.random(8), name="w3"),
            AtLeastMOnes(4, 2),
        ],
        [{}, {"debias": False}],
        3,
    ),
}

#: (algorithm, "healthy" | "degraded") -> SHA-256 of each answer path.
PINS = {
    ("cumulative", "healthy"): {
        "answer": "2fed19d4adcf90973be0f1861d2f96f28f0905e2b11f8700d50f1fbcb8be972d",
        "answer_batch": "2fed19d4adcf90973be0f1861d2f96f28f0905e2b11f8700d50f1fbcb8be972d",
    },
    ("cumulative", "degraded"): {
        "answer": "30378f1c299c3f22453297c4b095000385527eb19455dc64856fc0a444bb6b61",
        "answer_batch": "30378f1c299c3f22453297c4b095000385527eb19455dc64856fc0a444bb6b61",
    },
    ("fixed_window", "healthy"): {
        "answer": "b2fe81c2e94effbb9ce5ae1186444ee8396df82593ca9affe9bd9f93da69085d",
        "answer_batch": "5045c0bedb5d5dcd435bde2c439f57e2ba8395b1a172bb2611567c991216e06b",
    },
    ("fixed_window", "degraded"): {
        "answer": "95fad6753314189157e2da7eaf7be3f5694e71eb525cffaee11a58598bd06d00",
        "answer_batch": "292010cd90fb333fe276caaf7a158ea7408dcc1f4f0ce5af5025b5643c1d0fb8",
    },
}


@pytest.fixture(scope="module")
def churn_events():
    panel = churn_two_state_markov(
        240, HORIZON, 0.85, 0.2, entry_rate=0.2, exit_hazard=0.06, seed=8
    )
    return list(panel.rounds())


def _digest(values) -> str:
    digest = hashlib.sha256()
    for value in values:
        digest.update(np.asarray(value, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _paths(service, algorithm):
    _, queries, options, start = CONFIGS[algorithm]
    times = list(range(start, HORIZON + 1))
    cells = [
        service.answer(query, t, **kwargs)
        for kwargs in options
        for query in queries
        for t in times
        if t >= query.min_time()
    ]
    grids = [service.answer_batch(queries, times, **kwargs) for kwargs in options]
    return {"answer": _digest(cells), "answer_batch": _digest(grids)}


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_merged_answers_are_pinned(algorithm, executor, churn_events):
    kwargs = CONFIGS[algorithm][0]
    with ShardedService(K, seed=SEED, executor=executor, **kwargs) as service:
        for column, entrants, exits in churn_events:
            service.observe(column, entrants=entrants, exits=exits)
        assert _paths(service, algorithm) == PINS[(algorithm, "healthy")]
        service.disable_shard(1, "pinned")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedServiceWarning)
            assert _paths(service, algorithm) == PINS[(algorithm, "degraded")]
