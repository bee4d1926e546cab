"""Query-path benchmark: batched workload serving vs the scalar loop.

Measures the two amortizations the vectorized read path exists for and
asserts both as an enforced contract (gated by the committed baseline in
``benchmarks/baselines/BENCH_test_query_path.json``):

1. **Workload throughput** — ``release.answer_batch(queries, times)``
   against the per-cell ``answer(query, t)`` loop on one cumulative
   release: the planner compiles the workload once and answers it with
   a handful of NumPy gathers instead of ``Q x T`` Python calls.  Gated
   at >= 10x (``workload_speedup``).
2. **Shard fan-out amortization** — ``ShardedService.answer_batch``
   under the ``process`` executor sends the whole workload's query
   objects to each worker in one RPC instead of ``Q x T`` round-trips.  Gated at
   >= 3x (``process_speedup``) when the machine can fork.

Both are ratio-of-timings measured in the same process, so they stay
meaningful across differently-sized CI runners.  Bit-identity of the
batched grid is asserted *before* any timing, against a reference read
straight off the threshold tables (``table[t, b] / table[t, 0]``, and
the difference of two thresholds for ``HammingExactly``), merged over
the shards with the population weights for the sharded leg: a speedup
over wrong answers is worthless, and ``answer(query, t)`` is itself a
cell of the grid, so it cannot be the reference.  The per-cell loop
empties the answer cache before each timed pass, as the batched leg
does, so it always makes ``Q x T`` fresh ``answer`` calls.

Scale knobs: ``REPRO_BENCH_ROWS`` (default ``20_000``) and
``REPRO_BENCH_REPS`` (default 5 timing repetitions, best-of).
"""

import math
import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.core import CumulativeSynthesizer
from repro.queries import HammingAtLeast, HammingExactly
from repro.queries.plan import AnswerCache
from repro.serve import ShardedService

ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "20000"))
REPS = int(os.environ.get("REPRO_BENCH_REPS", "5"))
HORIZON = 64
SERVICE_HORIZON = 12
K = 4

HAS_FORK = "fork" in mp.get_all_start_methods()


def _workload(horizon):
    queries = [HammingAtLeast(b) for b in range(1, horizon // 2 + 1)]
    queries += [HammingExactly(b) for b in range(0, horizon // 4 + 1)]
    return queries, list(range(1, horizon + 1))


def _columns(horizon, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2, size=ROWS, dtype=np.int64) for _ in range(horizon)]


def _best_of(fn, reps=None):
    best = math.inf
    for _ in range(reps or REPS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _scalar_grid(answer, queries, times):
    grid = np.full((len(queries), len(times)), np.nan, dtype=np.float64)
    for qi, query in enumerate(queries):
        for ti, t in enumerate(times):
            if t >= query.min_time():
                grid[qi, ti] = answer(query, t)
    return grid


def _table_answer(table, query, t):
    """One cumulative answer read straight off a threshold table."""
    horizon = table.shape[1] - 1

    def count(b):
        return int(table[t, b]) if b <= horizon else 0

    above = count(query.b + 1) if isinstance(query, HammingExactly) else 0
    return (count(query.b) - above) / int(table[t, 0])


def _table_reference(tables, queries, times):
    """The shard-order, population-weighted merge of per-table answers."""
    grid = np.full((len(queries), len(times)), np.nan, dtype=np.float64)
    for qi, query in enumerate(queries):
        for ti, t in enumerate(times):
            weighted = total = 0.0
            for table in tables:
                weight = int(table[t, 0])
                weighted += weight * _table_answer(table, query, t)
                total += weight
            grid[qi, ti] = weighted / total
    return grid


def _service(executor):
    """The sharded leg's service, fed every round."""
    service = ShardedService(
        K,
        algorithm="cumulative",
        horizon=SERVICE_HORIZON,
        rho=0.5,
        seed=11,
        executor=executor,
    )
    for column in _columns(SERVICE_HORIZON, seed=5):
        service.observe(column)
    return service


def test_query_path(figure_report):
    # --- leg 1: single-release workload throughput ---------------------
    synth = CumulativeSynthesizer(HORIZON, 0.5, seed=7)
    for column in _columns(HORIZON, seed=3):
        synth.observe(column)
    release = synth.release
    queries, times = _workload(HORIZON)

    batched = release.answer_batch(queries, times)
    reference = _table_reference([release.threshold_table()], queries, times)
    assert np.array_equal(batched, reference, equal_nan=True), (
        "batched answers must be bit-identical before timing means anything"
    )

    def scalar_cold():
        synth._answer_cache = AnswerCache()  # every cell a fresh answer call
        _scalar_grid(release.answer, queries, times)

    def batch_cold():
        synth._answer_cache = AnswerCache()  # defeat the memo: time the plan
        release.answer_batch(queries, times)

    scalar_s = _best_of(scalar_cold)
    batch_s = _best_of(batch_cold)
    workload_speedup = scalar_s / batch_s

    # --- leg 2: process-executor fan-out amortization ------------------
    process_speedup = float("nan")
    if HAS_FORK:
        svc_queries, svc_times = _workload(SERVICE_HORIZON)
        # The per-shard tables come from a serial twin: the executors
        # produce byte-identical shards (the test below checks the grids).
        with _service("serial") as twin:
            tables = [shard.release.threshold_table() for shard in twin.shards]
        svc_reference = _table_reference(tables, svc_queries, svc_times)
        service = _service("process")
        try:
            merged = service.answer_batch(svc_queries, svc_times)
            assert np.array_equal(merged, svc_reference, equal_nan=True)

            def service_scalar_cold():
                service._answer_cache = AnswerCache()
                _scalar_grid(service.answer, svc_queries, svc_times)

            def service_batch_cold():
                service._answer_cache = AnswerCache()
                service.answer_batch(svc_queries, svc_times)

            svc_scalar_s = _best_of(service_scalar_cold)
            svc_batch_s = _best_of(service_batch_cold)
            process_speedup = svc_scalar_s / svc_batch_s
        finally:
            service.close()

    cells = len(queries) * len(times)
    lines = [
        f"query path: {len(queries)} queries x {len(times)} rounds = {cells} cells",
        f"  scalar loop        {scalar_s * 1e3:8.2f} ms",
        f"  batched (cold)     {batch_s * 1e3:8.2f} ms   {workload_speedup:6.1f}x",
    ]
    metrics = {"workload_speedup": workload_speedup}
    if HAS_FORK:
        lines.append(
            f"  process fan-out: one RPC per worker vs per-cell round-trips "
            f"= {process_speedup:.1f}x"
        )
        metrics["process_speedup"] = process_speedup
    else:  # pragma: no cover - exercised only on fork-less platforms
        lines.append("  process fan-out: skipped (no fork start method)")
    figure_report("\n".join(lines), metrics=metrics)

    assert workload_speedup >= 10.0, (
        f"batched workload serving is only {workload_speedup:.1f}x the scalar "
        "loop; the planner contract is >= 10x"
    )
    if HAS_FORK:
        assert process_speedup >= 3.0, (
            f"amortized process fan-out is only {process_speedup:.1f}x; the "
            "contract is >= 3x"
        )


@pytest.mark.skipif(not HAS_FORK, reason="process executor needs fork")
def test_batched_answers_match_across_executors():
    """Same workload, same grid, byte-for-byte, on every executor."""
    grids = {}
    queries, times = _workload(SERVICE_HORIZON)
    for executor in ("serial", "process"):
        with _service(executor) as service:
            grids[executor] = service.answer_batch(queries, times)
    assert np.array_equal(grids["serial"], grids["process"], equal_nan=True)
