"""Batched query planning: one read path for whole workloads.

The paper's evaluation — and any serving deployment worth the name —
answers *workloads* per round, not single queries.  Every evaluation is
a grid of queries over rounds, and so is every answer:
``Release.answer_batch(queries, times)`` is the one place a release,
an executor or a sharded service computes one, ``answer(query, t)`` is
one cell of that grid and ``answer_series`` one row.  This module holds
what the grids share: the cumulative planner that compiles
Hamming-threshold queries into gathers over a threshold table, the
workload keys and the version-keyed cache behind every grid, and the
per-cell grid that releases whose ``answer`` is their implementation
(the baselines) use as their ``answer_batch``.

Three guarantees shape every function here:

* **One answer per cell** — a cell's float does not depend on the grid
  it was asked in.  Cumulative answers vectorize exactly (integer
  gathers + elementwise division); window answers take one dot product
  per ``(query, time)`` cell (BLAS gemv is not bitwise equal to a
  per-row dot product) and hoist the histogram fetch, weight lifting
  and population lookups out of the loop.
* **Grid semantics** — a cell with ``t < query.min_time()`` is ``NaN``
  (the convention ``replicate_synthesizer`` already uses), and
  ``answer(query, t)`` refuses such a ``t``; any other out-of-range
  ``t`` raises.
* **Cacheability** — :func:`workload_key` derives a hashable identity
  for a workload so releases can memoize answers per release version
  (see :class:`AnswerCache`).

Query objects are small and picklable, so the process executor sends a
workload to its shard workers as-is, one pipe message per worker.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.queries.base import WindowQuery
from repro.queries.categorical import CategoricalWindowQuery
from repro.queries.cumulative import HammingAtLeast, HammingExactly

__all__ = [
    "AnswerCache",
    "compile_cumulative",
    "query_signature",
    "release_answer_grid",
    "scalar_answer_grid",
    "workload_key",
]


def query_signature(query) -> tuple | None:
    """Hashable identity of a query, or ``None`` if it has none.

    Two queries with equal signatures are guaranteed to produce equal
    answers on every release, so signatures key the compiled-plan and
    answer caches.  Unknown query types return ``None`` (uncacheable).
    """
    if isinstance(query, HammingAtLeast):
        return ("hamming_ge", query.b)
    if isinstance(query, HammingExactly):
        return ("hamming_eq", query.b)
    if isinstance(query, CategoricalWindowQuery):
        return ("categorical", query.k, query.alphabet, query.weights.tobytes())
    if isinstance(query, WindowQuery):
        return ("window", query.k, query.weights.tobytes())
    return None


def workload_key(queries, times, **kwargs) -> tuple | None:
    """Hashable identity of a whole batched call, or ``None``.

    Combines every query's :func:`query_signature`, the evaluation
    times, and the keyword arguments (``debias=``,
    ``padding_convention=``, ...).  Returns ``None`` — meaning "do not
    cache" — as soon as any component lacks a stable hashable identity.
    """
    signatures = []
    for query in queries:
        signature = query_signature(query)
        if signature is None:
            return None
        signatures.append(signature)
    options = tuple(sorted(kwargs.items()))
    try:
        hash(options)
    except TypeError:
        return None
    return (tuple(signatures), tuple(int(t) for t in times), options)


class AnswerCache:
    """Release-version-keyed memo of batched workload answers.

    ``get``/``put`` take the owning release's current version; a version
    change (every ``observe()`` and state restore bumps it) atomically
    invalidates all cached grids.  Grids are copied
    on the way in and out so callers can never mutate the cache.
    """

    def __init__(self):
        self._version = None
        self._answers: dict = {}

    def get(self, version, key):
        """Cached answer grid for ``key`` at ``version``, or ``None``."""
        if version != self._version:
            return None
        hit = self._answers.get(key)
        return None if hit is None else hit.copy()

    def put(self, version, key, grid) -> None:
        """Store ``grid`` for ``key``, invalidating stale versions."""
        if version != self._version:
            self._version = version
            self._answers = {}
        self._answers[key] = np.array(grid, dtype=np.float64, copy=True)

    def __len__(self) -> int:
        return len(self._answers)


def scalar_answer_grid(release, queries, times, **kwargs) -> np.ndarray:
    """A grid of one ``answer()`` call per cell.

    Returns a ``(len(queries), len(times))`` float64 grid with ``NaN``
    where ``t < query.min_time()``.  The ``answer_batch`` of releases
    whose ``answer`` is their implementation (the baselines), and the
    fallback for a release without ``answer_batch``.
    """
    times = [int(t) for t in times]
    out = np.full((len(queries), len(times)), np.nan, dtype=np.float64)
    for qi, query in enumerate(queries):
        floor = query.min_time()
        for ti, t in enumerate(times):
            if t >= floor:
                out[qi, ti] = release.answer(query, t, **kwargs)
    return out


def release_answer_grid(release, queries, times, debias: bool = True) -> np.ndarray:
    """Answer a workload on any release through its ``answer_batch``.

    Falls back to :func:`scalar_answer_grid` for a release without one;
    the ``debias=`` keyword is forwarded only to releases that declare
    ``debias_aware``.  The default ``answer_fn`` of
    :func:`repro.analysis.replication.replicate_synthesizer`.
    """
    kwargs = {"debias": debias} if getattr(release, "debias_aware", False) else {}
    batch = getattr(release, "answer_batch", None)
    if batch is None:
        return scalar_answer_grid(release, queries, times, **kwargs)
    return np.asarray(batch(list(queries), [int(t) for t in times], **kwargs))


def compile_cumulative(queries, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Compile Hamming-threshold queries to threshold-table gathers.

    Returns per-query column indices ``(lower, upper)`` into a threshold
    table augmented with one virtual all-zero column at index
    ``horizon + 1``: the count answer at time ``t`` is
    ``table[t, lower] - table[t, upper]``.  ``HammingAtLeast(b)`` maps
    to ``(b, zero)`` (or ``(zero, zero)`` when ``b`` exceeds the
    horizon — structurally 0); ``HammingExactly(b)`` maps to
    ``(b, b + 1)`` with either leg clipped to the zero column.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If any query is not a Hamming-threshold query.
    """
    zero = horizon + 1
    lower = np.empty(len(queries), dtype=np.int64)
    upper = np.empty(len(queries), dtype=np.int64)
    for qi, query in enumerate(queries):
        if isinstance(query, HammingAtLeast):
            lower[qi] = query.b if query.b <= horizon else zero
            upper[qi] = zero
        elif isinstance(query, HammingExactly):
            lower[qi] = query.b if query.b <= horizon else zero
            upper[qi] = query.b + 1 if query.b + 1 <= horizon else zero
        else:
            raise ConfigurationError(
                "the cumulative planner compiles HammingAtLeast/HammingExactly "
                f"queries, got {query!r}"
            )
    return lower, upper
