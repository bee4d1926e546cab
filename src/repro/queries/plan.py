"""Batched query planning: one vectorized read path for whole workloads.

The paper's evaluation — and any serving deployment worth the name —
answers *workloads* per round, not single queries.  This module is the
planner behind ``Release.answer_batch(queries, times)``: it groups an
arbitrary mix of queries by family (Hamming-threshold, binary window,
categorical window), compiles each group into index/weight arrays that
evaluate against a release's threshold table or window histograms in a
handful of NumPy gathers, and provides the scalar fallback grid that
keeps the protocol total for releases (or queries) the compiler does not
know.

Three guarantees shape every function here:

* **Bit-identity** — a batched answer is the *same float* the scalar
  ``answer(query, t)`` call returns, noise, debiasing, churn and all.
  Cumulative answers vectorize exactly (integer gathers + elementwise
  division); window answers keep the scalar path's dot product per
  ``(query, time)`` cell and only hoist the per-call histogram fetch,
  weight lifting, and population lookups out of the loop.
* **Grid semantics** — a cell with ``t < query.min_time()`` is ``NaN``
  (the convention ``replicate_synthesizer`` already uses); any other
  out-of-range ``t`` raises exactly like the scalar call would.
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
    answer caches.  Unknown query types return ``None`` (uncacheable,
    answered through the scalar fallback).
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
    change (every ``observe()``, state restore, or horizon extension
    bumps it) atomically invalidates all cached grids.  Grids are copied
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
    """The default ``answer_batch``: one scalar ``answer()`` per cell.

    Returns a ``(len(queries), len(times))`` float64 grid with ``NaN``
    where ``t < query.min_time()``.  Every release satisfies the
    protocol through this fallback, so batched serving is total even
    for query families the planner cannot compile.
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
    """Answer a workload on any release through its best available path.

    Dispatches to ``release.answer_batch`` when present (every release
    in the package), falling back to :func:`scalar_answer_grid`; the
    ``debias=`` keyword is forwarded only to debias-aware releases,
    mirroring the scalar dispatch the replication harness used.
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
