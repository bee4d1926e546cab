"""Seeded multi-repetition experiment runner.

Every figure in the paper repeats a synthesizer 1000 times on the same
dataset and plots the distribution of the answers.
:func:`replicate_synthesizer` is the generic engine: a factory builds a
fresh synthesizer per repetition (fed an independent child seed), the
synthesizer runs over the panel, and each (query, time) answer is recorded.

Three execution strategies are available (``strategy=``):

* ``"batched"`` — all ``R`` repetitions of Algorithm 2 advance as one
  ``(R, T)`` NumPy state machine (:mod:`repro.core.replicated`): one
  batched noise draw per round, batched monotonization, and no synthetic
  record draws (cumulative answers read off the threshold tables).  The
  order-of-magnitude fast path for cumulative figures; requires a
  :class:`~repro.core.cumulative.CumulativeSynthesizer` factory with a
  native counter bank and Hamming queries.
* ``"process"`` — a chunked :class:`~concurrent.futures.ProcessPoolExecutor`
  fallback for Algorithm 1 / arbitrary factories.  Each repetition receives
  exactly the same spawned child generator as the serial path, so results
  are *bit-exact* with ``"serial"`` — noise and all — regardless of the
  worker count or chunking.  Uses the ``fork`` start method (the dataset
  and factory are inherited, never pickled); on platforms without ``fork``
  it degrades to the serial loop.
* ``"serial"`` — the reference one-repetition-at-a-time loop.

``strategy=None`` consults ``$REPRO_REPLICATION_STRATEGY`` and defaults to
``"auto"``: batched when the factory and queries qualify, serial otherwise.
An *explicit* ``strategy="batched"`` argument is strict (ineligible
workloads raise); the environment variable is a process-wide preference,
so an env-sourced ``"batched"`` degrades to serial where it cannot apply.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.metrics import SeriesSummary
from repro.data.dataset import LongitudinalDataset
from repro.exceptions import ConfigurationError
from repro.queries.base import Query
from repro.queries.plan import release_answer_grid
from repro.rng import SeedLike, as_generator, spawn

__all__ = [
    "ReplicatedAnswers",
    "replicate_synthesizer",
    "resolve_strategy",
    "resolve_n_jobs",
    "window_strategy",
    "cumulative_strategy",
    "STRATEGIES",
]

#: Execution strategies for :func:`replicate_synthesizer`.
STRATEGIES = ("auto", "batched", "process", "serial")


def resolve_strategy(strategy: str | None = None) -> str:
    """Resolve and validate a replication-strategy choice.

    ``None`` consults the ``REPRO_REPLICATION_STRATEGY`` environment
    variable (so a CI job can flip every replication call in the process)
    and defaults to ``"auto"``.  Unrecognized values — explicit or from
    the environment — raise instead of silently falling back.
    """
    if strategy is None:
        env = os.environ.get("REPRO_REPLICATION_STRATEGY", "").strip().lower()
        if not env:
            return "auto"
        if env not in STRATEGIES:
            raise ConfigurationError(
                f"REPRO_REPLICATION_STRATEGY must be one of {STRATEGIES}, got {env!r}"
            )
        return env
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            f"strategy must be one of {STRATEGIES}, got {strategy!r}"
        )
    return strategy


def window_strategy(strategy: str | None) -> str:
    """Soften a ``"batched"`` request for window-pipeline runs.

    Algorithm 1 has no batched fast path, so experiments built on
    :class:`~repro.core.fixed_window.FixedWindowSynthesizer` map
    ``"batched"`` to ``"auto"`` instead of aborting.  The request is
    resolved first, so a process-wide
    ``REPRO_REPLICATION_STRATEGY=batched`` softens exactly like the
    explicit flag; this keeps ``repro-experiments all
    --replication-strategy batched`` (or the env var) runnable across the
    whole registry.
    """
    strategy = resolve_strategy(strategy)
    return "auto" if strategy == "batched" else strategy


def cumulative_strategy(strategy: str | None, counter: str) -> str:
    """Soften a ``"batched"`` request that this cumulative run cannot honor.

    The batched engine needs a counter with a native bank (see
    ``_batched_config``); experiments that sweep counters call this so one
    ineligible counter downgrades to ``"auto"`` instead of aborting the
    whole sweep.  Resolves the environment variable first, like
    :func:`window_strategy`.
    """
    from repro.streams.registry import available_banks

    strategy = resolve_strategy(strategy)
    if strategy == "batched" and counter not in available_banks():
        return "auto"
    return strategy


def resolve_n_jobs(n_jobs: int | None = None) -> int:
    """Worker count for the process strategy.

    ``None`` consults ``$REPRO_N_JOBS`` and falls back to the CPU count.
    """
    if n_jobs is None:
        env = os.environ.get("REPRO_N_JOBS", "").strip()
        if env:
            try:
                n_jobs = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"REPRO_N_JOBS must be an integer, got {env!r}"
                ) from None
    if n_jobs is None:
        n_jobs = os.cpu_count() or 1
    if n_jobs <= 0:
        raise ConfigurationError(f"n_jobs must be positive, got {n_jobs}")
    return n_jobs


@dataclass(frozen=True)
class ReplicatedAnswers:
    """Answers of a replicated continual-release experiment.

    Attributes
    ----------
    answers:
        Shape ``(n_reps, n_queries, n_times)``.
    truth:
        Shape ``(n_queries, n_times)`` ground truth on the raw panel.
    times:
        The evaluation rounds (1-indexed).
    query_names:
        One label per query row.
    """

    answers: np.ndarray
    truth: np.ndarray
    times: tuple[int, ...]
    query_names: tuple[str, ...]

    @property
    def n_reps(self) -> int:
        """Number of repetitions."""
        return self.answers.shape[0]

    def errors(self) -> np.ndarray:
        """Signed errors, same shape as ``answers``."""
        return self.answers - self.truth[None, :, :]

    def max_abs_error_per_rep(self) -> np.ndarray:
        """Worst error over queries and times, per repetition."""
        return np.abs(self.errors()).max(axis=(1, 2))

    def summary(self, query_index: int = 0, band=(2.5, 97.5)) -> SeriesSummary:
        """Distribution summary of one query's series across repetitions."""
        if not 0 <= query_index < len(self.query_names):
            raise ConfigurationError(
                f"query_index must lie in [0, {len(self.query_names)}), got {query_index}"
            )
        return SeriesSummary.from_samples(
            x=np.asarray(self.times, dtype=np.float64),
            samples=self.answers[:, query_index, :],
            truth=self.truth[query_index],
            label=self.query_names[query_index],
            band=band,
        )

    def summaries(self, band=(2.5, 97.5)) -> list[SeriesSummary]:
        """One :class:`SeriesSummary` per query."""
        return [self.summary(i, band=band) for i in range(len(self.query_names))]


def _default_answer(release, query: Query, t: int, debias: bool) -> float:
    """Answer dispatch on the release's declared capability.

    Releases that accept the ``debias`` flag advertise it with a truthy
    ``debias_aware`` attribute (see
    :class:`~repro.core.window_engine.WindowRelease`); everything else —
    cumulative releases, third-party :class:`~repro.types.Release`
    implementations — is called with the bare protocol signature.
    """
    if getattr(release, "debias_aware", False):
        return release.answer(query, t, debias=debias)
    return release.answer(query, t)


def replicate_synthesizer(
    factory: Callable[[np.random.Generator], object],
    dataset: LongitudinalDataset,
    queries: Sequence[Query],
    times: Sequence[int],
    n_reps: int,
    seed: SeedLike = None,
    debias: bool = True,
    answer_fn: Callable[[object, Query, int, bool], float] | None = None,
    strategy: str | None = None,
    n_jobs: int | None = None,
) -> ReplicatedAnswers:
    """Run ``n_reps`` independent synthesizer runs and collect answers.

    Parameters
    ----------
    factory:
        Called with a fresh child :class:`numpy.random.Generator` per
        repetition; must return an object with ``run(dataset) -> release``.
    queries, times:
        The (query, round) grid to record.  Times at which a query is not
        yet defined (``t < query.min_time()``) are recorded as ``NaN``.
    debias:
        Passed through to window releases (ignored by cumulative ones).
    answer_fn:
        Override for custom release types; receives
        ``(release, query, t, debias)``.  Under ``strategy="process"`` it
        executes in forked workers: its *return values* come back, but any
        in-process side effects (logging, accumulating diagnostics) stay
        in the children — pass ``strategy="serial"`` when you rely on
        them.
    strategy:
        ``"batched"``, ``"process"``, ``"serial"``, or ``"auto"`` (see the
        module docstring); ``None`` resolves via
        ``$REPRO_REPLICATION_STRATEGY`` and defaults to ``"auto"``.
    n_jobs:
        Worker count for ``strategy="process"`` (``None``: ``$REPRO_N_JOBS``
        or the CPU count).  Ignored by the other strategies.
    """
    if n_reps <= 0:
        raise ConfigurationError(f"n_reps must be positive, got {n_reps}")
    if not queries:
        raise ConfigurationError("need at least one query")
    if not times:
        raise ConfigurationError("need at least one evaluation time")
    # An explicitly-passed "batched" is a strict demand (ineligible
    # workloads raise); an environment-sourced one is a process-wide
    # preference and degrades to the serial loop where batched can't apply.
    explicit = strategy is not None
    strategy = resolve_strategy(strategy)

    times = tuple(int(t) for t in times)
    truth = np.full((len(queries), len(times)), np.nan)
    for qi, query in enumerate(queries):
        for ti, t in enumerate(times):
            if t >= query.min_time():
                truth[qi, ti] = query.evaluate(dataset, t)

    if strategy in ("auto", "batched"):
        config = _batched_config(factory, dataset, queries, answer_fn)
        if config is not None:
            answers = _answers_batched(config, dataset, queries, times, n_reps, seed)
        elif strategy == "batched" and explicit:
            raise ConfigurationError(
                "strategy='batched' needs a CumulativeSynthesizer factory with "
                "a native counter bank (no counter_kwargs), "
                "HammingAtLeast/HammingExactly queries, a matching dataset "
                "horizon, and no custom answer_fn; use 'process', 'serial', or "
                "'auto' for everything else"
            )
        else:
            answers = _answers_serial(
                factory, dataset, queries, times, n_reps, seed, debias, answer_fn
            )
    elif strategy == "process":
        answers = _answers_process(
            factory, dataset, queries, times, n_reps, seed, debias, answer_fn, n_jobs
        )
    else:
        answers = _answers_serial(
            factory, dataset, queries, times, n_reps, seed, debias, answer_fn
        )

    return ReplicatedAnswers(
        answers=answers,
        truth=truth,
        times=times,
        query_names=tuple(query.name for query in queries),
    )


# ----------------------------------------------------------------------
# Serial strategy (the reference loop)
# ----------------------------------------------------------------------


def _answers_for_rep(
    factory, generator, dataset, queries, times, debias, answer_fn, out_row
) -> None:
    """One repetition: build, run, record the (query, time) grid in place.

    The default dispatch routes the whole grid through
    :func:`repro.queries.plan.release_answer_grid` (one compiled batch per
    release, bit-identical with the scalar loop).  A custom ``answer_fn``
    runs per cell unless it carries an ``answer_grid`` attribute — a
    callable ``(release, queries, times, debias) -> grid`` — in which case
    the whole workload is handed over at once (see
    :func:`repro.analysis.utility.utility_answer`).
    """
    synthesizer = factory(generator)
    release = synthesizer.run(dataset)
    if answer_fn is None:
        out_row[...] = release_answer_grid(release, queries, times, debias=debias)
        return
    grid_fn = getattr(answer_fn, "answer_grid", None)
    if grid_fn is not None:
        out_row[...] = grid_fn(release, queries, times, debias)
        return
    for qi, query in enumerate(queries):
        for ti, t in enumerate(times):
            if t >= query.min_time():
                out_row[qi, ti] = answer_fn(release, query, t, debias)


def _answers_serial(
    factory, dataset, queries, times, n_reps, seed, debias, answer_fn
) -> np.ndarray:
    answers = np.full((n_reps, len(queries), len(times)), np.nan)
    for rep, generator in enumerate(spawn(seed, n_reps)):
        _answers_for_rep(
            factory, generator, dataset, queries, times, debias, answer_fn, answers[rep]
        )
    return answers


# ----------------------------------------------------------------------
# Process strategy (chunked fork pool, bit-exact with serial)
# ----------------------------------------------------------------------

# Shared task state for forked workers.  The payload (factory closures,
# the panel, query objects) is inherited through fork() rather than
# pickled per task — only the per-rep child generators cross the pipe.
# The lock serializes pool lifetimes: a concurrent (or nested) process
# replication would otherwise fork workers against the wrong payload, so
# contenders fall back to the bit-exact serial loop instead.
_FORK_PAYLOAD: tuple | None = None
_FORK_LOCK = threading.Lock()


def _process_chunk(generators) -> np.ndarray:
    factory, dataset, queries, times, debias, answer_fn = _FORK_PAYLOAD
    answers = np.full((len(generators), len(queries), len(times)), np.nan)
    for i, generator in enumerate(generators):
        _answers_for_rep(
            factory, generator, dataset, queries, times, debias, answer_fn, answers[i]
        )
    return answers


def _answers_process(
    factory, dataset, queries, times, n_reps, seed, debias, answer_fn, n_jobs
) -> np.ndarray:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        # No fork (e.g. Windows): closures cannot reach the workers, so the
        # pool cannot run arbitrary factories.  Serial is bit-exact anyway.
        return _answers_serial(
            factory, dataset, queries, times, n_reps, seed, debias, answer_fn
        )

    generators = spawn(seed, n_reps)
    jobs = min(resolve_n_jobs(n_jobs), n_reps)
    # ~4 chunks per worker amortizes task dispatch while smoothing stragglers.
    chunk_size = max(1, math.ceil(n_reps / (jobs * 4)))
    chunks = [generators[i : i + chunk_size] for i in range(0, n_reps, chunk_size)]

    global _FORK_PAYLOAD
    if not _FORK_LOCK.acquire(blocking=False):
        return _answers_serial(
            factory, dataset, queries, times, n_reps, seed, debias, answer_fn
        )
    try:
        _FORK_PAYLOAD = (factory, dataset, queries, times, debias, answer_fn)
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(chunks)), mp_context=context
        ) as pool:
            parts = list(pool.map(_process_chunk, chunks))
    finally:
        _FORK_PAYLOAD = None
        _FORK_LOCK.release()
    return np.concatenate(parts, axis=0)


# ----------------------------------------------------------------------
# Batched strategy (Algorithm 2 fast path)
# ----------------------------------------------------------------------


def _batched_config(factory, dataset, queries, answer_fn) -> dict | None:
    """Probe the factory; return replicate_cumulative kwargs when eligible.

    Eligibility: default answer dispatch, all-Hamming queries, and a fresh
    :class:`~repro.core.cumulative.CumulativeSynthesizer` with a *native*
    vectorized bank (a :class:`~repro.streams.bank.FallbackBank` means the
    counter has no rep axis — counter_kwargs land there too) on the
    dataset's horizon.  The probe instance is built with
    a throwaway generator and discarded; it never observes data.
    """
    from repro.core.cumulative import CumulativeSynthesizer
    from repro.queries.cumulative import HammingAtLeast, HammingExactly
    from repro.streams.bank import FallbackBank

    if answer_fn is not None:
        return None
    if not all(isinstance(q, (HammingAtLeast, HammingExactly)) for q in queries):
        return None
    probe = factory(as_generator(0))
    if not isinstance(probe, CumulativeSynthesizer) or probe.t != 0:
        return None
    if isinstance(probe.bank, FallbackBank):
        return None
    if probe.horizon != dataset.horizon:
        return None
    return {
        "rho": probe.rho,
        "counter": probe.counter_name,
        "budget": probe.rho_per_threshold,
        "noise_method": probe.noise_method,
    }


def _answers_batched(config, dataset, queries, times, n_reps, seed) -> np.ndarray:
    from repro.core.replicated import replicate_cumulative

    replicated = replicate_cumulative(dataset, n_reps, seed=seed, **config)
    return replicated.answer_grid(queries, times)
