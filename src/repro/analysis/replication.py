"""Seeded multi-repetition experiment runner.

Every figure in the paper repeats a synthesizer 1000 times on the same
dataset and plots the distribution of the answers.
:func:`replicate_synthesizer` is the generic engine: a factory builds a
fresh synthesizer per repetition (fed an independent child seed), the
synthesizer runs over the panel, and each (query, time) answer is recorded.

Each call picks its own path:

* when the factory builds a fresh
  :class:`~repro.core.cumulative.CumulativeSynthesizer` with a native
  counter bank on the dataset's horizon, every query is a Hamming query
  and no custom ``answer_fn`` is given, all ``R`` repetitions of
  Algorithm 2 advance as one ``(R, T)`` NumPy state machine
  (:mod:`repro.core.replicated`): one batched noise draw per round,
  batched monotonization, and no synthetic record draws (cumulative
  answers read off the threshold tables).  For ``R >= 2`` that draw is the
  samplers' float rep-axis block, whatever the factory's synthesizer
  would draw on its own: these are accuracy studies, and nothing they
  compute is released.  ``R = 1`` draws exact noise;
* everything else runs one repetition at a time, each on its own
  spawned child generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.metrics import SeriesSummary
from repro.data.dataset import LongitudinalDataset
from repro.exceptions import ConfigurationError
from repro.queries.base import Query
from repro.queries.plan import release_answer_grid
from repro.rng import SeedLike, as_generator, spawn

__all__ = ["ReplicatedAnswers", "replicate_synthesizer"]


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


def replicate_synthesizer(
    factory: Callable[[np.random.Generator], object],
    dataset: LongitudinalDataset,
    queries: Sequence[Query],
    times: Sequence[int],
    n_reps: int,
    seed: SeedLike = None,
    debias: bool = True,
    answer_fn: Callable[..., np.ndarray] | None = None,
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
        Override for custom release types: a grid callable
        ``(release, queries, times, debias) -> grid`` returning the
        ``(len(queries), len(times))`` answers of one repetition, ``NaN``
        where a query is not yet defined.  The default is
        :func:`repro.queries.plan.release_answer_grid`.  Giving one keeps
        the run on the one-repetition-at-a-time loop.
    """
    if n_reps <= 0:
        raise ConfigurationError(f"n_reps must be positive, got {n_reps}")
    if not queries:
        raise ConfigurationError("need at least one query")
    if not times:
        raise ConfigurationError("need at least one evaluation time")

    times = tuple(int(t) for t in times)
    truth = np.full((len(queries), len(times)), np.nan)
    for qi, query in enumerate(queries):
        for ti, t in enumerate(times):
            if t >= query.min_time():
                truth[qi, ti] = query.evaluate(dataset, t)

    config = _batched_config(factory, dataset, queries, answer_fn)
    if config is not None:
        answers = _answers_batched(config, dataset, queries, times, n_reps, seed)
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
# One repetition at a time
# ----------------------------------------------------------------------


def _answers_serial(
    factory, dataset, queries, times, n_reps, seed, debias, answer_fn
) -> np.ndarray:
    """One repetition at a time: build, run, record each rep's answer grid."""
    answer_fn = release_answer_grid if answer_fn is None else answer_fn
    answers = np.full((n_reps, len(queries), len(times)), np.nan)
    for rep, generator in enumerate(spawn(seed, n_reps)):
        release = factory(generator).run(dataset)
        answers[rep] = answer_fn(release, queries, times, debias)
    return answers


# ----------------------------------------------------------------------
# Batched Algorithm 2
# ----------------------------------------------------------------------


def _batched_config(factory, dataset, queries, answer_fn) -> dict | None:
    """Probe the factory; return replicate_cumulative kwargs when eligible.

    Eligibility: default answer dispatch, all-Hamming queries, and a fresh
    :class:`~repro.core.cumulative.CumulativeSynthesizer` with a *native*
    vectorized bank (a :class:`~repro.streams.bank.FallbackBank` means the
    counter has no rep axis) on the dataset's horizon.  The probe instance is built with
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
    }


def _answers_batched(config, dataset, queries, times, n_reps, seed) -> np.ndarray:
    from repro.core.replicated import replicate_cumulative

    replicated = replicate_cumulative(dataset, n_reps, seed=seed, **config)
    return replicated.answer_grid(queries, times)
