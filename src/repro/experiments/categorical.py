"""``categorical``: the multi-category fixed-window figure.

Not a paper figure: the paper states (§1) that the fixed-window solution
"naturally extend[s] to handle categorical data with more than 2
categories", and this experiment regenerates that claim as a first-class
member of the registry.  It replicates the categorical window synthesizer
over an employment-status Markov panel (``q = 3`` by default: employed /
unemployed / not in labor force), tracks debiased window statistics
against ground truth, and pins the structural guarantees the unified
engine provides:

* the ``q = 2`` categorical synthesizer is **bit-exact** with the binary
  :class:`~repro.core.fixed_window.FixedWindowSynthesizer` — noise draws,
  synthetic records, and zCDP ledger included — because both are the same
  shared :class:`~repro.core.window_engine.WindowEngine`;
* batched :meth:`~repro.core.categorical_window.CategoricalWindowRelease.answer_series`
  answers agree exactly with the per-round loop.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.replication import replicate_synthesizer, window_strategy
from repro.core.categorical_window import CategoricalWindowSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.data.categorical import CategoricalDataset, employment_status_panel
from repro.data.dataset import LongitudinalDataset
from repro.data.generators import two_state_markov
from repro.experiments.config import FigureResult
from repro.queries.categorical import CategoricalPatternQuery, CategoryAtLeastM

__all__ = ["run_categorical_experiment"]


def _binary_anchor_bit_exact(horizon: int, window: int, rho: float, seed: int) -> bool:
    """``q = 2`` categorical must equal the binary synthesizer bit for bit."""
    matrix = two_state_markov(500, horizon, 0.2, 0.3, seed=seed).matrix
    binary = FixedWindowSynthesizer(horizon, window, rho, seed=seed + 1)
    categorical = CategoricalWindowSynthesizer(horizon, window, 2, rho, seed=seed + 1)
    binary_release = binary.run(LongitudinalDataset(matrix))
    categorical_release = categorical.run(CategoricalDataset(matrix, alphabet=2))
    histograms_equal = all(
        (binary_release.histogram(t) == categorical_release.histogram(t)).all()
        for t in binary_release.released_times()
    )
    panels_equal = bool(
        (
            binary_release.synthetic_data().matrix
            == categorical_release.synthetic_data().matrix
        ).all()
    )
    ledgers_equal = binary.accountant.charges == categorical.accountant.charges
    return histograms_equal and panels_equal and ledgers_equal


def run_categorical_experiment(
    n_reps: int = 25,
    seed: int = 0,
    *,
    rho: float = 0.01,
    alphabet: int | None = 3,
    window: int = 3,
    n_individuals: int = 4000,
    horizon: int = 12,
    strategy: str | None = None,
    n_jobs: int | None = None,
) -> FigureResult:
    """Run the categorical-window figure and its self-checks.

    Parameters
    ----------
    n_reps:
        Noisy repetitions.
    seed:
        Master seed; the panel and every repetition derive deterministic
        child streams from it.
    rho:
        Total zCDP budget per run.
    alphabet:
        Number of status categories ``q >= 2`` (the CLI's
        ``--alphabet``); 3 — also the meaning of ``None``, the unset
        flag — is the employment-status workload.
    window:
        Window width ``k``.
    n_individuals:
        Panel size.
    horizon:
        Number of monthly rounds ``T``.
    strategy, n_jobs:
        Replication strategy knobs; ``"batched"`` softens to ``"auto"``
        because Algorithm 1 has no batched fast path (the same
        convention as the binary window figures).

    Returns
    -------
    FigureResult
        One error series per query, a per-query error table, and the
        bit-exactness checks.
    """
    alphabet = 3 if alphabet is None else int(alphabet)
    result = FigureResult(
        experiment_id="categorical",
        title=f"Fixed-window release over a {alphabet}-state categorical alphabet",
        parameters={
            "rho": rho,
            "alphabet": alphabet,
            "window": window,
            "n": n_individuals,
            "horizon": horizon,
            "reps": n_reps,
            "strategy": strategy or "auto",
            "n_jobs": n_jobs,
        },
        paper_expectation=(
            "the fixed-window solution extends to q > 2 categories: debiased "
            "categorical answers are unbiased with error in the binary "
            "regime, and q = 2 reduces bit-exactly to the binary algorithm"
        ),
    )
    panel = employment_status_panel(
        n_individuals, horizon, alphabet=alphabet, seed=seed + 100
    )
    unemployed = 1  # category 1 is the unemployed state in every workload
    queries = [
        CategoryAtLeastM(window, alphabet, category=unemployed, m=1),
        CategoryAtLeastM(window, alphabet, category=0, m=window),
        CategoricalPatternQuery(window, [unemployed] * window, alphabet),
    ]
    times = list(range(window, horizon + 1))

    def factory(generator):
        return CategoricalWindowSynthesizer(
            horizon,
            window,
            alphabet,
            rho,
            seed=generator,
            noise_method="vectorized",
        )

    replicated = replicate_synthesizer(
        factory,
        panel,
        queries,
        times,
        n_reps=n_reps,
        seed=seed + 1,
        strategy=window_strategy(strategy),
        n_jobs=n_jobs,
    )
    result.summaries = replicated.summaries()

    errors = replicated.errors()
    # Pool the noise scale per query across reps *and* times: the
    # per-round error variance is time-uniform (Theorem 3.2), and the
    # pooled estimate keeps the 5-sigma test stable at smoke rep counts.
    pooled_sd = errors.std(axis=(0, 2))[:, None]
    standard_error = pooled_sd / np.sqrt(n_reps)
    result.check(
        "answers finite", bool(np.isfinite(replicated.answers).all())
    )
    result.check(
        "debiased answers unbiased",
        bool((np.abs(errors.mean(axis=0)) <= 5 * standard_error + 1e-3).all()),
    )
    for qi, query in enumerate(queries):
        result.comparison_rows.append(
            {
                "query": query.name,
                "max_mean_abs_err": round(float(np.abs(errors[:, qi]).mean(axis=0).max()), 6),
                "max_abs_err": round(float(np.abs(errors[:, qi]).max()), 6),
            }
        )
    result.comparison_columns = ["query", "max_mean_abs_err", "max_abs_err"]

    # Specialization anchor (the unified-engine contract).
    result.check(
        "q=2 categorical bit-exact with the binary synthesizer (noise + ledger)",
        _binary_anchor_bit_exact(horizon, window, rho, seed + 3),
    )

    # answer_series must agree exactly with the per-round answer loop.
    probe = factory(np.random.default_rng(seed + 4))
    release = probe.run(panel)
    series = release.answer_series(queries[0], times)
    looped = np.array([release.answer(queries[0], t) for t in times])
    result.check("answer_series matches per-round answers", bool((series == looped).all()))
    result.check(
        "zCDP ledger fully spent",
        probe.accountant is not None
        and math.isclose(probe.accountant.spent, rho, rel_tol=1e-9),
    )
    return result
