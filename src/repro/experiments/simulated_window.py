"""Simulated extreme-data experiments — Figures 3 and 4 (Appendix C.1).

The paper evaluates Algorithm 1 on "rather extreme" data: ``n = 25000``
individuals who report 1 in *every* round over ``T = 12``, synthesized with
window ``k = 3`` and ``rho = 0.005``.  Three panels plot the absolute error
of a width-``k'`` all-ones query per timestep across 1000 repetitions:

* **matching** (``k' = 3``): error flat in ``t`` and below the theoretical
  bound (Theorem 3.2's time-uniform guarantee);
* **smaller** (``k' = 2``): still accurate — any width-``<= k`` query is a
  low-weight linear combination of width-``k`` histogram bins;
* **larger** (``k' = 4``): not supported by the synthesizer; the error
  blows up ("Only queries supported by the synthesizer can be answered
  accurately").

Figure 3 debiases the answers; Figure 4 does not, showing a substantially
larger error (the padding bias).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import SeriesSummary
from repro.analysis.replication import replicate_synthesizer
from repro.analysis.theory import corollary_3_3_relative_bound, debiased_error_bound
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.data.generators import all_ones
from repro.experiments.config import FigureResult
from repro.queries.window import AllOnes
from repro.rng import SeedLike

__all__ = ["run_simulated_window_experiment"]

_SYNTH_K = 3
_BOUND_BETA = 0.05


def run_simulated_window_experiment(
    n_reps: int,
    seed: SeedLike = 0,
    experiment_id: str = "fig3",
    debias: bool = True,
    n: int = 25000,
    horizon: int = 12,
    rho: float = 0.005,
) -> FigureResult:
    """Reproduce Figure 3 (``debias=True``) or Figure 4 (``debias=False``).

    Returns one error-series summary per query width (2, 3, 4), each with
    its theoretical bound line.
    """
    panel = all_ones(n, horizon)

    def factory(generator):
        return FixedWindowSynthesizer(
            horizon=horizon,
            window=_SYNTH_K,
            rho=rho,
            seed=generator,
        )

    result = FigureResult(
        experiment_id=experiment_id,
        title=(
            f"Empirical error of Algorithm 1 on simulated all-ones data, "
            f"{'debiased' if debias else 'no debiasing'} "
            f"(n={n}, T={horizon}, synthesizer k={_SYNTH_K})"
        ),
        parameters={
            "rho": rho,
            "n": n,
            "T": horizon,
            "synthesizer_k": _SYNTH_K,
            "reps": n_reps,
            "debias": debias,
        },
        paper_expectation=(
            "Error is flat in t and below the bound for query widths <= k; "
            "it increases substantially for width k+1.  Without debiasing "
            "all errors are substantially larger."
        ),
    )

    debiased_bound = debiased_error_bound(horizon, _SYNTH_K, rho, _BOUND_BETA, n)
    biased_bound = corollary_3_3_relative_bound(
        horizon, _SYNTH_K, rho, _BOUND_BETA, n, true_fraction=1.0
    )
    bound = debiased_bound if debias else biased_bound

    summaries: dict[int, SeriesSummary] = {}
    query_widths = (
        (3, "matching (query k=3)"),
        (2, "smaller (query k=2)"),
        (4, "larger (query k=4)"),
    )
    for query_k, label in query_widths:
        query = AllOnes(query_k)
        # Answers exist only once the synthesizer has released (t >= k) and
        # the query is defined (t >= query_k).
        times = list(range(max(query_k, _SYNTH_K), horizon + 1))
        replicated = replicate_synthesizer(
            factory, panel, [query], times, n_reps=n_reps, seed=seed, debias=debias
        )
        errors = np.abs(replicated.errors()[:, 0, :])
        summary = SeriesSummary.from_samples(
            x=np.asarray(times, dtype=np.float64),
            samples=errors,
            truth=np.zeros(len(times)),
            label=label,
        )
        summaries[query_k] = summary
        result.summaries.append(summary)
        if query_k <= _SYNTH_K:
            result.bound_lines[label] = bound

    result.check(
        "matching-width error flat in t (max/min median within 4x)",
        _flat(summaries[_SYNTH_K].median),
    )
    result.check(
        "matching-width error below the theoretical bound",
        bool((summaries[_SYNTH_K].upper <= bound).all()),
    )
    result.check(
        "smaller-width error below the theoretical bound",
        bool((summaries[2].upper <= bound).all()),
    )
    if debias:
        # With debiasing, the only remaining error on supported widths is
        # noise; the unsupported width keeps a structural residual.
        result.check(
            "larger-width error exceeds the supported-width error (>1.5x)",
            float(np.median(summaries[4].median))
            > 1.5 * float(np.median(summaries[_SYNTH_K].median)),
        )
    if not debias:
        # Figure 4's headline: the biased error is dominated by the padding
        # mass 2^k * n_pad / n* — far above the debiased noise scale.
        result.check(
            "biased error substantially larger than the debiased bound",
            float(np.median(summaries[_SYNTH_K].median)) > debiased_bound,
        )
    return result


def _flat(series: np.ndarray, factor: float = 4.0) -> bool:
    """True when a positive series shows no blow-up relative to its level.

    Robust to small replication counts: the max must stay within ``factor``
    of the series mean (a genuine polynomial-in-``t`` growth, as in the
    larger-query panel, fails this immediately).
    """
    series = np.asarray(series, dtype=np.float64)
    high = float(series.max())
    level = float(series.mean())
    if high == 0.0:
        return True
    return high <= factor * max(level, 1e-12) or high - series.min() < 1e-4
