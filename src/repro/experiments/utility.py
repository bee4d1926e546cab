"""``utility``: the accuracy-vs-privacy frontier with pMSE scoring.

Every benchmark before this one watched *speed*; this experiment turns
synthetic-data *quality* into a committed, gateable artifact.  It sweeps
rho x horizon over the SIPP smoke panel and scores one scenario per
algorithm family with the padding-aware pMSE harness
(:mod:`repro.analysis.utility`) plus the rmse / max-abs accuracy
metrics:

* ``nonprivate`` — the oracle that releases the data itself (pMSE 0, the
  floor every score is read against);
* ``window`` — Algorithm 1 (:class:`~repro.core.fixed_window.FixedWindowSynthesizer`);
* ``clamped`` — the §3.1 strawman that clamps negative noisy counts
  instead of padding (its inflate-the-small-cells bias is exactly what
  pMSE punishes);
* ``density`` — the private density-estimation competitor
  (:class:`~repro.baselines.density.PrivateDensityBaseline`);
* ``recompute`` — fresh single-shot synthesis per round (sqrt(T)
  composition penalty, no linkage);
* ``cumulative`` — Algorithm 2, scored in the Hamming-weight feature
  space it actually preserves;
* ``categorical`` — the q-ary window synthesizer on the employment
  panel.

The headline check is the ordering the paper's §3 motivates:
``nonprivate < window < clamped`` on every swept configuration — padding
plus debiasing beats clamping, and nothing beats the oracle.
:func:`frontier_metrics` flattens the frontier into the flat numeric
mapping ``benchmarks/check_regression.py`` gates, so an accuracy
regression (louder noise, broken consistency, a biased sampler) fails CI
the same way a speed regression does.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import SeriesSummary
from repro.analysis.utility import score_synthesizer
from repro.baselines.clamped import ClampingBaseline
from repro.baselines.density import PrivateDensityBaseline
from repro.baselines.nonprivate import NonPrivateSynthesizer
from repro.baselines.recompute import RecomputeBaseline
from repro.core.categorical_window import CategoricalWindowSynthesizer
from repro.core.cumulative import CumulativeSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.data.categorical import employment_status_panel
from repro.data.sipp import load_sipp_2021
from repro.exceptions import ConfigurationError
from repro.experiments.config import FigureResult
from repro.queries.categorical import CategoryAtLeastM
from repro.queries.cumulative import HammingAtLeast
from repro.queries.window import AtLeastMOnes

__all__ = [
    "run_utility_experiment",
    "frontier_metrics",
    "UTILITY_RHOS",
    "UTILITY_HORIZONS",
]

#: zCDP budgets swept by the frontier (ascending; the smoke scenario the
#: ordering check anchors on is the smallest one).
UTILITY_RHOS = (0.05, 0.2)

#: Horizons swept by the frontier (ascending; SIPP's T=12 is the anchor).
UTILITY_HORIZONS = (8, 12)


def _fmt(value: float) -> str:
    """Compact parameter formatting for labels and metric names."""
    return f"{value:g}"


def run_utility_experiment(
    n_reps: int = 8,
    seed: int = 0,
    *,
    rhos=UTILITY_RHOS,
    horizons=UTILITY_HORIZONS,
    window: int = 3,
    n_households: int = 1200,
    alphabet: int | None = None,
) -> FigureResult:
    """Sweep rho x horizon x algorithm and score utility per scenario.

    Parameters
    ----------
    n_reps:
        Replicated runs per scenario (every scenario reuses the same
        master seed, so two in-process runs are bit-identical).
    seed:
        Master seed for panels and replication.
    rhos:
        Ascending zCDP budgets to sweep.
    horizons:
        Ascending horizons to sweep; each scores on the SIPP panel's
        prefix of that length.
    window:
        Window width ``k`` of the window-family scenarios (also the pMSE
        feature width).
    n_households:
        Households in the SIPP smoke cut (and records in the categorical
        panel).
    alphabet:
        Category count of the categorical scenario (default 3).

    Returns
    -------
    FigureResult
        Frontier table (one row per scenario), pMSE-over-time summaries
        for the anchor configuration, and the ordering checks.
    """
    rhos = tuple(float(r) for r in rhos)
    horizons = tuple(int(h) for h in horizons)
    if not rhos or any(r <= 0 for r in rhos):
        raise ConfigurationError(f"rhos must be positive, got {rhos}")
    if not horizons or any(h <= window for h in horizons):
        raise ConfigurationError(
            f"every horizon must exceed window={window}, got {horizons}"
        )
    q = 3 if alphabet is None else int(alphabet)

    result = FigureResult(
        experiment_id="utility",
        title="Utility frontier: pMSE and query accuracy vs rho and horizon",
        parameters={
            "reps": n_reps,
            "rhos": rhos,
            "horizons": horizons,
            "window": window,
            "n_households": n_households,
            "alphabet": q,
        },
        paper_expectation=(
            "padding + debiasing (Algorithm 1) scores strictly between the "
            "non-private oracle and the clamping strawman on pMSE, and "
            "accuracy improves as rho grows"
        ),
    )

    full_panel = load_sipp_2021(seed=seed + 20_210, target_households=n_households)
    window_query = AtLeastMOnes(window, 1)
    cumulative_query = HammingAtLeast(1)
    categorical_query = CategoryAtLeastM(min(window, 2), q, 1, 1)

    anchor = (min(rhos), max(horizons))
    reports: dict[tuple, object] = {}

    for horizon in horizons:
        panel = full_panel.prefix(horizon)
        cat_panel = employment_status_panel(
            n_households, horizon, alphabet=q, seed=seed + 77
        )
        window_times = list(range(window, horizon + 1))
        cat_width = min(window, 2)
        cat_times = list(range(cat_width, horizon + 1))

        oracle = score_synthesizer(
            lambda g: NonPrivateSynthesizer(horizon),
            panel,
            [window_query],
            window_times,
            n_reps,
            seed=seed,
            width=window,
            label="nonprivate",
        )
        reports[("nonprivate", None, horizon)] = oracle
        result.comparison_rows.append(
            {
                "scenario": "nonprivate",
                "rho": "oracle",
                "horizon": horizon,
                "pmse_ratio": round(oracle.mean_pmse_ratio, 4),
                "pmse_final": round(oracle.final_pmse_ratio, 4),
                "rmse": round(oracle.query_rmse(), 6),
                "max_abs": round(oracle.query_max_abs_error(), 6),
            }
        )
        result.check(
            f"oracle scores pMSE 0 (T={horizon})",
            oracle.mean_pmse_ratio == 0.0 and oracle.query_rmse() == 0.0,
        )

        for rho in rhos:
            scenarios = {
                "window": (
                    lambda g, h=horizon, r=rho: FixedWindowSynthesizer(
                        h, window, r, seed=g
                    ),
                    panel,
                    [window_query],
                    window_times,
                    window,
                    "window",
                ),
                "clamped": (
                    lambda g, h=horizon, r=rho: ClampingBaseline(
                        h, window, r, seed=g
                    ),
                    panel,
                    [window_query],
                    window_times,
                    window,
                    "window",
                ),
                "density": (
                    lambda g, h=horizon, r=rho: PrivateDensityBaseline(
                        h, window, r, seed=g
                    ),
                    panel,
                    [window_query],
                    window_times,
                    window,
                    "window",
                ),
                "recompute": (
                    lambda g, h=horizon, r=rho: RecomputeBaseline(
                        h, window, r, seed=g
                    ),
                    panel,
                    [window_query],
                    window_times,
                    window,
                    "window",
                ),
                "cumulative": (
                    lambda g, h=horizon, r=rho: CumulativeSynthesizer(
                        h, r, seed=g
                    ),
                    panel,
                    [cumulative_query],
                    list(range(1, horizon + 1)),
                    window,
                    "hamming",
                ),
                "categorical": (
                    lambda g, h=horizon, r=rho: CategoricalWindowSynthesizer(
                        h, cat_width, q, r, seed=g
                    ),
                    cat_panel,
                    [categorical_query],
                    cat_times,
                    cat_width,
                    "window",
                ),
            }
            for name, (factory, score_panel, queries, times, width, feats) in (
                scenarios.items()
            ):
                report = score_synthesizer(
                    factory,
                    score_panel,
                    queries,
                    times,
                    n_reps,
                    seed=seed,
                    width=width,
                    features=feats,
                    label=f"{name} rho={_fmt(rho)} T={horizon}",
                )
                reports[(name, rho, horizon)] = report
                result.comparison_rows.append(
                    {
                        "scenario": name,
                        "rho": _fmt(rho),
                        "horizon": horizon,
                        "pmse_ratio": round(report.mean_pmse_ratio, 4),
                        "pmse_final": round(report.final_pmse_ratio, 4),
                        "rmse": round(report.query_rmse(), 6),
                        "max_abs": round(report.query_max_abs_error(), 6),
                    }
                )
                result.check(
                    f"{name} scores finite (rho={_fmt(rho)}, T={horizon})",
                    bool(
                        np.isfinite(report.mean_pmse_ratio)
                        and np.isfinite(report.query_rmse())
                    ),
                )

            window_score = reports[("window", rho, horizon)].mean_pmse_ratio
            clamped_score = reports[("clamped", rho, horizon)].mean_pmse_ratio
            result.check(
                f"pMSE orders oracle < window < clamped "
                f"(rho={_fmt(rho)}, T={horizon})",
                0.0 < window_score < clamped_score,
            )

        if len(rhos) > 1:
            lo, hi = min(rhos), max(rhos)
            for name in ("window", "density"):
                result.check(
                    f"{name} pMSE improves with budget (T={horizon})",
                    reports[(name, hi, horizon)].mean_pmse_ratio
                    <= reports[(name, lo, horizon)].mean_pmse_ratio,
                )
            result.check(
                f"window rmse improves with budget (T={horizon})",
                reports[("window", hi, horizon)].query_rmse()
                <= reports[("window", lo, horizon)].query_rmse(),
            )

    anchor_rho, anchor_horizon = anchor
    anchor_times = np.arange(window, anchor_horizon + 1, dtype=float)
    for name in ("window", "clamped", "density"):
        report = reports[(name, anchor_rho, anchor_horizon)]
        samples = report.pmse_ratios()
        result.summaries.append(
            SeriesSummary.from_samples(
                anchor_times,
                samples,
                np.zeros(len(anchor_times)),
                label=f"pmse {name} rho={_fmt(anchor_rho)} T={anchor_horizon}",
            )
        )

    result.comparison_columns = [
        "scenario",
        "rho",
        "horizon",
        "pmse_ratio",
        "pmse_final",
        "rmse",
        "max_abs",
    ]
    return result


def frontier_metrics(result: FigureResult) -> dict[str, float]:
    """Flatten a utility frontier into gateable numeric metrics.

    One ``pmse_<scenario>_rho<r>_T<h>`` and ``rmse_<scenario>_rho<r>_T<h>``
    entry per private scenario row, plus
    ``margin_clamped_over_window_rho<r>_T<h>`` (how much worse the
    clamping strawman scores than Algorithm 1 — "higher is better", the
    gate's canary for a quality regression in padding/debiasing).

    Parameters
    ----------
    result:
        A :class:`~repro.experiments.config.FigureResult` produced by
        :func:`run_utility_experiment`.

    Returns
    -------
    dict
        Metric name to value, ready for ``figure_report(metrics=...)``.
    """
    metrics: dict[str, float] = {}
    by_key: dict[tuple, dict] = {}
    for row in result.comparison_rows:
        if row["rho"] == "oracle":
            continue
        suffix = f"rho{row['rho']}_T{row['horizon']}"
        metrics[f"pmse_{row['scenario']}_{suffix}"] = float(row["pmse_ratio"])
        metrics[f"rmse_{row['scenario']}_{suffix}"] = float(row["rmse"])
        by_key[(row["scenario"], suffix)] = row
    for (scenario, suffix), row in by_key.items():
        if scenario != "clamped":
            continue
        window_row = by_key.get(("window", suffix))
        if window_row is not None:
            metrics[f"margin_clamped_over_window_{suffix}"] = float(
                row["pmse_ratio"]
            ) - float(window_row["pmse_ratio"])
    return metrics
