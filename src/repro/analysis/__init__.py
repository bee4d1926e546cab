"""Analysis toolkit: theoretical bounds, error metrics, replication harness.

* :mod:`repro.analysis.theory` — closed-form bounds from the paper
  (Theorem 3.2, Corollary 3.3, Theorem A.2, Corollary B.1) used to draw the
  dashed bound lines of Figures 3/4 and to choose the default padding.
* :mod:`repro.analysis.metrics` — error metrics over replicated runs.
* :mod:`repro.analysis.replication` — the seeded multi-repetition runner
  behind every figure (the paper repeats each synthesizer 1000 times).
* :mod:`repro.analysis.tables` — plain-text rendering of result series
  (this reproduction's "figures" are printed series tables).
* :mod:`repro.analysis.utility` — padding-aware pMSE scoring of synthetic
  releases (the Snoke & Slavković propensity-score metric, saturated
  closed-form over finite alphabets) and the replicated utility harness.
"""

from repro.analysis.confidence import (
    cumulative_answer_ci,
    normal_quantile,
    window_answer_ci,
)
from repro.analysis.metrics import (
    bias,
    max_abs_error,
    percentile_bands,
    rmse,
    SeriesSummary,
)
from repro.analysis.replication import ReplicatedAnswers, replicate_synthesizer
from repro.analysis.tables import render_comparison_table, render_series_table
from repro.analysis.utility import (
    PMSEProbe,
    PMSEScore,
    UtilityReport,
    expected_null_pmse,
    panel_hamming_codes,
    panel_window_codes,
    pmse_panels,
    pmse_release,
    propensity_pmse,
    propensity_pmse_counts,
    score_synthesizer,
    utility_answer,
)
from repro.analysis.theory import (
    corollary_3_3_relative_bound,
    corollary_b1_alpha,
    debiased_error_bound,
    default_n_pad,
    theorem_3_2_bound,
    tree_counter_error_bound,
)

__all__ = [
    "normal_quantile",
    "window_answer_ci",
    "cumulative_answer_ci",
    "theorem_3_2_bound",
    "default_n_pad",
    "corollary_3_3_relative_bound",
    "debiased_error_bound",
    "tree_counter_error_bound",
    "corollary_b1_alpha",
    "max_abs_error",
    "bias",
    "rmse",
    "percentile_bands",
    "SeriesSummary",
    "ReplicatedAnswers",
    "replicate_synthesizer",
    "render_series_table",
    "render_comparison_table",
    "PMSEScore",
    "PMSEProbe",
    "UtilityReport",
    "propensity_pmse",
    "propensity_pmse_counts",
    "expected_null_pmse",
    "panel_window_codes",
    "panel_hamming_codes",
    "pmse_panels",
    "pmse_release",
    "score_synthesizer",
    "utility_answer",
]
