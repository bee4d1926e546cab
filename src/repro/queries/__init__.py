"""Query classes supported by the continual synthesizers.

The paper studies two families of counting queries over binary panels
(§2.1):

* **Fixed time window queries** — indicator of a specific length-``k``
  pattern in the most recent window, and, by linear combination, any
  statistic of the window histogram (:mod:`repro.queries.window`).
* **Cumulative time queries** — indicator of Hamming weight at least ``b``
  through time ``t`` (:mod:`repro.queries.cumulative`).

:mod:`repro.queries.workloads` bundles the concrete query sets used in the
paper's figures (the four quarterly poverty statistics of Figure 1 and the
``b = 3`` cumulative series of Figures 2/8).
"""

from repro.queries.base import Query, WindowQuery
from repro.queries.categorical import (
    CategoricalPatternQuery,
    CategoricalWindowQuery,
    CategoryAtLeastM,
    categorical_pattern_table,
)
from repro.queries.cumulative import (
    HammingAtLeast,
    HammingExactly,
    cumulative_as_window_weights,
)
from repro.queries.plan import (
    AnswerCache,
    compile_cumulative,
    query_signature,
    release_answer_grid,
    scalar_answer_grid,
    workload_key,
)
from repro.queries.window import (
    AllOnes,
    AtLeastMConsecutiveOnes,
    AtLeastMOnes,
    ExactlyMOnes,
    PatternQuery,
    WindowLinearQuery,
)
from repro.queries.workloads import (
    cumulative_threshold_series,
    quarterly_poverty_workload,
)

__all__ = [
    "Query",
    "WindowQuery",
    "CategoricalWindowQuery",
    "CategoricalPatternQuery",
    "CategoryAtLeastM",
    "categorical_pattern_table",
    "PatternQuery",
    "WindowLinearQuery",
    "AtLeastMOnes",
    "AtLeastMConsecutiveOnes",
    "AllOnes",
    "ExactlyMOnes",
    "HammingAtLeast",
    "HammingExactly",
    "cumulative_as_window_weights",
    "quarterly_poverty_workload",
    "cumulative_threshold_series",
    "AnswerCache",
    "compile_cumulative",
    "query_signature",
    "release_answer_grid",
    "scalar_answer_grid",
    "workload_key",
]
