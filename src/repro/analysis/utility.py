"""Utility evaluation harness: pMSE scoring of synthetic releases.

The repo benchmarks *speed* aggressively, but synthetic-data *quality*
was only checked through figure replication.  This module closes that gap
with the **propensity score mean-squared error** (pMSE) of Snoke &
Slavković: pool the real and synthetic records, fit a propensity model
that predicts whether a record is synthetic, and measure how far the
fitted propensities stray from the synthetic fraction ``c``.  If the
synthetic data is distributed like the real data, no model can tell the
two apart and the pMSE is small; a distribution shift (bias from
clamping, over-noising, broken consistency) shows up as separable records
and a large pMSE.

Because every release in this codebase is a panel over a *finite
alphabet* (binary poverty bits or q-ary employment states), the
propensity model can be **saturated and closed-form**: featurize each
record by its recent length-``w`` window pattern (a base-``q`` code), and
the maximum-likelihood propensity in each pattern cell is simply the
cell's synthetic fraction.  No SciPy, no logistic solver — one
``bincount`` per side.

Padding records are handled the way the paper's §3.2 estimator handles
them: Algorithm 1's released panel deliberately contains ``n_pad``
*public* fake individuals per pattern bin, and an analyst subtracts that
known contribution before reading any statistic.  The scorer does the
same — when a release carries a :class:`~repro.core.padding.PaddingSpec`
the padding counts are removed from the synthetic histogram before the
propensity fit — so pMSE measures genuine distributional defects (noise,
clamping bias, broken consistency), not the mechanism's own declared
padding.

Scores are reported as the **pMSE ratio**: observed pMSE divided by its
null expectation for a same-distribution synthetic sample of the same
size (the saturated-model analogue of the ``(k-1)(1-c)^2 c / N``
normalization of Snoke et al.).  Interpretation:

* ``0``  — the synthetic records are indistinguishable cell-by-cell from
  the real ones (e.g. the non-private oracle, which releases the data
  itself);
* ``~1`` — as separable as a fresh sample from the true distribution
  (the best any honest generator can do);
* ``>> 1`` — a real distributional defect.

:func:`score_synthesizer` runs the scorer over replicated runs through
:func:`~repro.analysis.replication.replicate_synthesizer` by disguising
the scorer as a query (:class:`PMSEProbe`), so every release type with a
``synthetic_data(t)`` view can be scored with the same machinery that
produces the paper figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.metrics import max_abs_error, rmse
from repro.analysis.replication import ReplicatedAnswers, replicate_synthesizer
from repro.exceptions import ConfigurationError, DataValidationError
from repro.queries.base import Query
from repro.queries.plan import release_answer_grid
from repro.rng import SeedLike

__all__ = [
    "PMSEScore",
    "propensity_pmse",
    "propensity_pmse_counts",
    "expected_null_pmse",
    "panel_window_codes",
    "panel_hamming_codes",
    "pmse_panels",
    "pmse_release",
    "PMSEProbe",
    "utility_answer",
    "UtilityReport",
    "score_synthesizer",
]


def expected_null_pmse(n_real: float, n_synthetic: float, df: int) -> float:
    """Expected pMSE when the synthetic data has the true distribution.

    For the saturated categorical propensity model, each occupied cell's
    real/synthetic split is binomial with success probability
    ``c = n_synthetic / N``, and estimating ``c`` from the pooled sample
    removes one degree of freedom, giving ``E[pMSE] = df * c (1 - c) / N``
    with ``df = occupied cells - 1`` — the exact-variance analogue of the
    asymptotic ``(k - 1)(1 - c)^2 c / N`` normalization that Snoke &
    Slavković derive for logistic propensity models.

    Parameters
    ----------
    n_real, n_synthetic:
        Record masses of the two pooled sides (both positive; fractional
        after padding debiasing).
    df:
        Model degrees of freedom: occupied pattern cells minus one.

    Returns
    -------
    float
        The null expectation; 0.0 when ``df`` is 0 (a single cell holds
        everything, so propensities carry no signal).
    """
    if n_real <= 0 or n_synthetic <= 0:
        raise ConfigurationError(
            f"need records on both sides, got n_real={n_real}, "
            f"n_synthetic={n_synthetic}"
        )
    if df < 0:
        raise ConfigurationError(f"df must be non-negative, got {df}")
    total = n_real + n_synthetic
    c = n_synthetic / total
    return df * c * (1.0 - c) / total


@dataclass(frozen=True)
class PMSEScore:
    """One pMSE evaluation of a synthetic sample against real records.

    Attributes
    ----------
    pmse:
        Observed propensity mean-squared error.
    null_pmse:
        Expected pMSE for a fresh same-distribution sample
        (:func:`expected_null_pmse`); the denominator of :attr:`ratio`.
    n_real, n_synthetic:
        Pooled record masses (fractional when padding was debiased out of
        the synthetic counts).
    n_cells:
        Occupied pattern cells (cells with at least one pooled record).
    """

    pmse: float
    null_pmse: float
    n_real: float
    n_synthetic: float
    n_cells: int

    @property
    def ratio(self) -> float:
        """Observed pMSE over its same-distribution null expectation.

        0 means indistinguishable, ~1 means as separable as a fresh true
        sample, much larger means a distributional defect.  When the null
        expectation is 0 (single occupied cell) the ratio is 0 by
        convention — there is no propensity signal to normalize.
        """
        if self.null_pmse == 0.0:
            return 0.0
        return self.pmse / self.null_pmse


def propensity_pmse(
    real_codes: np.ndarray,
    synthetic_codes: np.ndarray,
    n_cells: int | None = None,
) -> PMSEScore:
    """pMSE of the saturated propensity model over discrete feature codes.

    Pools the two code vectors, fits the saturated model (cell propensity
    = the cell's synthetic fraction, the logistic MLE with one indicator
    per cell), and averages the squared propensity deviations from the
    overall synthetic share ``c``.

    Parameters
    ----------
    real_codes, synthetic_codes:
        1-D non-negative integer feature codes — one per record — in the
        same code space (e.g. window-pattern codes from
        :func:`panel_window_codes`).  Both must be non-empty.
    n_cells:
        Size of the code space (codes lie in ``[0, n_cells)``).  ``None``
        infers the smallest spanning size; the value only bounds the
        ``bincount`` width, the score itself depends on occupied cells.

    Returns
    -------
    PMSEScore
        The observed pMSE with its null normalization.
    """
    real_codes = np.asarray(real_codes)
    synthetic_codes = np.asarray(synthetic_codes)
    for label, codes in (("real", real_codes), ("synthetic", synthetic_codes)):
        if codes.ndim != 1:
            raise DataValidationError(
                f"{label} codes must be 1-D, got shape {codes.shape}"
            )
        if codes.size == 0:
            raise DataValidationError(f"{label} codes are empty; nothing to score")
        if not np.issubdtype(codes.dtype, np.integer):
            raise DataValidationError(
                f"{label} codes must be integers, got dtype {codes.dtype}"
            )
        if codes.min() < 0:
            raise DataValidationError(f"{label} codes must be non-negative")
    span = int(max(real_codes.max(), synthetic_codes.max())) + 1
    if n_cells is None:
        n_cells = span
    elif span > n_cells:
        raise DataValidationError(
            f"codes reach {span - 1} but n_cells is only {n_cells}"
        )
    real_counts = np.bincount(real_codes, minlength=n_cells)
    synthetic_counts = np.bincount(synthetic_codes, minlength=n_cells)
    return propensity_pmse_counts(real_counts, synthetic_counts)


def propensity_pmse_counts(
    real_counts: np.ndarray, synthetic_counts: np.ndarray
) -> PMSEScore:
    """pMSE of the saturated propensity model over cell count vectors.

    The count-vector form of :func:`propensity_pmse`: each entry is the
    record mass of one pattern cell.  Counts may be fractional — the
    utility harness uses this to score *debiased* synthetic histograms,
    subtracting a release's public padding contribution before the fit
    (see :func:`pmse_release`).

    Parameters
    ----------
    real_counts, synthetic_counts:
        1-D non-negative count vectors of equal length (one entry per
        pattern cell), each with positive total mass.

    Returns
    -------
    PMSEScore
        The observed pMSE with its null normalization.
    """
    real_counts = np.asarray(real_counts, dtype=np.float64)
    synthetic_counts = np.asarray(synthetic_counts, dtype=np.float64)
    for label, counts in (("real", real_counts), ("synthetic", synthetic_counts)):
        if counts.ndim != 1:
            raise DataValidationError(
                f"{label} counts must be 1-D, got shape {counts.shape}"
            )
        if counts.size and counts.min() < 0:
            raise DataValidationError(f"{label} counts must be non-negative")
    if real_counts.shape != synthetic_counts.shape:
        raise DataValidationError(
            f"count vectors must share one cell space, got {real_counts.shape} "
            f"vs {synthetic_counts.shape}"
        )
    n_real = float(real_counts.sum())
    n_synthetic = float(synthetic_counts.sum())
    if n_real <= 0 or n_synthetic <= 0:
        raise DataValidationError(
            f"need positive mass on both sides, got real={n_real}, "
            f"synthetic={n_synthetic}"
        )
    pooled = real_counts + synthetic_counts
    occupied = pooled > 0
    total = n_real + n_synthetic
    c = n_synthetic / total
    propensity = synthetic_counts[occupied] / pooled[occupied]
    pmse = float((pooled[occupied] * (propensity - c) ** 2).sum() / total)
    df = int(occupied.sum()) - 1
    return PMSEScore(
        pmse=pmse,
        null_pmse=expected_null_pmse(n_real, n_synthetic, df),
        n_real=n_real,
        n_synthetic=n_synthetic,
        n_cells=int(occupied.sum()),
    )


def panel_window_codes(panel, t: int, width: int) -> np.ndarray:
    """Per-record feature codes: the length-``width`` window ending at ``t``.

    Works on any panel exposing ``window_codes(t, k)`` —
    :class:`~repro.data.dataset.LongitudinalDataset` and
    :class:`~repro.data.categorical.CategoricalDataset` alike.  The
    effective width is clipped to ``t`` (a window cannot predate the
    stream).

    Parameters
    ----------
    panel:
        The panel to featurize.
    t:
        Evaluation round, 1-indexed, ``1 <= t <= panel.horizon``.
    width:
        Requested window width (positive; clipped to ``t``).

    Returns
    -------
    numpy.ndarray
        1-D integer codes in ``[0, alphabet**w)`` with
        ``w = min(width, t)``.
    """
    if width <= 0:
        raise ConfigurationError(f"width must be positive, got {width}")
    if not 1 <= t <= panel.horizon:
        raise ConfigurationError(
            f"t must lie in [1, {panel.horizon}], got {t}"
        )
    return np.asarray(panel.window_codes(t, min(int(width), int(t))))


def panel_hamming_codes(panel, t: int) -> np.ndarray:
    """Per-record feature codes: the Hamming weight of rounds ``1..t``.

    The cumulative synthesizer (Algorithm 2) releases data that preserves
    the *distribution of cumulative weights*, not window patterns, so its
    releases are scored in this feature space: one code per record, equal
    to the number of 1-rounds among the first ``t`` columns (an integer
    in ``[0, t]``).  Binary panels only.

    Parameters
    ----------
    panel:
        A binary panel exposing ``hamming_weights(t)``.
    t:
        Evaluation round, 1-indexed, ``1 <= t <= panel.horizon``.

    Returns
    -------
    numpy.ndarray
        1-D integer codes in ``[0, t]``, one per record.
    """
    if not 1 <= t <= panel.horizon:
        raise ConfigurationError(f"t must lie in [1, {panel.horizon}], got {t}")
    weights = getattr(panel, "hamming_weights", None)
    if weights is None:
        raise ConfigurationError(
            f"{type(panel).__name__} has no hamming_weights; Hamming "
            "features need a binary panel"
        )
    return np.asarray(weights(int(t)))


def pmse_panels(real_panel, synthetic_panel, t: int, width: int) -> PMSEScore:
    """pMSE between a real panel at round ``t`` and a synthetic panel.

    Featurizes both sides by their most recent window patterns and scores
    them with :func:`propensity_pmse`.  The synthetic panel is read at its
    own final round (releases return the round-``t`` prefix; per-round
    density samples are ``window``-wide panels), and the effective width
    is the largest one both sides support.

    Parameters
    ----------
    real_panel:
        Ground-truth panel (binary or categorical).
    synthetic_panel:
        The release's synthetic panel for round ``t``.
    t:
        Evaluation round on the real panel (1-indexed).
    width:
        Requested feature-window width; clipped to what both panels
        cover.

    Returns
    -------
    PMSEScore
        The score at round ``t``.
    """
    q_real = real_panel.alphabet
    q_synthetic = synthetic_panel.alphabet
    if q_real != q_synthetic:
        raise DataValidationError(
            f"alphabet mismatch: real panel has q={q_real}, "
            f"synthetic has q={q_synthetic}"
        )
    w = min(int(width), int(t), int(synthetic_panel.horizon))
    real_codes = panel_window_codes(real_panel, t, w)
    synthetic_codes = panel_window_codes(
        synthetic_panel, min(int(t), int(synthetic_panel.horizon)), w
    )
    return propensity_pmse(real_codes, synthetic_codes, n_cells=q_real**w)


def _release_panel(release, t: int):
    """The synthetic panel a release exposes for round ``t``.

    Every built-in release type — both algorithms, all baselines — spells
    this ``synthetic_data(t)``; it is the one pMSE-scoring requirement
    beyond the :class:`~repro.types.Release` protocol.
    """
    try:
        view = release.synthetic_data
    except AttributeError:
        raise ConfigurationError(
            f"release {type(release).__name__} exposes no synthetic_data(t); "
            "cannot score it with pMSE"
        ) from None
    return view(t)


def pmse_release(
    real_panel, release, t: int, width: int, features: str = "window"
) -> PMSEScore:
    """Padding-aware pMSE of a release's round-``t`` synthetic panel.

    Like :func:`pmse_panels`, but reads the panel off the release and —
    when the release advertises a public
    :class:`~repro.core.padding.PaddingSpec` — scores it against the
    *padded* truth: the declared contribution (``n_pad * q**(k - w)``
    records per width-``w`` cell) is added to the real histogram before
    the propensity fit, because truth-plus-padding is exactly the
    distribution a padded release is built to match.  This mirrors the
    paper's §3.2 estimator, which treats the padding as a public offset;
    crucially it needs no clamping, so the score stays an unbiased read
    of noise and consistency defects.  (Subtracting the padding from the
    synthetic side instead would force a clamp at zero — re-introducing
    the very §3.1 clamping bias the padding is designed to avoid.)
    Releases without padding (the clamping baseline, density samples, the
    oracle) are scored on their raw histograms.

    Parameters
    ----------
    real_panel:
        Ground-truth panel the release is scored against.
    release:
        Any release exposing ``synthetic_data(t)`` or ``panel(t)``.
    t:
        Evaluation round on the real panel (1-indexed).
    width:
        Requested feature-window width; clipped to what both sides cover
        (ignored for Hamming features).
    features:
        Feature space: ``"window"`` (length-``width`` pattern codes, the
        default) or ``"hamming"`` (cumulative-weight codes via
        :func:`panel_hamming_codes` — the space Algorithm 2 preserves).

    Returns
    -------
    PMSEScore
        The score at round ``t``.
    """
    if features not in ("window", "hamming"):
        raise ConfigurationError(
            f"features must be 'window' or 'hamming', got {features!r}"
        )
    synthetic = _release_panel(release, t)
    q = real_panel.alphabet
    if q != synthetic.alphabet:
        raise DataValidationError(
            f"alphabet mismatch: real panel has q={q}, synthetic has q={synthetic.alphabet}"
        )
    t_synthetic = min(int(t), int(synthetic.horizon))
    padding = getattr(release, "padding", None)
    if callable(padding):  # per-round specs (the recompute baseline)
        padding = padding(t)
    n_pad = int(getattr(padding, "n_pad", 0) or 0)
    if features == "hamming":
        real_codes = panel_hamming_codes(real_panel, t)
        synthetic_codes = panel_hamming_codes(synthetic, t_synthetic)
        n_cells = int(t) + 1
        real_counts = np.bincount(real_codes, minlength=n_cells).astype(np.float64)
        synthetic_counts = np.bincount(
            synthetic_codes, minlength=n_cells
        ).astype(np.float64)
        if n_pad:
            pad_codes = panel_hamming_codes(
                padding.panel, min(int(t), padding.horizon)
            )
            real_counts += np.bincount(pad_codes, minlength=n_cells)[:n_cells]
        return propensity_pmse_counts(real_counts, synthetic_counts)
    w = min(int(width), int(t), int(synthetic.horizon))
    real_codes = panel_window_codes(real_panel, t, w)
    synthetic_codes = panel_window_codes(synthetic, t_synthetic, w)
    real_counts = np.bincount(real_codes, minlength=q**w).astype(np.float64)
    synthetic_counts = np.bincount(synthetic_codes, minlength=q**w).astype(
        np.float64
    )
    if n_pad and w <= padding.window:
        real_counts += float(n_pad) * float(padding.alphabet) ** (
            padding.window - w
        )
    return propensity_pmse_counts(real_counts, synthetic_counts)


class PMSEProbe(Query):
    """A pMSE scorer disguised as a query for the replication harness.

    :func:`~repro.analysis.replication.replicate_synthesizer` records a
    ``(query, time)`` answer grid; this probe occupies one query row whose
    "answer" is the release's pMSE ratio at each round (computed by
    :func:`utility_answer`) and whose "truth" is 0 — the score of a
    perfect release, since the real data against itself has pMSE exactly
    0.  Replicated pMSE frontiers therefore reuse the exact machinery
    (seeding, per-repetition generators) that produces the paper figures.

    Parameters
    ----------
    panel:
        The ground-truth panel the releases are scored against.
    width:
        Feature-window width passed to :func:`pmse_release`.
    name:
        Row label in the replicated answer grid.
    features:
        Feature space (``"window"`` or ``"hamming"``), see
        :func:`pmse_release`.
    """

    def __init__(
        self,
        panel,
        width: int,
        name: str = "pmse_ratio",
        features: str = "window",
    ):
        if width <= 0:
            raise ConfigurationError(f"width must be positive, got {width}")
        if features not in ("window", "hamming"):
            raise ConfigurationError(
                f"features must be 'window' or 'hamming', got {features!r}"
            )
        self.panel = panel
        self.width = int(width)
        self.name = str(name)
        self.features = str(features)

    def min_time(self) -> int:
        """Defined from round 1 (the width clips itself to ``t``)."""
        return 1

    def evaluate(self, dataset, t: int) -> float:
        """Ground truth of the probe: a perfect release scores 0."""
        self.check_time(t)
        return 0.0

    def score(self, release, t: int) -> float:
        """Padding-aware pMSE ratio of the round-``t`` synthetic panel."""
        return pmse_release(
            self.panel, release, t, self.width, features=self.features
        ).ratio


def utility_answer(release, queries, times, debias: bool) -> np.ndarray:
    """Grid answer dispatch for :func:`replicate_synthesizer` utility runs.

    Regular query rows compile through
    :func:`repro.queries.plan.release_answer_grid` as one batch;
    :class:`PMSEProbe` rows are scored per round on the synthetic panel
    (the scorer reads records, not histograms, so there is nothing to
    compile).

    Parameters
    ----------
    release:
        The per-repetition release object.
    queries:
        The grid rows: probes and regular queries, in any order.
    times:
        Evaluation rounds.
    debias:
        Passed through to window releases for regular queries.

    Returns
    -------
    numpy.ndarray
        The ``(len(queries), len(times))`` grid, ``NaN`` where a query
        is not yet defined.
    """
    out = np.full((len(queries), len(times)), np.nan, dtype=np.float64)
    regular = [qi for qi, q in enumerate(queries) if not isinstance(q, PMSEProbe)]
    if regular:
        out[regular] = release_answer_grid(
            release, [queries[qi] for qi in regular], times, debias=debias
        )
    for qi, query in enumerate(queries):
        if isinstance(query, PMSEProbe):
            for ti, t in enumerate(times):
                if t >= query.min_time():
                    out[qi, ti] = query.score(release, t)
    return out


@dataclass(frozen=True)
class UtilityReport:
    """Replicated utility scores of one synthesizer on one workload.

    Attributes
    ----------
    label:
        Scenario label (algorithm / baseline name).
    grid:
        The full replicated answer grid: regular query rows first, then
        one :class:`PMSEProbe` row per probe.
    query_names:
        Names of the regular (accuracy-metric) query rows.
    probe_names:
        Names of the pMSE probe rows.
    """

    label: str
    grid: ReplicatedAnswers
    query_names: tuple[str, ...]
    probe_names: tuple[str, ...]

    def _row(self, name: str) -> int:
        try:
            return self.grid.query_names.index(name)
        except ValueError:
            raise ConfigurationError(
                f"unknown row {name!r}; grid has {self.grid.query_names}"
            ) from None

    def pmse_ratios(self, probe: str | None = None) -> np.ndarray:
        """The ``(n_reps, n_times)`` pMSE-ratio samples of one probe row.

        Parameters
        ----------
        probe:
            Probe row name; defaults to the first (usually only) probe.
        """
        if not self.probe_names:
            raise ConfigurationError(f"report {self.label!r} has no pMSE probe")
        return self.grid.answers[:, self._row(probe or self.probe_names[0]), :]

    @property
    def mean_pmse_ratio(self) -> float:
        """Mean pMSE ratio over repetitions and evaluated rounds."""
        return float(np.nanmean(self.pmse_ratios()))

    @property
    def final_pmse_ratio(self) -> float:
        """Mean pMSE ratio at the last evaluated round."""
        return float(np.nanmean(self.pmse_ratios()[:, -1]))

    def query_rmse(self, name: str | None = None) -> float:
        """RMSE of one query row against its ground truth, over all cells.

        Parameters
        ----------
        name:
            Query row name; defaults to the first regular query.
        """
        if not self.query_names:
            raise ConfigurationError(f"report {self.label!r} has no query rows")
        row = self._row(name or self.query_names[0])
        answers = self.grid.answers[:, row, :]
        truth = np.broadcast_to(self.grid.truth[row][None, :], answers.shape)
        defined = ~np.isnan(truth)
        return rmse(answers[defined], truth[defined])

    def query_max_abs_error(self, name: str | None = None) -> float:
        """Worst absolute error of one query row over reps and rounds.

        Parameters
        ----------
        name:
            Query row name; defaults to the first regular query.
        """
        if not self.query_names:
            raise ConfigurationError(f"report {self.label!r} has no query rows")
        row = self._row(name or self.query_names[0])
        answers = self.grid.answers[:, row, :]
        truth = np.broadcast_to(self.grid.truth[row][None, :], answers.shape)
        defined = ~np.isnan(truth)
        return max_abs_error(answers[defined], truth[defined])


def score_synthesizer(
    factory: Callable[[np.random.Generator], object],
    panel,
    queries: Sequence[Query],
    times: Sequence[int],
    n_reps: int,
    seed: SeedLike = None,
    *,
    width: int = 3,
    features: str = "window",
    label: str = "synthesizer",
    debias: bool = True,
) -> UtilityReport:
    """Replicated utility scoring of one synthesizer factory.

    Runs ``n_reps`` independent repetitions through
    :func:`~repro.analysis.replication.replicate_synthesizer` with a
    :class:`PMSEProbe` appended to the query list, so one pass yields
    both the accuracy metrics (rmse / max-abs against ground truth) and
    the distributional pMSE frontier.

    Parameters
    ----------
    factory:
        Per-repetition synthesizer factory (receives a child generator).
    panel:
        Ground-truth panel; also the pMSE reference.
    queries:
        Regular accuracy queries to record alongside the probe.
    times:
        Evaluation rounds.
    n_reps:
        Repetitions.
    seed:
        Master seed for the replication harness.
    width:
        pMSE feature-window width (see :func:`pmse_release`).
    features:
        pMSE feature space (``"window"`` or ``"hamming"``).
    label:
        Scenario label stored on the report.
    debias:
        Passed to window releases for the regular queries.  The probe
        keeps the run on the one-repetition-at-a-time loop.

    Returns
    -------
    UtilityReport
        Accuracy and pMSE scores over the replicated runs.
    """
    probe = PMSEProbe(panel, width, features=features)
    grid = replicate_synthesizer(
        factory,
        panel,
        [*queries, probe],
        times,
        n_reps,
        seed=seed,
        debias=debias,
        answer_fn=utility_answer,
    )
    return UtilityReport(
        label=str(label),
        grid=grid,
        query_names=tuple(q.name for q in queries),
        probe_names=(probe.name,),
    )
