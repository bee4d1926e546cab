"""Experiment configuration and the shared result container."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.analysis.metrics import SeriesSummary
from repro.analysis.replication import STRATEGIES as _STRATEGIES
from repro.analysis.replication import resolve_n_jobs, resolve_strategy
from repro.analysis.tables import render_comparison_table, render_series_table

__all__ = [
    "FigureResult",
    "bench_reps",
    "default_reps",
    "default_attributes",
    "resolve_attributes",
    "default_strategy",
    "default_n_jobs",
    "STRATEGIES",
    "PAPER_REPS",
]

#: Repetition count used by the paper's figures.
PAPER_REPS = 1000

#: Default repetition count for interactive / CI runs.
default_reps = 25

#: Replication strategies (see repro.analysis.replication).
STRATEGIES = _STRATEGIES


def default_strategy() -> str:
    """Replication strategy used by experiment runs.

    Controlled by the ``REPRO_REPLICATION_STRATEGY`` environment variable
    (``"auto"``, ``"batched"``, ``"process"``, or ``"serial"``); delegates
    to :func:`repro.analysis.replication.resolve_strategy`, the same
    resolver :func:`~repro.analysis.replication.replicate_synthesizer`
    consults, so a typo'd value raises instead of silently re-running the
    default path.
    """
    return resolve_strategy(None)


def default_n_jobs() -> int:
    """Process-pool worker count (``$REPRO_N_JOBS`` or the CPU count)."""
    return resolve_n_jobs(None)


def resolve_attributes(value: int | None) -> int:
    """Resolve an attribute count: explicit value, else ``$REPRO_ATTRIBUTES``.

    The same resolver convention as
    :func:`repro.analysis.replication.resolve_strategy`: ``None`` falls
    back to the environment variable (default 2 — the
    employment-status x income-bracket workload of the ``multiattr``
    experiment), and an unparsable or non-positive value raises instead
    of silently running the default.
    """
    from repro.exceptions import ConfigurationError

    if value is None:
        raw = os.environ.get("REPRO_ATTRIBUTES", "")
        if not raw:
            return 2
        try:
            value = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"$REPRO_ATTRIBUTES must be an integer >= 1, got {raw!r}"
            ) from None
    value = int(value)
    if value < 1:
        raise ConfigurationError(f"attribute count must be >= 1, got {value}")
    return value


def default_attributes() -> int:
    """Attribute count used by the ``multiattr`` experiment.

    Controlled by the ``REPRO_ATTRIBUTES`` environment variable, the
    same pattern as :func:`default_strategy` /
    ``$REPRO_REPLICATION_STRATEGY``.
    """
    return resolve_attributes(None)


def bench_reps(fallback: int = default_reps) -> int:
    """Repetition count for benchmark runs.

    Controlled by the ``REPRO_BENCH_REPS`` environment variable so the same
    benchmark modules scale from quick CI smoke runs to full paper-scale
    sweeps (``REPRO_BENCH_REPS=1000``).
    """
    value = os.environ.get("REPRO_BENCH_REPS", "")
    try:
        parsed = int(value)
    except ValueError:
        return fallback
    return parsed if parsed > 0 else fallback


@dataclass
class FigureResult:
    """Everything an experiment produced, ready to print.

    Attributes
    ----------
    experiment_id:
        Registry id (``fig1``, ``abl-counter``, ...).
    title:
        Human-readable headline matching the paper figure caption.
    parameters:
        The experiment's configuration (rho, n, reps, ...).
    paper_expectation:
        What the paper's figure shows, stated as a checkable sentence.
    summaries:
        One :class:`SeriesSummary` per plotted series.
    bound_lines:
        Optional per-summary theoretical bound (label -> value), rendered
        as an extra column, mirroring the dashed lines of Figures 3/4.
    comparison_rows / comparison_columns:
        Optional ablation-style table (one row per variant).
    checks:
        Named boolean shape checks ("debiased answers unbiased", "bound
        dominates empirical error", ...).  These are what the test suite
        asserts.
    """

    experiment_id: str
    title: str
    parameters: dict = field(default_factory=dict)
    paper_expectation: str = ""
    summaries: list[SeriesSummary] = field(default_factory=list)
    bound_lines: dict[str, float] = field(default_factory=dict)
    comparison_rows: list[dict] = field(default_factory=list)
    comparison_columns: list[str] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def all_checks_pass(self) -> bool:
        """True when every recorded shape check passed."""
        return all(passed for _, passed in self.checks)

    def check(self, name: str, passed: bool) -> None:
        """Record one named shape check."""
        self.checks.append((name, bool(passed)))

    def render(self) -> str:
        """Plain-text report: parameters, series tables, checks."""
        lines = [f"### {self.experiment_id}: {self.title}"]
        if self.paper_expectation:
            lines.append(f"paper: {self.paper_expectation}")
        if self.parameters:
            rendered = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
            lines.append(f"params: {rendered}")
        for summary in self.summaries:
            extra = {}
            if summary.label in self.bound_lines:
                bound = self.bound_lines[summary.label]
                extra["bound"] = [bound] * len(summary.x)
            lines.append("")
            lines.append(render_series_table(summary, extra_columns=extra))
        if self.comparison_rows:
            lines.append("")
            lines.append(
                render_comparison_table(
                    self.comparison_rows, self.comparison_columns, title="comparison"
                )
            )
        if self.checks:
            lines.append("")
            lines.append("checks:")
            for name, passed in self.checks:
                lines.append(f"  [{'PASS' if passed else 'FAIL'}] {name}")
        return "\n".join(lines)
