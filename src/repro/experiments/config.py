"""Experiment configuration and the shared result container."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.analysis.metrics import SeriesSummary
from repro.analysis.tables import render_comparison_table, render_series_table
from repro.exceptions import ConfigurationError

__all__ = [
    "FigureResult",
    "bench_reps",
    "default_reps",
    "resolve_attributes",
    "PAPER_REPS",
]

#: Repetition count used by the paper's figures.
PAPER_REPS = 1000

#: Default repetition count for interactive / CI runs.
default_reps = 25


def resolve_attributes(value: int | None) -> int:
    """Resolve an attribute count for the ``multiattr`` experiment.

    ``None`` means 2 (the employment-status x income-bracket workload);
    an explicit value must be an integer >= 1.
    """
    if value is None:
        return 2
    value = int(value)
    if value < 1:
        raise ConfigurationError(f"attribute count must be >= 1, got {value}")
    return value


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
