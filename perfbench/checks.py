"""Output checks, run untimed after each pass.

Each check returns a list of failure messages; an empty list means the
outputs are right.  The workloads count every failed check as one failed
operation, so a wrong answer can never hide behind a good time.
"""

from __future__ import annotations

import math

import numpy as np


def check_spend(spent_per_round, rho: float) -> list[str]:
    """zCDP spend never exceeds ``rho`` and reaches it at the horizon."""
    failures = []
    for round_number, spent in enumerate(spent_per_round, start=1):
        if spent > rho * (1.0 + 1e-12):
            failures.append(f"round {round_number}: spent {spent!r} > rho {rho!r}")
    final = spent_per_round[-1] if len(spent_per_round) else 0.0
    if not math.isclose(final, rho, rel_tol=1e-9):
        failures.append(f"spend at the horizon is {final!r}, expected rho {rho!r}")
    return failures


def sample_cells(shape, count: int, seed: int) -> list[tuple[int, int]]:
    """A fixed pseudo-random sample of ``(row, column)`` grid cells."""
    rows, cols = shape
    rng = np.random.default_rng(seed)
    flat = rng.choice(rows * cols, size=min(count, rows * cols), replace=False)
    return [(int(cell) // cols, int(cell) % cols) for cell in np.sort(flat)]


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def check_batch_matches_scalar(grid, answer, queries, times, cells) -> list[str]:
    """``answer_batch`` cells equal the scalar ``answer(query, t)`` bit for bit."""
    failures = []
    for row, col in cells:
        scalar = float(answer(queries[row], times[col]))
        batched = float(grid[row, col])
        if not _same(batched, scalar):
            failures.append(
                f"answer_batch[{row}, t={times[col]}] = {batched!r} but answer() = {scalar!r}"
            )
    return failures


def cumulative_truth(columns: np.ndarray) -> np.ndarray:
    """Fraction with at least ``b`` ones among the first ``t`` reports.

    ``columns`` is the ``(T, n)`` report matrix; returns a ``(T, T)``
    grid indexed ``[b - 1, t - 1]``.
    """
    horizon, n = columns.shape
    weights = np.zeros(n, dtype=np.int64)
    truth = np.zeros((horizon, horizon), dtype=np.float64)
    for t in range(horizon):
        weights += columns[t]
        census = np.bincount(weights, minlength=horizon + 1)
        at_least = census[::-1].cumsum()[::-1]  # at_least[b] = #weights >= b
        truth[:, t] = at_least[1 : horizon + 1] / n
    return truth


def check_cumulative_accuracy(grid, truth, alpha: float) -> list[str]:
    """Every threshold answer lies within ``alpha`` of the truth."""
    error = np.abs(np.asarray(grid, dtype=np.float64) - truth)
    worst = float(np.nanmax(error)) if error.size else 0.0
    if np.isnan(error).any() or worst > alpha:
        return [f"cumulative answers miss the truth by {worst:.4g} > alpha {alpha:.4g}"]
    return []


def window_histograms(columns: np.ndarray, window: int, alphabet: int) -> dict[int, np.ndarray]:
    """True window histograms ``C^t`` for every round ``t >= window``.

    Window codes put the oldest report in the most significant base-``q``
    digit, matching the synthesizer's bin order.
    """
    horizon = columns.shape[0]
    out = {}
    for t in range(window, horizon + 1):
        codes = np.zeros(columns.shape[1], dtype=np.int64)
        for row in range(t - window, t):
            codes = codes * alphabet + columns[row]
        out[t] = np.bincount(codes, minlength=alphabet**window)
    return out


def check_window_accuracy(histogram, truth: dict, n_pad: int, bound: float) -> list[str]:
    """Released histograms lie within ``bound`` of the true counts plus ``n_pad``."""
    worst = 0.0
    for t, counts in truth.items():
        released = np.asarray(histogram(t), dtype=np.int64)
        worst = max(worst, float(np.abs(released - (counts + n_pad)).max()))
    if worst > bound:
        return [f"window histograms miss the padded truth by {worst:.0f} > bound {bound:.1f}"]
    return []


def check_identical(label: str, before, after) -> list[str]:
    """Two answer grids agree bit for bit (NaN matching NaN)."""
    a = np.asarray(before, dtype=np.float64)
    b = np.asarray(after, dtype=np.float64)
    if a.shape != b.shape or not np.array_equal(a, b, equal_nan=True):
        return [f"{label}: answers after recovery differ from the closed service"]
    return []


def check_figure(result) -> list[str]:
    """A regenerated figure passes all of its shape checks."""
    if result.all_checks_pass:
        return []
    failed = [name for name, passed in result.checks if not passed]
    return [f"{result.experiment_id}: failed checks {failed}"]
