"""Runnable experiment definitions — one per paper figure, plus ablations.

Each experiment function returns a :class:`~repro.experiments.config.FigureResult`
holding the measured series, the ground truth, pass/fail shape checks, and a
plain-text rendering comparable against the paper figure.  The registry maps
experiment ids (``fig1`` ... ``fig8``, ``abl-*``, ``thm32``) to
their runners; ``python -m repro.experiments run fig1`` executes one from
the command line, and each ``benchmarks/bench_*.py`` module wraps one in
pytest-benchmark.
"""

from repro.experiments.config import FigureResult, bench_reps, default_reps
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments

__all__ = [
    "FigureResult",
    "bench_reps",
    "default_reps",
    "EXPERIMENTS",
    "get_experiment",
    "list_experiments",
]
