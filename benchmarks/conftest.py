"""Shared fixtures for the benchmark harness.

Every ``bench_figure*.py`` module regenerates one paper figure: it runs the
corresponding experiment (repetition count controlled by
``REPRO_BENCH_REPS``, default 25; the paper uses 1000), times it with
pytest-benchmark, and asserts the figure's shape checks.

Measured-vs-paper series tables are collected during the run and printed in
the terminal summary (after pytest's output capture ends), and additionally
written as **structured JSON** to ``benchmarks/reports/BENCH_<test>.json``
— the same machine-readable family as ``BENCH_replication.json``, so CI can
archive every report and ``benchmarks/check_regression.py`` can gate the
numeric metrics against the committed baselines in ``benchmarks/baselines/``.

Report schema::

    {
      "benchmark": "<test name>",
      "schema": 1,
      "text": "<human-readable figure report>",
      "metrics": {"<name>": <number>, ...}   # optional, gate-able values
    }
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

# The scalar reference loops the speed gates time against live with the
# test oracles (``tests/oracles``); make them importable as ``oracles``.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

_REPORTS: list[tuple[str, str]] = []
_REPORT_DIR = Path(__file__).parent / "reports"


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MiB.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; normalise to
    MiB so reports are comparable.  Returns 0.0 where ``resource`` is
    unavailable (non-POSIX platforms).
    """
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024**2 if sys.platform == "darwin" else 1024
    return rss / divisor


@pytest.fixture
def rss_probe():
    """Callable returning the process's peak RSS so far, in MiB."""
    return peak_rss_mb


@pytest.fixture
def figure_report(request):
    """Collect an experiment report for the terminal summary + a JSON file.

    Call as ``figure_report(text)`` for a plain figure table, or
    ``figure_report(text, metrics={...})`` to attach numeric metrics that
    the ``bench-regression`` CI gate compares against committed baselines.
    """

    def write(text: str, metrics: dict | None = None) -> None:
        name = request.node.name
        _REPORTS.append((name, text))
        _REPORT_DIR.mkdir(exist_ok=True)
        payload = {
            "benchmark": name,
            "schema": 1,
            "text": text,
            "peak_rss_mb": round(peak_rss_mb(), 2),
        }
        if metrics:
            payload["metrics"] = {
                key: float(value) for key, value in metrics.items()
            }
        path = _REPORT_DIR / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")

    return write


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("figure reports (paper vs measured)")
    for name, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {name} ---")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    _REPORTS.clear()


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure(id): benchmark regenerating one paper figure"
    )
