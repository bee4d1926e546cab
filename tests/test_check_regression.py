"""The benchmark regression gate (benchmarks/check_regression.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    Path(__file__).parent.parent / "benchmarks" / "check_regression.py",
)
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload))


@pytest.fixture
def gate_dirs(tmp_path):
    reports = tmp_path / "reports"
    baselines = tmp_path / "baselines"
    reports.mkdir()
    baselines.mkdir()
    _write(
        baselines / "BENCH_example.json",
        {
            "benchmark": "example",
            "metrics": {
                "speedup": {"value": 10.0, "direction": "higher"},
                "latency_ms": {"value": 5.0, "direction": "lower"},
            },
        },
    )
    _write(
        reports / "BENCH_example.json",
        {
            "benchmark": "example",
            "schema": 1,
            "metrics": {"speedup": 11.0, "latency_ms": 4.0},
        },
    )
    return reports, baselines


class TestIsRegression:
    def test_higher_direction(self):
        assert not check_regression.is_regression(8.0, 10.0, "higher", 1.5)
        assert check_regression.is_regression(6.0, 10.0, "higher", 1.5)

    def test_lower_direction(self):
        assert not check_regression.is_regression(7.0, 5.0, "lower", 1.5)
        assert check_regression.is_regression(8.0, 5.0, "lower", 1.5)

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            check_regression.is_regression(1.0, 1.0, "sideways", 1.5)


class TestResolveMetric:
    def test_metrics_mapping_wins(self):
        report = {"metrics": {"speedup": 3.0}, "speedup": 99.0}
        assert check_regression.resolve_metric(report, "speedup") == 3.0

    def test_dotted_path(self):
        report = {"speedup_vs_serial": {"batched": 12.5}}
        assert check_regression.resolve_metric(report, "speedup_vs_serial.batched") == 12.5

    def test_missing_returns_none(self):
        assert check_regression.resolve_metric({}, "nope.deep") is None


class TestCheck:
    def test_passes_within_tolerance(self, gate_dirs):
        reports, baselines = gate_dirs
        failures, lines = check_regression.check(reports, baselines, 1.5)
        assert failures == []
        assert len(lines) == 2

    def test_fails_on_two_x_slowdown(self, gate_dirs):
        reports, baselines = gate_dirs
        _write(
            reports / "BENCH_example.json",
            {"benchmark": "example", "metrics": {"speedup": 5.5, "latency_ms": 10.0}},
        )
        failures, _ = check_regression.check(reports, baselines, 1.5)
        assert len(failures) == 2

    def test_missing_report_fails(self, gate_dirs):
        reports, baselines = gate_dirs
        (reports / "BENCH_example.json").unlink()
        failures, _ = check_regression.check(reports, baselines, 1.5)
        assert any("report missing" in failure for failure in failures)

    def test_missing_metric_fails(self, gate_dirs):
        reports, baselines = gate_dirs
        _write(reports / "BENCH_example.json", {"benchmark": "example", "metrics": {}})
        failures, _ = check_regression.check(reports, baselines, 1.5)
        assert any("absent" in failure for failure in failures)

    def test_empty_baselines_fail(self, tmp_path):
        (tmp_path / "baselines").mkdir()
        (tmp_path / "reports").mkdir()
        failures, _ = check_regression.check(
            tmp_path / "reports", tmp_path / "baselines", 1.5
        )
        assert failures


class TestSelfTest:
    def test_catches_injected_slowdown(self, gate_dirs, capsys):
        reports, baselines = gate_dirs
        assert check_regression.self_test(reports, baselines, 1.5, 2.0) == 0
        assert "is caught" in capsys.readouterr().out

    def test_flags_toothless_injection_factor(self, gate_dirs, capsys):
        reports, baselines = gate_dirs
        assert check_regression.self_test(reports, baselines, 1.5, 1.2) > 0

    def test_flags_already_regressed_report(self, gate_dirs):
        reports, baselines = gate_dirs
        _write(
            reports / "BENCH_example.json",
            {"benchmark": "example", "metrics": {"speedup": 1.0, "latency_ms": 50.0}},
        )
        assert check_regression.self_test(reports, baselines, 1.5, 2.0) > 0


class TestUtilityAccuracyGate:
    """The gate catches *accuracy* regressions, not just speed ones."""

    COMMITTED = (
        Path(__file__).parent.parent
        / "benchmarks"
        / "baselines"
        / "BENCH_test_utility.json"
    )

    @pytest.fixture
    def utility_gate_dirs(self, tmp_path):
        reports = tmp_path / "reports"
        baselines = tmp_path / "baselines"
        reports.mkdir()
        baselines.mkdir()
        payload = json.loads(self.COMMITTED.read_text())
        _write(baselines / "BENCH_test_utility.json", payload)
        healthy = {
            name: spec["value"] for name, spec in payload["metrics"].items()
        }
        _write(
            reports / "BENCH_test_utility.json",
            {"benchmark": "test_utility", "metrics": healthy},
        )
        return reports, baselines, payload

    def test_committed_baseline_gates_accuracy_metrics(self):
        payload = json.loads(self.COMMITTED.read_text())
        directions = {
            name: spec["direction"] for name, spec in payload["metrics"].items()
        }
        # pMSE and rmse are costs; the clamped-minus-window margin is the
        # canary that must stay open.
        assert any(name.startswith("pmse_window") for name in directions)
        assert any(name.startswith("rmse_window") for name in directions)
        assert directions["margin_clamped_over_window_rho0.05_T12"] == "higher"
        assert all(
            direction == "lower"
            for name, direction in directions.items()
            if name.startswith(("pmse_", "rmse_"))
        )

    def test_healthy_report_passes(self, utility_gate_dirs):
        reports, baselines, _ = utility_gate_dirs
        failures, lines = check_regression.check(reports, baselines, 1.5)
        assert failures == []
        assert lines

    def test_injected_accuracy_regression_fails(self, utility_gate_dirs):
        # Doubling the noise scale (a quartered rho) roughly quadruples
        # every pMSE/rmse metric and collapses the clamped-over-window
        # margin; all of that must trip the 1.5x gate.
        reports, baselines, payload = utility_gate_dirs
        degraded = {}
        for name, spec in payload["metrics"].items():
            if spec["direction"] == "lower":
                degraded[name] = spec["value"] * 4.0
            else:
                degraded[name] = spec["value"] / 4.0
        _write(
            reports / "BENCH_test_utility.json",
            {"benchmark": "test_utility", "metrics": degraded},
        )
        failures, _ = check_regression.check(reports, baselines, 1.5)
        assert len(failures) == len(payload["metrics"])

    def test_real_noise_doubling_trips_the_metric(self):
        # End-to-end: score Algorithm 1 healthy (rho) vs degraded (rho/4,
        # i.e. doubled noise sigma) and confirm the measured pMSE shift is
        # a gate-visible regression, not a within-tolerance wobble.
        import numpy as np

        from repro.analysis.utility import pmse_release
        from repro.core.fixed_window import FixedWindowSynthesizer
        from repro.data.generators import two_state_markov

        panel = two_state_markov(800, 8, 0.87, 0.05, seed=12)

        def mean_pmse(rho):
            scores = [
                pmse_release(
                    panel,
                    FixedWindowSynthesizer(8, 3, rho, seed=rep).run(panel),
                    8,
                    3,
                ).ratio
                for rep in range(6)
            ]
            return float(np.mean(scores))

        healthy = mean_pmse(0.1)
        degraded = mean_pmse(0.025)
        assert check_regression.is_regression(degraded, healthy, "lower", 1.5)
        assert not check_regression.is_regression(healthy, healthy, "lower", 1.5)


class TestExactNoiseGate:
    """The batched exact sampler's speed floor rides the same gate."""

    COMMITTED = (
        Path(__file__).parent.parent
        / "benchmarks"
        / "baselines"
        / "BENCH_test_exact_noise_round_speedup.json"
    )

    def test_committed_baseline_gates_a_ten_x_floor(self):
        spec = json.loads(self.COMMITTED.read_text())["metrics"]["speedup_vs_scalar"]
        assert spec["direction"] == "higher"
        floor = spec["value"] / check_regression.DEFAULT_TOLERANCE
        assert floor == pytest.approx(10.0)

    def test_self_test_and_gate_cover_it(self, tmp_path):
        reports = tmp_path / "reports"
        baselines = tmp_path / "baselines"
        reports.mkdir()
        baselines.mkdir()
        name = self.COMMITTED.name
        _write(baselines / name, json.loads(self.COMMITTED.read_text()))
        report = {"benchmark": "test_exact_noise_round_speedup", "metrics": {}}
        report["metrics"]["speedup_vs_scalar"] = 30.0
        _write(reports / name, report)
        assert check_regression.self_test(reports, baselines, 1.5, 2.0) == 0
        assert check_regression.check(reports, baselines, 1.5)[0] == []
        report["metrics"]["speedup_vs_scalar"] = 9.0
        _write(reports / name, report)
        failures, _ = check_regression.check(reports, baselines, 1.5)
        assert len(failures) == 1


class TestCommittedBaselines:
    """Against the real baselines — gated on locally generated reports.

    ``benchmarks/reports/`` holds regenerable artifacts (gitignored); a
    fresh checkout has none until the smoke benchmarks run, so these
    tests skip rather than fail there.  The ``bench-regression`` CI job
    runs the benchmarks first and then executes the gate for real.
    """

    @pytest.fixture(autouse=True)
    def _require_reports(self):
        baselines = sorted(check_regression.DEFAULT_BASELINES.glob("*.json"))
        assert baselines, "committed baselines must exist"
        missing = [
            b.name
            for b in baselines
            if not (check_regression.DEFAULT_REPORTS / b.name).exists()
        ]
        if missing:
            pytest.skip(f"benchmark reports not generated locally: {missing}")

    def test_committed_reports_pass_the_committed_gate(self):
        failures, lines = check_regression.check(
            check_regression.DEFAULT_REPORTS,
            check_regression.DEFAULT_BASELINES,
            check_regression.DEFAULT_TOLERANCE,
        )
        assert failures == [], failures
        assert lines

    def test_cli_self_test_passes(self):
        assert check_regression.main(["--self-test"]) == 0
