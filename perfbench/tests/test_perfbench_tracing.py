"""Span self-time arithmetic and the install/remove cycle of the layer wrappers."""

import numpy as np
import pytest

from perfbench import tracing
from perfbench.tracing import Span


def span(span_id, parent, layer, start, end, function="f"):
    return Span(span_id, parent, layer, function, start, end, 0, 1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, -1, "a", 0, 100),
        span(1, 0, "b", 10, 40),
        span(2, 1, "c", 15, 25),
        span(3, 0, "c", 50, 60),
    ]
    assert tracing.self_times(spans) == {0: 60, 1: 20, 2: 10, 3: 10}
    totals = tracing.layer_totals(spans)
    assert totals["a"] == {"calls": 1, "self_ns": 60}
    assert totals["b"] == {"calls": 1, "self_ns": 20}
    assert totals["c"] == {"calls": 2, "self_ns": 20}
    assert sum(entry["self_ns"] for entry in totals.values()) == 100


def test_reentrant_spans_count_one_call_and_no_double_time():
    # a -> a -> a (recursion), then a second, separate entry.
    spans = [
        span(0, -1, "a", 0, 90),
        span(1, 0, "a", 10, 70),
        span(2, 1, "a", 20, 30),
        span(3, -1, "a", 100, 110),
    ]
    assert tracing.self_times(spans) == {0: 30, 1: 50, 2: 10, 3: 10}
    assert tracing.layer_totals(spans)["a"] == {"calls": 2, "self_ns": 100}


def test_layer_metrics_share_and_per_pass_scaling():
    spans = [span(0, -1, "dp.accountant", 0, 2_000_000), span(1, -1, "data.sipp", 0, 6_000_000)]
    metrics = tracing.layer_metrics(spans, {}, passes=2, timed_ns=10_000_000)
    assert metrics["dp.accountant"]["calls"] == 0.5
    assert metrics["dp.accountant"]["self_ms"] == pytest.approx(1.0)
    assert metrics["dp.accountant"]["share"] == pytest.approx(0.2)
    assert metrics["data.sipp"]["share"] == pytest.approx(0.6)
    assert metrics["serve.journal"] == {"calls": 0.0, "self_ms": 0.0, "share": 0.0,
                                        "bytes": 0.0, "fsync_ms": 0.0}


def test_tracer_records_nested_layers_and_restores_originals():
    from repro.core import cumulative
    from repro.core.monotonize import monotonize_row
    from repro.dp.accountant import ZCDPAccountant
    from repro.serve import StreamingSynthesizer

    charge = ZCDPAccountant.__dict__["charge"]
    recorder = tracing.Recorder()
    tracer = tracing.Tracer(recorder)
    tracer.install()
    try:
        assert cumulative.monotonize_row is not monotonize_row
        service = StreamingSynthesizer.cumulative(4, 1.0, seed=0)
        recorder.enabled = True
        for _ in range(4):
            service.observe(np.array([1, 0, 1, 1, 0], dtype=np.int8))
        recorder.enabled = False
    finally:
        tracer.remove()
    assert cumulative.monotonize_row is monotonize_row
    assert ZCDPAccountant.__dict__["charge"] is charge

    spans = [s for s in recorder.spans if s is not None]
    by_id = {s.span_id: s for s in spans}
    layers = {s.layer for s in spans}
    assert {"serve.streaming", "core.cumulative", "streams.bank",
            "dp.discrete_gaussian", "core.monotonize", "dp.accountant"} <= layers
    for s in spans:
        if s.layer == "core.monotonize":
            assert by_id[s.parent].layer == "core.cumulative"
        if s.layer == "serve.streaming":
            assert s.parent == -1
    assert all(value >= 0 for value in tracing.self_times(spans).values())
    metrics = tracing.layer_metrics(spans, recorder.counters, 1, 1)
    assert metrics["serve.streaming"]["calls"] == 4
    assert metrics["dp.accountant"]["rho_spent"] == pytest.approx(1.0)
    assert 0 < metrics["dp.discrete_gaussian"]["acceptance"] <= 1


def test_disabled_recorder_leaves_no_spans():
    from repro.dp.accountant import ZCDPAccountant

    recorder = tracing.Recorder()
    tracer = tracing.Tracer(recorder)
    tracer.install()
    try:
        ZCDPAccountant(1.0).charge(0.25)
    finally:
        tracer.remove()
    assert recorder.spans == [] and not recorder.counters
