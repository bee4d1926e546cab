"""Layer tracing from outside the program.

The benchmark times each layer by wrapping the layer's public functions
in place (class attributes and module globals, including names other
``repro`` modules imported with ``from ... import``).  Wrappers record
spans in memory — layer, function, start and end ``perf_counter_ns``,
parent span, pass and round — and :func:`layer_metrics` turns them into
per-layer calls, self time and share.  A span's self time is its
duration minus the durations of its direct children, so nested and
re-entrant calls are never counted twice.

Wrappers are installed only for traced passes and removed afterwards,
so untraced passes run the original functions.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

#: Layer name -> public functions wrapped for it (``module:Class.method``
#: or ``module:function``).  Overrides of a wrapped method in subclasses
#: are wrapped too.
LAYERS: dict[str, tuple[str, ...]] = {
    "serve.supervisor": (
        "repro.serve.supervisor:SupervisedService.observe",
        "repro.serve.supervisor:SupervisedService.answer_batch",
        "repro.serve.supervisor:SupervisedService.checkpoint",
        "repro.serve.supervisor:SupervisedService.attach",
    ),
    "serve.journal": (
        "repro.serve.journal:ReleaseJournal.append",
        "repro.serve.journal:ReleaseJournal.records",
        "repro.serve.journal:ReleaseJournal.compact",
    ),
    "serve.checkpoint": (
        "repro.serve.checkpoint:state_fingerprint",
        "repro.serve.checkpoint:write_bundle",
        "repro.serve.checkpoint:read_bundle",
    ),
    "serve.sharded": (
        "repro.serve.sharded:ShardedService.observe",
        "repro.serve.sharded:ShardedService.answer_batch",
        "repro.serve.sharded:ShardedService.state_fingerprints",
        "repro.serve.sharded:ShardedService.checkpoint",
        "repro.serve.sharded:ShardedService.restore",
    ),
    "serve.executor": (
        "repro.serve.executor:SerialShardExecutor.dispatch_round",
        "repro.serve.executor:SerialShardExecutor.answer_batch",
        "repro.serve.executor:SerialShardExecutor.fingerprints",
    ),
    "serve.streaming": (
        "repro.serve.streaming:StreamingSynthesizer.observe",
        "repro.serve.streaming:StreamingSynthesizer.fingerprint",
        "repro.serve.streaming:StreamingSynthesizer.checkpoint",
        "repro.serve.streaming:StreamingSynthesizer.restore",
    ),
    "core.cumulative": (
        "repro.core.cumulative:CumulativeSynthesizer.observe",
        "repro.core.cumulative:CumulativeRelease.answer_batch",
    ),
    "core.window_engine": (
        "repro.core.window_engine:WindowEngine.observe",
        "repro.core.window_engine:WindowRelease.answer_batch",
    ),
    "core.population": (
        "repro.core.population:PopulationLedger.scatter_column",
        "repro.core.population:PopulationLedger.admit",
        "repro.core.population:PopulationLedger.retire",
        "repro.core.population:PopulationLedger.n_ever_at",
    ),
    "core.monotonize": ("repro.core.monotonize:monotonize_row",),
    "core.consistency": (
        "repro.core.consistency:apply_group_correction",
        "repro.core.consistency:apply_overlap_correction",
    ),
    "core.synthetic_store": (
        "repro.core.synthetic_store:WindowSyntheticStore.extend",
        "repro.core.synthetic_store:WindowSyntheticStore.admit",
        "repro.core.synthetic_store:WindowSyntheticStore.retire",
        "repro.core.synthetic_store:CumulativeSyntheticStore.extend",
    ),
    "streams.bank": ("repro.streams.bank:CounterBank.feed",),
    "dp.discrete_gaussian": (
        "repro.dp.discrete_gaussian:DiscreteGaussianSampler.sample_columns",
        "repro.dp.discrete_gaussian:DiscreteGaussianSampler.sample_array",
        "repro.dp.discrete_gaussian:DiscreteGaussianSampler.sample_array_2d",
    ),
    "dp.mechanisms": ("repro.dp.mechanisms:GaussianHistogramMechanism.release",),
    "dp.accountant": ("repro.dp.accountant:ZCDPAccountant.charge",),
    "queries.plan": (
        "repro.queries.plan:compile_cumulative",
        "repro.queries.plan:AnswerCache.get",
        "repro.queries.plan:AnswerCache.put",
    ),
    "analysis.replication": ("repro.analysis.replication:replicate_synthesizer",),
    "core.replicated": ("repro.core.replicated:replicate_cumulative",),
    "data.sipp": ("repro.data.sipp:preprocess_sipp",),
}

#: Pure call counters (no span): ``(module, function, counter key)``.  They
#: count exact discrete-Gaussian acceptances against discrete-Laplace
#: proposals inside the sampler module only.
COUNTERS = (
    ("repro.dp.discrete_gaussian", "sample_discrete_gaussian", "accepted"),
    ("repro.dp.discrete_gaussian", "sample_discrete_laplace", "proposals"),
)


@dataclass(frozen=True)
class Span:
    """One timed call into a layer."""

    span_id: int
    parent: int  # -1 for a root span
    layer: str
    function: str
    start_ns: int
    end_ns: int
    pass_index: int
    round_number: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """In-memory span and counter store for one benchmark process.

    ``enabled`` gates recording: the workload switches it on only around
    timed regions, so spans describe exactly the time the end-to-end
    metrics measure and untimed output checks leave no trace.
    """

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.enabled = False
        self.pass_index = -1
        self.round_number = 0
        self._stack: list[tuple[int, str]] = []

    def open(self) -> int:
        span_id = len(self.spans)
        self.spans.append(None)
        return span_id

    def parent(self) -> tuple[int, str | None]:
        return self._stack[-1] if self._stack else (-1, None)

    def count(self, layer: str, name: str, value: float = 1.0) -> None:
        self.counters[(layer, name)] += value

    def innermost_layer(self) -> str | None:
        return self._stack[-1][1] if self._stack else None


def _span_wrapper(recorder: Recorder, layer: str, label: str, fn, hook):
    def traced(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        parent, parent_layer = recorder.parent()
        state = hook.before(args, kwargs) if hook is not None else None
        span_id = recorder.open()
        recorder._stack.append((span_id, layer))
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            recorder._stack.pop()
            recorder.spans[span_id] = Span(
                span_id, parent, layer, label, start, end,
                recorder.pass_index, recorder.round_number,
            )
        if hook is not None:
            hook.after(recorder, state, args, kwargs, result, parent_layer == layer)
        return result

    traced.__wrapped__ = fn
    return traced


def _counter_wrapper(recorder: Recorder, key: str, fn):
    def counted(*args, **kwargs):
        if recorder.enabled:
            recorder.count("dp.discrete_gaussian", key)
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def _fsync_wrapper(recorder: Recorder, fn):
    def timed_fsync(fd):
        if not recorder.enabled or recorder.innermost_layer() != "serve.journal":
            return fn(fd)
        start = time.perf_counter_ns()
        try:
            return fn(fd)
        finally:
            recorder.count("serve.journal", "fsync_ns", time.perf_counter_ns() - start)

    timed_fsync.__wrapped__ = fn
    return timed_fsync


# ----------------------------------------------------------------------
# Extra per-layer counts, gathered by hooks on the wrapped calls
# ----------------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _array_bytes(value) -> int:
    if hasattr(value, "nbytes") and hasattr(value, "dtype"):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(_array_bytes(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_array_bytes(item) for item in value)
    return 0


class _Hook:
    def before(self, args, kwargs):
        return None

    def after(self, recorder, state, args, kwargs, result, nested):
        pass


class _JournalBytes(_Hook):
    def before(self, args, kwargs):
        return os.path.getsize(args[0].path)

    def after(self, recorder, state, args, kwargs, result, nested):
        recorder.count("serve.journal", "bytes", os.path.getsize(args[0].path) - state)


class _FingerprintBytes(_Hook):
    def before(self, args, kwargs):
        return _array_bytes(_arg(args, kwargs, 1, "state"))

    def after(self, recorder, state, args, kwargs, result, nested):
        recorder.count("serve.checkpoint", "fingerprint_bytes", state)


class _BundleBytes(_Hook):
    def after(self, recorder, state, args, kwargs, result, nested):
        path = _arg(args, kwargs, 0, "path")
        if isinstance(path, (str, os.PathLike)):
            recorder.count("serve.checkpoint", "bundle_bytes", os.path.getsize(path))


class _StoreRecords(_Hook):
    def after(self, recorder, state, args, kwargs, result, nested):
        recorder.count("core.synthetic_store", "records", args[0].m)


class _BankRows(_Hook):
    def after(self, recorder, state, args, kwargs, result, nested):
        recorder.count("streams.bank", "active_rows", args[0].active)


class _Draws(_Hook):
    def after(self, recorder, state, args, kwargs, result, nested):
        if not nested:
            recorder.count("dp.discrete_gaussian", "draws", getattr(result, "size", 1))


class _RhoSpent(_Hook):
    def after(self, recorder, state, args, kwargs, result, nested):
        recorder.count("dp.accountant", "rho_spent", float(_arg(args, kwargs, 1, "rho")))


class _CacheHits(_Hook):
    def after(self, recorder, state, args, kwargs, result, nested):
        recorder.count("queries.plan", "cache_gets")
        if result is not None:
            recorder.count("queries.plan", "cache_hits")


class _Reps(_Hook):
    def __init__(self, layer: str, index: int):
        self.layer, self.index = layer, index

    def after(self, recorder, state, args, kwargs, result, nested):
        recorder.count(self.layer, "reps", int(_arg(args, kwargs, self.index, "n_reps")))


HOOKS = {
    "repro.serve.journal:ReleaseJournal.append": _JournalBytes(),
    "repro.serve.checkpoint:state_fingerprint": _FingerprintBytes(),
    "repro.serve.checkpoint:write_bundle": _BundleBytes(),
    "repro.core.synthetic_store:WindowSyntheticStore.extend": _StoreRecords(),
    "repro.core.synthetic_store:CumulativeSyntheticStore.extend": _StoreRecords(),
    "repro.streams.bank:CounterBank.feed": _BankRows(),
    "repro.dp.discrete_gaussian:DiscreteGaussianSampler.sample_columns": _Draws(),
    "repro.dp.discrete_gaussian:DiscreteGaussianSampler.sample_array": _Draws(),
    "repro.dp.discrete_gaussian:DiscreteGaussianSampler.sample_array_2d": _Draws(),
    "repro.dp.accountant:ZCDPAccountant.charge": _RhoSpent(),
    "repro.queries.plan:AnswerCache.get": _CacheHits(),
    "repro.analysis.replication:replicate_synthesizer": _Reps("analysis.replication", 4),
    "repro.core.replicated:replicate_cumulative": _Reps("core.replicated", 1),
}


# ----------------------------------------------------------------------
# Installing and removing wrappers
# ----------------------------------------------------------------------


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Installs the layer wrappers on demand and restores the originals."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object, bool]] = []

    def _set(self, owner, name: str, value) -> None:
        own = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), own))
        setattr(owner, name, value)

    def _patch_function(self, module_name: str, name: str, make) -> None:
        original = getattr(importlib.import_module(module_name), name)
        wrapped = make(original)
        for module in list(sys.modules.values()):
            module_id = getattr(module, "__name__", "") or ""
            if module_id.split(".")[0] == "repro" and getattr(module, name, None) is original:
                self._set(module, name, wrapped)

    def _patch_method(self, cls, name: str, make) -> None:
        for owner in (cls, *_subclasses(cls)):
            if owner is not cls and name not in vars(owner):
                continue
            raw = inspect.getattr_static(owner, name)
            if isinstance(raw, classmethod):
                self._set(owner, name, classmethod(make(raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(owner, name, staticmethod(make(raw.__func__)))
            else:
                self._set(owner, name, make(raw))

    def install(self) -> None:
        """Wrap every layer function (idempotent)."""
        if self._undo:
            return
        recorder = self.recorder
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                hook = HOOKS.get(target)

                def make(fn, layer=layer, label=qualname, hook=hook):
                    return _span_wrapper(recorder, layer, label, fn, hook)

                if "." in qualname:
                    class_name, method = qualname.split(".")
                    cls = getattr(importlib.import_module(module_name), class_name)
                    self._patch_method(cls, method, make)
                else:
                    self._patch_function(module_name, qualname, make)
        for module_name, name, key in COUNTERS:
            module = importlib.import_module(module_name)
            self._set(module, name, _counter_wrapper(recorder, key, getattr(module, name)))
        self._set(os, "fsync", _fsync_wrapper(recorder, os.fsync))

    def remove(self) -> None:
        """Restore every original attribute, newest patch first."""
        while self._undo:
            owner, name, original, own = self._undo.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


# ----------------------------------------------------------------------
# Span arithmetic and the per-layer table
# ----------------------------------------------------------------------


def self_times(spans) -> dict[int, int]:
    """Self time of every span: its duration minus its direct children's."""
    children: dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.duration_ns
    return {span.span_id: span.duration_ns - children[span.span_id] for span in spans}


def layer_totals(spans) -> dict[str, dict[str, int]]:
    """Per layer: ``calls`` (entries from another layer) and ``self_ns``."""
    by_id = {span.span_id: span for span in spans}
    own = self_times(spans)
    totals: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "self_ns": 0})
    for span in spans:
        entry = totals[span.layer]
        entry["self_ns"] += own[span.span_id]
        parent = by_id.get(span.parent)
        if parent is None or parent.layer != span.layer:
            entry["calls"] += 1
    return dict(totals)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, counters, passes: int, timed_ns: int) -> dict[str, dict]:
    """Every layer's metrics for one traced run.

    Returns ``{layer: {metric: value}}`` with ``calls`` and ``self_ms``
    per traced pass, ``share`` of the traced timed time, and the layer's
    extra counts (also per pass, or as ratios).
    """
    totals = layer_totals(spans)
    per_pass = 1.0 / max(passes, 1)
    out: dict[str, dict] = {}
    for layer in LAYERS:
        entry = totals.get(layer, {"calls": 0, "self_ns": 0})
        out[layer] = {
            "calls": entry["calls"] * per_pass,
            "self_ms": entry["self_ns"] * per_pass / 1e6,
            "share": _ratio(entry["self_ns"], timed_ns),
        }

    def counter(layer, name):
        return counters.get((layer, name), 0.0)

    def self_ns(layer):
        return totals.get(layer, {"self_ns": 0})["self_ns"]

    fn_ns: dict[str, int] = defaultdict(int)
    for span in spans:
        fn_ns[span.function] += span.duration_ns

    out["serve.supervisor"]["retries"] = counter("serve.supervisor", "retries") * per_pass
    out["serve.supervisor"]["replayed_rounds"] = (
        counter("serve.supervisor", "replayed_rounds") * per_pass
    )
    out["serve.journal"]["bytes"] = counter("serve.journal", "bytes") * per_pass
    out["serve.journal"]["fsync_ms"] = counter("serve.journal", "fsync_ns") * per_pass / 1e6
    checkpoint = out["serve.checkpoint"]
    checkpoint["fingerprint_ms"] = fn_ns["state_fingerprint"] * per_pass / 1e6
    checkpoint["fingerprint_mib"] = (
        counter("serve.checkpoint", "fingerprint_bytes") * per_pass / 2**20
    )
    checkpoint["write_ms"] = fn_ns["write_bundle"] * per_pass / 1e6
    checkpoint["bundle_mib"] = counter("serve.checkpoint", "bundle_bytes") * per_pass / 2**20
    checkpoint["read_ms"] = fn_ns["read_bundle"] * per_pass / 1e6
    out["core.window_engine"]["negative_count_events"] = (
        counter("core.window_engine", "negative_count_events") * per_pass
    )
    records = counter("core.synthetic_store", "records")
    out["core.synthetic_store"]["records"] = records * per_pass
    out["core.synthetic_store"]["ns_per_record"] = _ratio(self_ns("core.synthetic_store"), records)
    out["streams.bank"]["active_rows"] = counter("streams.bank", "active_rows") * per_pass
    draws = counter("dp.discrete_gaussian", "draws")
    sampler = out["dp.discrete_gaussian"]
    sampler["draws"] = draws * per_pass
    sampler["ns_per_draw"] = _ratio(self_ns("dp.discrete_gaussian"), draws)
    sampler["acceptance"] = _ratio(
        counter("dp.discrete_gaussian", "accepted"),
        counter("dp.discrete_gaussian", "proposals"),
    )
    out["dp.accountant"]["rho_spent"] = counter("dp.accountant", "rho_spent") * per_pass
    out["queries.plan"]["cache_hit_ratio"] = _ratio(
        counter("queries.plan", "cache_hits"), counter("queries.plan", "cache_gets")
    )
    out["analysis.replication"]["reps"] = counter("analysis.replication", "reps") * per_pass
    out["core.replicated"]["reps"] = counter("core.replicated", "reps") * per_pass
    return out


def format_table(metrics: dict[str, dict]) -> str:
    """Human-readable per-layer table, busiest layer first."""
    rows = sorted(metrics.items(), key=lambda item: -item[1]["share"])
    lines = [f"{'layer':<22} {'calls/pass':>11} {'self_ms/pass':>13} {'share':>7}  extras"]
    for layer, values in rows:
        extras = ", ".join(
            f"{name}={value:.4g}"
            for name, value in values.items()
            if name not in ("calls", "self_ms", "share")
        )
        lines.append(
            f"{layer:<22} {values['calls']:>11.1f} {values['self_ms']:>13.3f} "
            f"{values['share']:>6.1%}  {extras}"
        )
    return "\n".join(lines)


def write_spans(path: str, spans) -> None:
    """Write spans as tab-separated lines (one header line first)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("span\tparent\tlayer\tfunction\tstart_ns\tend_ns\tpass\tround\n")
        for span in spans:
            handle.write(
                f"{span.span_id}\t{span.parent}\t{span.layer}\t{span.function}\t"
                f"{span.start_ns}\t{span.end_ns}\t{span.pass_index}\t{span.round_number}\n"
            )


#: Layers every workload enters.  Only their times go into the JSON line,
#: so no reported per-layer time reads 0 on every run of some workload;
#: the printed table shows every layer's time.
TIMED_LAYERS = ("core.population", "dp.discrete_gaussian", "dp.accountant", "queries.plan")

#: Per-layer metrics the traced run reports in its JSON line: name -> (unit, better).
PER_LAYER: dict[str, tuple[str, str]] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    if _layer in TIMED_LAYERS:
        PER_LAYER[f"{_layer}.self_ms"] = ("ms", "lower")
    PER_LAYER[f"{_layer}.share"] = ("fraction", "lower")
PER_LAYER.update({
    "serve.supervisor.retries": ("count", "lower"),
    "serve.supervisor.replayed_rounds": ("count", "lower"),
    "serve.journal.bytes": ("bytes", "lower"),
    "serve.checkpoint.fingerprint_mib": ("MiB", "lower"),
    "serve.checkpoint.bundle_mib": ("MiB", "lower"),
    "core.window_engine.negative_count_events": ("count", "lower"),
    "core.synthetic_store.records": ("count", "lower"),
    "streams.bank.active_rows": ("count", "lower"),
    "dp.discrete_gaussian.draws": ("count", "lower"),
    "dp.discrete_gaussian.ns_per_draw": ("ns", "lower"),
    "dp.discrete_gaussian.acceptance": ("fraction", "higher"),
    "dp.accountant.rho_spent": ("rho", "lower"),
    "queries.plan.cache_hit_ratio": ("fraction", "higher"),
    "analysis.replication.reps": ("count", "lower"),
    "core.replicated.reps": ("count", "lower"),
})
