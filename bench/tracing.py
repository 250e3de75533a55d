"""Spans, counters and per-call peak memory, recorded from outside the program.

Each public function a layer exposes is replaced, for the duration of a
traced or memory pass, by a wrapper installed on the module attribute its
caller looks up (``cli`` calls ``load_embeddings`` through its own
namespace, ``harness`` calls ``compute_scores`` and ``rank`` through its
own, the pipeline calls ``pca.fit_pca`` through the ``pca`` module, ...).
The program itself is not modified.

Spans stay in memory: (id, operation id, name, parent id, start, end). A
layer's self time is its span's duration minus the spans directly inside
it; the root span of each operation belongs to the benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

MIB = 2.0**20
ROOT_SPAN = "bench.op"
ROOT_METRIC = "bench.self_s"


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _count_load(call, result):
    return {"data.rows": len(result), "data.bytes": os.path.getsize(call.arguments["path"])}


def _count_predict(call, result):
    return {"metrics.pairs": _rows(call.arguments["x"]) * _rows(call.arguments["predictor"].points)}


def _count_orphans(call, result):
    return {
        "clustering.orphan_clusters": len(result.orphan_clusters),
        "clustering.error_hits": int(np.count_nonzero(result.err_weight)),
    }


def _count_loop(call, result):
    return {"loop.pairs": _rows(call.arguments["points"]) ** 2}


def _count_sweep(call, result):
    a = call.arguments
    return {
        "harness.oracle_pairs": a["n_seeds"] * len(a["strategies"]) * a["spec"].ft_n * max(a["budgets"])
    }


def _count_coverage(call, result):
    a = call.arguments
    return {"harness.oracle_pairs": len(a["ft_corpus"]) * len(list(a["labeled_ids"]))}


@dataclass(frozen=True)
class Target:
    module: str          # samplerank submodule whose attribute is replaced
    attr: str
    span: str            # span name: layer.function
    metric: str          # per-layer metric that receives the span's self time
    count: object = None  # (bound call, result) -> {counter: value}
    peak: str | None = None  # per-layer peak-memory metric, if reported


TARGETS = (
    Target("cli", "main", "cli.main", "cli.self_s"),
    Target("cli", "load_embeddings", "data.load_embeddings", "data.load_s", _count_load),
    Target("pca", "fit_pca", "pca.fit_pca", "pca.fit_s",
           lambda call, model: {"pca.rank": model.n_components}),
    Target("pca", "transform_batch", "pca.transform_batch", "pca.transform_s"),
    Target("metrics", "predict_iou_batch", "metrics.predict_iou_batch", "metrics.predict_s",
           _count_predict, "metrics.peak_mib"),
    Target("clustering", "fit_core_clusters", "clustering.fit_core_clusters",
           "clustering.core_fit_s"),
    Target("clustering", "fit_error_clusters", "clustering.fit_error_clusters",
           "clustering.error_fit_s"),
    Target("clustering", "classify_batch", "clustering.classify_batch", "clustering.classify_s"),
    Target("clustering", "normalize_distances", "clustering.normalize_distances",
           "clustering.classify_s"),
    Target("clustering", "detect_orphans", "clustering.detect_orphans", "clustering.orphans_s",
           _count_orphans),
    Target("loop", "fit_loop", "loop.fit_loop", "loop.fit_s", _count_loop, "loop.peak_mib"),
    Target("pipeline", "fit_models", "pipeline.fit_models", "pipeline.self_s"),
    Target("pipeline", "score_finetune", "pipeline.score_finetune", "pipeline.self_s"),
    Target("harness", "compute_scores", "pipeline.compute_scores", "pipeline.self_s"),
    Target("pipeline", "score_all", "scoring.score_all", "scoring.score_s"),
    Target("scoring", "rank", "scoring.rank", "scoring.rank_s"),
    Target("harness", "rank", "scoring.rank", "scoring.rank_s"),
    Target("scoring", "write_queue_csv", "scoring.write_queue_csv", "scoring.queue_write_s"),
    Target("harness", "run_budget_sweep", "harness.run_budget_sweep", "harness.oracle_s",
           _count_sweep),
    Target("harness", "surrogate_quality", "harness.surrogate_quality", "harness.oracle_s",
           _count_coverage),
    Target("harness", "generate_synthetic", "synthetic.generate_synthetic",
           "synthetic.generate_s"),
    Target("synthetic", "generate_synthetic", "synthetic.generate_synthetic",
           "synthetic.generate_s"),
)

TIME_METRICS = tuple(dict.fromkeys(t.metric for t in TARGETS)) + (ROOT_METRIC,)
PEAK_METRICS = tuple(t.peak for t in TARGETS if t.peak)
# per-operation aggregation of counters; everything else is summed
MAX_COUNTERS = frozenset({"pca.rank"})


@dataclass
class Span:
    id: int
    op: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")


@dataclass
class _Frame:
    span: Span
    mem_base: int = 0
    mem_max: int = 0


@dataclass
class Unit:
    """One traced unit of work: a measured operation or one set-up."""

    id: int
    kind: str  # "op" or "setup"
    counts: dict = field(default_factory=lambda: defaultdict(float))
    peaks: dict = field(default_factory=dict)
    peak_mib: float = 0.0


class Tracer:
    """Records spans and counters (``spans=True``) and/or per-call peak memory."""

    def __init__(self, spans: bool = True, memory: bool = False):
        self.record_spans = spans
        self.memory = memory
        self.spans: list[Span] = []
        self.units: list[Unit] = []
        self._stack: list[_Frame] = []

    # -- instrumentation ----------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every target attribute; restore the originals on exit."""
        saved = []
        try:
            for target in TARGETS:
                module = importlib.import_module(f"samplerank.{target.module}")
                original = getattr(module, target.attr)
                saved.append((module, target.attr, original))
                setattr(module, target.attr, self._wrap(original, target))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, target: Target):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if not self._stack:  # outside any unit: not part of a measurement
                return fn(*args, **kwargs)
            self._open(target.span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                frame = self._close()
                if result is not None:
                    unit = self.units[-1]
                    if target.count is not None:
                        call = signature.bind(*args, **kwargs)
                        call.apply_defaults()
                        for name, value in target.count(call, result).items():
                            if name in MAX_COUNTERS:
                                unit.counts[name] = max(unit.counts[name], value)
                            else:
                                unit.counts[name] += value
                    if self.memory and target.peak:
                        mib = (frame.mem_max - frame.mem_base) / MIB
                        unit.peaks[target.peak] = max(unit.peaks.get(target.peak, 0.0), mib)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def unit(self, kind: str = "op"):
        """Root span of one operation (or set-up); all its spans share its id."""
        unit = Unit(id=len(self.units), kind=kind)
        self.units.append(unit)
        if self.memory:
            tracemalloc.reset_peak()
        self._open(ROOT_SPAN)
        try:
            yield unit
        finally:
            frame = self._close()
            if self.memory:
                unit.peak_mib = (frame.mem_max - frame.mem_base) / MIB

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(
            span=Span(
                id=len(self.spans),
                op=self.units[-1].id,
                name=name,
                parent=parent.span.id if parent else None,
                start=0.0,
            ),
        )
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.mem_max = max(parent.mem_max, peak)
            tracemalloc.reset_peak()
            frame.mem_base = frame.mem_max = current
        if self.record_spans:
            self.spans.append(frame.span)
        self._stack.append(frame)
        frame.span.start = time.perf_counter()

    def _close(self) -> _Frame:
        end = time.perf_counter()
        frame = self._stack.pop()
        frame.span.end = end
        if self.memory:
            frame.mem_max = max(frame.mem_max, tracemalloc.get_traced_memory()[1])
            if self._stack:
                parent = self._stack[-1]
                parent.mem_max = max(parent.mem_max, frame.mem_max)
        return frame

    # -- analysis -----------------------------------------------------------
    def self_times(self) -> dict[int, dict[str, float]]:
        """Per unit: self time of every layer metric, in seconds."""
        metric_of = {t.span: t.metric for t in TARGETS}
        metric_of[ROOT_SPAN] = ROOT_METRIC
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[int, dict[str, float]] = {u.id: dict.fromkeys(TIME_METRICS, 0.0) for u in self.units}
        for span in self.spans:
            own = span.end - span.start - child_time[span.id]
            out[span.op][metric_of[span.name]] += own
        return out

    def unit_durations(self) -> dict[int, float]:
        return {s.op: s.end - s.start for s in self.spans if s.parent is None}

    def dump(self, path: str) -> None:
        """Write spans and per-unit counters as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "units": [
                {"id": u.id, "kind": u.kind, "counts": dict(u.counts), "peaks": u.peaks}
                for u in self.units
            ],
            "spans": [asdict(s) for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


@contextmanager
def tracemalloc_running():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
