"""Span recorder and the layer wrappers of the traced benchmark mode.

A span is ``[name, start, end, parent, thread, value]``: ``start``/``end``
are ``time.perf_counter()`` readings, ``parent`` is the index of the
enclosing span on the same thread (``-1`` for a root), and ``value`` an
optional per-call count (candidate rows, checkpoint bytes, a non-finite
simulation flag).  Spans stay in memory and are written out once, when
the episode ends.

:func:`install` wraps the public functions of every layer in the
benchmark's layer table from the outside; nothing under ``src/`` knows
it is being traced.  :func:`layer_metrics` turns one episode's spans into
the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import threading
import time


class SpanRecorder:
    """Collects spans from any thread of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        span = [name, time.perf_counter(), None, parent, threading.get_ident(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int, value=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = value
        self._local.stack.pop()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def _wrap(recorder: SpanRecorder, owner, attr: str, name: str, value=None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            out = original(*args, **kwargs)
        except BaseException:
            recorder.close(index)
            raise
        recorder.close(index, None if value is None else value(args, out))
        return out

    setattr(owner, attr, traced)


def _rows(args, out) -> int:
    return len(args[1])


def _nonfinite(args, out) -> int:
    values = [out.objective, *out.constraints]
    return int(not all(v == v and abs(v) != float("inf") for v in values))


def _file_bytes(args, out) -> int:
    return os.stat(out).st_size


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public functions (see the README's layer table)."""
    from repro.acquisition import maximize as acq_maximize
    from repro.acquisition.maximize import AcquisitionMaximizer
    from repro.bo.problem import Problem
    from repro.bo.study import Study
    from repro.core.batched_gp import BatchedNeuralFeatureGP, SurrogateBank
    from repro.nn.optimizers import StackedAdam
    from repro.service.store import StudyStore

    importlib.import_module("repro.acquisition.spaces")  # maximizer subclasses
    wrap = functools.partial(_wrap, recorder)
    wrap(Problem, "evaluate_unit", "sim", _nonfinite)
    wrap(SurrogateBank, "fit", "core.fit")
    wrap(SurrogateBank, "observe", "core.observe")
    wrap(SurrogateBank, "fantasize", "core.fantasize")
    wrap(BatchedNeuralFeatureGP, "marginal_nll", "gp.nll")
    wrap(BatchedNeuralFeatureGP, "features", "nn.forward")
    wrap(BatchedNeuralFeatureGP, "backprop_feature_grad", "nn.backward")
    wrap(StackedAdam, "step", "nn.adam")
    # looked up by name at call time in these modules, so patch each one
    for module in ("repro.core.batched_gp", "repro.backend.numpy_backend"):
        wrap(importlib.import_module(module), "solve_r_and_inverse", "gp.slice_solve")
    for module in ("repro.gp.linalg", "repro.gp.gpr", "repro.core.feature_gp"):
        wrap(importlib.import_module(module), "jitter_cholesky", "gp.jitter")
    wrap(acq_maximize, "evaluate_chunked", "acquisition.candidates", _rows)
    pending = [AcquisitionMaximizer]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attr in ("maximize", "maximize_batch"):
            if attr in vars(cls):
                wrap(cls, attr, "acquisition.maximize")
    wrap(Study, "ask", "bo.ask")
    wrap(Study, "tell", "bo.tell")
    wrap(Study, "checkpoint", "bo.checkpoint", _file_bytes)
    wrap(StudyStore, "ask", "service.store.ask")
    wrap(StudyStore, "tell", "service.store.tell")


def _outermost(spans, name):
    """Indices of ``name`` spans not nested inside another ``name`` span."""
    out = []
    for i, span in enumerate(spans):
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


def _within(spans, index, name) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def span_summary(spans) -> dict:
    """Per-name totals of one process's spans (outermost calls only).

    ``{name: {"calls", "busy_s", "self_s", "durations", "value_sum",
    "value_last", "pool_busy_s"}}`` where ``self_s`` subtracts the time of
    direct child spans and ``pool_busy_s`` is busy time on threads other
    than the recording process's main thread.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0 and span[2] is not None:
            child_time[span[3]] += span[2] - span[1]
    main = threading.main_thread().ident
    names = {span[0] for span in spans}
    summary = {}
    for name in sorted(names):
        indices = _outermost(spans, name)
        durations = [spans[i][2] - spans[i][1] for i in indices]
        values = [spans[i][5] for i in indices if spans[i][5] is not None]
        summary[name] = {
            "calls": len(indices),
            "busy_s": sum(durations),
            "self_s": sum(d - child_time[i] for d, i in zip(durations, indices)),
            "durations": durations,
            "value_sum": sum(values),
            "value_last": values[-1] if values else 0,
            "pool_busy_s": sum(
                d for d, i in zip(durations, indices) if spans[i][4] != main
            ),
        }
    summary["core.fit.nll_evals"] = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "gp.nll" and _within(spans, i, "core.fit")
    )
    return summary


#: per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "sim.calls": "count",
    "sim.busy_s": "s",
    "sim.p50_ms": "ms",
    "sim.nonfinite": "count",
    "sim.cache_hits": "count",
    "core.fit.calls": "count",
    "core.fit.busy_s": "s",
    "core.fit.p50_ms": "ms",
    "core.fit.nll_evals": "count",
    "nn.forward.busy_s": "s",
    "nn.backward.busy_s": "s",
    "nn.adam.busy_s": "s",
    "gp.slice_solve.calls": "count",
    "gp.slice_solve.busy_s": "s",
    "gp.slice_solve.mean_us": "us",
    "gp.nll.self_s": "s",
    "gp.jitter.calls": "count",
    "core.observe.calls": "count",
    "core.observe.busy_s": "s",
    "core.fantasize.busy_s": "s",
    "acquisition.maximize.calls": "count",
    "acquisition.maximize.busy_s": "s",
    "acquisition.maximize.p50_ms": "ms",
    "acquisition.candidates": "count",
    "bo.ask.self_s": "s",
    "bo.tell.self_s": "s",
    "bo.checkpoint.calls": "count",
    "bo.checkpoint.busy_s": "s",
    "bo.checkpoint.p50_ms": "ms",
    "bo.checkpoint.bytes_last": "bytes",
    "bo.checkpoint.bytes_total": "bytes",
    "service.store.ask.busy_s": "s",
    "service.store.tell.busy_s": "s",
    "service.wire.ask_ms": "ms",
    "service.wire.tell_ms": "ms",
    "service.errors": "count",
    "scheduler.worker_util": "ratio",
    "scheduler.idle_s": "s",
    "trace.overhead_s": "s",
}


def _median_ms(durations) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(summary: dict, episode: dict) -> dict:
    """One traced episode's per-layer metrics (``trace.overhead_s`` aside).

    ``summary`` merges the span summaries of every process of the episode
    (the server's too, on the service workload); ``episode`` supplies what
    spans cannot: cache hits, caller-side latencies, failures, the pool
    size and ``run_s``.
    """

    def get(name, key="busy_s"):
        entry = summary.get(name)
        return 0 if entry is None else entry[key]

    def durations(name):
        return get(name, "durations") or []

    pool_busy = get("sim", "pool_busy_s")
    capacity = episode["pool_workers"] * episode["run_s"]
    wire = {}
    for verb in ("ask", "tell"):
        caller = episode[f"all_{verb}_ms"]
        store = durations(f"service.store.{verb}")
        wire[verb] = (
            statistics.median(caller) - _median_ms(store) if caller and store else 0.0
        )
    calls = get("gp.slice_solve", "calls")
    return {
        "sim.calls": get("sim", "calls"),
        "sim.busy_s": get("sim"),
        "sim.p50_ms": _median_ms(durations("sim")),
        "sim.nonfinite": get("sim", "value_sum"),
        "sim.cache_hits": episode["cache_hits"],
        "core.fit.calls": get("core.fit", "calls"),
        "core.fit.busy_s": get("core.fit"),
        "core.fit.p50_ms": _median_ms(durations("core.fit")),
        "core.fit.nll_evals": summary.get("core.fit.nll_evals", 0),
        "nn.forward.busy_s": get("nn.forward"),
        "nn.backward.busy_s": get("nn.backward"),
        "nn.adam.busy_s": get("nn.adam"),
        "gp.slice_solve.calls": calls,
        "gp.slice_solve.busy_s": get("gp.slice_solve"),
        "gp.slice_solve.mean_us": 1e6 * get("gp.slice_solve") / calls if calls else 0.0,
        "gp.nll.self_s": get("gp.nll", "self_s"),
        "gp.jitter.calls": get("gp.jitter", "calls"),
        "core.observe.calls": get("core.observe", "calls"),
        "core.observe.busy_s": get("core.observe"),
        "core.fantasize.busy_s": get("core.fantasize"),
        "acquisition.maximize.calls": get("acquisition.maximize", "calls"),
        "acquisition.maximize.busy_s": get("acquisition.maximize"),
        "acquisition.maximize.p50_ms": _median_ms(durations("acquisition.maximize")),
        "acquisition.candidates": get("acquisition.candidates", "value_sum"),
        "bo.ask.self_s": get("bo.ask", "self_s"),
        "bo.tell.self_s": get("bo.tell", "self_s"),
        "bo.checkpoint.calls": get("bo.checkpoint", "calls"),
        "bo.checkpoint.busy_s": get("bo.checkpoint"),
        "bo.checkpoint.p50_ms": _median_ms(durations("bo.checkpoint")),
        "bo.checkpoint.bytes_last": get("bo.checkpoint", "value_last"),
        "bo.checkpoint.bytes_total": get("bo.checkpoint", "value_sum"),
        "service.store.ask.busy_s": get("service.store.ask"),
        "service.store.tell.busy_s": get("service.store.tell"),
        "service.wire.ask_ms": wire["ask"],
        "service.wire.tell_ms": wire["tell"],
        "service.errors": episode["service_errors"],
        "scheduler.worker_util": pool_busy / capacity if capacity else 0.0,
        "scheduler.idle_s": max(0.0, capacity - pool_busy),
    }


def merge_summaries(*summaries) -> dict:
    """Combine span summaries of several processes of one episode."""
    merged: dict = {}
    for summary in summaries:
        for name, entry in summary.items():
            if not isinstance(entry, dict):
                merged[name] = merged.get(name, 0) + entry
                continue
            into = merged.setdefault(
                name,
                {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [],
                 "value_sum": 0, "value_last": 0, "pool_busy_s": 0.0},
            )
            for key in ("calls", "busy_s", "self_s", "value_sum", "pool_busy_s"):
                into[key] += entry[key]
            into["durations"] = into["durations"] + list(entry["durations"])
            if entry["calls"]:
                into["value_last"] = entry["value_last"]
    return merged
