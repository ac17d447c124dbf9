"""In-memory spans recorded by wrapping the library's public functions.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each target function or method with a thin wrapper that records one span
(name, id, parent id, start, duration, enclosing span names) per call, and
returns an ``uninstall`` callable that puts every original back.  A function imported
by name into other modules (``from repro.x import f``) is rebound in every
``repro.*`` module that holds it, so the wrapper sees every call site.

Counts (subsequences, cache hits, shipped bytes, queue wait) are recorded
as timestamped events next to the spans.  ``time.perf_counter`` is
``CLOCK_MONOTONIC`` on Linux, shared by every process on the host, so the
records of a server or worker subprocess can be cut to the window the
benchmark measured.  Records stay in memory and are written out once, when
the process ends (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List

#: (module, function or Class.method, span name).
TARGETS = [
    ("repro.graph.embedding", "GraphEmbedding.fit", "graph.embed"),
    ("repro.utils.windows", "subsequences_of_dataset", "graph.windowing"),
    ("repro.utils.normalization", "znormalize_dataset", "graph.znorm"),
    ("repro.linalg.pca", "PCA.fit_transform", "graph.pca"),
    ("repro.linalg.kde", "KernelDensityEstimator.fit", "graph.nodes"),
    ("repro.linalg.kde", "KernelDensityEstimator.evaluate_grid_1d", "graph.nodes"),
    ("repro.linalg.kde", "local_maxima_1d", "graph.nodes"),
    ("repro.graph.structure", "TimeSeriesGraph.add_node", "graph.assembly"),
    ("repro.graph.structure", "TimeSeriesGraph.add_visits", "graph.assembly"),
    ("repro.graph.structure", "TimeSeriesGraph.add_transitions", "graph.assembly"),
    ("repro.core.graph_clustering", "cluster_graph", "core.cluster"),
    ("repro.core.consensus", "consensus_clustering", "core.consensus"),
    ("repro.core.interpretability", "interpretability_scores", "core.length_scores"),
    ("repro.graph.graphoid", "extract_lambda_graphoid", "core.graphoid"),
    ("repro.graph.graphoid", "extract_gamma_graphoid", "core.graphoid"),
    ("repro.pipeline.fingerprint", "fingerprint", "pipeline.fingerprint"),
    ("repro.pipeline.cache", "MemoryStageCache.get", "pipeline.cache_get"),
    ("repro.pipeline.cache", "MemoryStageCache.put", "pipeline.cache_put"),
    ("repro.pipeline.cache", "DiskStageCache.get", "pipeline.cache_get"),
    ("repro.pipeline.cache", "DiskStageCache.put", "pipeline.cache_put"),
    ("repro.parallel.backends", "SerialBackend.map_jobs", "parallel.map_jobs"),
    ("repro.parallel.backends", "ThreadBackend.map_jobs", "parallel.map_jobs"),
    ("repro.parallel.backends", "ProcessBackend.map_jobs", "parallel.map_jobs"),
    ("repro.distributed.backend", "DistributedBackend.map_jobs", "distributed.map_jobs"),
    ("repro.parallel.wire", "decode_outcome", "wire.decode"),
    ("repro.serve.service", "ServeApplication.handle_request", "serve.handle"),
    ("repro.serve.engine", "InferenceEngine._dispatch", "serve.dispatch"),
    ("repro.core.kgraph", "KGraph.fit", "pipeline.fit"),
    ("repro.core.kgraph", "predict_with_state", "serve.predict_batch"),
    ("repro.datasets.catalogue", "DatasetSpec.generate", "datasets.generate"),
    ("repro.datasets.synthetic", "make_cylinder_bell_funnel", "datasets.generate"),
]

#: Embed sub-steps; they count only inside a ``graph.embed`` span, because
#: PCA, KDE and z-normalisation are also called outside the embedding.
EMBED_SUBSTEPS = ("graph.windowing", "graph.znorm", "graph.pca", "graph.nodes", "graph.assembly")
STAGES = ("embed", "graph_cluster", "consensus", "length_selection", "interpretability")


class Tracer:
    """Spans and counter events of one process; safe to use from threads."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float) -> None:
        """Record ``value`` under counter ``name``, stamped with the time."""
        with self._lock:
            self.records.append({"name": name, "start": time.perf_counter(), "value": float(value)})

    def span(self, name: str, fn: Callable, args, kwargs, after=None):
        """Call ``fn`` and record its span; ``after(tracer, span, result)`` adds counts.

        A span carries its own id, the id of the span that caused it
        (``parent``, ``None`` at the top) and the names of all enclosing spans.
        """
        stack = self._stack()
        parents = [entry[0] for entry in stack]
        parent = stack[-1][1] if stack else None
        span_id = next(self._ids)
        stack.append((name, span_id))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            record = {"name": name, "id": span_id, "parent": parent, "start": start, "dur": duration,
                      "parents": parents}
            with self._lock:
                self.records.append(record)
        if after is not None:
            after(self, record, result)
        return result

    def dump(self, path: str) -> None:
        """Write every record as one JSON line, stamped with this process id."""
        with self._lock:
            records = list(self.records)
        pid = os.getpid()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(dict(record, pid=pid)) + "\n")

    def load(self, path: str) -> None:
        """Append the records another process dumped."""
        with open(path, encoding="utf-8") as handle:
            loaded = [json.loads(line) for line in handle if line.strip()]
        with self._lock:
            self.records.extend(loaded)

    def window(self, start: float, end: float) -> "Tracer":
        """A tracer holding only the records that started in ``[start, end]``."""
        cut = Tracer()
        cut.records = [record for record in self.records if start <= record["start"] <= end]
        return cut


# --------------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------------- #
def _plain(tracer: Tracer, original: Callable, name: str, after=None) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.span(name, original, args, kwargs, after)

    return wrapper


def _windowing(tracer: Tracer, original: Callable, name: str) -> Callable:
    def after(tracer_, record, result):
        if "graph.embed" in record["parents"]:
            tracer_.count("graph.subsequences", result[0].shape[0])

    return _plain(tracer, original, name, after)


def _cache_get(tracer: Tracer, original: Callable, name: str) -> Callable:
    def after(tracer_, record, result):
        tracer_.count("pipeline.cache_gets", 1)
        tracer_.count("pipeline.cache_hits", result is not None)

    return _plain(tracer, original, name, after)


def _kgraph_fit(tracer: Tracer, original: Callable, name: str) -> Callable:
    """Span of one pipeline fit plus its stage split (``stage_timings()``)."""

    def after(tracer_, record, model):
        timings = model.result_.stage_timings()
        tracer_.count("pipeline.fits", 1)
        tracer_.count("pipeline.fit_wall_s", record["dur"])
        for stage in STAGES:
            tracer_.count(f"pipeline.stage.{stage}_s", timings.get(stage, 0.0))

    return _plain(tracer, original, name, after)


def _map_jobs(tracer: Tracer, original: Callable, name: str) -> Callable:
    """Span plus job count and shipped-byte delta of one outermost fan-out."""

    @functools.wraps(original)
    def map_jobs(self, fn, jobs, *args, **kwargs):
        jobs = list(jobs)
        before = int(getattr(self, "bytes_shipped", 0) or 0)

        def after(tracer_, record, _result):
            if name not in record["parents"]:
                tracer_.count(f"{name}.jobs", len(jobs))
                tracer_.count(f"{name}.bytes", int(getattr(self, "bytes_shipped", 0) or 0) - before)

        return tracer.span(name, original, (self, fn, jobs) + args, kwargs, after)

    return map_jobs


def _engine_dispatch(tracer: Tracer, original: Callable, name: str) -> Callable:
    """Queue wait of every request of a micro-batch, taken at dispatch."""

    @functools.wraps(original)
    def _dispatch(self, batch):
        now = time.monotonic()
        tracer.count("serve.engine_wait_s", sum(now - request.enqueued_monotonic for request in batch))
        tracer.count("serve.engine_requests", len(batch))
        return original(self, batch)

    return _dispatch


def _handle_request(tracer: Tracer, original: Callable, name: str) -> Callable:
    """Only ``POST /predict`` counts as a handled prediction request."""

    @functools.wraps(original)
    def handle_request(self, method, path, body=None):
        if method == "POST" and path.split("?", 1)[0].rstrip("/") == "/predict":
            return tracer.span(name, original, (self, method, path, body), {})
        return original(self, method, path, body)

    return handle_request


_WRAPPERS = {
    "graph.windowing": _windowing,
    "pipeline.cache_get": _cache_get,
    "pipeline.fit": _kgraph_fit,
    "parallel.map_jobs": _map_jobs,
    "distributed.map_jobs": _map_jobs,
    "serve.dispatch": _engine_dispatch,
    "serve.handle": _handle_request,
}


def _import_library() -> None:
    """Import every traced module and the modules that alias its functions."""
    for module_name in (
        "repro.pipeline.kgraph_stages",
        "repro.benchmark.runner",
        "repro.serve",
        "repro.distributed",
        "repro.viz.cli",
    ):
        importlib.import_module(module_name)
    for module_name, _, _ in TARGETS:
        importlib.import_module(module_name)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target for ``tracer``; return a function that undoes it."""
    _import_library()
    undo: List[tuple] = []

    def patch(owner, attribute: str, value) -> None:
        undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    for module_name, qualified, name in TARGETS:
        module = importlib.import_module(module_name)
        make = _WRAPPERS.get(name, _plain)
        if "." in qualified:
            class_name, attribute = qualified.split(".")
            owner = getattr(module, class_name)
            patch(owner, attribute, make(tracer, vars(owner)[attribute], name))
            continue
        original = getattr(module, qualified)
        wrapper = make(tracer, original, name)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or loaded_name.split(".")[0] != "repro":
                continue
            for alias, value in list(vars(loaded).items()):
                if value is original:
                    patch(loaded, alias, wrapper)

    def uninstall() -> None:
        for owner, attribute, value in reversed(undo):
            setattr(owner, attribute, value)
        undo.clear()

    return uninstall


# --------------------------------------------------------------------------- #
# Records -> per-layer metrics
# --------------------------------------------------------------------------- #
def totals(records: Iterable[dict]) -> Dict[str, float]:
    """Seconds per span name and sums per counter name.

    A span nested in a span of its own name (a fan-out inside a fan-out)
    is already inside its parent's duration and is skipped; embed sub-steps
    outside a ``graph.embed`` span are skipped too.
    """
    sums: Dict[str, float] = defaultdict(float)
    for record in records:
        name = record["name"]
        if "value" in record:
            sums[name] += record["value"]
            continue
        if name in record["parents"]:
            continue
        if name in EMBED_SUBSTEPS and "graph.embed" not in record["parents"]:
            continue
        sums[name] += record["dur"]
        sums[name + ".calls"] += 1
    return sums


def layer_metrics(tracer: Tracer, ops: float) -> Dict[str, float]:
    """Library-layer metrics per operation of the workload."""
    ops = max(float(ops), 1.0)
    sums = totals(tracer.records)

    def per_op(key: str) -> float:
        return sums.get(key, 0.0) / ops

    metrics: Dict[str, float] = {}
    for name in ("graph.embed",) + EMBED_SUBSTEPS:
        metrics[f"{name}_s"] = per_op(name)
    metrics["graph.embed_other_s"] = max(
        0.0, metrics["graph.embed_s"] - sum(metrics[f"{name}_s"] for name in EMBED_SUBSTEPS)
    )
    metrics["graph.subsequences"] = per_op("graph.subsequences")
    for name in ("core.cluster", "core.consensus", "core.length_scores", "core.graphoid"):
        metrics[f"{name}_s"] = per_op(name)
    stage_sum = 0.0
    for stage in STAGES:
        stage_sum += sums.get(f"pipeline.stage.{stage}_s", 0.0)
        metrics[f"pipeline.stage.{stage}_s"] = per_op(f"pipeline.stage.{stage}_s")
    metrics["pipeline.overhead_s"] = max(0.0, sums.get("pipeline.fit_wall_s", 0.0) - stage_sum) / ops
    metrics["pipeline.fingerprint_s"] = per_op("pipeline.fingerprint")
    metrics["pipeline.fingerprint_calls"] = per_op("pipeline.fingerprint.calls")
    metrics["pipeline.cache_get_s"] = per_op("pipeline.cache_get")
    metrics["pipeline.cache_put_s"] = per_op("pipeline.cache_put")
    gets = sums.get("pipeline.cache_gets", 0.0)
    metrics["pipeline.cache_hit_ratio"] = sums.get("pipeline.cache_hits", 0.0) / gets if gets else 0.0
    metrics["parallel.map_jobs_calls"] = per_op("parallel.map_jobs.calls")
    metrics["parallel.map_jobs_s"] = per_op("parallel.map_jobs")
    metrics["parallel.bytes_shipped"] = per_op("parallel.map_jobs.bytes")
    metrics["distributed.map_jobs_s"] = per_op("distributed.map_jobs")
    metrics["distributed.jobs"] = per_op("distributed.map_jobs.jobs")
    metrics["distributed.bytes_shipped"] = per_op("distributed.map_jobs.bytes")
    metrics["wire.decode_s"] = per_op("wire.decode")
    return metrics


def serve_layer_metrics(server: Tracer, requests: int, client_seconds: float) -> Dict[str, float]:
    """Per-request serve-layer times; engine wait is per queued series."""
    requests = max(int(requests), 1)
    sums = totals(server.records)
    handle = sums.get("serve.handle", 0.0)
    queued = max(sums.get("serve.engine_requests", 0.0), 1.0)
    return {
        "serve.handle_s": handle / requests,
        "serve.http_s": max(0.0, client_seconds - handle) / requests,
        "serve.engine_wait_s": sums.get("serve.engine_wait_s", 0.0) / queued,
        "serve.predict_batch_s": sums.get("serve.predict_batch", 0.0) / requests,
    }

