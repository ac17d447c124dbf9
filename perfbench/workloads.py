"""The benchmark's workloads.

Each workload has four phases:

* ``prepare()`` (untimed) builds inputs from the seed and the correctness
  oracles;
* ``setup()`` is what ``setup_s`` times: data generation, model export,
  server/worker start-up and warm-up;
* ``measure(seconds)`` runs the operations and checks every output;
* ``teardown()`` stops every subprocess and reports their peak RSS.

``measure`` returns a :class:`Measurement`: the end-to-end metrics under
their generic names (``p50_ms``, ``ari``), the same
numbers under the names users know them by (``fit_s``,
``predict_p99_ms.heavy``, ...), and the workload-specific per-layer
metrics that need no tracing (per-estimator campaign time, worker busy
time, batching counters).
"""

from __future__ import annotations

import http.client
import json
import math
import shutil
import time
from statistics import median
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import oracles
from common import Child
from loadgen import StepResult, open_loop, poisson_offsets, rate_ladder

#: The target fit of the project roadmap: CBF, 150 series of length 256.
N_SERIES, SERIES_LENGTH, LENGTHS, N_CLUSTERS = 150, 256, [8, 19, 44, 102], 3
SWEEP_GRID = {"n_clusters": [2, 3, 4], "feature_mode": ["both", "nodes", "edges"]}
LATENCY_LIMIT_S = 0.050
LIGHT_RPS, HEAVY_RPS, REQUESTS_PER_STEP = 50.0, 100.0, 1000
#: Campaign passes per run however long they take: the run's campaign_s is their median.
CAMPAIGN_MIN_PASSES = 3
CONNECTIONS = 2
BATCH_SHARE, BATCH_SIZE = 0.1, 32


@dataclass
class Measurement:
    samples: List[float]  # seconds per operation
    attempted: int
    failed: int  # operations that raised, were refused or answered wrongly
    generic: Dict[str, float]  # p50_ms, ari
    named: Dict[str, Tuple[float, str]]  # user-facing names -> (value, unit)
    layers: Dict[str, float] = field(default_factory=dict)
    ops: int = 1
    window: Tuple[float, float] = (0.0, 0.0)
    problems: List[str] = field(default_factory=list)
    incorrect: int = 0  # operations whose output an oracle rejected
    client_seconds: Optional[float] = None  # serve: summed send-to-response time


def _dataset(seed: int):
    from repro.datasets.synthetic import make_cylinder_bell_funnel

    return make_cylinder_bell_funnel(n_series=N_SERIES, length=SERIES_LENGTH, random_state=seed)


def _kgraph(seed: int, **overrides):
    from repro.core.kgraph import KGraph

    return KGraph(n_clusters=N_CLUSTERS, lengths=LENGTHS, random_state=seed, **overrides)


def _ari(truth, predicted) -> float:
    from repro.metrics import adjusted_rand_index

    return float(adjusted_rand_index(truth, predicted))


def _repeat(operation, seconds: float, at_least: int = 1) -> float:
    """Run ``operation`` until another one would likely overrun ``seconds``, but ``at_least`` times."""
    start = time.perf_counter()
    durations: List[float] = []
    while True:
        began = time.perf_counter()
        operation()
        durations.append(time.perf_counter() - began)
        if len(durations) >= at_least and time.perf_counter() - start + median(durations) > seconds:
            return start


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.children: List[Child] = []
        self.traces: List[Path] = []  # trace files the traced children write on exit

    def start_child(self, args: List[str], announce: str, traced: bool, label: str) -> Child:
        trace_out = self.workdir / f"{label}.jsonl" if traced else None
        child = Child(args, self.workdir, announce, trace_out=trace_out)
        self.children.append(child)
        if trace_out is not None:
            self.traces.append(trace_out)
        return child

    def prepare(self) -> None:
        """Inputs and oracles (not timed)."""

    def setup(self, traced: bool) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def teardown(self) -> float:
        """Stop every child; return the sum of their peak RSS in MiB."""
        for child in self.children:
            child.stop()
        rss = sum(child.peak_rss_mb for child in self.children)
        self.children = []
        return rss

    def trace_files(self) -> List[Path]:
        return [path for path in self.traces if path.exists()]


# --------------------------------------------------------------------------- #
class FitWorkload(Workload):
    """Repeated serial k-Graph fits of the roadmap's target dataset."""

    name = "fit"

    def prepare(self) -> None:
        self.data = _dataset(self.seed)
        self.expected = oracles.fit_signature(_kgraph(self.seed).fit_reference(self.data.data))

    def setup(self, traced: bool) -> None:
        self.data = _dataset(self.seed)
        _kgraph(self.seed).fit(self.data.data)  # warm-up

    def measure(self, seconds: float) -> Measurement:
        samples: List[float] = []
        problems: List[str] = []
        failed = 0
        labels = []

        def one_fit() -> None:
            nonlocal failed
            began = time.perf_counter()
            model = _kgraph(self.seed).fit(self.data.data)
            samples.append(time.perf_counter() - began)
            found = oracles.check_fit(oracles.fit_signature(model), self.expected)
            failed += bool(found)
            problems.extend(found)
            labels.append(model.labels_)

        start = _repeat(one_fit, seconds)
        end = time.perf_counter()
        p50 = median(samples)
        ari = _ari(self.data.labels, labels[-1])
        return Measurement(
            samples=samples, attempted=len(samples), failed=failed,
            generic={"p50_ms": 1000.0 * p50, "ari": ari},
            named={"fit_s": (p50, "s"), "fit_ari": (ari, "ARI")},
            ops=len(samples), window=(start, end), problems=problems, incorrect=failed,
        )


# --------------------------------------------------------------------------- #
class CampaignWorkload(Workload):
    """Serial passes of all registry estimators over the default catalogue."""

    name = "campaign"

    def setup(self, traced: bool) -> None:
        from repro.api.registry import default_registry
        from repro.benchmark.runner import run_single_benchmark
        from repro.datasets.synthetic import make_cylinder_bell_funnel

        self.methods = default_registry().names()
        warm = make_cylinder_bell_funnel(n_series=24, length=64, random_state=self.seed)
        for method in self.methods:
            run_single_benchmark(method, warm, random_state=self.seed)

    def measure(self, seconds: float) -> Measurement:
        from repro.benchmark.runner import BenchmarkRunner

        samples: List[float] = []
        passes = []

        def one_pass() -> None:
            began = time.perf_counter()
            results = BenchmarkRunner(self.methods, random_state=self.seed).run()
            samples.append(time.perf_counter() - began)
            passes.append(results)

        start = _repeat(one_pass, seconds, at_least=CAMPAIGN_MIN_PASSES)
        end = time.perf_counter()
        problems = [problem for results in passes for result in results
                    for problem in oracles.check_campaign_cell(result)]
        cells = sum(len(results) for results in passes)
        aris = [result.measures["ari"] for result in passes[-1]
                if result.error is None and math.isfinite(result.measures.get("ari", math.nan))]
        per_method: Dict[str, float] = defaultdict(float)
        for results in passes:
            for result in results:
                per_method[result.method] += result.runtime_seconds / len(passes)
        layers = {f"benchmark.method.{method}_s": per_method[method] for method in self.methods}
        layers["benchmark.failed_cells"] = len(problems) / len(passes)
        p50 = median(samples)
        mean_ari = float(np.mean(aris))
        return Measurement(
            samples=samples, attempted=cells, failed=len(problems),
            generic={"p50_ms": 1000.0 * p50, "ari": mean_ari},
            named={"campaign_s": (p50, "s"), "campaign_mean_ari": (mean_ari, "ARI")},
            layers=layers, ops=len(passes), window=(start, end), problems=problems,
        )


# --------------------------------------------------------------------------- #
class ServeWorkload(Workload):
    """Open-loop ``POST /predict`` against a ``graphint serve --registry`` subprocess."""

    heavy = False

    def prepare(self) -> None:
        from repro.datasets.synthetic import make_cylinder_bell_funnel

        self.model = _kgraph(self.seed).fit(_dataset(self.seed).data)
        self.pool = make_cylinder_bell_funnel(n_series=N_SERIES, length=SERIES_LENGTH, random_state=self.seed + 1)
        self.expected = [int(value) for value in self.model.predict(self.pool.data)]
        rng = np.random.default_rng(self.seed)
        self.batches = [rng.choice(N_SERIES, size=BATCH_SIZE, replace=False) for _ in range(16)]
        self.rng = np.random.default_rng([self.seed, 1])
        self.setups = 0

    def setup(self, traced: bool) -> None:
        from repro.datasets.synthetic import make_cylinder_bell_funnel
        from repro.serve import ModelRegistry

        self.setups += 1
        pool = make_cylinder_bell_funnel(n_series=N_SERIES, length=SERIES_LENGTH, random_state=self.seed + 1)
        self.single_bodies = [json.dumps({"series": series.tolist()}).encode() for series in pool.data]
        self.batch_bodies = [json.dumps({"series": pool.data[rows].tolist()}).encode() for rows in self.batches]
        registry = self.workdir / f"registry-{self.setups}"
        ModelRegistry(registry).publish(self.model, "cbf")
        server = self.start_child(
            ["serve", "--registry", str(registry), "--host", "127.0.0.1", "--port", "0"],
            r"serving Graphint on http://127\.0\.0\.1:(\d+)", traced, f"serve-{self.setups}",
        )
        self.port = int(server.match.group(1))
        for index in range(20):
            self._post(index % N_SERIES, None)

    def _post(self, single: Optional[int], batch: Optional[int]) -> Tuple[bool, List[int], List[int]]:
        """One request; returns (ok, series ids, predictions)."""
        rows = [single] if batch is None else [int(row) for row in self.batches[batch]]
        body = self.single_bodies[single] if batch is None else self.batch_bodies[batch]
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("POST", "/predict", body, {"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = response.read()
        finally:
            connection.close()
        if response.status != 200:
            return False, rows, []
        return True, rows, json.loads(payload)["predictions"]

    def healthz(self) -> Dict[str, float]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", "/healthz")
            engines = json.loads(connection.getresponse().read())["engines"]
        finally:
            connection.close()
        stats = next(iter(engines.values()))
        return {"batches": stats["batches"], "predictions": stats["predictions"],
                "timeouts": stats["flush_reasons"]["timeout"]}

    def step(self, rate: float, requests: int = REQUESTS_PER_STEP) -> StepResult:
        """One open-loop step of ``requests`` requests at ``rate``."""
        plan = [
            (None, int(self.rng.integers(len(self.batches)))) if self.rng.random() < BATCH_SHARE
            else (int(self.rng.integers(N_SERIES)), None)
            for _ in range(requests)
        ]
        offsets = poisson_offsets(rate, requests, self.rng)

        def send(index: int):
            return self._post(*plan[index])

        def verify(index: int, reply) -> bool:
            ok, rows, predictions = reply
            if not ok:
                self.problems.append(f"request {index} answered with an error status")
                return False
            found = oracles.check_predictions(predictions, [self.expected[row] for row in rows])
            self.problems.extend(found)
            self.incorrect += bool(found)
            self.served.extend(zip(rows, predictions))
            return not found

        return open_loop(send, offsets, rate=rate, verify=verify, connections=CONNECTIONS)

    def measure(self, seconds: float) -> Measurement:
        self.problems: List[str] = []
        self.incorrect = 0
        self.served: List[Tuple[int, int]] = []
        before = self.healthz()
        start = time.perf_counter()
        if self.heavy:
            # The first rung is the heavy step; the ladder's best rung gives
            # predict_max_rps, which is printed but too noisy to bound.
            best, steps = rate_ladder(self.step, HEAVY_RPS, limit=LATENCY_LIMIT_S, refine=1)
        else:
            requests = max(REQUESTS_PER_STEP, int(LIGHT_RPS * seconds))
            best, steps = None, [self.step(LIGHT_RPS, requests)]
        main = steps[0]
        end = time.perf_counter()
        after = self.healthz()
        rows, predictions = zip(*self.served)
        ari = _ari(self.pool.labels[list(rows)], list(predictions))
        tag = "heavy" if self.heavy else "light"
        named = {
            f"predict_p50_ms.{tag}": (main.latency_ms(50), "ms"),
            f"predict_p99_ms.{tag}": (main.latency_ms(99), "ms"),
        }
        named[f"generator_lateness_p50_ms.{tag}"] = (1000.0 * median(main.lateness), "ms")
        named[f"generator_lateness_max_ms.{tag}"] = (1000.0 * max(main.lateness), "ms")
        if self.heavy:
            named["predict_max_rps"] = (best.achieved_rate if best else 0.0, "1/s")
        requests = sum(step.attempted for step in steps)
        batches = after["batches"] - before["batches"]
        layers = {
            "serve.batches": batches / requests,
            "serve.mean_batch_size": (after["predictions"] - before["predictions"]) / max(batches, 1),
            "serve.flush_timeout_share": (after["timeouts"] - before["timeouts"]) / max(batches, 1),
        }
        return Measurement(
            samples=main.latencies, attempted=requests,
            failed=sum(step.failed for step in steps),
            generic={"p50_ms": main.latency_ms(50), "ari": ari},
            named=named, layers=layers, ops=requests, window=(start, end), problems=self.problems,
            incorrect=self.incorrect,
            client_seconds=sum(latency - late for step in steps
                               for latency, late in zip(step.latencies, step.lateness)),
        )


class ServeHeavyWorkload(ServeWorkload):
    name = "serve_heavy"
    heavy = True


class ServeLightWorkload(ServeWorkload):
    name = "serve_light"


# --------------------------------------------------------------------------- #
class SweepWorkload(Workload):
    """A k-Graph config grid sharded over two loopback ``graphint worker`` services."""

    name = "sweep"
    n_workers = 2

    def prepare(self) -> None:
        from repro.benchmark.runner import BenchmarkRunner

        self.data = _dataset(self.seed)
        serial = BenchmarkRunner(["kgraph"]).run_estimator_grid(
            self.data, "kgraph", SWEEP_GRID, base={"lengths": LENGTHS}, random_state=self.seed
        )
        self.expected = [oracles.comparable(result) for result in serial]
        self.setups = 0

    def setup(self, traced: bool) -> None:
        from repro.distributed import DistributedBackend
        from repro.distributed.functions import square

        self.setups += 1
        self.data = _dataset(self.seed)
        self.plane = self.workdir / f"plane-{self.setups}"
        self.plane.mkdir()
        workers = [
            self.start_child(["worker", "--host", "127.0.0.1", "--port", "0", "--data-plane", str(self.plane)],
                             r"worker listening on http://(127\.0\.0\.1:\d+)", traced,
                             f"worker-{self.setups}-{index}")
            for index in range(self.n_workers)
        ]
        self.urls = [worker.match.group(1) for worker in workers]
        with DistributedBackend(self.urls) as backend:
            for outcome in backend.map_jobs(square, [float(value) for value in range(4)]):
                outcome.unwrap()

    def measure(self, seconds: float) -> Measurement:
        from repro.benchmark.runner import BenchmarkRunner

        samples: List[float] = []
        problems: List[str] = []
        busy: List[float] = []
        executed: List[float] = []
        last = []
        spec = "distributed:" + ",".join(self.urls) + "@" + str(self.plane)

        def one_sweep() -> None:
            cache = self.workdir / f"cache-{len(samples)}"
            began = time.perf_counter()
            results = BenchmarkRunner(["kgraph"], backend=spec).run_estimator_grid(
                self.data, "kgraph", SWEEP_GRID, base={"lengths": LENGTHS},
                random_state=self.seed, stage_cache=str(cache),
            )
            samples.append(time.perf_counter() - began)
            shutil.rmtree(cache, ignore_errors=True)
            problems.extend(oracles.check_sweep(results, self.expected))
            busy.append(sum(result.runtime_seconds for result in results))
            executed.append(sum(result.measures.get("stages_executed", 0.0) for result in results))
            last[:] = results

        start = _repeat(one_sweep, seconds)
        end = time.perf_counter()
        combos = len(samples) * len(self.expected)
        p50 = median(samples)
        ari = float(np.mean([result.measures["ari"] for result in last]))
        layers = {
            "distributed.worker_busy_s": sum(busy) / len(samples),
            "distributed.worker_idle_share": 1.0 - sum(busy) / (self.n_workers * sum(samples)),
            "distributed.stages_executed": sum(executed) / len(samples),
        }
        return Measurement(
            samples=samples, attempted=combos, failed=len(problems),
            generic={"p50_ms": 1000.0 * p50, "ari": ari},
            named={"sweep_s": (p50, "s")},
            layers=layers, ops=len(samples), window=(start, end), problems=problems,
            incorrect=len(problems),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (FitWorkload, CampaignWorkload, ServeLightWorkload, ServeHeavyWorkload, SweepWorkload)
}
