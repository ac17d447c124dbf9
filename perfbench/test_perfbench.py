"""Tests of the benchmark's own helpers (run with pytest from the repository root)."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import spans  # noqa: E402
from common import peak_rss_mb, percentile, reset_peak_rss, tail_percentile  # noqa: E402
from loadgen import StepResult, open_loop, rate_ladder  # noqa: E402
from workloads import _repeat  # noqa: E402


# --------------------------------------------------------------------------- #
# Tail percentile
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, expected",
    [(10000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_leaves_ten_values_beyond_p99_of_1000():
    values = list(range(1000))
    p99 = percentile(values, 99.0)
    assert sum(1 for value in values if value > p99) == 10


# --------------------------------------------------------------------------- #
# Open-loop lateness
# --------------------------------------------------------------------------- #
class VirtualClock:
    """Single-connection stand-in for time: sleeping and serving advance it."""

    def __init__(self) -> None:
        self.now = 100.0

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_charges_queueing_behind_a_slow_request():
    time_ = VirtualClock()

    def send(index: int) -> bool:
        time_.now += 0.010  # every request takes 10 ms
        return True

    offsets = [0.000, 0.001, 0.002, 0.003]
    result = open_loop(send, offsets, rate=1000.0, connections=1, clock=time_.clock, sleep=time_.sleep)
    assert result.lateness == pytest.approx([0.000, 0.009, 0.018, 0.027])
    assert result.latencies == pytest.approx([0.010, 0.019, 0.028, 0.037])
    assert result.elapsed == pytest.approx(0.040)
    assert result.backlog_growing(limit=0.050)
    assert not result.holds(limit=0.050)


def test_open_loop_on_schedule_is_never_late():
    time_ = VirtualClock()

    def send(index: int) -> bool:
        time_.now += 0.002
        return index != 3

    offsets = [0.01 * index for index in range(10)]
    result = open_loop(send, offsets, rate=100.0, connections=1, clock=time_.clock, sleep=time_.sleep)
    assert result.lateness == pytest.approx([0.0] * 10)
    assert result.latencies == pytest.approx([0.002] * 10)
    assert result.failed == 1
    assert result.share_over(limit=0.050) == pytest.approx(0.1)
    assert not result.backlog_growing(limit=0.050)


# --------------------------------------------------------------------------- #
# Rate ladder
# --------------------------------------------------------------------------- #
def _fake_step(capacity: float, tried: list):
    def run_step(rate: float) -> StepResult:
        tried.append(rate)
        latency = 0.010 if rate <= capacity else 0.200
        return StepResult(rate=rate, latencies=[latency] * 100, lateness=[0.0] * 100, elapsed=1.0)

    return run_step


def test_rate_ladder_climbs_then_bisects():
    tried: list = []
    best, steps = rate_ladder(_fake_step(180.0, tried), 150.0, limit=0.050, factor=1.25, refine=2)
    assert tried == pytest.approx([150.0, 187.5, 168.75, 178.125])
    assert best.rate == pytest.approx(178.125)
    assert len(steps) == 4


def test_rate_ladder_walks_down_when_the_start_fails():
    tried: list = []
    best, _ = rate_ladder(_fake_step(170.0, tried), 300.0, limit=0.050, factor=1.25, refine=2)
    assert tried == pytest.approx([300.0, 240.0, 192.0, 153.6, 172.8, 163.2])
    assert best.rate == pytest.approx(163.2)


def test_rate_ladder_reports_none_when_nothing_holds():
    best, steps = rate_ladder(_fake_step(1.0, []), 100.0, limit=0.050, max_rungs=3)
    assert best is None and len(steps) == 3


# --------------------------------------------------------------------------- #
# Correctness oracles reject perturbed outputs
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_fit():
    from repro.core.kgraph import KGraph
    from repro.datasets.synthetic import make_cylinder_bell_funnel

    data = make_cylinder_bell_funnel(n_series=24, length=64, random_state=0).data
    fitted = KGraph(n_clusters=3, lengths=[8, 16], random_state=0).fit(data)
    reference = KGraph(n_clusters=3, lengths=[8, 16], random_state=0).fit_reference(data)
    return oracles.fit_signature(fitted), oracles.fit_signature(reference)


def test_fit_oracle_accepts_the_pipeline_fit(small_fit):
    signature, expected = small_fit
    assert oracles.check_fit(signature, expected) == []


@pytest.mark.parametrize("key", ["labels", "optimal_length", "gamma_nodes", "lambda_nodes"])
def test_fit_oracle_rejects_a_perturbed_fit(small_fit, key):
    signature, expected = small_fit
    perturbed = copy.deepcopy(signature)
    if key == "labels":
        perturbed["labels"][0] = (perturbed["labels"][0] + 1) % 3
    elif key == "optimal_length":
        perturbed["optimal_length"] += 1
    else:
        perturbed[key] = {cluster: nodes + [10**6] for cluster, nodes in perturbed[key].items()}
    assert oracles.check_fit(perturbed, expected)


def test_serve_oracle_rejects_a_wrong_prediction():
    assert oracles.check_predictions([0, 1, 2], [0, 1, 2]) == []
    assert oracles.check_predictions([0, 1, 2], [0, 2, 2])


def _result(**overrides):
    from repro.benchmark.runner import BenchmarkResult

    fields = dict(method="kgraph[n_clusters=2]", family="graph", dataset="cbf", dataset_type="shape",
                  n_series=150, length=256, n_classes=3, measures={"ari": 0.5, "stages_executed": 5.0},
                  runtime_seconds=1.0)
    fields.update(overrides)
    return BenchmarkResult(**fields)


def test_sweep_oracle_ignores_timing_and_rejects_changed_measures():
    expected = [oracles.comparable(_result())]
    assert oracles.check_sweep([_result(runtime_seconds=9.0, measures={"ari": 0.5})], expected) == []
    assert oracles.check_sweep([_result(measures={"ari": 0.25})], expected)
    assert oracles.check_sweep([], expected)


def test_campaign_oracle_fails_a_cell_with_an_error():
    assert oracles.check_campaign_cell(_result()) == []
    assert oracles.check_campaign_cell(_result(error="FloatingPointError: NaN"))


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
def test_tracing_records_embed_substeps_and_uninstalls_cleanly():
    from repro.core.kgraph import KGraph
    from repro.datasets.synthetic import make_cylinder_bell_funnel
    from repro.graph import embedding
    from repro.linalg.pca import PCA

    originals = (embedding.znormalize_dataset, PCA.fit_transform, KGraph.fit)
    data = make_cylinder_bell_funnel(n_series=12, length=48, random_state=0).data
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        KGraph(n_clusters=3, lengths=[8, 12], random_state=0).fit(data)
    finally:
        uninstall()
    assert (embedding.znormalize_dataset, PCA.fit_transform, KGraph.fit) == originals
    metrics = spans.layer_metrics(tracer, ops=1)
    for name in ("graph.embed_s", "graph.pca_s", "graph.nodes_s", "graph.assembly_s", "core.cluster_s",
                 "pipeline.stage.embed_s", "pipeline.fingerprint_s"):
        assert metrics[name] > 0, name
    assert metrics["graph.subsequences"] == 12 * ((48 - 8 + 1) + (48 - 12 + 1))
    substeps = sum(metrics[f"{name}_s"] for name in spans.EMBED_SUBSTEPS)
    assert substeps <= metrics["graph.embed_s"]
    by_id = {record["id"]: record for record in tracer.records if "id" in record}
    pca = [record for record in by_id.values() if record["name"] == "graph.pca"]
    assert pca and all(by_id[record["parent"]]["name"] == "graph.embed" for record in pca)


def test_every_per_layer_metric_names_what_it_should_move():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    moves = json.loads((HERE / "layers.json").read_text())
    assert sorted(moves) == sorted(entry["name"] for entry in spec["per_layer"])
    assert all(isinstance(text, str) and text for text in moves.values())


# --------------------------------------------------------------------------- #
# Run length and memory
# --------------------------------------------------------------------------- #
def test_repeat_runs_at_least_the_minimum_even_past_the_time():
    calls = []
    _repeat(lambda: calls.append(1), seconds=0.0, at_least=3)
    assert len(calls) == 3
    calls.clear()
    _repeat(lambda: calls.append(1), seconds=0.0)
    assert len(calls) == 1


def test_peak_rss_reset_forgets_an_earlier_peak():
    import numpy as np

    block = np.ones(40 * 1024 * 1024 // 8)  # 40 MiB, touched
    del block
    high = peak_rss_mb()
    if not reset_peak_rss():
        pytest.skip("VmHWM cannot be reset on this system")
    assert peak_rss_mb() < high - 30
