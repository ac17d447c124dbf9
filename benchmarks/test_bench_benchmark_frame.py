"""E2 / E7 — Benchmark frame (Fig. 3, frame 1.2).

Runs the full method population (the 14 baselines plus k-Graph) over the
dataset catalogue and reproduces what the frame shows:

* the box-plot statistics of each method's score distribution for the four
  evaluation measures (ARI, RI, NMI, AMI),
* the filtered views (by dataset type, length, number of classes, number of
  series) the frame's widgets produce, and
* the overall mean-rank table (E7): the headline claim is that k-Graph is
  competitive with the best baselines while being interpretable.
"""

from __future__ import annotations

import pytest

from bench_utils import bench_catalogue, format_table, full_mode, report, results_path
from repro.baselines.registry import all_baseline_names
from repro.benchmark.aggregate import (
    boxplot_summary,
    filter_results,
    mean_rank_table,
    summarize_by_method,
)
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.store import save_results

METHODS = all_baseline_names() + ["kgraph"]


def _run_campaign():
    runner = BenchmarkRunner(METHODS, catalogue=bench_catalogue(), random_state=0)
    return runner.run()


@pytest.mark.benchmark(group="E2-benchmark-frame")
def test_bench_benchmark_frame(benchmark):
    results = benchmark.pedantic(_run_campaign, rounds=1, iterations=1)
    save_results(results, results_path("benchmark_frame_results.json"))

    sections = []
    # Box plot per measure (the frame's main plot, one measure at a time).
    for measure in ("ari", "ri", "nmi", "ami"):
        stats = boxplot_summary(results, measure)
        rows = [
            {"method": method, **{k: v for k, v in values.items() if k != "n"}}
            for method, values in sorted(stats.items(), key=lambda kv: -kv[1]["median"])
        ]
        sections.append(
            f"--- {measure.upper()} distribution per method (box-plot statistics) ---\n"
            + format_table(rows, ["method", "min", "q1", "median", "q3", "max", "mean"])
        )

    # Mean score + runtime per method.
    summary = summarize_by_method(results)
    rows = [
        {"method": method, **values}
        for method, values in sorted(summary.items(), key=lambda kv: -kv[1].get("ari", 0.0))
    ]
    sections.append(
        "--- mean score per method ---\n"
        + format_table(rows, ["method", "ari", "ri", "nmi", "ami", "runtime_seconds"])
    )

    # E7: mean rank (1 = best).
    ranks = mean_rank_table(results, "ari")
    rank_rows = [{"method": m, "mean_rank": r} for m, r in sorted(ranks.items(), key=lambda kv: kv[1])]
    sections.append("--- mean rank over datasets (ARI, 1 = best) ---\n" + format_table(rank_rows, ["method", "mean_rank"]))

    # Filtered views, as produced by the frame's widgets.
    filters = [
        ("dataset type = synthetic-shape", {"dataset_type": "synthetic-shape"}),
        ("number of classes = 2", {"min_classes": 2, "max_classes": 2}),
        ("number of classes >= 3", {"min_classes": 3}),
    ]
    for label, kwargs in filters:
        subset = filter_results(results, **kwargs)
        if not subset:
            continue
        sub_summary = summarize_by_method(subset, measures=("ari",))
        sub_rows = [
            {"method": m, "ari": v.get("ari", float("nan"))}
            for m, v in sorted(sub_summary.items(), key=lambda kv: -kv[1].get("ari", 0.0))
        ][:6]
        sections.append(f"--- filter: {label} (top 6 by ARI) ---\n" + format_table(sub_rows, ["method", "ari"]))

    mode = "FULL catalogue" if full_mode() else "reduced catalogue (set REPRO_BENCH_FULL=1 for paper-scale sizes)"
    kgraph_rank = ranks.get("kgraph", float("nan"))
    conclusion = (
        f"\nmode: {mode}\n"
        f"k-Graph mean rank: {kgraph_rank:.2f} over {len(METHODS)} methods "
        f"(paper expectation: among the best performers)."
    )
    report("E2/E7: Benchmark frame (k-Graph vs 14 baselines)", "\n\n".join(sections) + conclusion)

    benchmark.extra_info["kgraph_mean_rank"] = round(kgraph_rank, 3)
    benchmark.extra_info["n_results"] = len(results)
    # Shape assertion: k-Graph must rank in the upper half of the population.
    assert kgraph_rank <= (len(METHODS) + 1) / 2.0
