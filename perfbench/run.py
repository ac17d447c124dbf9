"""Benchmark command: one workload, one seed, printed metrics and a JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no tracing installed.  ``--trace 1`` runs the workload twice, first plain
and then with the wrappers of :mod:`spans` installed in this process and in
every server or worker subprocess, and prints the per-layer metrics plus
the tracing overhead.  ``--workload all`` runs every workload in its own
process and ends with the end-to-end metrics under their user-facing names.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: A run during which the host stole more CPU than this share is flagged noisy.
NOISY_STEAL_SHARE = 0.05


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _untraced(workload, seconds: float):
    from statistics import median

    from common import peak_rss_mb, reset_peak_rss

    workload.prepare()
    # The oracles computed in prepare() are not the measured work: start the
    # high-water mark again so peak_rss_mb covers only set-up and measurement.
    if not reset_peak_rss():
        print("note: VmHWM could not be reset; peak_rss_mb includes the oracle work")
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        began = time.perf_counter()
        workload.setup(traced=False)
        setups.append(time.perf_counter() - began)
    measurement = workload.measure(seconds)
    children_rss = workload.teardown()
    metrics = dict(measurement.generic)
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb() + children_rss
    return measurement, metrics


def _traced(workload, seconds: float):
    from statistics import median

    import spans

    workload.prepare()
    workload.setup(traced=False)
    plain = workload.measure(seconds)
    workload.teardown()

    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        setup_start = time.perf_counter()
        workload.setup(traced=True)
        setup_end = time.perf_counter()
        traced = workload.measure(seconds)
    finally:
        uninstall()
        workload.teardown()
    for path in workload.trace_files():
        tracer.load(str(path))

    window = tracer.window(*traced.window)
    metrics = spans.layer_metrics(window, traced.ops)
    metrics.update(traced.layers)
    if traced.client_seconds is not None:
        metrics.update(spans.serve_layer_metrics(window, traced.ops, traced.client_seconds))
    setup_records = tracer.window(setup_start, setup_end).records
    metrics["datasets.generate_s"] = spans.totals(setup_records).get("datasets.generate", 0.0)
    metrics["trace.overhead_s"] = median(traced.samples) - median(plain.samples)
    trace_dir = ROOT / ".perfbench_out"
    trace_dir.mkdir(exist_ok=True)
    tracer.dump(str(trace_dir / f"trace-{workload.name}-seed{workload.seed}.jsonl"))
    return traced, metrics


def _run_one(name: str, seed: int, seconds: float, trace: bool):
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, workdir)
    try:
        return (_traced if trace else _untraced)(workload, seconds)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only succeeds once no other run uses it
        except OSError:
            pass


def _run_all(args) -> int:
    """Run every workload in its own process (so peak RSS stays per workload)."""
    from workloads import WORKLOADS

    named, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True)
        lines = completed.stdout.splitlines()
        if completed.returncode != 0 or not lines:
            sys.stderr.write(completed.stderr)
            return completed.returncode or 1
        result = json.loads(lines[-1])
        attempted, failed = attempted + result["attempted"], failed + result["failed"]
        correct = correct and result["correct"]
        if args.trace:
            named.update({f"{key}.{name}": value for key, value in result["metrics"].items()})
        for line in lines[:-1]:
            if not line.startswith("named "):
                print(line)
                continue
            for key, (value, unit) in json.loads(line[len("named "):]).items():
                shared = key in ("setup_s", "peak_rss_mb")
                named[f"{key}.{name}" if shared else key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": named}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from common import cpu_ticks, host_probe_ms, machine_fingerprint, percentile, tail_percentile
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    print(f"machine {json.dumps(machine_fingerprint(), sort_keys=True)}")
    probe_before = host_probe_ms()
    stolen, total = cpu_ticks()
    measurement, values = _run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    after = cpu_ticks()
    probe_after = host_probe_ms()
    steal = (after[0] - stolen) / max(after[1] - total, 1)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
          f" attempted {measurement.attempted} failed {measurement.failed}"
          f" samples {len(measurement.samples)} host_steal_share {steal:.4f}"
          f" host_probe_ms {probe_before:.2f} {probe_after:.2f}")
    if steal > NOISY_STEAL_SHARE:
        print(f"  noisy_host: the host stole {steal:.1%} of CPU time (limit {NOISY_STEAL_SHARE:.0%});"
              " treat this run's times with care")
    tail = tail_percentile(len(measurement.samples))
    if tail is not None:
        print(f"  sample p{tail:g} (s) {percentile(measurement.samples, tail):.6f}")
    if len(measurement.samples) < 100:
        print(f"  samples (s) {[round(sample, 4) for sample in measurement.samples]}")
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in spec_metrics}
    if args.trace:
        shown = {key: (value, units.get(key, "")) for key, value in sorted(values.items())}
    else:
        shown = dict(measurement.named, setup_s=(values["setup_s"], "s"), peak_rss_mb=(values["peak_rss_mb"], "MB"))
    for key, (value, unit) in shown.items():
        print(f"  {key:<40} {value:14.6f} {unit}")
    for problem in measurement.problems[:10]:
        print(f"  failed: {problem}")
    if not args.trace:
        print(f"named {json.dumps(shown)}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()}
    # A campaign cell whose estimator raised is a failed operation, not a
    # wrong output: ``correct`` is false only when an oracle rejected an output.
    print(json.dumps({"correct": not measurement.incorrect, "attempted": measurement.attempted,
                      "failed": measurement.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
