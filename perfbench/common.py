"""Helpers shared by the workloads: statistics, machine fingerprint, memory, children."""

from __future__ import annotations

import math
import os
import platform
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: ``values`` beyond it are ``n - ceil(q n / 100)``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` sorted values."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def tail_percentile(n: int) -> Optional[float]:
    """Highest of :data:`TAIL_PERCENTILES` with at least 10 of ``n`` samples above it."""
    for q in TAIL_PERCENTILES:
        if n - _rank(q, n) >= 10:
            return q
    return None


# --------------------------------------------------------------------------- #
# Machine fingerprint
# --------------------------------------------------------------------------- #
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> Optional[int]:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def machine_fingerprint() -> Dict[str, object]:
    import numpy as np

    blas: Dict[str, object] = {}
    try:
        config = np.show_config(mode="dicts")
        found = config["Build Dependencies"]["blas"]
        blas = {"name": found.get("name"), "version": found.get("version")}
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas = {"name": "unknown", "version": "unknown"}
    blas["threads"] = _blas_threads()
    blas["env"] = {
        key: os.environ[key]
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if key in os.environ
    }
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def cpu_ticks() -> Tuple[int, int]:
    """(stolen, total) CPU ticks of the host so far, from ``/proc/stat``.

    On a virtual machine the hypervisor may steal CPU time from the guest;
    every run reports the share next to its results.
    """
    try:
        fields = [int(value) for value in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed CPU task (interpreted loop plus small BLAS calls), in ms.

    It involves no code of the program, so a change of it between runs is a
    change of the host's speed; every run reports it before and after its
    workload so that runs on a slowed host can be told apart.
    """
    import numpy as np

    matrix = np.random.default_rng(0).standard_normal((128, 128))
    times = []
    for _ in range(repeats + 1):  # the first one warms up
        began = time.perf_counter()
        total = 0
        for value in range(300_000):
            total += value * value
        for _ in range(60):
            matrix = np.tanh(matrix @ matrix.T / 128.0)
        times.append(time.perf_counter() - began)
    return 1000.0 * sorted(times[1:])[repeats // 2]


# --------------------------------------------------------------------------- #
# Memory
# --------------------------------------------------------------------------- #
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """High-water resident set size of a process (``VmHWM``), in MiB."""
    path = f"/proc/{'self' if pid is None else pid}/status"
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def reset_peak_rss() -> bool:
    """Reset this process's ``VmHWM`` to its current RSS (Linux); False if not possible.

    Freed heap memory is first handed back to the system, so the new mark
    starts from the live data rather than from whatever the allocator kept.
    """
    import ctypes
    import gc

    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


# --------------------------------------------------------------------------- #
# CLI subprocesses (server, workers)
# --------------------------------------------------------------------------- #
class Child:
    """A ``graphint`` command run through :mod:`launcher` in a subprocess.

    Output goes to a log file in ``workdir`` (no pipe can fill up).  The
    constructor waits until a line matches ``announce``; :meth:`stop`
    interrupts the command, records its peak RSS, and waits for it to end.
    """

    def __init__(self, args: List[str], workdir: Path, announce: str, *,
                 trace_out: Optional[Path] = None) -> None:
        self.log = workdir / f"child-{time.monotonic_ns()}.log"
        command = [sys.executable, str(HERE / "launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--"] + list(args)
        self._handle = open(self.log, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, stdout=self._handle, stderr=subprocess.STDOUT, cwd=str(ROOT),
            stdin=subprocess.DEVNULL,
        )
        self.peak_rss_mb = 0.0
        self.match = self._wait_for(re.compile(announce))

    def _wait_for(self, pattern):
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            match = pattern.search(self.log.read_text(encoding="utf-8", errors="replace"))
            if match:
                return match
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(f"child never announced itself:\n{self.log.read_text()}")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.peak_rss_mb = max(self.peak_rss_mb, peak_rss_mb(self.process.pid))
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(20.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._handle.close()
