"""Open-loop load generation and the rate-ladder search.

Requests are due on a fixed schedule drawn before the step starts
(Poisson arrivals, i.e. independent users), whatever the server does.  At most ``connections`` requests are in flight; a request
whose connection is still busy when it falls due is sent late, and its
latency is counted from when it was *due*, so a stall is charged to every
request queued behind it.  How late the generator ran is reported per step.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from common import percentile


def poisson_offsets(rate: float, n: int, rng: np.random.Generator) -> List[float]:
    """Due times (seconds from the step start) of ``n`` Poisson arrivals at ``rate`` per second.

    Given that ``n`` arrivals fall in ``[0, n / rate]``, a Poisson process
    places them as sorted uniform draws; conditioning on the count keeps
    every step exactly ``n / rate`` seconds long.
    """
    return sorted(rng.uniform(0.0, n / rate, size=n).tolist())


@dataclass
class StepResult:
    """Outcome of one open-loop step."""

    rate: float
    latencies: List[float] = field(default_factory=list)  # due -> response, seconds
    lateness: List[float] = field(default_factory=list)  # due -> sent, seconds
    failed: int = 0
    elapsed: float = 0.0  # first due -> last response, seconds

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def achieved_rate(self) -> float:
        return self.attempted / self.elapsed if self.elapsed > 0 else 0.0

    def latency_ms(self, q: float) -> float:
        return 1000.0 * percentile(self.latencies, q)

    def share_over(self, limit: float) -> float:
        """Share of requests that failed or answered later than ``limit`` seconds."""
        over = sum(1 for value in self.latencies if value > limit)
        return (over + self.failed) / max(self.attempted, 1)

    def backlog_growing(self, limit: float) -> bool:
        """The generator ended the step more than ``limit / 2`` behind schedule."""
        tail = self.lateness[-max(1, len(self.lateness) // 10):]
        return sum(tail) / len(tail) > limit / 2.0

    def holds(self, limit: float, q: float = 99.0) -> bool:
        """p``q`` of latency (failures count as misses) within ``limit``, no growing backlog."""
        return self.share_over(limit) <= 1.0 - q / 100.0 and not self.backlog_growing(limit)


def open_loop(send: Callable[[int], Any], offsets: Sequence[float], *, rate: float,
              verify: Callable[[int, Any], bool] = lambda index, reply: bool(reply),
              connections: int = 2, clock=time.perf_counter, sleep=time.sleep) -> StepResult:
    """Send request ``i`` at ``offsets[i]`` over at most ``connections`` at once.

    ``send(i)`` performs request ``i`` and returns its reply; the request
    ends when ``send`` returns.  ``verify(i, reply)`` then says, outside the
    timed span, whether the reply is a success.  Results are in schedule order.
    """
    n = len(offsets)
    latencies = [0.0] * n
    lateness = [0.0] * n
    ok = [True] * n
    finished = [0.0] * n
    lock = threading.Lock()
    cursor = [0]
    start = clock() + 0.01

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= n:
                return
            due = start + offsets[index]
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            try:
                reply = send(index)
                done = clock()
                ok[index] = verify(index, reply)
            except Exception:  # noqa: BLE001 - a broken request is a failed request
                done = clock()
                ok[index] = False
            lateness[index] = max(0.0, sent - due)
            latencies[index] = done - due
            finished[index] = done

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return StepResult(
        rate=rate,
        latencies=latencies,
        lateness=lateness,
        failed=sum(1 for value in ok if not value),
        elapsed=max(finished) - (start + offsets[0]) if n else 0.0,
    )


def rate_ladder(run_step: Callable[[float], StepResult], start: float, *, limit: float,
                factor: float = 1.25, max_rungs: int = 6, refine: int = 2,
                ) -> Tuple[Optional[StepResult], List[StepResult]]:
    """Find the highest rate whose step :meth:`~StepResult.holds` the latency limit.

    Climbs from ``start`` by ``factor`` until a rung fails (or walks down
    when ``start`` itself fails), then bisects between the best passing and
    the lowest failing rate ``refine`` times.  Returns the best passing
    step (``None`` if none passed) and every step run, in order.
    """
    steps: List[StepResult] = []
    best: Optional[StepResult] = None
    failing: Optional[float] = None

    def attempt(rate: float) -> bool:
        nonlocal best, failing
        step = run_step(rate)
        steps.append(step)
        if step.holds(limit):
            if best is None or rate > best.rate:
                best = step
            return True
        failing = rate if failing is None else min(failing, rate)
        return False

    rate = start
    passed = attempt(rate)
    step_factor = factor if passed else 1.0 / factor
    for _ in range(max_rungs - 1):
        rate *= step_factor
        if attempt(rate) != passed:
            break
    else:
        return best, steps  # the boundary was not crossed: nothing to bisect
    for _ in range(refine):
        attempt(0.5 * (best.rate + failing))
    return best, steps
