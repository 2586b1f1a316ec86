"""The benchmark's own arrival generator and open-loop driver.

Deliberately independent of ``repro.serving.loadgen``: every arrival is
a *fresh* single-vehicle erasure (no idempotent retries, which cost a
dictionary lookup and would swamp the percentiles), and latency is
timed from the arrival's **due** time, so a stall in the system — or in
this generator — is charged to the requests it delayed.  How late the
generator itself ran is reported beside the results.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving import DeadlineExceededError, RejectedError

_now = time.perf_counter


def arrivals(rng: np.random.Generator, rate: float, duration: float,
             vehicles: Sequence[int]) -> List[Tuple[float, int]]:
    """A Poisson process conditioned on its count: ``round(rate *
    duration)`` arrivals at sorted uniform offsets, one fresh vehicle
    each, taken from ``vehicles`` in the order given.  Fixing the count
    keeps the offered work identical across seeds; the seed moves the
    gaps (and, upstream, which vehicle holds which place in the order)."""
    count = min(len(vehicles), max(1, round(rate * duration)))
    offsets = np.sort(rng.uniform(0.0, duration, size=count))
    return [(float(o), int(c)) for o, c in zip(offsets, vehicles)]


def burst(size: int, vehicles: Sequence[int]) -> List[Tuple[float, int]]:
    """``size`` simultaneous arrivals, the first ``size`` of ``vehicles``."""
    return [(0.0, int(c)) for c in vehicles[:size]]


@dataclass
class PhaseResult:
    """What one open-loop phase produced, request by request."""

    name: str
    rate: float
    sent: int = 0
    counts: Dict[str, int] = field(
        default_factory=lambda: {"ok": 0, "shed": 0, "deadline": 0, "error": 0}
    )
    latency: List[float] = field(default_factory=list)    # due -> done, ok only
    late: List[float] = field(default_factory=list)       # due -> submit
    queue: List[float] = field(default_factory=list)
    overhead: List[float] = field(default_factory=list)   # submit->done - queue - service
    responses: Dict[int, object] = field(default_factory=dict)  # cid -> ServiceResponse
    first_due: float = 0.0
    last_due: float = 0.0
    last_done: float = 0.0

    @property
    def failed(self) -> int:
        return self.sent - self.counts["ok"]

    @property
    def drain_seconds(self) -> float:
        """Last completion after the last arrival was due."""
        return max(0.0, self.last_done - self.last_due)

    @property
    def span_seconds(self) -> float:
        return max(1e-9, self.last_done - self.first_due)


def run_open_loop(daemon, schedule: Sequence[Tuple[float, int]], name: str,
                  rate: float, tracer=None, timeout: float = 120.0) -> PhaseResult:
    """Submit ``schedule`` on time regardless of completions.

    One thread (the caller's) sleeps to each due time and submits;
    completions are stamped by the future's done-callback on the
    daemon's worker thread.
    """
    result = PhaseResult(name=name, rate=rate, sent=len(schedule))
    lock = threading.Lock()
    pending: List[Tuple[int, float, float, object]] = []
    done_at: Dict[int, float] = {}
    origin = _now() + 0.01
    result.first_due = origin + schedule[0][0]
    result.last_due = origin + schedule[-1][0]

    for i, (offset, cid) in enumerate(schedule):
        due = origin + offset
        wait = due - _now()
        if wait > 0:
            time.sleep(wait)
        submitted = _now()
        result.late.append(submitted - due)
        try:
            future = daemon.submit(cid)
        except RejectedError:
            result.counts["shed"] += 1
            continue
        except DeadlineExceededError:
            result.counts["deadline"] += 1
            continue

        def stamp(_future, i=i):
            with lock:
                done_at[i] = _now()

        future.add_done_callback(stamp)
        pending.append((i, due, submitted, future))

    for i, due, submitted, future in pending:
        cid = schedule[i][1]
        try:
            response = future.result(timeout=timeout)
        except RejectedError:
            result.counts["shed"] += 1
            continue
        except DeadlineExceededError:
            result.counts["deadline"] += 1
            continue
        except Exception:
            result.counts["error"] += 1
            continue
        with lock:
            done = done_at.get(i, _now())
        if response.status != "ok":
            result.counts["error"] += 1
            continue
        result.counts["ok"] += 1
        result.latency.append(done - due)
        result.queue.append(response.queue_seconds)
        result.overhead.append(
            (done - submitted) - response.queue_seconds - response.service_seconds
        )
        result.responses[cid] = response
        result.last_done = max(result.last_done, done)
        if tracer is not None:
            rid = f"{name}:{cid}"
            span = tracer.add("request", due, done, rid=rid)
            tracer.add("queue_wait", submitted, submitted + response.queue_seconds,
                       rid=rid, parent=span.id)
    return result
