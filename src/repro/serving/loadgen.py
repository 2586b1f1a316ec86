"""Deterministic open-loop load generation for the erasure daemon.

An *open-loop* generator submits requests at pre-scheduled arrival
times regardless of how the server is doing — which is the only load
model that reveals saturation honestly (a closed loop self-throttles
and hides the queue).  Schedules are built up front from a seed, so a
load run is reproducible arrival-for-arrival:

- :func:`steady_schedule` — Poisson arrivals at a fixed rate (normal
  RSU traffic: departures trickling in).
- :func:`mass_gdpr_schedule` — a steady trickle with one instantaneous
  burst of simultaneous arrivals (a fleet operator bulk-exercising the
  right to be forgotten).

Request mix: the first arrivals erase *fresh* vehicles drawn from the
population (single or small batches); once the population is spent —
or by the configured duplicate fraction — arrivals become *retries* of
earlier idempotency keys, which is exactly the traffic a real RSU
sees (clients re-sending until they observe success).

:class:`LoadGenerator` drives a daemon with a schedule and returns one
:class:`~repro.serving.slo.SloReport` built from the completed
responses; rejected submissions are recorded, never raised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.requests import DeadlineExceededError, RejectedError
from repro.serving.slo import SloRecorder, SloReport

__all__ = [
    "Arrival",
    "LoadGenerator",
    "SCHEDULES",
    "mass_gdpr_schedule",
    "mixed_schedule",
    "steady_schedule",
]


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when it arrives and what it asks for.

    ``kind`` is ``"erase"`` (submitted to the daemon) or ``"train"``
    (a vehicle round-participation arrival, dispatched to the
    generator's ``train_sink`` — see :func:`mixed_schedule`).
    """

    at_seconds: float
    client_ids: Tuple[int, ...]
    key: str
    kind: str = "erase"


def _mix_requests(
    times: np.ndarray,
    population: Sequence[int],
    rng: np.random.Generator,
    batch_fraction: float,
    duplicate_fraction: float,
    key_prefix: str,
) -> List[Arrival]:
    """Assign a request to each arrival time (fresh erasures until the
    population is spent, idempotent retries after/among them)."""
    pool = list(population)
    issued: List[Tuple[Tuple[int, ...], str]] = []
    arrivals: List[Arrival] = []
    for i, t in enumerate(np.sort(times)):
        retry = issued and (not pool or rng.random() < duplicate_fraction)
        if retry:
            ids, key = issued[int(rng.integers(len(issued)))]
        else:
            size = 1
            if len(pool) > 1 and rng.random() < batch_fraction:
                size = int(rng.integers(2, min(4, len(pool)) + 1))
            ids = tuple(pool.pop(0) for _ in range(size))
            key = f"{key_prefix}-{i}"
            issued.append((ids, key))
        arrivals.append(Arrival(at_seconds=float(t), client_ids=ids, key=key))
    return arrivals


def steady_schedule(
    rate: float,
    duration_seconds: float,
    population: Sequence[int],
    seed: int = 0,
    batch_fraction: float = 0.2,
    duplicate_fraction: float = 0.5,
    key_prefix: str = "steady",
) -> List[Arrival]:
    """Poisson arrivals at ``rate`` req/s for ``duration_seconds``."""
    if rate <= 0 or duration_seconds <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    n = max(1, int(round(rate * duration_seconds)))
    gaps = rng.exponential(1.0 / rate, size=n)
    times = np.cumsum(gaps)
    times = times[times < duration_seconds]
    if times.size == 0:
        times = np.array([duration_seconds / 2.0])
    return _mix_requests(
        times, population, rng, batch_fraction, duplicate_fraction, key_prefix
    )


def mass_gdpr_schedule(
    rate: float,
    duration_seconds: float,
    burst_size: int,
    population: Sequence[int],
    seed: int = 0,
    burst_at_seconds: Optional[float] = None,
    batch_fraction: float = 0.2,
    duplicate_fraction: float = 0.5,
    key_prefix: str = "gdpr",
) -> List[Arrival]:
    """A steady trickle plus one instantaneous burst of arrivals.

    ``burst_size`` requests all land at ``burst_at_seconds`` (mid-run
    by default) — the mass-erasure event admission control exists for.
    The burst reserves up to ``burst_size`` vehicles from the tail of
    ``population`` as *fresh* single erasures (a fleet operator
    bulk-exercising the right to be forgotten is distinct vehicles, not
    retries); only once the reservation is spent does it fall back to
    retrying already-issued keys.
    """
    if burst_size < 1:
        raise ValueError("burst_size must be >= 1")
    rng = np.random.default_rng(seed)
    reserve = min(burst_size, max(0, len(population) - 1))
    trickle_pool = list(population[: len(population) - reserve])
    burst_pool = list(population[len(population) - reserve:])
    base = steady_schedule(
        rate,
        duration_seconds,
        trickle_pool,
        seed=seed + 1,
        batch_fraction=batch_fraction,
        duplicate_fraction=duplicate_fraction,
        key_prefix=key_prefix,
    )
    at = duration_seconds / 2.0 if burst_at_seconds is None else burst_at_seconds
    issued = [(a.client_ids, a.key) for a in base]
    burst: List[Arrival] = []
    for j in range(burst_size):
        if burst_pool:
            ids = (burst_pool.pop(0),)
            key = f"{key_prefix}-burst-{j}"
        else:
            ids, key = issued[int(rng.integers(len(issued)))]
        burst.append(Arrival(at_seconds=float(at), client_ids=ids, key=key))
    merged = sorted(base + burst, key=lambda a: a.at_seconds)
    return merged


def mixed_schedule(
    rate: float,
    duration_seconds: float,
    population: Sequence[int],
    seed: int = 0,
    train_fraction: float = 0.7,
    batch_fraction: float = 0.0,
    duplicate_fraction: float = 0.3,
    key_prefix: str = "mixed",
) -> List[Arrival]:
    """Interleaved train/erase arrivals — the live-traffic workload.

    One Poisson stream at ``rate`` req/s; each arrival is independently
    a *training* round trigger (probability ``train_fraction`` — a
    cohort of vehicles uploading to the RSU) or an *erasure* request
    drawn with the usual fresh/retry mix.  Deterministic under the
    seed: the split and both sub-streams derive from one generator.

    Train arrivals carry no client ids (the participation schedule
    decides who uploads) and keys ``{key_prefix}-train-{i}``; the load
    generator dispatches them to its ``train_sink`` instead of the
    daemon.
    """
    if not 0.0 <= train_fraction <= 1.0:
        raise ValueError("train_fraction must be within [0, 1]")
    if rate <= 0 or duration_seconds <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    n = max(1, int(round(rate * duration_seconds)))
    gaps = rng.exponential(1.0 / rate, size=n)
    times = np.cumsum(gaps)
    times = times[times < duration_seconds]
    if times.size == 0:
        times = np.array([duration_seconds / 2.0])
    is_train = rng.random(times.size) < train_fraction
    erase_arrivals = _mix_requests(
        times[~is_train],
        population,
        rng,
        batch_fraction,
        duplicate_fraction,
        key_prefix,
    )
    train_arrivals = [
        Arrival(
            at_seconds=float(t),
            client_ids=(),
            key=f"{key_prefix}-train-{i}",
            kind="train",
        )
        for i, t in enumerate(np.sort(times[is_train]))
    ]
    return sorted(erase_arrivals + train_arrivals, key=lambda a: a.at_seconds)


SCHEDULES: Dict[str, Callable] = {
    "steady": steady_schedule,
    "mass_gdpr": mass_gdpr_schedule,
    "mixed": mixed_schedule,
}
"""Named arrival-schedule builders, for run-table factor columns."""


class LoadGenerator:
    """Drive a daemon with one arrival schedule, open-loop.

    Parameters
    ----------
    daemon:
        The :class:`~repro.serving.daemon.ErasureDaemon` under test.
    deadline_seconds:
        Per-request deadline applied to every submission (``None``
        falls back to the daemon default).
    clock, sleep:
        Time sources — real by default; injectable to run schedules
        faster than wall clock in unit tests.
    train_sink:
        Where ``kind="train"`` arrivals go (e.g.
        :meth:`repro.fl.live.LiveTrainingSession.allow_rounds` bound to
        one permit per arrival).  Required when running a mixed
        schedule; erase-only schedules never touch it.
    """

    def __init__(
        self,
        daemon,
        deadline_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        train_sink: Optional[Callable[[Arrival], None]] = None,
    ):
        self.daemon = daemon
        self.deadline_seconds = deadline_seconds
        self._clock = clock
        self._sleep = sleep
        self.train_sink = train_sink
        #: train arrivals dispatched during the last :meth:`run`.
        self.train_dispatched = 0

    def run(self, schedule: Sequence[Arrival], label: str = "load") -> SloReport:
        """Submit every arrival at its scheduled time; gather responses.

        Submissions the daemon rejects (shed, expired-at-enqueue) are
        recorded with their status and zero service latency.  The
        report's wall-clock window spans first submission to last
        completion.
        """
        recorder = SloRecorder(label=label)
        pending = []
        completed_at: Dict[int, float] = {}
        self.train_dispatched = 0
        started = self._clock()
        for arrival in schedule:
            now = self._clock() - started
            if arrival.at_seconds > now:
                self._sleep(arrival.at_seconds - now)
            if arrival.kind == "train":
                # Training traffic is not an SLO-tracked request — it
                # models vehicles uploading between erasures.
                if self.train_sink is None:
                    raise ValueError(
                        "schedule contains train arrivals but no "
                        "train_sink is configured"
                    )
                self.train_sink(arrival)
                self.train_dispatched += 1
                continue
            submitted = self._clock()
            try:
                future = self.daemon.submit(
                    arrival.client_ids,
                    key=arrival.key,
                    deadline=self.deadline_seconds,
                )
            except RejectedError:
                recorder.record("rejected", 0.0)
                continue
            except DeadlineExceededError:
                recorder.record("deadline", 0.0)
                continue
            # Stamp completion when it happens, not when we get around
            # to gathering — open-loop latency is completion − arrival.
            future.add_done_callback(
                lambda _f, i=len(pending): completed_at.__setitem__(i, self._clock())
            )
            pending.append((arrival, submitted, future))
        for i, (arrival, submitted, future) in enumerate(pending):
            try:
                response = future.result()
                status, queue_seconds = response.status, response.queue_seconds
            except DeadlineExceededError:
                status, queue_seconds = "deadline", None
            except RejectedError:
                status, queue_seconds = "rejected", None
            except Exception:
                status, queue_seconds = "error", None
            # result() can return before the done-callback stamped the
            # completion (set_result wakes waiters first) — fall back to
            # now, which is within the callback's own scheduling jitter.
            latency = completed_at.get(i, self._clock()) - submitted
            if queue_seconds is None:
                recorder.record(status, latency)
            else:
                recorder.record(status, latency, queue_seconds=queue_seconds)
        recorder.finish(self._clock() - started)
        return recorder.report()
