"""Erasure serving: the long-running daemon over the unlearning service.

The paper frames unlearning as an RSU-side *service*: vehicle
departures and attacker purges arrive as a sustained request stream,
not an offline batch job.  This package turns the library-call
:class:`~repro.unlearning.service.UnlearningService` into that service:

- :class:`ErasureDaemon` — thread-pool request loop with bounded
  admission (typed load shedding + retry-after hints), per-request
  deadlines propagated into the replay loop, a circuit breaker that
  degrades to serve-stale/queue-only under fault storms, and
  idempotent request keys so retries never double-erase.
- :class:`CircuitBreaker` — the closed/open/half-open fuse.
- :mod:`repro.serving.loadgen` — deterministic open-loop arrival
  schedules (steady, mass-GDPR burst, mixed train/erase) for the SLO
  harness (``make bench-slo``).
- :mod:`repro.serving.slo` — p50/p95/p99 latency, req/s, and shed-rate
  accounting in the run-table schema.

See ``docs/ARCHITECTURE.md`` ("Erasure serving daemon") for the
request lifecycle and ``docs/METRICS.md`` for the ``serving_*``
metric family.
"""

from repro.serving.breaker import CircuitBreaker
from repro.serving.daemon import DEGRADED_MODES, ErasureDaemon
from repro.serving.loadgen import (
    Arrival,
    LoadGenerator,
    SCHEDULES,
    mass_gdpr_schedule,
    mixed_schedule,
    steady_schedule,
)
from repro.serving.requests import (
    Deadline,
    DeadlineExceededError,
    ErasureRequest,
    RejectedError,
    ServiceResponse,
    ServingError,
)
from repro.serving.slo import SloRecorder, SloReport, percentile

__all__ = [
    "Arrival",
    "CircuitBreaker",
    "DEGRADED_MODES",
    "Deadline",
    "DeadlineExceededError",
    "ErasureDaemon",
    "ErasureRequest",
    "LoadGenerator",
    "RejectedError",
    "SCHEDULES",
    "ServiceResponse",
    "ServingError",
    "SloRecorder",
    "SloReport",
    "mass_gdpr_schedule",
    "mixed_schedule",
    "percentile",
    "steady_schedule",
]
