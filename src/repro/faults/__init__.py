"""Fault injection and resilience for the FL pipeline.

The paper's setting — vehicles joining, leaving, and dropping out of FL
at any time, with unlearning requests arriving long after training —
only holds together if the RSU survives the failures a real deployment
sees: clients crashing mid-round, corrupted updates (NaN/Inf, wrong
shapes, wildly mis-scaled gradients), stragglers missing the V2I round
deadline, the server process dying between rounds, and half-written
record files on disk.  This package provides both sides of that coin:

- **Injection** — :class:`FaultPlan` schedules deterministic,
  seed-reproducible client/server faults for a simulation run;
  :mod:`repro.faults.injection` corrupts update vectors and persisted
  files the way real failures do.
- **Defense** — :class:`UpdateValidator` is the server-side gate that
  quarantines bad updates before they reach aggregation;
  :class:`RetryPolicy` retries transient client failures with capped
  exponential backoff.

The round journal and the crash-safe record that complete the story
live in :mod:`repro.fl.journal` and :mod:`repro.fl.persistence`: one
append-only round log per record directory, CRC-checked per entry and
committed by an atomic marker swap.
"""

from repro.faults.injection import (
    ClientCrashError,
    ServerKilledError,
    TransientClientError,
    corrupt_update,
    truncate_file,
)
from repro.faults.plan import CORRUPTION_MODES, ClientFault, FaultPlan
from repro.faults.retry import RetryOutcome, RetryPolicy
from repro.faults.validation import (
    QuarantineEvent,
    UpdateValidator,
    ValidationResult,
)

__all__ = [
    "CORRUPTION_MODES",
    "ClientCrashError",
    "ClientFault",
    "FaultPlan",
    "QuarantineEvent",
    "RetryOutcome",
    "RetryPolicy",
    "ServerKilledError",
    "TransientClientError",
    "UpdateValidator",
    "ValidationResult",
    "corrupt_update",
    "truncate_file",
]
