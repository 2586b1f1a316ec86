"""Per-client fault handling around the training round's cohort pass.

:meth:`repro.fl.simulation.FederatedSimulation` runs
:func:`flaky_attempts` for every participant before the round's cohort
pass and :func:`apply_fault` on every row after it.  Neither draws from
a client's RNG stream, so the pass sees exactly the draws an unfaulted
client would make.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.faults.injection import corrupt_update
from repro.faults.plan import ClientFault
from repro.faults.retry import RetryPolicy

__all__ = ["FAULT_STAT_KEYS", "apply_fault", "flaky_attempts"]

FAULT_STAT_KEYS = (
    "crashes",
    "corrupted",
    "stragglers_dropped",
    "stragglers_met",
    "retries",
    "gave_up",
)
"""Fault-bookkeeping keys; mirrors the simulation's ``fault_stats``."""


def flaky_attempts(
    fault: Optional[ClientFault], policy: RetryPolicy, stats: Dict[str, int]
) -> bool:
    """Whether a client gets to its gradient pass: a flaky fault fails
    ``fault.failures`` attempts first, retried under ``policy`` (the
    failures draw no random numbers, so only the attempt that succeeds
    consumes the client's RNG stream).  Retries and give-ups are counted
    into ``stats``; no telemetry, no backoff wait."""
    failures = fault.failures if fault is not None and fault.kind == "flaky" else 0
    stats["retries"] += min(failures, policy.max_attempts - 1)
    if failures < policy.max_attempts:
        return True
    stats["gave_up"] += 1
    return False


def apply_fault(
    fault: Optional[ClientFault],
    update: np.ndarray,
    stats: Dict[str, int],
    deadline: Optional[float] = None,
    corruption_rng: Optional[np.random.Generator] = None,
) -> Optional[np.ndarray]:
    """``update`` after its crash, straggle (past ``deadline``) or
    corrupt fault, counted into ``stats``: None when the update is lost,
    ``update`` itself unless corrupted."""
    if fault is None or fault.kind == "flaky":
        return update
    if fault.kind == "crash":
        stats["crashes"] += 1
        return None
    if fault.kind == "straggle":
        assert deadline is not None
        if fault.delay_seconds > deadline:
            stats["stragglers_dropped"] += 1
            return None
        stats["stragglers_met"] += 1
        return update
    if fault.kind == "corrupt":
        stats["corrupted"] += 1
        assert fault.mode is not None and corruption_rng is not None
        return corrupt_update(update, fault.mode, corruption_rng)
    raise AssertionError(f"unhandled fault kind {fault.kind}")  # pragma: no cover
