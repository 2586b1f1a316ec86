"""Fault injectors: mangled updates, dying processes, rotting files.

Three failure surfaces are modelled:

- **Update corruption** — :func:`corrupt_update` produces the payloads
  a buggy or Byzantine vehicle would upload (NaN/Inf elements, wrong
  shapes, mis-scaled or garbage vectors).
- **Process failure** — :class:`ClientCrashError` /
  :class:`TransientClientError` signal a client dying for the round vs.
  failing retryably; :class:`ServerKilledError` is the simulated
  power-cut the round journal exists to survive.
- **Per-client round faults** — :func:`flaky_attempts` and
  :func:`apply_fault` are what
  :class:`~repro.fl.simulation.FederatedSimulation` runs around each
  training round's cohort pass: flaky retries before it, crash /
  straggle / corrupt on every row after it.
- **Disk corruption** — :func:`truncate_file` tears a persisted
  record's file the way a crashed writer does, for testing
  :class:`~repro.fl.persistence.RecordCorruptionError` handling.

Injectors never touch global state: every randomized corruption takes
an explicit :class:`numpy.random.Generator` (usually
:meth:`~repro.faults.plan.FaultPlan.corruption_rng`, so the damage is
reproducible per fault site).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.faults.plan import ClientFault

if TYPE_CHECKING:  # retry imports this module
    from repro.faults.retry import RetryPolicy

__all__ = [
    "ClientCrashError",
    "TransientClientError",
    "ServerKilledError",
    "FAULT_STAT_KEYS",
    "apply_fault",
    "corrupt_update",
    "flaky_attempts",
    "truncate_file",
]


class ClientCrashError(RuntimeError):
    """The client died for this round; its update is lost (a dropout)."""


class TransientClientError(RuntimeError):
    """A retryable client failure (flaky compute, momentary disconnect)."""


class ServerKilledError(RuntimeError):
    """The simulated RSU process was killed between rounds.

    Raised by :meth:`repro.fl.simulation.FederatedSimulation.run` after
    the round's journal commit, so resuming from the journal loses
    nothing.  Carries the last completed round in ``round_index``.
    """

    def __init__(self, round_index: int):
        super().__init__(f"server killed after completing round {round_index}")
        self.round_index = int(round_index)


# ----------------------------------------------------------------------
# update corruption
# ----------------------------------------------------------------------
def corrupt_update(
    update: np.ndarray, mode: str, rng: np.random.Generator
) -> np.ndarray:
    """Return a corrupted copy of ``update`` (the input is not mutated).

    Modes (see :data:`repro.faults.plan.CORRUPTION_MODES`):

    - ``"nan"`` — a random ~10 % of elements become NaN;
    - ``"inf"`` — a random ~10 % of elements become ±Inf;
    - ``"shape"`` — the vector is truncated or padded to a wrong length;
    - ``"scale"`` — the vector is scaled by a huge factor (1e4 … 1e8);
    - ``"garbage"`` — replaced by heavy-tailed noise of the same shape.
    """
    update = np.asarray(update, dtype=np.float64).ravel()
    n = update.size
    if n == 0:
        raise ValueError("cannot corrupt an empty update")
    if mode == "nan":
        out = update.copy()
        idx = rng.random(n) < 0.1
        if not idx.any():
            idx[int(rng.integers(n))] = True
        out[idx] = np.nan
        return out
    if mode == "inf":
        out = update.copy()
        idx = rng.random(n) < 0.1
        if not idx.any():
            idx[int(rng.integers(n))] = True
        out[idx] = np.where(rng.random(int(idx.sum())) < 0.5, np.inf, -np.inf)
        return out
    if mode == "shape":
        if rng.random() < 0.5 and n > 1:
            return update[: max(1, n // 2)].copy()
        return np.concatenate([update, update[: max(1, n // 4)]])
    if mode == "scale":
        factor = float(10.0 ** rng.uniform(4.0, 8.0))
        return update * factor
    if mode == "garbage":
        return rng.standard_cauchy(n) * 1e3
    raise ValueError(f"unknown corruption mode {mode!r}")


# ----------------------------------------------------------------------
# per-client round faults
# ----------------------------------------------------------------------
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
    fault: Optional[ClientFault], policy: "RetryPolicy", stats: Dict[str, int]
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


# ----------------------------------------------------------------------
# disk faults
# ----------------------------------------------------------------------
def truncate_file(path: str, keep_fraction: float = 0.5) -> int:
    """Truncate ``path`` to ``keep_fraction`` of its bytes (a torn write).

    Returns the new size in bytes.  ``keep_fraction`` of 0 empties the
    file, mimicking an ``open()`` that crashed before any data hit disk.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError(f"keep_fraction must be in [0, 1), got {keep_fraction}")
    size = os.path.getsize(path)
    keep = int(size * keep_fraction)
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return keep
