"""Server-side update validation — the quarantine gate.

The RSU must never let a mangled update reach aggregation *or* the
gradient store: one NaN poisons the global model for every future
round, and a corrupt stored gradient silently breaks unlearning months
later.  :class:`UpdateValidator` checks each incoming update for

1. **finiteness** — no NaN/Inf elements,
2. **shape** — a flat vector of exactly the model's dimension,
3. **magnitude** — an L2 norm within ``max_norm`` (absolute cap) and
   within ``relative_factor ×`` the median norm of the *reference
   pool*: the norms of the other structurally-valid updates of the same
   round plus recently accepted history.  Using the round cohort means
   a wildly mis-scaled update is caught even at round 0, when no
   history exists yet — the one moment a history-only burn-in check is
   blind and a single huge update would destroy the model.

A rejected update is *quarantined*: the server records the client as a
dropout for the round (so the membership ledger and gradient store stay
consistent) and logs a :class:`QuarantineEvent`.  The validator's norm
history is part of the simulation's journaled state — a resumed run
makes identical accept/reject decisions.

Telemetry: every :meth:`UpdateValidator.check_round` counts its
verdicts into ``faults_validation_total{verdict=ok|rejected}`` — see
``docs/METRICS.md``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.telemetry.core import current_telemetry

__all__ = ["UpdateValidator", "ValidationResult", "QuarantineEvent"]


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of checking one update: ``ok`` plus a human-readable reason."""

    ok: bool
    reason: str = ""


@dataclass(frozen=True)
class QuarantineEvent:
    """One rejected update: which round, which client, and why."""

    round_index: int
    client_id: int
    reason: str


class UpdateValidator:
    """Structural and statistical checks on client updates.

    Parameters
    ----------
    max_norm:
        Absolute L2-norm cap; ``None`` disables the absolute check.
    relative_factor:
        Adaptive cap: reject when the norm exceeds ``relative_factor ×``
        the median of the reference pool (round cohort + history).
    window:
        How many accepted norms the running history retains.
    min_pool:
        Reference-pool size required before the adaptive check engages
        (a lone update with no history has nothing to be compared to).
    """

    def __init__(
        self,
        max_norm: Optional[float] = None,
        relative_factor: float = 25.0,
        window: int = 64,
        min_pool: int = 3,
    ):
        if max_norm is not None and max_norm <= 0:
            raise ValueError("max_norm must be positive when given")
        if relative_factor <= 1:
            raise ValueError("relative_factor must be > 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        if min_pool < 2:
            raise ValueError("min_pool must be >= 2")
        self.max_norm = max_norm
        self.relative_factor = relative_factor
        self.window = window
        self.min_pool = min_pool
        self._norms: Deque[float] = deque(maxlen=window)

    # ------------------------------------------------------------------
    def _structural(self, update: np.ndarray, expected_dim: int) -> ValidationResult:
        """Shape and finiteness — the checks that need no statistics."""
        arr = np.asarray(update)
        if arr.ndim != 1:
            return ValidationResult(
                False, f"expected a flat vector, got shape {arr.shape}"
            )
        if arr.size != expected_dim:
            return ValidationResult(
                False, f"wrong dimension: got {arr.size}, expected {expected_dim}"
            )
        if not np.isfinite(arr).all():
            bad = int(np.count_nonzero(~np.isfinite(np.asarray(arr, dtype=np.float64))))
            return ValidationResult(False, f"{bad} non-finite element(s)")
        return ValidationResult(True)

    def check_round(
        self, updates: Dict[int, np.ndarray], expected_dim: int
    ) -> Dict[int, ValidationResult]:
        """Validate a whole round's updates jointly.

        Structural checks run per update; the norm check compares each
        survivor against the median of the *other* survivors' norms plus
        the accepted history (so one mis-scaled update cannot vouch for
        itself, and a clean majority convicts it even at round 0).
        Accepted norms join the history; rejected ones never do.
        """
        if expected_dim <= 0:
            raise ValueError("expected_dim must be positive")
        results: Dict[int, ValidationResult] = {}
        norms: Dict[int, float] = {}
        for cid in sorted(updates):
            verdict = self._structural(updates[cid], expected_dim)
            if verdict.ok:
                norms[cid] = float(
                    np.linalg.norm(np.asarray(updates[cid], dtype=np.float64))
                )
            results[cid] = verdict
        history = list(self._norms)
        for cid, norm in norms.items():
            if self.max_norm is not None and norm > self.max_norm:
                results[cid] = ValidationResult(
                    False, f"norm {norm:.3g} exceeds absolute cap {self.max_norm:.3g}"
                )
                continue
            pool = history + [n for c, n in norms.items() if c != cid]
            if len(pool) >= self.min_pool:
                median = float(np.median(pool))
                if median > 0 and norm > self.relative_factor * median:
                    results[cid] = ValidationResult(
                        False,
                        f"norm {norm:.3g} exceeds {self.relative_factor:g}x "
                        f"reference median {median:.3g}",
                    )
        for cid, norm in norms.items():
            if results[cid].ok:
                self._norms.append(norm)
        telemetry = current_telemetry()
        if telemetry.enabled:
            ok = sum(1 for v in results.values() if v.ok)
            rejected = len(results) - ok
            if ok:
                telemetry.inc("faults_validation_total", ok, verdict="ok")
            if rejected:
                telemetry.inc("faults_validation_total", rejected, verdict="rejected")
        return results

    # ------------------------------------------------------------------
    # journal support — the norm history is simulation state
    # ------------------------------------------------------------------
    def observed_norms(self) -> List[float]:
        """The accepted-norm history (oldest first), for journaling."""
        return [float(n) for n in self._norms]

    def restore_norms(self, norms: List[float]) -> None:
        """Replace the norm history (journal resume)."""
        self._norms = deque((float(n) for n in norms), maxlen=self.window)
