"""Gradient estimation (Eq. 6) and error limiting (Eq. 7).

During recovery the server never contacts clients; it estimates what
client ``i`` *would* have reported at the recovered model ``w̄_t`` from
what it *did* report at the historical model ``w_t``:

    ḡ_t^i = g_t^i + H̃_t^i · (w̄_t − w_t)                      (Eq. 6)

and bounds the estimation error by element-wise clipping:

    g̃_t^i = ḡ_t^i / max(1, |ḡ_t^i| / L)                       (Eq. 7)

Note Eq. 7 is applied *per element* (the paper's |·| "denotes the
absolute value of gradient elements"): each element with magnitude
above ``L`` is scaled down to exactly ``±L``; smaller elements pass
through unchanged.

Telemetry: every :meth:`GradientEstimator.estimate` observes the Eq. 7
clip rate (fraction of elements at ±L, ``recovery_clip_rate``) and the
estimated-vs-stored gradient drift ``‖g̃ − g‖₂``
(``recovery_estimate_drift``) — see ``docs/METRICS.md``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.telemetry.core import current_telemetry
from repro.unlearning.lbfgs import LbfgsBuffer

__all__ = ["estimate_gradient", "clip_elementwise", "GradientEstimator"]


def estimate_gradient(
    stored_gradient: np.ndarray,
    buffer: LbfgsBuffer,
    recovered_params: np.ndarray,
    historical_params: np.ndarray,
) -> np.ndarray:
    """Eq. 6: ``ḡ = g + H̃ (w̄ − w)`` with H̃ from the client's buffer."""
    stored_gradient = np.asarray(stored_gradient, dtype=np.float64).ravel()
    displacement = np.asarray(recovered_params, dtype=np.float64).ravel() - np.asarray(
        historical_params, dtype=np.float64
    ).ravel()
    if stored_gradient.shape != displacement.shape:
        raise ValueError(
            f"gradient/displacement mismatch: {stored_gradient.shape} vs "
            f"{displacement.shape}"
        )
    return stored_gradient + buffer.hvp(displacement)


def clip_elementwise(gradient: np.ndarray, threshold: float) -> np.ndarray:
    """Eq. 7: scale each element with ``|x| > L`` down to ``±L``.

    Equivalent to ``x / max(1, |x|/L)`` evaluated element-wise, i.e.
    ``np.clip(x, -L, L)``.
    """
    if threshold <= 0:
        raise ValueError(f"clip threshold must be positive, got {threshold}")
    gradient = np.asarray(gradient, dtype=np.float64)
    return np.clip(gradient, -threshold, threshold)


class GradientEstimator:
    """Per-client estimation state: an L-BFGS buffer plus Eq. 6/7 glue.

    One estimator exists per remaining client during recovery; the
    recovery loop feeds it vector pairs (seeding from pre-``F`` history,
    refreshing from recovery rounds) and asks for clipped estimates.
    :meth:`state` / :meth:`from_state` are how snapshots, forest
    restores and fused forks carry it around without copying a pair.
    """

    def __init__(self, buffer_size: int = 2, clip_threshold: float = 1.0):
        self.buffer = LbfgsBuffer(buffer_size=buffer_size)
        if clip_threshold <= 0:
            raise ValueError("clip_threshold must be positive")
        self.clip_threshold = clip_threshold
        self.estimates_made = 0
        self.pairs_accepted = 0
        self.pairs_rejected = 0

    def seed_pair(self, delta_w: np.ndarray, delta_g: np.ndarray) -> bool:
        """Add a copy of a vector pair; tracks accept/reject statistics."""
        return self._count(self.buffer.add_pair(delta_w, delta_g))

    def refresh_pair(self, displacement: np.ndarray, delta_g: np.ndarray) -> bool:
        """:meth:`seed_pair` for the replay's own temporaries (seeding
        and the refresh step): adopted, not copied — one frozen ``Δw``
        serves a whole cohort."""
        return self._count(self.buffer.adopt_pair(displacement, delta_g))

    def _count(self, accepted: bool) -> bool:
        if accepted:
            self.pairs_accepted += 1
        else:
            self.pairs_rejected += 1
        return accepted

    def state(self) -> Tuple:
        """``(pairs, estimates_made, pairs_accepted, pairs_rejected)`` —
        what a replay snapshot keeps; the (frozen) pairs by reference."""
        return (
            self.buffer.pairs(),
            self.estimates_made,
            self.pairs_accepted,
            self.pairs_rejected,
        )

    @classmethod
    def from_state(
        cls, state: Tuple, buffer_size: int, clip_threshold: float
    ) -> "GradientEstimator":
        """An estimator equal to the one :meth:`state` came from."""
        pairs, made, accepted, rejected = state
        est = cls(buffer_size=buffer_size, clip_threshold=clip_threshold)
        est.buffer.adopt_pairs(pairs)
        est.estimates_made = int(made)
        est.pairs_accepted = int(accepted)
        est.pairs_rejected = int(rejected)
        return est

    def estimate(
        self,
        stored_gradient: np.ndarray,
        recovered_params: np.ndarray,
        historical_params: np.ndarray,
    ) -> np.ndarray:
        """Eq. 6 followed by Eq. 7."""
        displacement = np.asarray(recovered_params, dtype=np.float64).ravel() - (
            np.asarray(historical_params, dtype=np.float64).ravel()
        )
        return self.estimate_displaced(stored_gradient, displacement)

    def estimate_displaced(
        self, stored_gradient: np.ndarray, displacement: np.ndarray
    ) -> np.ndarray:
        """Eq. 6/7 with a precomputed ``w̄_t − w_t``.

        The displacement is identical for every client in a round, so
        the recovery loop computes it once and calls this for each
        client instead of re-deriving it per estimator.  The stored
        direction may be an int8 ``get_round`` row: ``stored + hvp``
        widens it per element, with no float64 copy of the row.
        """
        stored = np.asarray(stored_gradient).ravel()
        displacement = np.asarray(displacement, dtype=np.float64).ravel()
        if stored.shape != displacement.shape:
            raise ValueError(
                f"gradient/displacement mismatch: {stored.shape} vs "
                f"{displacement.shape}"
            )
        raw = stored + self.buffer.hvp(displacement)
        self.estimates_made += 1
        clipped = clip_elementwise(raw, self.clip_threshold)
        telemetry = current_telemetry()
        if telemetry.enabled and raw.size:
            clip_rate = float(
                np.count_nonzero(np.abs(raw) > self.clip_threshold)
            ) / raw.size
            telemetry.observe("recovery_clip_rate", clip_rate)
            telemetry.observe(
                "recovery_estimate_drift", float(np.linalg.norm(clipped - stored))
            )
        return clipped
