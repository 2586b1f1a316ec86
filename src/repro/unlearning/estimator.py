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

A replay round runs Eq. 6/7 for its whole cohort through one kernel,
:func:`estimate_cohort`, which writes every client's estimate into one
``(K, d)`` block that the aggregation rule reads as is.  Row ``k`` is
bit for bit the per-client :meth:`GradientEstimator.estimate_displaced`
result (``docs/REPLAY.md``).

Telemetry: every estimate, per client or in a cohort, observes the
Eq. 7 clip rate (fraction of elements at ±L, ``recovery_clip_rate``)
and the estimated-vs-stored gradient drift ``‖g̃ − g‖₂``
(``recovery_estimate_drift``) — see ``docs/METRICS.md``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.core import current_telemetry
from repro.unlearning.lbfgs import LbfgsBuffer, solve_middle

__all__ = [
    "estimate_gradient",
    "clip_elementwise",
    "estimate_cohort",
    "GradientEstimator",
]

#: Rows of a cohort block taken through Eq. 6/7 together: about this many
#: bytes, so each block of rows stays in cache from ``wing·p`` to the clip.
_CHUNK_BYTES = 1 << 18


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


def estimate_cohort(
    cohort: Sequence[Tuple[GradientEstimator, np.ndarray]],
    displacement: np.ndarray,
    refresh: bool = False,
) -> np.ndarray:
    """Eq. 6/7 for one replay round's cohort, written into one block.

    ``cohort`` holds ``(estimator, stored row)`` per present client, all
    with one clip threshold, and ``displacement`` is the round's flat
    float64 ``w̄_t − w_t``.  Row ``k`` of the returned ``(K, d)`` float64
    block equals ``estimator.estimate_displaced(row, displacement)`` bit
    for bit, with the same counters and telemetry; with ``refresh``
    every estimator then adopts ``(displacement, row_k − stored)``, as
    the refresh step's :meth:`GradientEstimator.refresh_pair` does.

    Only call shapes that repeat the per-client arithmetic are used
    (``docs/REPLAY.md``): ``ΔGᵀv``, ``ΔWᵀv`` and ``wing·p`` stay
    one-vector products written in place, the middle systems of one pair
    count go through one stacked ``solve`` (a loop of the same ``gesv``),
    and ``σv − wing·p + stored`` and the clip are element-wise over
    blocks of rows small enough to stay in cache.
    """
    v = displacement
    telemetry = current_telemetry()
    started = time.perf_counter()
    rows: List[np.ndarray] = []
    forms: List[Optional[Tuple]] = []
    groups: Dict[int, List[int]] = {}  # client indices by pair count
    for k, (est, stored) in enumerate(cohort):
        row = np.asarray(stored).ravel()
        if row.shape != v.shape:
            raise ValueError(
                f"gradient/displacement mismatch: {row.shape} vs {v.shape}"
            )
        form = est.buffer.compact_form()
        if form is not None:
            if form[0].shape[0] != v.size:
                raise ValueError(
                    f"vector has {v.size} elements, pairs have {form[0].shape[0]}"
                )
            groups.setdefault(form[0].shape[1], []).append(k)
        rows.append(row)
        forms.append(form)
    if len({est.clip_threshold for est, _ in cohort}) > 1:
        raise ValueError("a cohort's estimators must share one clip threshold")
    block = np.zeros((len(cohort), v.size))
    if not cohort:
        return block
    limit = cohort[0][0].clip_threshold
    sigma = np.array([[0.0 if f is None else f[2]] for f in forms])
    products: List[Optional[np.ndarray]] = [None] * len(cohort)  # p = M⁻¹·rhs
    for s, members in groups.items():
        rhs = np.empty((len(members), 2 * s, 1))
        for j, k in enumerate(members):
            np.matmul(forms[k][1].T, v, out=rhs[j, :s, 0])
            np.matmul(forms[k][0].T, v, out=rhs[j, s:, 0])
        rhs[:, s:, 0] *= sigma[members]
        middles = np.stack([forms[k][3] for k in members])
        try:
            p = np.linalg.solve(middles, rhs)[..., 0]
        except np.linalg.LinAlgError:
            # One singular middle fails the stack: solve the group one
            # system at a time, with compact_hvp's least-squares fallback.
            p = [solve_middle(m, r) for m, r in zip(middles, rhs[..., 0])]
        for j, k in enumerate(members):
            products[k] = p[j]
    stored = np.concatenate(rows).reshape(block.shape)
    clip_rates = np.zeros(len(cohort))
    step = max(1, _CHUNK_BYTES // (8 * v.size)) if v.size else len(cohort)
    for lo in range(0, len(cohort), step):
        chunk = block[lo : lo + step]
        for k, p in enumerate(products[lo : lo + step], lo):
            if p is not None:
                np.matmul(forms[k][4], p, out=block[k])
        np.subtract(np.multiply(v, sigma[lo : lo + step]), chunk, out=chunk)
        for k, p in enumerate(products[lo : lo + step], lo):
            if p is None:
                block[k] = 0.0  # H̃ = 0 exactly, whatever 0·v came to
        chunk += stored[lo : lo + step]
        if telemetry.enabled:
            clip_rates[lo : lo + step] = np.count_nonzero(
                np.abs(chunk) > limit, axis=1
            )
        np.clip(chunk, -limit, limit, out=chunk)
    if telemetry.enabled:
        share = (time.perf_counter() - started) / len(cohort)
        telemetry.inc("lbfgs_hvp_total", len(cohort))
        drifts = np.linalg.norm(block - stored, axis=1)
        for rate, drift in zip(clip_rates, drifts):
            telemetry.observe("lbfgs_hvp_seconds", share)
            if v.size:
                telemetry.observe("recovery_clip_rate", float(rate) / v.size)
                telemetry.observe("recovery_estimate_drift", float(drift))
    for k, (est, _) in enumerate(cohort):
        est.estimates_made += 1
        if refresh:
            est.refresh_pair(v, block[k] - rows[k])
    return block
