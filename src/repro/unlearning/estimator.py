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
``(K, d)`` block that the aggregation rule reads as is, from the
cohort's L-BFGS forms stacked once in a :class:`CohortForm`.  Row ``k``
is bit for bit the per-client
:meth:`GradientEstimator.estimate_displaced` result (``docs/REPLAY.md``).

Telemetry: every estimate, per client or in a cohort, observes the
Eq. 7 clip rate (fraction of elements at ±L, ``recovery_clip_rate``)
and the estimated-vs-stored gradient drift ``‖g̃ − g‖₂``
(``recovery_estimate_drift``) — see ``docs/METRICS.md``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.core import current_telemetry
from repro.unlearning.lbfgs import LbfgsBuffer, solve_middle, stack_compact_forms

__all__ = [
    "estimate_gradient",
    "clip_elementwise",
    "CohortForm",
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


class CohortForm:
    """A cohort's compact L-BFGS forms as stacked arrays, one group per
    pair count.

    Built from ``{key: estimator}`` (a replay node's estimators by
    client id): each group holds :func:`stack_compact_forms` of its
    buffers, rows in key order; clients with no pairs are in no group.
    The arrays are never written after the build, so a fork's children
    share one form; a change to any estimator's pairs (refresh, seeding,
    restore) calls for a new one.
    """

    def __init__(self, estimators: Mapping[int, GradientEstimator]):
        by_count: Dict[int, List[int]] = {}
        for key in sorted(estimators):
            by_count.setdefault(len(estimators[key].buffer), []).append(key)
        by_count.pop(0, None)  # no pairs: H̃ = 0, in no group
        groups = [keys for _, keys in sorted(by_count.items())]
        self.groups = [
            stack_compact_forms([estimators[key].buffer for key in keys])
            for keys in groups
        ]
        self._where = {
            key: (g, r) for g, keys in enumerate(groups) for r, key in enumerate(keys)
        }
        self._plans: Dict[Tuple[int, ...], List[Tuple]] = {}

    def plan(self, keys: Tuple[int, ...]) -> List[Tuple]:
        """For a block whose row ``i`` is ``keys[i]``: per group, its
        form, the stack rows of the keys present and their block rows —
        each a slice when contiguous, else an index array.  Cached."""
        plan = self._plans.get(keys)
        if plan is None:
            picks: Dict[int, Tuple[List[int], List[int]]] = {}
            for i, key in enumerate(keys):
                if key in self._where:
                    g, r = self._where[key]
                    picks.setdefault(g, ([], []))[0].append(r)
                    picks[g][1].append(i)
            plan = self._plans[keys] = [
                (self.groups[g], _index(rows), _index(at))
                for g, (rows, at) in sorted(picks.items())
            ]
        return plan


def _index(ids: List[int]):
    if ids == list(range(ids[0], ids[0] + len(ids))):
        return slice(ids[0], ids[0] + len(ids))
    return np.array(ids)


def estimate_cohort(
    cohort: Sequence[Tuple[GradientEstimator, np.ndarray]],
    displacement: np.ndarray,
    refresh: bool = False,
    plan: Optional[List[Tuple]] = None,
) -> np.ndarray:
    """Eq. 6/7 for one replay round's cohort, written into one block.

    ``cohort`` holds ``(estimator, stored row)`` per present client, all
    with one clip threshold, and ``displacement`` is the round's flat
    float64 ``w̄_t − w_t``.  ``plan`` is :meth:`CohortForm.plan` of a
    form over these estimators for the cohort's keys (a replay node
    keeps one form across rounds); without it a form is built here.
    Row ``k`` of the returned ``(K, d)`` float64 block equals
    ``estimator.estimate_displaced(row, displacement)`` bit for bit,
    with the same counters and telemetry; with ``refresh`` every
    estimator then adopts ``(displacement, row_k − stored)``, as the
    refresh step's :meth:`GradientEstimator.refresh_pair` does.

    Only call shapes that repeat the per-client arithmetic are used
    (``docs/REPLAY.md``): per pair-count group, ``ΔGᵀv``, ``ΔWᵀv`` and
    ``wing·p`` are stacked matrix-vector products over same-layout
    slices (a loop of the per-client ``gemv``), the middle systems go
    through one stacked ``solve`` (a loop of the same ``gesv``), and
    ``σv − wing·p + stored`` and the clip are element-wise over blocks
    of rows small enough to stay in cache.
    """
    v = displacement
    telemetry = current_telemetry()
    started = time.perf_counter()
    rows = [np.asarray(stored).ravel() for _, stored in cohort]
    for row in rows:
        if row.shape != v.shape:
            raise ValueError(
                f"gradient/displacement mismatch: {row.shape} vs {v.shape}"
            )
    if len({est.clip_threshold for est, _ in cohort}) > 1:
        raise ValueError("a cohort's estimators must share one clip threshold")
    block = np.zeros((len(cohort), v.size))
    if not cohort:
        return block
    if plan is None:
        form = CohortForm(dict(enumerate(est for est, _ in cohort)))
        plan = form.plan(tuple(range(len(cohort))))
    limit = cohort[0][0].clip_threshold
    sigma = np.zeros((len(cohort), 1))
    empty = np.ones(len(cohort), dtype=bool)  # H̃ = 0 exactly
    for (dw, which, dg, sig, middle, wing), take, at in plan:
        if dg.shape[1] != v.size:
            raise ValueError(
                f"vector has {v.size} elements, pairs have {dg.shape[1]}"
            )
        s, sg = dg.shape[2], sig[take]
        sigma[at, 0] = sg
        empty[at] = False
        rhs = np.empty((sg.size, 2 * s, 1))
        np.matmul(dg[take].transpose(0, 2, 1), v, out=rhs[:, :s, 0])
        dwv = np.matmul(dw.transpose(0, 2, 1), v)  # once per distinct ΔW
        np.multiply(dwv[which[take]], sg[:, None], out=rhs[:, s:, 0])
        try:
            p = np.linalg.solve(middle[take], rhs)
        except np.linalg.LinAlgError:
            # One singular middle fails the stack: solve the group one
            # system at a time, with compact_hvp's least-squares fallback.
            p = np.stack(
                [solve_middle(m, r) for m, r in zip(middle[take], rhs[..., 0])]
            )[..., None]
        if isinstance(at, slice):
            np.matmul(wing[take], p, out=block[at, :, None])
        else:
            block[at] = np.matmul(wing[take], p)[..., 0]
    stored = np.concatenate(rows).reshape(block.shape)
    clip_rates = np.zeros(len(cohort))
    step = max(1, _CHUNK_BYTES // (8 * v.size)) if v.size else len(cohort)
    for lo in range(0, len(cohort), step):
        chunk = block[lo : lo + step]
        np.subtract(np.multiply(v, sigma[lo : lo + step]), chunk, out=chunk)
        chunk[empty[lo : lo + step]] = 0.0
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
