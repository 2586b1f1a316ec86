"""Per-client recovery-estimation tasks for the parallel engine.

:func:`run_estimate` is the worker-side body of one client's Eq. 6 +
Eq. 7 step during recovery replay: the L-BFGS Hessian-vector product on
the round's displacement, the gradient estimate, and the element-wise
clip.  It runs the *same* compact-form arithmetic as the serial
:meth:`repro.unlearning.estimator.GradientEstimator.estimate`
(via :func:`repro.unlearning.lbfgs.compact_hvp`), so results are
bitwise identical regardless of which worker computes them.

The parent snapshots each client's buffer *before* the round
(:meth:`repro.unlearning.lbfgs.LbfgsBuffer.compact_state`) — exactly
the state the serial backend would have used, since refresh pairs are only
seeded after a client's own estimate — and performs all telemetry and
estimator bookkeeping itself from the returned numbers, so worker
processes/threads never touch the registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["EstimateResult", "EstimateTask", "run_estimate", "tasks_from_round"]


@dataclass
class EstimateTask:
    """One client's estimation payload for one replay round.

    ``state`` is the client's compact L-BFGS state ``(ΔW, ΔG, σ)`` or
    None for an empty buffer (Eq. 6 then degenerates to ``ḡ = g``);
    ``displacement`` is the round-shared ``w̄_t − w_t``.
    """

    client_id: int
    stored: np.ndarray
    state: Optional[Tuple[np.ndarray, np.ndarray, float]]
    displacement: np.ndarray
    clip_threshold: float


@dataclass
class EstimateResult:
    """The clipped estimate plus the numbers the parent re-emits as
    telemetry: clip rate (Eq. 7), drift vs the stored direction, the
    HVP's own duration, and the total task duration."""

    client_id: int
    estimate: np.ndarray
    clip_rate: float
    drift: float
    hvp_seconds: float
    duration_seconds: float


def tasks_from_round(
    present: Sequence[Tuple[int, np.ndarray]],
    estimators: Dict[int, object],
    displacement: np.ndarray,
    clip_threshold: float,
) -> List[EstimateTask]:
    """Build one :class:`EstimateTask` per ``(client, stored)`` pair.

    ``present`` is a replay round's decoded cohort in participant order
    (rows of a bulk :meth:`~repro.storage.store.GradientStore.get_round`
    read, or per-client decodes — the task is agnostic), ``estimators``
    maps client id to its
    :class:`~repro.unlearning.estimator.GradientEstimator`.  States are
    snapshotted here, *before* any refresh seeding, which is what keeps
    the fan-out bitwise identical to the serial backend.
    """
    return [
        EstimateTask(
            client_id=cid,
            stored=stored,
            state=estimators[cid].buffer.compact_state(),
            displacement=displacement,
            clip_threshold=clip_threshold,
        )
        for cid, stored in present
    ]


def run_estimate(task: EstimateTask) -> EstimateResult:
    """Worker body: Eq. 6 estimate + Eq. 7 clip for one client.

    Bitwise-matches the serial path: ``stored + H̃·displacement`` with
    the same :func:`~repro.unlearning.lbfgs.compact_hvp` kernel (a zero
    vector for an empty buffer), then the same
    :func:`~repro.unlearning.estimator.clip_elementwise`.  An int8
    ``stored`` row widens inside ``stored + hvp``, as in the serial path.
    """
    # Lazy imports: repro.unlearning.recovery imports this module, so a
    # top-level import here would close an import cycle.
    from repro.unlearning.estimator import clip_elementwise
    from repro.unlearning.lbfgs import compact_hvp

    start = time.perf_counter()
    stored = np.asarray(task.stored).ravel()
    displacement = np.asarray(task.displacement, dtype=np.float64).ravel()
    if stored.shape != displacement.shape:
        raise ValueError(
            f"gradient/displacement mismatch: {stored.shape} vs {displacement.shape}"
        )
    hvp_start = time.perf_counter()
    if task.state is None:
        hvp = np.zeros_like(displacement)
    else:
        dw, dg, sigma = task.state
        hvp = compact_hvp(dw, dg, sigma, displacement)
    hvp_seconds = time.perf_counter() - hvp_start
    raw = stored + hvp
    clipped = clip_elementwise(raw, task.clip_threshold)
    if raw.size:
        clip_rate = float(
            np.count_nonzero(np.abs(raw) > task.clip_threshold)
        ) / raw.size
        drift = float(np.linalg.norm(clipped - stored))
    else:
        clip_rate = 0.0
        drift = 0.0
    return EstimateResult(
        client_id=task.client_id,
        estimate=clipped,
        clip_rate=clip_rate,
        drift=drift,
        hvp_seconds=hvp_seconds,
        duration_seconds=time.perf_counter() - start,
    )
