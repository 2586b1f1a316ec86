"""Malicious-client detection from the stored training history.

The paper's poisoning-recovery scenario starts from "once the attacker
is detected" (§I); this module supplies that detector, operating
*offline* on exactly what the unlearning server already stores —
including the 2-bit sign directions.

The score is **majority-sign disagreement** (Auror/sign-statistics
style).  Per round, the element-wise majority direction of all received
updates approximates the honest descent direction; a data poisoner
(label flip, backdoor) must consistently push a subset of coordinates
*against* that majority to implant its objective.  A client's score is
its mean fraction of elements disagreeing with the round majority.
Works directly on ternary directions, i.e. under the paper's storage
scheme.

Flagging compares each score with the benign median plus a
minimum-margin guard, so a clean federation flags nobody.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.fl.history import TrainingRecord
from repro.storage.store import SignGradientStore
from repro.storage.sign_codec import ternarize

__all__ = [
    "DetectionReport",
    "client_suspicion_scores",
    "detect_malicious_clients",
]


@dataclass
class DetectionReport:
    """Outcome of one detection pass.

    Attributes
    ----------
    scores:
        ``client_id -> suspicion score`` (higher = more suspicious).
    flagged:
        Clients whose score exceeds ``threshold``, sorted.
    threshold:
        The benign median plus the margin (``inf`` with fewer than
        three clients).
    rounds_used:
        How many rounds contributed to the scores.
    """

    scores: Dict[int, float]
    flagged: List[int]
    threshold: float
    rounds_used: int
    details: Dict[str, float] = field(default_factory=dict)

    def precision_recall(self, true_malicious: List[int]) -> Tuple[float, float]:
        """Evaluate against ground truth (experiments only)."""
        truth = set(true_malicious)
        flagged = set(self.flagged)
        if not flagged:
            return (1.0 if not truth else 0.0), (1.0 if not truth else 0.0)
        tp = len(flagged & truth)
        precision = tp / len(flagged)
        recall = tp / len(truth) if truth else 1.0
        return precision, recall


def _direction_of(record: TrainingRecord, t: int, cid: int) -> np.ndarray:
    """The stored update as a ternary direction vector.

    Sign stores already hold directions; full stores are ternarized on
    the fly so the detector sees the same representation either way.
    """
    gradient = record.gradients.get(t, cid)
    if isinstance(record.gradients, SignGradientStore):
        return gradient
    return ternarize(gradient, 0.0).astype(np.float64)


def client_suspicion_scores(
    record: TrainingRecord, min_participants: int = 3
) -> Tuple[Dict[int, float], int]:
    """Majority-sign disagreement score per client.

    Returns ``(scores, rounds_used)``.  Rounds with fewer than
    ``min_participants`` contributors are skipped (no meaningful
    majority).  Clients never scored default to 0.
    """
    if min_participants < 2:
        raise ValueError("min_participants must be >= 2")
    totals: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    rounds_used = 0
    for t in range(record.num_rounds):
        # Restrict to participants whose update is still stored —
        # already-erased clients have been purged from the store.
        participants = [
            cid
            for cid in record.ledger.participants_at(t)
            if record.gradients.has(t, cid)
        ]
        if len(participants) < min_participants:
            continue
        rounds_used += 1
        directions = np.stack([_direction_of(record, t, cid) for cid in participants])
        majority = np.sign(directions.sum(axis=0))
        for row, cid in zip(directions, participants):
            disagreement = float(np.mean(row != majority))
            totals[cid] = totals.get(cid, 0.0) + disagreement
            counts[cid] = counts.get(cid, 0) + 1
    scores = {
        cid: (totals[cid] / counts[cid] if cid in counts else 0.0)
        for cid in record.ledger.known_clients()
    }
    return scores, rounds_used


def detect_malicious_clients(
    record: TrainingRecord,
    z_threshold: float = 1.5,
    abs_margin: float = 0.03,
    min_participants: int = 3,
) -> DetectionReport:
    """Score all clients (majority-sign disagreement) and flag outliers.

    A client is flagged when its score exceeds the benign median by
    ``max(abs_margin, z_threshold * 1.4826 * MAD)``:

    - ``abs_margin`` is the primary criterion: measured across seeds,
      data poisoners sit 0.04-0.08 disagreement above the median while
      the largest benign outlier stays below ~0.025, so the default
      0.03 separates them;
    - the MAD-scaled term widens the threshold when benign scores are
      legitimately dispersed (e.g. non-IID data), protecting against
      false positives in wide-spread regimes.

    The median and MAD are robust to the paper's 20 % malicious
    fraction (both stay benign-dominated).
    """
    if z_threshold <= 0:
        raise ValueError("z_threshold must be positive")
    if abs_margin < 0:
        raise ValueError("abs_margin must be non-negative")
    scores, rounds_used = client_suspicion_scores(
        record, min_participants=min_participants
    )
    ids = sorted(scores)
    values = np.array([scores[cid] for cid in ids])
    flagged: List[int] = []
    threshold = float("inf")
    if values.size >= 3:
        median = float(np.median(values))
        mad = float(np.median(np.abs(values - median)))
        spread = 1.4826 * mad
        threshold = median + max(abs_margin, z_threshold * spread)
        flagged = [cid for cid, v in zip(ids, values) if v > threshold]
    return DetectionReport(
        scores=scores,
        flagged=flagged,
        threshold=float(threshold),
        rounds_used=rounds_used,
        details={
            "score_mean": float(values.mean()) if values.size else 0.0,
            "score_std": float(values.std()) if values.size else 0.0,
            "score_median": float(np.median(values)) if values.size else 0.0,
        },
    )
