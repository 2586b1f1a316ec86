"""Retraining-from-scratch baseline (§V-A.3).

"The server removes the pending forgetting client and retrains a new
model from scratch.  The training process will last 100 rounds to
ensure a robust comparison."

This is the gold standard for unlearning quality — the model provably
contains no influence of the forgotten clients — and the cost ceiling:
every remaining client must recompute a gradient every round.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.fl.aggregation import AGGREGATORS
from repro.fl.client import VehicleClient, cohort_updates
from repro.fl.history import TrainingRecord
from repro.nn.model import Sequential
from repro.unlearning.base import (
    ClientsRequiredError,
    ModelFactory,
    UnlearnResult,
    UnlearningMethod,
    remaining_ids,
)

__all__ = ["RetrainUnlearner"]


class RetrainUnlearner(UnlearningMethod):
    """Fresh-initialization retraining on the remaining clients.

    Parameters
    ----------
    num_rounds:
        Retraining length; ``None`` replays the record's round count
        (the paper retrains for the full 100 rounds).
    """

    name = "retrain"

    def __init__(self, num_rounds: Optional[int] = None):
        if num_rounds is not None and num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        self.num_rounds = num_rounds

    def unlearn(
        self,
        record: TrainingRecord,
        forget_ids: Sequence[int],
        model: Sequential,
        clients: Optional[Dict[int, VehicleClient]] = None,
        model_factory: Optional[ModelFactory] = None,
    ) -> UnlearnResult:
        if clients is None:
            raise ClientsRequiredError(
                "retraining requires the remaining clients to be online"
            )
        if model_factory is None:
            raise ClientsRequiredError(
                "retraining requires a model_factory for fresh initialization"
            )
        remaining = [cid for cid in remaining_ids(record, forget_ids) if cid in clients]
        if not remaining:
            raise ValueError("no remaining online clients to retrain with")
        aggregate = AGGREGATORS[record.aggregator]
        rounds = self.num_rounds or record.num_rounds

        fresh = model_factory()
        params = fresh.get_flat_params()
        cohort = [clients[cid] for cid in remaining]
        weights = [record.weight_of(cid) for cid in remaining]
        for _t in range(rounds):
            # One cohort pass: row k is remaining[k]'s compute_update.
            gradients = cohort_updates(cohort, params, model)
            params = params - record.learning_rate * aggregate(gradients, weights)
        return UnlearnResult(
            params=params,
            method=self.name,
            rounds_replayed=rounds,
            client_gradient_calls=rounds * len(remaining),
            stats={"num_remaining": len(remaining)},
        )
