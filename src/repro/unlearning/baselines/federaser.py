"""FedEraser baseline (Liu et al., IWQoS 2021) — extension comparator.

The paper cites FedEraser as the other canonical retraining-based
federated-unlearning method (its storage and online-client requirements
motivate the scheme).  It is included as an extension so the benchmark
suite can compare all four families.

FedEraser re-initializes the global model and replays a *subsampled*
sequence of historical rounds.  At each retained round the remaining
clients compute a fresh update at the current recovered model, and the
server applies a *calibrated* update: the fresh update's direction
scaled by the historical update's magnitude,

    update_i = ‖g_t^i‖ · ĝ_i / ‖ĝ_i‖.

This preserves the historical step sizes while pointing the steps where
the remaining clients now want to go.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.fl.aggregation import AGGREGATORS
from repro.fl.client import VehicleClient, cohort_updates
from repro.fl.history import TrainingRecord
from repro.nn.model import Sequential
from repro.storage.store import FullGradientStore
from repro.unlearning.base import (
    ClientsRequiredError,
    ModelFactory,
    UnlearnResult,
    UnlearningMethod,
    remaining_ids,
)

__all__ = ["FedEraserUnlearner"]


class FedEraserUnlearner(UnlearningMethod):
    """Calibrated-replay unlearning.

    Parameters
    ----------
    round_interval:
        Replay every ``round_interval``-th historical round (FedEraser's
        Δt; fewer replayed rounds = cheaper but coarser).
    """

    name = "federaser"

    def __init__(self, round_interval: int = 2):
        if round_interval < 1:
            raise ValueError("round_interval must be >= 1")
        self.round_interval = round_interval

    def unlearn(
        self,
        record: TrainingRecord,
        forget_ids: Sequence[int],
        model: Sequential,
        clients: Optional[Dict[int, VehicleClient]] = None,
        model_factory: Optional[ModelFactory] = None,
    ) -> UnlearnResult:
        if not isinstance(record.gradients, FullGradientStore):
            raise TypeError(
                "FedEraser requires full stored gradients for calibration norms"
            )
        if clients is None:
            raise ClientsRequiredError(
                "FedEraser requires online clients for calibration updates"
            )
        if model_factory is None:
            raise ClientsRequiredError("FedEraser re-initializes; needs model_factory")
        aggregate = AGGREGATORS[record.aggregator]
        forget_set = set(forget_ids)
        if not remaining_ids(record, forget_ids):
            raise ValueError("no remaining clients")

        fresh = model_factory()
        recovered = fresh.get_flat_params()
        calls = 0
        rounds_replayed = 0
        for t in range(0, record.num_rounds, self.round_interval):
            participants = [
                cid
                for cid in record.ledger.participants_at(t)
                if cid not in forget_set and cid in clients
            ]
            if not participants:
                continue
            calibrated: List[np.ndarray] = []
            weights: List[float] = []
            fresh = cohort_updates([clients[c] for c in participants], recovered, model)
            calls += len(participants)
            for cid, fresh_grad in zip(participants, fresh):
                stored = record.gradients.get(t, cid)
                fresh_norm = float(np.linalg.norm(fresh_grad))
                if fresh_norm < 1e-12:
                    calibrated.append(np.zeros_like(fresh_grad))
                else:
                    calibrated.append(
                        float(np.linalg.norm(stored)) * fresh_grad / fresh_norm
                    )
                weights.append(record.weight_of(cid))
            recovered = recovered - record.learning_rate * aggregate(
                calibrated, weights
            )
            rounds_replayed += 1
        return UnlearnResult(
            params=recovered,
            method=self.name,
            rounds_replayed=rounds_replayed,
            client_gradient_calls=calls,
            stats={"round_interval": self.round_interval},
        )
