"""The RSU server.

Owns the global model parameters, applies the aggregation rule (Eq. 1)
and the update rule (Eq. 2), and records the history every unlearning
method later consumes: per-round checkpoints ``w_t`` and per-client
stored updates (sign directions under the paper's scheme).

Telemetry: each :meth:`RsuServer.run_round` is wrapped in an
``fl_aggregate_seconds`` span (validation + store writes + Eq. 1/2),
quarantined updates count into ``fl_quarantined_total``, and idle
rounds into ``fl_rounds_skipped_total`` — see ``docs/METRICS.md``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.faults.validation import QuarantineEvent, UpdateValidator
from repro.fl.aggregation import AGGREGATORS, fedavg
from repro.fl.membership import MembershipLedger
from repro.nn.optim import SGD
from repro.storage.store import (
    GradientStore,
    ModelCheckpointStore,
    RoundRows,
    make_gradient_store,
)
from repro.telemetry.core import current_telemetry
from repro.utils.logging import get_logger

__all__ = ["RsuServer"]

_log = get_logger("fl.server")


class RsuServer:
    """Road-Side Unit acting as the FL server.

    Parameters
    ----------
    initial_params:
        ``w_0`` — the freshly initialized global model as a flat vector.
    learning_rate:
        η in Eq. 2.
    gradient_store:
        Where client updates are recorded.  Defaults to the paper's
        :class:`~repro.storage.store.SignGradientStore` with
        ``delta=1e-6``.
    aggregator:
        Aggregation rule name (see :data:`repro.fl.aggregation.AGGREGATORS`).
    validator:
        Optional :class:`~repro.faults.validation.UpdateValidator`.
        When set, every incoming update passes the quarantine gate
        before it can touch the gradient store or the aggregate:
        NaN/Inf, mis-shaped, or out-of-norm updates are rejected, the
        client is recorded as a dropout for the round, and a
        :class:`~repro.faults.validation.QuarantineEvent` is appended
        to :attr:`quarantine`.
    """

    def __init__(
        self,
        initial_params: np.ndarray,
        learning_rate: float,
        gradient_store: Optional[GradientStore] = None,
        aggregator: str = "fedavg",
        validator: Optional[UpdateValidator] = None,
    ):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if aggregator not in AGGREGATORS:
            raise ValueError(
                f"unknown aggregator {aggregator!r}; choose from {sorted(AGGREGATORS)}"
            )
        self.params = np.asarray(initial_params, dtype=np.float64).copy()
        self.learning_rate = learning_rate
        self._opt = SGD(learning_rate)
        self.aggregator_name = aggregator
        self._aggregate = AGGREGATORS[aggregator]
        self.round_index = 0
        self.checkpoints = ModelCheckpointStore()
        self.gradients = gradient_store or make_gradient_store("sign")
        self.ledger = MembershipLedger()
        self.client_sizes: Dict[int, int] = {}
        self.validator = validator
        self.quarantine: List[QuarantineEvent] = []
        self.checkpoints.put(0, self.params)

    # ------------------------------------------------------------------
    # membership plumbing
    # ------------------------------------------------------------------
    def register_client(self, client_id: int, num_samples: int, join_round: int) -> None:
        """Record a vehicle joining FL (its |D_i| and join round F)."""
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        self.ledger.join(client_id, join_round)
        self.client_sizes[client_id] = int(num_samples)

    def client_left(self, client_id: int, round_index: int) -> None:
        """Record a vehicle leaving FL."""
        self.ledger.leave(client_id, round_index)

    def client_dropped_out(self, client_id: int, round_index: int) -> None:
        """Record a transient dropout (member, but no gradient this round)."""
        self.ledger.record_dropout(client_id, round_index)

    # ------------------------------------------------------------------
    # the training round (Eq. 1 + Eq. 2)
    # ------------------------------------------------------------------
    def skip_round(self) -> np.ndarray:
        """Advance the round counter without an update.

        Happens in sparse IoV scenarios when no vehicle is connected:
        the RSU idles, the global model is unchanged, and the
        checkpoint for the next round equals the current one.
        """
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.inc("fl_rounds_skipped_total")
        self.round_index += 1
        self.checkpoints.put(self.round_index, self.params)
        return self.params.copy()

    def run_round(self, updates: Mapping[int, np.ndarray]) -> np.ndarray:
        """Aggregate ``updates`` (client_id -> gradient) and step the model.

        Records each raw update into the gradient store *before*
        aggregation — the store is what compresses (the server never
        keeps the raw gradients beyond this call, which is the storage
        model of §IV).  Returns the new global parameters.

        ``updates`` may be a :class:`~repro.storage.store.RoundRows`
        whose block the caller gives up — the serial round's cohort
        pass hands one over; the store encodes that block as it is and
        FedAvg scales it in place.  A plain mapping is stacked once.

        With a validator configured, updates that fail the gate are
        quarantined instead: never stored, never aggregated, and the
        client is logged as a dropout for the round.  A round in which
        *every* update is quarantined degrades to a skip — the model is
        unchanged and the round counter still advances, so one burst of
        garbage cannot crash training.
        """
        if not updates:
            raise ValueError(f"round {self.round_index}: no client updates")
        telemetry = current_telemetry()
        with telemetry.span("fl_aggregate_seconds"):
            t = self.round_index
            for client_id in updates:
                if client_id not in self.client_sizes:
                    raise KeyError(f"update from unregistered client {client_id}")
            if self.validator is not None:
                verdicts = self.validator.check_round(
                    updates, expected_dim=self.params.size
                )
            else:
                verdicts = None
            rejected = []
            for client_id in sorted(updates):
                if verdicts is not None and not verdicts[client_id].ok:
                    self.quarantine.append(
                        QuarantineEvent(t, client_id, verdicts[client_id].reason)
                    )
                    self.ledger.record_dropout(client_id, t)
                    if telemetry.enabled:
                        telemetry.inc("fl_quarantined_total")
                    _log.warning(
                        "round %d: quarantined update from client %d (%s)",
                        t,
                        client_id,
                        verdicts[client_id].reason,
                    )
                    rejected.append(client_id)
            if len(rejected) == len(updates):
                return self.skip_round()
            if rejected:
                updates = {
                    c: updates[c] for c in sorted(updates) if c not in rejected
                }
            rows = RoundRows.of(updates)
            # Batched commit: one vectorized encode pass for sign stores
            # (bitwise identical to per-client puts in the same order).
            self.gradients.put_round(t, rows)
            weights = [self.client_sizes[cid] for cid in rows]
            block = rows.block
            if block is None:
                aggregated = self._aggregate(list(rows.values()), weights)
            elif self._aggregate is fedavg:
                # fedavg's bits, scaled in place: the block is ours.
                block = block.astype(np.float64, copy=False)
                w = np.asarray(weights, dtype=np.float64)
                block *= w[:, None]
                aggregated = block.sum(axis=0) / w.sum()
            else:
                aggregated = self._aggregate(block, weights)
            # Eq. 2 applied in place (checkpoints/journal always copy, so
            # no stored round state aliases the live vector).
            self._opt.step_(self.params, aggregated)
            self.round_index = t + 1
            self.checkpoints.put(self.round_index, self.params)
            return self.params.copy()
