"""The training record — everything the server retains for unlearning.

A completed FL run produces a :class:`TrainingRecord` bundling the
checkpoint store (``w_0 … w_T``), the gradient store (sign directions
or full gradients per client per round), the membership ledger, and the
FedAvg weights.  Every unlearning method consumes exactly this object —
which makes "what does each method need to have stored?" an explicit,
testable property.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.fl.membership import MembershipLedger
from repro.storage.store import (
    SIGN_BACKENDS,
    GradientStore,
    ModelCheckpointStore,
    SignGradientStore,
)

__all__ = ["TrainingRecord", "with_sign_store"]


@dataclass
class TrainingRecord:
    """Server-side artifact of one FL training run.

    Attributes
    ----------
    checkpoints:
        ``w_t`` at the *start* of each round ``t`` for ``t = 0 … T``
        (index ``T`` holds the final model).
    gradients:
        Per-round, per-client stored updates.  For the paper's scheme
        these decode to direction vectors in ``{-1, 0, +1}``.
    ledger:
        Join/leave/dropout record of every vehicle.
    client_sizes:
        ``client_id -> |D_i|`` FedAvg weights.
    num_rounds:
        ``T`` — the number of completed update rounds.
    learning_rate:
        η used in training (recovery re-uses it, §V-A.3).
    aggregator:
        Name of the aggregation rule used ("fedavg" in the paper).
    accuracy_history:
        Optional per-round test accuracy trace (diagnostics only).
    metadata:
        Free-form experiment annotations.
    """

    checkpoints: ModelCheckpointStore
    gradients: GradientStore
    ledger: MembershipLedger
    client_sizes: Dict[int, int]
    num_rounds: int
    learning_rate: float
    aggregator: str = "fedavg"
    accuracy_history: List[float] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def final_params(self) -> np.ndarray:
        """The trained global model ``w_T``."""
        return self.checkpoints.get(self.num_rounds)

    def params_at(self, round_index: int) -> np.ndarray:
        """``w_t`` at the start of ``round_index``."""
        return self.checkpoints.get(round_index)

    def weight_of(self, client_id: int) -> float:
        """FedAvg weight ``|D_i|`` of a client."""
        if client_id not in self.client_sizes:
            raise KeyError(f"unknown client {client_id}")
        return float(self.client_sizes[client_id])

    def storage_bytes(self) -> Dict[str, int]:
        """Byte accounting for the storage benchmark."""
        return {
            "gradients": self.gradients.nbytes(),
            "checkpoints": self.checkpoints.nbytes(),
        }

    def validate(self) -> None:
        """Internal-consistency checks (used by property tests).

        Raises ``AssertionError`` on violation:
        - checkpoints exist for rounds ``0 … T``;
        - every stored gradient belongs to a ledger participant;
        - every ledger participant of a round has a stored gradient.
        """
        for t in range(self.num_rounds + 1):
            assert self.checkpoints.has(t), f"missing checkpoint for round {t}"
        for t in range(self.num_rounds):
            stored = set(self.gradients.clients_at(t))
            expected = set(self.ledger.participants_at(t))
            assert stored == expected, (
                f"round {t}: stored gradients {sorted(stored)} != "
                f"ledger participants {sorted(expected)}"
            )
        for cid in self.ledger.known_clients():
            assert cid in self.client_sizes, f"no size recorded for client {cid}"


def with_sign_store(
    record: TrainingRecord,
    delta: float = 1e-6,
    backend: str = "dict",
    directory: Optional[str] = None,
) -> TrainingRecord:
    """Derive a record whose gradient store holds 2-bit sign directions.

    The fair-comparison experiments train once with a full store (so
    FedRecover/FedRecovery see real gradients) and hand the paper's
    method this derived view — exactly what the server *would* have
    retained had it run the sign scheme, since ternarization is
    element-wise on the uploaded gradient.  Checkpoints, ledger and
    weights are shared (they are identical under both schemes).

    ``backend`` (one of :data:`~repro.storage.store.SIGN_BACKENDS`)
    picks the storage substrate: ``"dict"`` (in-memory
    :class:`~repro.storage.store.SignGradientStore`), or the one
    on-disk sign layout, read-only (``"mmap"``,
    :class:`~repro.storage.tiered.MmapSignGradientStore`) or appendable
    (``"tiered"``,
    :class:`~repro.storage.tiered.TieredSignGradientStore`).  The
    on-disk backends live under ``directory``; when it is omitted they
    get a fresh temp dir, removed once the store is garbage-collected
    (a caller's ``directory`` is never removed).  Decoded directions,
    and therefore recovered parameters, are bitwise identical across
    backends.
    """
    if backend not in SIGN_BACKENDS:
        raise ValueError(
            f"unknown sign backend {backend!r}; use one of {SIGN_BACKENDS}"
        )
    sign = SignGradientStore(delta=delta)
    for t in record.gradients.rounds():
        sign.put_round(t, record.gradients.get_round(t))
    if backend != "dict":
        from repro.storage.tiered import MmapSignGradientStore, TieredSignGradientStore

        layout = MmapSignGradientStore if backend == "mmap" else TieredSignGradientStore
        if directory is not None:
            sign = layout.from_store(sign, directory)
        else:
            directory = tempfile.mkdtemp(prefix=f"sign-{backend}-")
            sign = layout.from_store(sign, directory)
            weakref.finalize(sign, shutil.rmtree, directory, True)
    return TrainingRecord(
        checkpoints=record.checkpoints,
        gradients=sign,
        ledger=record.ledger,
        client_sizes=dict(record.client_sizes),
        num_rounds=record.num_rounds,
        learning_rate=record.learning_rate,
        aggregator=record.aggregator,
        accuracy_history=list(record.accuracy_history),
        metadata=dict(record.metadata),
    )
