"""Common interface and result type for all unlearning methods.

Every method — the paper's scheme and the three baselines — implements
:class:`UnlearningMethod`: given a :class:`~repro.fl.history.TrainingRecord`
and the client ids to forget, produce recovered global parameters plus
method statistics.  Methods differ in what they *require*:

===============  ==================  ===============  ==============
method           gradient storage    online clients   fresh init
===============  ==================  ===============  ==============
Ours             sign (2-bit)        never            no (backtrack)
Retraining       none                all remaining    yes
FedRecover       full float32        periodically     yes
FedRecovery      full float32        never            no
===============  ==================  ===============  ==============

The ``clients`` argument is therefore Optional; methods that need it
raise :class:`ClientsRequiredError` when it is missing, which the tests
assert — the requirement is part of the reproduced claim, not an
implementation detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from repro.fl.client import VehicleClient
from repro.fl.history import TrainingRecord
from repro.nn.model import Sequential

__all__ = [
    "UnlearnResult",
    "UnlearningMethod",
    "ClientsRequiredError",
    "ModelFactory",
    "resolve_forget_round",
]

ModelFactory = Callable[[], Sequential]


class ClientsRequiredError(RuntimeError):
    """Raised when a method that needs online clients is run without them."""


@dataclass
class UnlearnResult:
    """Outcome of one unlearning run.

    Attributes
    ----------
    params:
        Recovered global model parameters.
    method:
        Method name for reporting.
    rounds_replayed:
        How many update rounds the method executed after forgetting.
    client_gradient_calls:
        How many *fresh* gradient computations were demanded of clients
        (0 for server-only methods — a headline claim of the paper).
    stats:
        Free-form per-method diagnostics.
    """

    params: np.ndarray
    method: str
    rounds_replayed: int = 0
    client_gradient_calls: int = 0
    stats: Dict[str, Any] = field(default_factory=dict)


class UnlearningMethod:
    """Interface for unlearning algorithms."""

    name: str = "abstract"

    def unlearn(
        self,
        record: TrainingRecord,
        forget_ids: Sequence[int],
        model: Sequential,
        clients: Optional[Dict[int, VehicleClient]] = None,
        model_factory: Optional[ModelFactory] = None,
    ) -> UnlearnResult:
        """Erase ``forget_ids`` from the model of ``record``.

        Parameters
        ----------
        record:
            The server's training history.
        forget_ids:
            Clients whose influence must be erased.
        model:
            Scratch model of the right architecture (used for gradient
            computations and shape information; its parameters are
            overwritten freely).
        clients:
            Remaining online clients, for methods that need them.
        model_factory:
            Fresh-initialization constructor, for methods that
            re-initialize (retraining, FedRecover).
        """
        raise NotImplementedError


def resolve_forget_round(record: TrainingRecord, forget_ids: Sequence[int]) -> int:
    """The backtracking target ``F``: the earliest join round among the
    forgotten clients (all of their updates happened at rounds ≥ F).

    Raises
    ------
    ValueError
        If ``forget_ids`` is empty or contains unknown clients.
    """
    if not forget_ids:
        raise ValueError("forget_ids must not be empty")
    known = set(record.ledger.known_clients())
    unknown = [cid for cid in forget_ids if cid not in known]
    if unknown:
        raise ValueError(f"cannot forget unknown clients {unknown}")
    return min(record.ledger.join_round(cid) for cid in forget_ids)


def remaining_ids(record: TrainingRecord, forget_ids: Sequence[int]) -> list:
    """All known clients minus the forgotten ones, sorted."""
    forget = set(forget_ids)
    return [cid for cid in record.ledger.known_clients() if cid not in forget]
