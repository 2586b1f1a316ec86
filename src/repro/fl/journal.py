"""Write-ahead round journal — crash-safe FL simulation state.

An RSU process can die between any two rounds (power cut, OOM kill,
deploy).  :class:`RoundJournal` commits every completed round into a
record directory's round log (:mod:`repro.fl.persistence`): the round's
rows, its checkpoint and the changes to the small state (ledger, client
sizes, client RNG states, quarantine, fault stats, validator norms,
accuracy, exclusions).  A commit writes one round's bytes, so a run's
writes grow linearly in its rounds.  The first commit after a live
erasure writes a new log instead, without the erased clients' rows or
the checkpoint the erasure overwrote, and unlinks the old one.  Re-run
with the same configuration and directory, a killed simulation folds
the log, resumes after the last committed round and produces a record
bitwise identical to an uninterrupted run's; the directory is also what
:func:`~repro.fl.persistence.load_record` opens.
Client RNG states are journaled because minibatch sampling is the only
client-side randomness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.fl.membership import MembershipLedger
from repro.fl.persistence import MARKER, RoundLog, fold, record_fields, record_state
from repro.storage.store import GradientStore, ModelCheckpointStore

__all__ = ["RoundJournal", "JournalSnapshot"]


@dataclass
class JournalSnapshot:
    """Everything needed to resume a simulation after round ``round_index``.

    Attributes mirror the live state of
    :class:`~repro.fl.simulation.FederatedSimulation` and its server;
    ``rng_states`` maps client id to the client generator's
    ``bit_generator.state``; ``validator_norms`` is ``None`` without a
    validator.
    """

    round_index: int
    params: np.ndarray
    checkpoints: ModelCheckpointStore
    gradients: GradientStore
    ledger: MembershipLedger
    client_sizes: Dict[int, int]
    accuracy_history: List[float]
    rng_states: Dict[int, dict]
    quarantine: List[Tuple[int, int, str]] = field(default_factory=list)
    fault_stats: Dict[str, int] = field(default_factory=dict)
    validator_norms: Optional[List[float]] = None
    excluded: List[int] = field(default_factory=list)
    learning_rate: Optional[float] = None
    aggregator: str = "fedavg"


class RoundJournal:
    """Per-round commits of a running FL simulation into a round log.

    ``directory`` is created on the first commit.  One journal belongs
    to one training run: resuming a differently-configured run from it
    would silently diverge.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self._log: Optional[RoundLog] = None

    @property
    def path(self) -> str:
        """Full path of the commit marker."""
        return os.path.join(self.directory, MARKER)

    def exists(self) -> bool:
        """Whether a committed round is present."""
        return os.path.exists(self.path)

    def commit(self, snapshot: JournalSnapshot) -> None:
        """Append the rounds since the last commit and swap the marker.

        A commit that excludes a client the log has not excluded yet
        writes a new log instead: the erased client's rows, and the
        checkpoint its live erasure overwrote, leave the disk when the
        marker names the new log.
        """
        state: Dict[str, Any] = record_state(
            snapshot.ledger, snapshot.client_sizes, snapshot.accuracy_history
        )
        state.update((f"rng.{c}", st) for c, st in snapshot.rng_states.items())
        state["quarantine"] = [list(e) for e in snapshot.quarantine]
        state["fault_stats"] = dict(snapshot.fault_stats)
        state["validator_norms"] = snapshot.validator_norms
        state["excluded"] = sorted(snapshot.excluded)
        if self._log is None or self._log.state.get("excluded") != state["excluded"]:
            self._log = RoundLog(self.directory)
        meta = {
            "learning_rate": snapshot.learning_rate,
            "aggregator": snapshot.aggregator,
            "metadata": {},
        }
        self._log.commit(
            snapshot.round_index,
            snapshot.checkpoints,
            snapshot.gradients,
            state,
            snapshot.params,
            meta,
        )

    def load(self) -> JournalSnapshot:
        """Fold the log up to the last commit; later commits append to it.

        Raises ``FileNotFoundError`` when nothing was committed and
        :class:`~repro.fl.persistence.RecordCorruptionError` when the
        directory is damaged (torn write, bad sector).
        """
        self._log, marker, params, checkpoints, gradients = fold(self.directory)
        state = self._log.state
        return JournalSnapshot(
            self._log.rounds,
            params,
            checkpoints,
            gradients,
            *record_fields(state),
            rng_states={
                int(k[4:]): v for k, v in state.items() if k.startswith("rng.")
            },
            quarantine=[tuple(e) for e in state.get("quarantine", [])],
            fault_stats=state.get("fault_stats", {}),
            validator_norms=state.get("validator_norms"),
            excluded=state.get("excluded", []),
            learning_rate=marker.get("learning_rate"),
            aggregator=marker.get("aggregator", "fedavg"),
        )
