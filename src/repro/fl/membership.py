"""Membership ledger — who participated when.

§IV of the paper: "the server needs to record the number of rounds each
vehicle participated in FL".  The ledger is that record.  It tracks for
every vehicle the round it joined (``F_i``), the round it left (if
any), and transient dropout rounds, and answers the two queries the
unlearning scheme needs:

- :meth:`MembershipLedger.join_round` — the backtracking target ``F``.
- :meth:`MembershipLedger.participants_at` — which gradients exist at a
  given historical round (a vehicle that was joined but dropped out
  contributed nothing that round).  Memoised per round; a join, leave
  or dropout at round ``r`` forgets the memo from ``r`` on.

Rounds are 0-based throughout the codebase: round ``t`` updates
``w_t -> w_{t+1}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

__all__ = ["MembershipLedger", "ClientRecord"]


@dataclass
class ClientRecord:
    """Participation record for one vehicle."""

    client_id: int
    join_round: int
    leave_round: Optional[int] = None  # first round the client is absent
    dropout_rounds: Set[int] = field(default_factory=set)

    def is_member(self, round_index: int) -> bool:
        """Joined and not yet left at ``round_index`` (ignores dropouts)."""
        if round_index < self.join_round:
            return False
        return self.leave_round is None or round_index < self.leave_round

    def participated(self, round_index: int) -> bool:
        """Actually contributed a gradient at ``round_index``."""
        return self.is_member(round_index) and round_index not in self.dropout_rounds


class MembershipLedger:
    """Server-side record of every vehicle's FL participation."""

    def __init__(self) -> None:
        self._records: Dict[int, ClientRecord] = {}
        # participant_ids memo, indexed by round: a mutation truncates it
        # at its round, which past the end (the round being trained) is free.
        self._participants: List[Optional[np.ndarray]] = []

    def _invalidate(self, round_index: int) -> None:
        del self._participants[max(round_index, 0) :]

    # ------------------------------------------------------------------
    # mutation (called by the simulation as events occur)
    # ------------------------------------------------------------------
    def join(self, client_id: int, round_index: int) -> None:
        """Register that ``client_id`` joined at ``round_index``.

        Re-joining after a leave is modelled as a fresh client id in
        the IoV scenario generator, so a duplicate join is an error.
        """
        if client_id in self._records:
            raise ValueError(f"client {client_id} already joined")
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        self._records[client_id] = ClientRecord(client_id, round_index)
        self._invalidate(round_index)

    def leave(self, client_id: int, round_index: int) -> None:
        """Register that ``client_id`` left before ``round_index``."""
        record = self._require(client_id)
        if record.leave_round is not None:
            raise ValueError(f"client {client_id} already left")
        if round_index <= record.join_round:
            raise ValueError("leave round must be after the join round")
        record.leave_round = round_index
        self._invalidate(round_index)

    def record_dropout(self, client_id: int, round_index: int) -> None:
        """Mark a transient dropout (no gradient that round)."""
        record = self._require(client_id)
        record.dropout_rounds.add(round_index)
        self._invalidate(round_index)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _require(self, client_id: int) -> ClientRecord:
        if client_id not in self._records:
            raise KeyError(f"unknown client {client_id}")
        return self._records[client_id]

    def known_clients(self) -> List[int]:
        """All client ids ever seen, sorted."""
        return sorted(self._records)

    def items(self) -> List[Tuple[int, ClientRecord]]:
        """``(client_id, ClientRecord)`` pairs, sorted by client id.

        The public iteration surface for serializers (persistence, the
        round journal); records are the live objects, treat them as
        read-only.
        """
        return sorted(self._records.items())

    def to_dict(self) -> Dict[str, Dict]:
        """JSON-ready ``{client_id: {join, leave, dropouts}}`` mapping."""
        return {
            str(cid): {
                "join_round": rec.join_round,
                "leave_round": rec.leave_round,
                "dropout_rounds": sorted(rec.dropout_rounds),
            }
            for cid, rec in self.items()
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Dict]) -> "MembershipLedger":
        """Rebuild a ledger from :meth:`to_dict` output."""
        ledger = cls()
        for cid_str, rec in sorted(data.items(), key=lambda kv: int(kv[0])):
            cid = int(cid_str)
            ledger.join(cid, int(rec["join_round"]))
            if rec["leave_round"] is not None:
                ledger.leave(cid, int(rec["leave_round"]))
            for t in rec["dropout_rounds"]:
                ledger.record_dropout(cid, int(t))
        return ledger

    def join_round(self, client_id: int) -> int:
        """The round ``F`` at which the client first participated."""
        return self._require(client_id).join_round

    def leave_round(self, client_id: int) -> Optional[int]:
        """First round the client was gone, or None if still a member."""
        return self._require(client_id).leave_round

    def is_member(self, client_id: int, round_index: int) -> bool:
        """Joined and not left at ``round_index``."""
        return self._require(client_id).is_member(round_index)

    def participants_at(self, round_index: int) -> List[int]:
        """Sorted ids of clients that contributed at ``round_index``."""
        return self.participant_ids(round_index).tolist()

    def participant_ids(self, round_index: int) -> np.ndarray:
        """:meth:`participants_at` as an ascending read-only int64 array,
        memoised per round.  Reads may overlap one another, not a
        mutation (live replays read a copy of the ledger)."""
        memo = self._participants
        ids = memo[round_index] if 0 <= round_index < len(memo) else None
        if ids is None:
            records = self._records.items()
            found = (c for c, rec in records if rec.participated(round_index))
            ids = np.array(sorted(found), dtype=np.int64)
            ids.flags.writeable = False
            if round_index >= 0:
                memo.extend([None] * (round_index + 1 - len(memo)))
                memo[round_index] = ids
        return ids

    def members_at(self, round_index: int) -> List[int]:
        """Sorted ids of clients that were members (even if dropped out)."""
        return sorted(
            cid for cid, rec in self._records.items() if rec.is_member(round_index)
        )
