"""The replay engine: Algorithm 1's round loop, K erasure requests at once.

This module holds the only replay round loop (backtrack, seed, then
per round Eq. 6 estimate, Eq. 7 clip, aggregate and step, refreshing
the L-BFGS pairs on their period).  K forget sets replay through **one
execution tree** in lockstep.  Each tree node holds the live state of
every request whose trajectory is still identical — request ``m``'s
state at round ``t`` depends on its forget set ``S_m`` only through
``S_m ∩ P[F..t)`` (``docs/REPLAY.md``) — and the node **forks** at the
first round ``t`` where its members partition by ``S_m ∩ P_t``.  Until
then, every shared round is decoded, estimated, stepped and
snapshotted **once** instead of once per request.
:meth:`SignRecoveryUnlearner.unlearn
<repro.unlearning.recovery.SignRecoveryUnlearner.unlearn>` is this
engine with one request; the engine reads only that unlearner's public
hyperparameters.  Requests resume from, and commit their snapshots
back to, the :class:`~repro.unlearning.forest.ReplayForest` cache.

Live branch parameters are the rows of one
:class:`~repro.nn.arena.BranchArena`, each stepped in place.  A node
holds its estimators as columns (a
:class:`~repro.unlearning.estimator.CohortState`: snapshots and forks
copy its counters and share its pairs column), and its round costs a
fixed number of NumPy calls whatever the cohort size: the cohort
kernel (:func:`~repro.unlearning.estimator.estimate_cohort`) reads the
round's decoded block against the node's stacked L-BFGS form (a
:class:`~repro.unlearning.estimator.CohortForm`), and FedAvg scales the
kernel's block in place.  Nothing is batched *across* branches:
multi-column GEMM, multi-RHS solves and re-strided views are **not**
bitwise-identical per column to their vector-shaped equivalents, and
byte-identity against cold replay is the contract everything above
relies on.

Rounds are read in bulk (``get_round``, prefetched at
``prefetch_depth`` > 0) where the store supports it, else per client.
Missing entries and checkpoints ``w_t`` are skipped and counted, not
raised.  Each request's ``cancel_check`` is polled between rounds; an
aborted member leaves its node, and every committed snapshot is
salvaged into the forest — also when an exception escapes the loop.
Crash checkpoints and ``round_callback`` describe one trajectory, so
only a one-request call honours them.  Telemetry: the ``recovery_*``
round metrics and the ``recovery_forest_*`` sharing metrics the
catalog lists under this module (``docs/METRICS.md``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.aggregation import AGGREGATORS, fedavg
from repro.fl.history import TrainingRecord
from repro.nn.arena import BranchArena
from repro.nn.optim import SGD
from repro.storage.prefetch import RoundPrefetcher
from repro.storage.store import RoundRows
from repro.telemetry.core import current_telemetry
from repro.unlearning.backtrack import backtrack
from repro.unlearning.base import UnlearnResult, remaining_ids, resolve_forget_round
from repro.unlearning.estimator import (
    CohortForm,
    CohortState,
    GradientEstimator,
    estimate_cohort,
    found_in,
)
from repro.unlearning.forest import ReplayForest, _ReplaySnapshot
from repro.utils.logging import get_logger
from repro.utils.serialization import load_state, save_state_atomic

__all__ = ["BranchOutcome", "FusedReplayStats", "ReplayProgress", "fused_unlearn"]

_log = get_logger("unlearning.engine")

_CHECKPOINT = "recovery.npz"


@dataclass
class BranchOutcome:
    """What one branch of a fused replay produced.

    Exactly one of ``result``/``error`` is set.  ``cached_prefix_rounds``
    is the forest amortization for this branch (0 cold), mirroring
    ``SignRecoveryUnlearner.last_cached_prefix_rounds``.
    """

    result: Optional[UnlearnResult]
    error: Optional[BaseException]
    cached_prefix_rounds: int = 0


@dataclass
class FusedReplayStats:
    """Work accounting for one :func:`fused_unlearn` call.

    ``member_rounds`` is what K independent replays (with the same
    forest hits) would have executed; ``executed_node_rounds`` is what
    the tree actually executed; ``shared_rounds`` is the difference
    credited to fusion (Σ members−1 over executed node-rounds).
    """

    requests: int = 0
    executed_node_rounds: int = 0
    member_rounds: int = 0
    shared_rounds: int = 0
    forks: int = 0
    peak_branches: int = 0
    aborted: int = 0


@dataclass
class ReplayProgress:
    """The counters a replay's stats report, as one value.

    ``norms[:length]`` are the Eq. 6 displacement norms of the rounds
    replayed so far (``length`` defaults to all of ``norms``).
    :meth:`copy` is O(1): the copy shares ``norms`` and keeps its own
    ``length``.  Only the list's owner appends to it in place; a copy
    that replays on first takes its prefix out.  So a snapshot shares
    the live replay's append-only list, and restores and forks copy it
    once, when they first step.
    """

    rounds_replayed: int = 0
    skipped_rounds: int = 0
    missing_entries: int = 0
    missing_checkpoints: int = 0
    norms: List[float] = field(default_factory=list)
    length: Optional[int] = None
    owner: bool = True

    def __post_init__(self):
        if self.length is None:
            self.length = len(self.norms)

    def copy(self) -> "ReplayProgress":
        return ReplayProgress(
            self.rounds_replayed,
            self.skipped_rounds,
            self.missing_entries,
            self.missing_checkpoints,
            self.norms,
            self.length,
            owner=False,
        )

    def add_norm(self, norm: float) -> None:
        if not self.owner:
            self.norms = self.norms[: self.length]
            self.owner = True
        self.norms.append(norm)
        self.length += 1

    def displacements(self) -> List[float]:
        return self.norms[: self.length]


class _ExecNode:
    """Live state of one branch of the execution tree: the requests
    whose trajectories are still identical."""

    __slots__ = (
        "members",
        "union",
        "union_ids",
        "row",
        "recovered",
        "state",
        "progress",
        "snapshots",
        "resume",
        "store_forget",
        "form",
    )

    def __init__(self):
        self.members: List[int] = []
        self.union: FrozenSet[int] = frozenset()
        self.union_ids = np.empty(0, dtype=np.int64)  # ``union`` ascending
        self.row = -1
        self.recovered: Optional[np.ndarray] = None
        self.state: Optional[CohortState] = None
        self.progress = ReplayProgress()
        self.snapshots: Dict[int, _ReplaySnapshot] = {}
        self.resume = 0
        self.store_forget: FrozenSet[int] = frozenset()
        # The state's stacked compact forms; None after any change to
        # its pairs column, rebuilt at the node's next estimate.
        self.form: Optional[CohortForm] = None

    def forget(self, union: FrozenSet[int]) -> None:
        self.union = union
        self.union_ids = np.array(sorted(union), dtype=np.int64)

    def snapshot(self) -> _ReplaySnapshot:
        return _make_snapshot(self.recovered, self.state, self.progress)


def _seed_estimators(
    record: TrainingRecord, remaining: Sequence[int], forget_round: int, unlearner
) -> Dict[int, GradientEstimator]:
    """Build one estimator per remaining client, seeded with pre-``F``
    history where it exists.

    For client ``i`` the anchor is the earliest round ``a ≥ F`` at
    which ``i`` participated (``a = F`` when it was present, the
    paper's setting).  Pairs are ``(w_j − w_a, g_j^i − g_a^i)`` for
    the last ``s`` pre-``F`` rounds ``j`` where ``i`` participated.
    Clients with no usable pre-``F`` history start with an empty
    buffer — Eq. 6 then degenerates to ``ḡ = g`` until the refresh
    policy supplies pairs, which is the bootstrap the paper
    prescribes for late joiners.  Entries that fail to load from a
    damaged record are treated as absent.
    """
    buffer_size = unlearner.buffer_size
    estimators: Dict[int, GradientEstimator] = {}
    # ``w_j − w_a`` is the same for every client anchored at ``a``:
    # computed once, frozen, shared by their buffers.
    displacements: Dict[Tuple[int, int], np.ndarray] = {}
    for cid in remaining:
        est = GradientEstimator(
            buffer_size=buffer_size, clip_threshold=unlearner.clip_threshold
        )
        rounds = range(forget_round, record.num_rounds)
        anchor = next((t for t in rounds if record.gradients.has(t, cid)), None)
        if anchor is not None:
            try:
                w_anchor = record.params_at(anchor)
                g_anchor = record.gradients.get(anchor, cid)
            except Exception:  # damaged anchor: start with an empty buffer
                estimators[cid] = est
                continue
            window = range(max(0, forget_round - 4 * buffer_size), forget_round)
            pre_rounds = [j for j in window if record.gradients.has(j, cid)]
            for j in pre_rounds[-buffer_size:]:
                try:
                    delta_w = displacements.get((j, anchor))
                    if delta_w is None:
                        delta_w = record.params_at(j) - w_anchor
                        delta_w.flags.writeable = False
                        displacements[(j, anchor)] = delta_w
                    est.refresh_pair(delta_w, record.gradients.get(j, cid) - g_anchor)
                except Exception:
                    continue
        estimators[cid] = est
    return estimators


def _cache_base_key(record: TrainingRecord, unlearner) -> Tuple:
    """Everything besides the forget set that shapes the trajectory.

    Deliberately watermark-agnostic: ``num_rounds`` is *not* part of
    the key, so replays pinned at different watermarks of one live
    history share a root — the replayed prefix of a longer window is
    byte-identical to the shorter window's full replay, and lookup
    already refuses nodes beyond the requesting view's watermark.
    """
    return (
        float(record.learning_rate),
        str(record.aggregator),
        float(unlearner.clip_threshold),
        int(unlearner.buffer_size),
        int(unlearner.refresh_period),
    )


def _make_snapshot(
    recovered: np.ndarray, estimators: CohortState, progress: ReplayProgress
) -> _ReplaySnapshot:
    """Snapshot the committed replay state: one copy of the parameter
    vector and of the estimator counters, everything else by
    reference (the progress copy shares the norms list)."""
    params = recovered.copy()
    params.flags.writeable = False
    return _ReplaySnapshot(params, estimators.copy(), progress.copy())


def _load_checkpoint(
    path: str, fingerprint: Dict, unlearner
) -> Optional[Tuple[int, _ReplaySnapshot]]:
    """``(resume_round, snapshot)`` from this request's checkpoint,
    or None when there is none."""
    if not os.path.exists(path):
        return None
    arrays, meta = load_state(path)
    if meta.get("fingerprint") != fingerprint:
        raise ValueError(
            f"recovery checkpoint at {path} belongs to a different request "
            f"({meta.get('fingerprint')} != {fingerprint}); delete it to restart"
        )
    for a in arrays.values():
        # Snapshot pairs are frozen, as accepted pairs are.
        a.flags.writeable = False
    # GradientEstimator.state() layout; the fingerprint pins
    # buffer_size, so the saved pairs are exactly the buffer's.
    states: Dict[int, Tuple] = {
        int(cid): (
            tuple(
                (arrays[f"p_{cid}_{j}_w"], arrays[f"p_{cid}_{j}_g"])
                for j in range(int(info["num_pairs"]))
            ),
            int(info["estimates_made"]),
            int(info["pairs_accepted"]),
            int(info["pairs_rejected"]),
        )
        for cid, info in meta["estimators"].items()
    }
    saved = meta["progress"]
    progress = ReplayProgress(
        int(saved["rounds_replayed"]),
        int(saved["skipped_rounds"]),
        int(saved["missing_entries"]),
        int(saved["missing_checkpoints"]),
        [float(n) for n in saved["displacement_norms"]],
    )
    params = np.asarray(arrays["recovered"], dtype=np.float64)
    estimators = CohortState.from_states(
        states, unlearner.buffer_size, unlearner.clip_threshold
    )
    return int(meta["next_round"]), _ReplaySnapshot(params, estimators, progress)


def fused_unlearn(
    unlearner,
    record: TrainingRecord,
    forget_sets: Sequence[Sequence[int]],
    cancel_checks: Optional[Sequence[Optional[Callable[[], None]]]] = None,
) -> Tuple[List[BranchOutcome], FusedReplayStats]:
    """Replay K erasure requests through one shared execution tree.

    ``unlearner`` is a
    :class:`~repro.unlearning.recovery.SignRecoveryUnlearner`; only its
    public hyperparameters are read.  Returns one :class:`BranchOutcome`
    per request (order preserved): ``result`` is byte-identical —
    parameters *and* stats — to
    ``unlearner.unlearn(record, forget_sets[k], ...)`` run cold on its
    own (asserted in ``tests/test_replay_forest.py``), or ``error``
    carries the per-branch failure (invalid request, cooperative
    cancellation).  Requests whose backtrack rounds differ replay as
    separate trees within the same call; sharing only ever happens
    under one anchor.  An exception escaping the replay (a substrate
    fault) propagates after every branch's committed snapshots are
    salvaged into the forest.
    """
    K = len(forget_sets)
    checks: List[Optional[Callable[[], None]]] = (
        list(cancel_checks) if cancel_checks is not None else [None] * K
    )
    if len(checks) != K:
        raise ValueError("cancel_checks must align with forget_sets")
    outcomes: List[Optional[BranchOutcome]] = [None] * K
    stats = FusedReplayStats(requests=K)
    telemetry = current_telemetry()
    if telemetry.enabled and K:
        telemetry.observe("recovery_forest_fused_branches", K)

    forget_of: Dict[int, FrozenSet[int]] = {}
    groups: Dict[int, List[int]] = {}
    for i, ids in enumerate(forget_sets):
        forget = frozenset(int(c) for c in ids)
        try:
            forget_round = resolve_forget_round(record, sorted(forget))
            if not remaining_ids(record, forget):
                raise ValueError("cannot recover: no remaining clients")
        except Exception as exc:
            outcomes[i] = BranchOutcome(result=None, error=exc)
            continue
        forget_of[i] = forget
        groups.setdefault(forget_round, []).append(i)

    for forget_round in sorted(groups):
        _GroupReplay(
            unlearner,
            record,
            forget_round,
            groups[forget_round],
            forget_of,
            checks,
            outcomes,
            stats,
        ).run()
    assert all(o is not None for o in outcomes)
    return outcomes, stats  # type: ignore[return-value]


class _GroupReplay:
    """The replay of every request that backtracks to one round ``F``:
    one execution tree, from its members' resume points to the end."""

    def __init__(
        self,
        unlearner,
        record: TrainingRecord,
        forget_round: int,
        idxs: List[int],
        forget_of: Dict[int, FrozenSet[int]],
        checks: List[Optional[Callable[[], None]]],
        outcomes: List[Optional[BranchOutcome]],
        stats: FusedReplayStats,
    ):
        self.unlearner = unlearner
        self.record = record
        self.forget_round = forget_round
        self.idxs = idxs
        self.forget_of = forget_of
        self.checks = checks
        self.outcomes = outcomes
        self.stats = stats
        self.aggregate = AGGREGATORS[record.aggregator]
        forest: Optional[ReplayForest] = unlearner.prefix_cache
        self.forest = forest
        base_key = self.base_key = _cache_base_key(record, unlearner)
        self.telemetry = current_telemetry()
        self.window = max(1, record.num_rounds - forget_round)
        # Single-trajectory features: only a call with one request has one.
        self.single = len(checks) == 1
        self.callback = unlearner.round_callback if self.single else None
        self.checkpoint: Optional[str] = None
        self.fingerprint: Optional[Dict] = None
        if self.single and unlearner.checkpoint_dir is not None:
            self.checkpoint = os.path.join(unlearner.checkpoint_dir, _CHECKPOINT)
            # A checkpoint from another request or record is never resumed.
            self.fingerprint = {
                "forget_ids": sorted(int(c) for c in forget_of[idxs[0]]),
                "forget_round": int(forget_round),
                "num_rounds": int(record.num_rounds),
                "clip_threshold": float(unlearner.clip_threshold),
                "buffer_size": int(unlearner.buffer_size),
                "refresh_period": int(unlearner.refresh_period),
            }
        self.resumed_from: Optional[int] = None
        self.prefetcher: Optional[RoundPrefetcher] = None

        # ----------------------------------------------------------- resume
        self.resumes: Dict[int, int] = {}
        restored: Dict[int, Optional[_ReplaySnapshot]] = {}
        for i in idxs:
            checkpoint = self.checkpoint and _load_checkpoint(
                self.checkpoint, self.fingerprint, unlearner
            )
            if checkpoint is not None:
                # Takes precedence over the forest.  None of its rounds are
                # the forest's, so for the forest the node starts at F.
                self.resumed_from, snap = checkpoint
                _log.info("resuming recovery at round %d", self.resumed_from)
                hit = (forget_round, snap)
            elif forest is not None:
                hit = forest.lookup(record, base_key, forget_of[i], forget_round)
            else:
                hit = None
            self.resumes[i], restored[i] = hit or (forget_round, None)
            stats.member_rounds += record.num_rounds - self.resumes[i]

        # P[F..F+i), from the forest; without one every request starts at F.
        cum = self.cum = (
            forest.participant_unions(record, base_key, forget_round)
            if forest is not None
            else [frozenset()]
        )
        # Requests sharing (resume round, effective set) have byte-identical
        # state there — they start in one node.
        buckets: Dict[Tuple[int, FrozenSet[int]], List[int]] = {}
        for i in sorted(idxs):
            resume = self.resumes[i]
            key = (resume, forget_of[i] & cum[resume - forget_round])
            buckets.setdefault(key, []).append(i)

        # FedAvg weights |D_i| for a block of clients, from one sorted table.
        self.known = np.array(sorted(record.client_sizes), dtype=np.int64)
        self.sizes = np.array(
            [float(record.client_sizes[c]) for c in self.known.tolist()]
        )
        self.opt = SGD(record.learning_rate)
        self.arena = BranchArena(len(idxs), int(record.final_params().size))
        self.active: List[_ExecNode] = []
        for (resume, _effective), members in sorted(
            buckets.items(), key=lambda kv: (kv[0][0], min(kv[1]))
        ):
            node = _ExecNode()
            node.members = list(members)
            node.forget(frozenset().union(*(forget_of[m] for m in members)))
            node.resume = resume
            node.store_forget = forget_of[members[0]]
            snap = restored[members[0]]
            if snap is None:
                params, _ = backtrack(record, sorted(forget_of[members[0]]))
                node.row = self.arena.acquire(params)
                node.state = self.seed(remaining_ids(record, node.union))
            else:
                node.row = self.arena.acquire(snap.params)
                # The snapshot was filtered by one member's forget set; the
                # node must exclude every member's.
                node.state = snap.estimators.without(node.union)
                self.seed_missing(node)
                node.progress = snap.progress.copy()
            node.recovered = self.arena.row(node.row)
            self.active.append(node)

    # ------------------------------------------------------------ helpers
    def seed(self, cids) -> CohortState:
        return CohortState.from_estimators(
            _seed_estimators(self.record, cids, self.forget_round, self.unlearner)
        )

    def seed_missing(self, node: _ExecNode) -> None:
        """Seed estimators for the node's remaining clients that have
        none.  A form stays current unless a seeded one holds pairs:
        clients without pairs are in no group, they only move slots."""
        remaining = np.array(remaining_ids(self.record, node.union), dtype=np.int64)
        missing = remaining[np.isin(remaining, node.state.cids, invert=True)]
        if not missing.size:
            return
        fresh = self.seed(missing.tolist())
        node.state = node.state.merged(fresh)
        if node.form is not None:
            pairs = any(map(len, fresh.pairs))
            node.form = None if pairs else CohortForm(node.state, like=node.form)

    def weigh(self, present: np.ndarray) -> np.ndarray:
        known = self.known
        if len(known) and found_in(known, present).all():
            return self.sizes[np.searchsorted(known, present)]
        return np.array([self.record.weight_of(c) for c in present.tolist()])

    def step_node(
        self, node: _ExecNode, rows: RoundRows, at, disp_vec, refresh_now
    ) -> float:
        """Eq. 6/7 for the node's present rows ``rows`` at ``at``, then
        the aggregate and Eq. 2 on its arena row; the displacement norm.
        (Its own scope: nothing of the round outlives it, so the next
        round's form is never built beside this one's.)"""
        if node.form is None:
            node.form = CohortForm(node.state)
        plan = node.form.plan(rows.cids[at], self.weigh)
        stored = rows.rows_at(at)
        if stored is None:  # a ragged round: check each row's length
            ragged = [rows[c] for c in rows.cids[at].tolist()]
            for row in ragged:
                if row.shape != disp_vec.shape:
                    raise ValueError(
                        f"gradient/displacement mismatch: {row.shape} vs "
                        f"{disp_vec.shape}"
                    )
            stored = np.stack(ragged)
        estimates = estimate_cohort(node.state, plan, stored, disp_vec, refresh_now)
        if refresh_now:
            node.form = None  # the present slots took new pairs
        displacement = float(np.linalg.norm(disp_vec))
        node.progress.add_norm(displacement)
        aggregate = self.aggregate
        self.opt.step_(
            node.recovered,
            plan.fedavg(estimates)
            if aggregate is fedavg
            else aggregate(estimates, plan.weights),
        )
        node.progress.rounds_replayed += 1
        return displacement

    def flush(self, node: _ExecNode) -> None:
        if self.forest is not None and node.snapshots:
            self.forest.store(
                self.record,
                self.base_key,
                node.store_forget,
                self.forget_round,
                node.snapshots,
            )
        node.snapshots = {}

    def retire(self, node: _ExecNode) -> None:
        self.flush(node)
        self.arena.release(node.row)
        self.active.remove(node)

    def refit(self, node: _ExecNode) -> None:
        """After members left (abort), the node may forget fewer
        clients: re-seed estimators for the newly remaining ones (they
        cannot have participated yet — otherwise the departed member
        would have forked off earlier)."""
        forget_of = self.forget_of
        new_union = frozenset().union(*(forget_of[m] for m in node.members))
        if new_union == node.union:
            node.store_forget = forget_of[node.members[0]]
            return
        self.flush(node)  # committed under the old effective keying
        node.forget(new_union)
        node.store_forget = forget_of[node.members[0]]
        self.seed_missing(node)

    def round_done(self, node: _ExecNode, t: int) -> None:
        """The crash checkpoint, on its cadence, after a round: the
        node's state, atomically, as :func:`_load_checkpoint` reads it."""
        if (
            self.checkpoint is None
            or (t - self.forget_round + 1) % self.unlearner.checkpoint_every
        ):
            return
        if self.telemetry.enabled:
            self.telemetry.inc("recovery_checkpoints_total")
        arrays: Dict[str, np.ndarray] = {"recovered": node.recovered}
        est_meta: Dict[str, Dict] = {}
        for cid, (pairs, made, accepted, rejected) in node.state.states().items():
            for j, (dw, dg) in enumerate(pairs):
                arrays[f"p_{cid}_{j}_w"] = dw
                arrays[f"p_{cid}_{j}_g"] = dg
            est_meta[str(cid)] = {
                "num_pairs": len(pairs),
                "estimates_made": made,
                "pairs_accepted": accepted,
                "pairs_rejected": rejected,
            }
        progress = node.progress
        save_state_atomic(
            self.checkpoint,
            arrays,
            {
                "fingerprint": self.fingerprint,
                "next_round": t + 1,
                "estimators": est_meta,
                "progress": {
                    "rounds_replayed": progress.rounds_replayed,
                    "skipped_rounds": progress.skipped_rounds,
                    "missing_entries": progress.missing_entries,
                    "missing_checkpoints": progress.missing_checkpoints,
                    "displacement_norms": progress.displacements(),
                    "resumed_from": self.resumed_from,
                },
            },
        )

    def skip(self, node: _ExecNode, t: int, missing_checkpoint: bool = False) -> None:
        node.progress.skipped_rounds += 1
        if missing_checkpoint:
            node.progress.missing_checkpoints += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.inc("recovery_rounds_skipped_total")
            telemetry.set_gauge(
                "recovery_progress", (t - self.forget_round + 1) / self.window
            )
        self.round_done(node, t)

    # -------------------------------------------------------------- replay
    def run(self) -> None:
        record = self.record
        start = (
            self.resumed_from
            if self.resumed_from is not None
            else min(node.resume for node in self.active)
        )
        depth = self.unlearner.prefetch_depth
        if depth > 0 and getattr(record.gradients, "supports_bulk_round", False):
            # Pipeline the shared read: one prefetcher serves every branch,
            # over the rounds some member still reads — those with a
            # participant outside every member's forget set.  A lone request
            # lends it its cancel_check; otherwise cancellation is per member,
            # and an aborted member must not kill the siblings' pipeline.
            forgotten_by_all = frozenset.intersection(
                *(self.forget_of[i] for i in self.idxs)
            )
            reads = [
                t
                for t in range(start, record.num_rounds)
                if any(
                    c not in forgotten_by_all
                    for c in record.ledger.participants_at(t)
                )
            ]
            if reads:
                self.prefetcher = RoundPrefetcher(
                    record.gradients,
                    reads,
                    depth=depth,
                    cache=self.unlearner.decode_cache,
                    cancel_check=self.checks[self.idxs[0]] if self.single else None,
                    executor=self.unlearner.prefetch_executor,
                )
        try:
            for t in range(start, record.num_rounds):
                self.replay_round(t)
        except Exception:
            # Abort (substrate fault, a raising callback): every snapshot
            # held is committed start-of-round state, so salvaging it never
            # exposes a half-replayed round — the retry resumes the prefix
            # and recovers parameters byte-identical to a cold replay.
            for node in self.active:
                self.flush(node)
            raise
        finally:
            if self.prefetcher is not None:
                # Releases every cache pin and cancels in-flight decodes
                # even on abort paths.
                self.prefetcher.close()
        self.finish()

    def poll(self, t: int, live: List[_ExecNode]) -> None:
        """Per-member cooperative cancellation, between rounds: an
        aborted member leaves its node, and a node left empty retires
        (out of ``live``) with the deepest state its members' retries
        can resume."""
        for node in list(live):
            for m in list(node.members):
                check = self.checks[m]
                if check is None:
                    continue
                try:
                    check()
                except BaseException as exc:
                    self.outcomes[m] = BranchOutcome(
                        result=None,
                        error=exc,
                        cached_prefix_rounds=self.resumes[m] - self.forget_round,
                    )
                    node.members.remove(m)
                    self.stats.aborted += 1
            if not node.members:
                if self.forest is not None and t > node.resume:
                    # Nothing of round t has run: its start is the
                    # deepest state the members' retries can resume.
                    node.snapshots[t] = node.snapshot()
                self.retire(node)
                live.remove(node)
            else:
                self.refit(node)

    def fork(self, node: _ExecNode, t: int, p_set: FrozenSet[int], live) -> None:
        """Fork at divergence: members whose forget sets intersect this
        round's participants ``p_set`` differently stop sharing here;
        the new children join ``live``."""
        forget_of = self.forget_of
        parts: Dict[FrozenSet[int], List[int]] = {}
        for m in node.members:
            parts.setdefault(forget_of[m] & p_set, []).append(m)
        if len(parts) == 1:
            return
        self.stats.forks += len(parts) - 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.inc("recovery_forest_forks_total", len(parts) - 1)
            telemetry.observe("recovery_forest_fork_depth", t - self.forget_round)
        self.flush(node)
        part_list = sorted(parts.values(), key=min)
        children: List[Tuple[_ExecNode, List[int]]] = [(node, part_list[0])]
        for member_part in part_list[1:]:
            clone = _ExecNode()
            clone.row = self.arena.acquire(node.recovered)
            clone.recovered = self.arena.row(clone.row)
            clone.state = node.state.copy()
            clone.progress = node.progress.copy()
            clone.resume = node.resume
            clone.form = node.form  # same pairs, same frozen stacks
            children.append((clone, member_part))
        for child, member_part in children:
            child.members = list(member_part)
            child.forget(frozenset().union(*(forget_of[m] for m in member_part)))
            child.store_forget = forget_of[member_part[0]]
            # Clients only the *other* parts forget become remaining
            # here; by the fork invariant they have not participated
            # yet, so seeding reproduces their cold state.
            self.seed_missing(child)
            if child is not node:
                self.active.append(child)
                live.append(child)

    def read(self, t: int, participants_t: np.ndarray, reading) -> RoundRows:
        """Round ``t``'s rows: from the prefetcher or one bulk read, else
        (no bulk read, or a damaged round block) per-client reads, which
        isolate the broken entries."""
        gradients = self.record.gradients
        rows: Optional[RoundRows] = None
        if self.prefetcher is not None:
            # Usually decoded in the background already; a failure
            # falls through to the per-client reads below.
            rows = self.prefetcher.fetch(t)
        elif getattr(gradients, "supports_bulk_round", False):
            try:
                rows = RoundRows.of(gradients.get_round(t))
            except Exception:
                rows = None
        if rows is None:
            entries: Dict[int, np.ndarray] = {}
            p_set = frozenset(participants_t.tolist())
            for cid in sorted(set().union(*(p_set - n.union for n, _ in reading))):
                try:
                    entries[cid] = gradients.get(t, cid)
                except Exception:
                    pass
            rows = RoundRows.of(entries)
        return rows

    def replay_round(self, t: int) -> None:
        record = self.record
        forest = self.forest
        stats = self.stats
        telemetry = self.telemetry
        live = [n for n in self.active if n.resume <= t]
        if not live:
            return
        self.poll(t, live)
        if not live:
            return

        # Committed start-of-round state, where someone new takes part
        # (the only rounds a node can fork, or a later request leave
        # it) — one snapshot per node, shared by every member.
        step = t - self.forget_round
        joined = forest is None or self.cum[step + 1] is not self.cum[step]
        if forest is not None and joined:
            for node in live:
                if t > node.resume:
                    node.snapshots[t] = node.snapshot()

        # Members share their effective sets, so only a round where
        # someone takes part for the first time since F can split them
        # (without a forest to say which, every round is checked).
        participants_t = record.ledger.participant_ids(t)
        for node in list(live) if joined else ():
            if len(node.members) > 1:
                self.fork(node, t, frozenset(participants_t.tolist()), live)
        # Post-fork width: children forked this round replay it too.
        stats.peak_branches = max(stats.peak_branches, len(live))

        # A node with nobody left to replay this round skips it before
        # any read; the rest share one read of w_t and the cohort.
        reading: List[Tuple[_ExecNode, int]] = []
        for node in live:
            forgotten = found_in(node.union_ids, participants_t)
            participating = participants_t.size - int(forgotten.sum())
            if participating:
                reading.append((node, participating))
            else:
                self.skip(node, t)
        if not reading:
            return
        try:
            historical = record.params_at(t)
        except Exception:
            # Damaged record: without w_t neither Eq. 6's displacement
            # nor the refresh pairs exist — skip the round, keep going.
            for node, _ in reading:
                self.skip(node, t, missing_checkpoint=True)
            return
        rows = self.read(t, participants_t, reading)
        # Block positions of this round's participants' rows.
        listed = np.flatnonzero(found_in(participants_t, rows.cids))

        ready: List[Tuple[_ExecNode, np.ndarray]] = []
        for node, participating in reading:
            at = listed
            if node.union_ids.size and at.size:
                at = at[~found_in(node.union_ids, rows.cids[at])]
            # Absent or undecodable entries: like a historical dropout.
            round_missing = participating - at.size
            node.progress.missing_entries += round_missing
            if telemetry.enabled and round_missing:
                telemetry.inc("recovery_missing_entries_total", round_missing)
            if at.size:
                ready.append((node, at))
            else:
                self.skip(node, t)
        if not ready:
            return

        # Each ready node steps its own arena row: Eq. 6's displacement
        # is a fresh vector (a refresh may adopt it), Eq. 2 in place.
        refresh_now = (step + 1) % self.unlearner.refresh_period == 0
        for node, at in ready:
            disp_vec = node.recovered - historical
            with telemetry.span("recovery_round_seconds"):
                displacement = self.step_node(node, rows, at, disp_vec, refresh_now)
            if telemetry.enabled:
                telemetry.inc("recovery_rounds_total")
                telemetry.set_gauge("recovery_displacement_norm", displacement)
                telemetry.set_gauge("recovery_progress", (step + 1) / self.window)
        stats.executed_node_rounds += len(ready)
        for node, _ in ready:
            shared = len(node.members) - 1
            if shared:
                stats.shared_rounds += shared
                if telemetry.enabled:
                    telemetry.inc("recovery_forest_shared_rounds_total", shared)
            self.round_done(node, t)
            if self.callback is not None:
                self.callback(t, node.recovered.copy())

    # ------------------------------------------------------------ finalize
    def finish(self) -> None:
        F = self.forget_round
        stats = self.stats
        for node in list(self.active):
            if self.forest is not None:
                node.snapshots[self.record.num_rounds] = node.snapshot()
            base_accepted = int(node.state.accepted.sum())
            base_rejected = int(node.state.rejected.sum())
            progress = node.progress
            norms = progress.displacements()
            mean_disp = float(np.mean(norms)) if norms else 0.0
            max_disp = float(np.max(norms)) if norms else 0.0
            for m in node.members:
                # Clients forgotten by siblings but remaining for this
                # member never participated (fork invariant), so their cold
                # estimators are exactly the seeded ones — count their pair
                # stats for parity with a standalone replay.
                extra = sorted(node.union - self.forget_of[m])
                accepted = base_accepted
                rejected = base_rejected
                if extra:
                    seeded = _seed_estimators(
                        self.record, extra, F, self.unlearner
                    )
                    accepted += sum(e.pairs_accepted for e in seeded.values())
                    rejected += sum(e.pairs_rejected for e in seeded.values())
                self.outcomes[m] = BranchOutcome(
                    result=UnlearnResult(
                        params=node.recovered.copy(),
                        method=self.unlearner.name,
                        rounds_replayed=progress.rounds_replayed,
                        client_gradient_calls=0,
                        stats={
                            "forget_round": F,
                            "skipped_rounds": progress.skipped_rounds,
                            "missing_entries": progress.missing_entries,
                            "missing_checkpoints": progress.missing_checkpoints,
                            "resumed_from": self.resumed_from,
                            "pairs_accepted": accepted,
                            "pairs_rejected": rejected,
                            "mean_displacement": mean_disp,
                            "max_displacement": max_disp,
                        },
                    ),
                    error=None,
                    cached_prefix_rounds=self.resumes[m] - F,
                )
            self.retire(node)
        if (
            self.checkpoint is not None
            and self.outcomes[self.idxs[0]].error is None
            and os.path.exists(self.checkpoint)
        ):
            os.remove(self.checkpoint)  # the request completed
        _log.info(
            "replay from round %d over %d requests: %d node-rounds executed for "
            "%d member-rounds (%d shared, %d forks, peak width %d)",
            F,
            len(self.idxs),
            stats.executed_node_rounds,
            stats.member_rounds,
            stats.shared_rounds,
            stats.forks,
            stats.peak_branches,
        )
