"""The replay engine: K erasure requests through one execution tree.

This module holds the only replay round loop.
:class:`~repro.unlearning.recovery.ReplayForest` makes *successive*
erasure requests cheap by resuming each one from the deepest shared
snapshot; this engine makes *concurrent* ones cheap: K forget sets
replay through **one execution tree** in lockstep.  Each tree node holds
the live state of every request whose trajectory is still identical —
by the effective-forget-set argument (``docs/REPLAY.md``), request
``m``'s state at round ``t`` depends on its forget set ``S_m`` only
through ``S_m ∩ P[F..t)`` — and the node **forks** at the first round
``t`` where its members partition by ``S_m ∩ P_t`` (the
fork-at-divergence rule).  Until then, every shared round is decoded,
estimated and stepped — and, where it brings in a new participant,
snapshotted — **once** instead of once per request.
:meth:`SignRecoveryUnlearner.unlearn
<repro.unlearning.recovery.SignRecoveryUnlearner.unlearn>` is this
engine with one request: a one-member node is a serial replay.

Live branch parameters are the rows of one
:class:`~repro.nn.arena.BranchArena` ``(K, d)`` matrix; each node takes
Eq. 6's displacement and Eq. 2's in-place step on its own row view, so
every branch does exactly what a one-request replay does.  A node holds
its estimators as columns (a
:class:`~repro.unlearning.estimator.CohortState`: snapshots and forks
copy its counters and share its pairs column), and its round costs a
fixed number of NumPy calls whatever the cohort size: the present
clients are a slice (or one ``take``) of the round's decoded block,
the cohort kernel
(:func:`~repro.unlearning.estimator.estimate_cohort`) reads that block
against the node's stacked L-BFGS form (a
:class:`~repro.unlearning.estimator.CohortForm`, built once per
refresh, seeding with pairs, or restore, and shared by a fork's
children), and FedAvg scales the kernel's own block in place with the
weights its plan caches (:meth:`~repro.unlearning.estimator.CohortPlan.fedavg`).
Nothing is batched *across* branches: multi-column GEMM, multi-RHS
solves and re-strided views are **not** bitwise-identical per column to
their vector-shaped equivalents (measured on this substrate; see
``docs/REPLAY.md``), and byte-identity against cold replay is the
contract everything above relies on.

Cooperative cancellation is per branch: each request brings its own
``cancel_check`` (e.g. a serving deadline), polled between rounds.  An
aborted member leaves its node; the survivors re-seed estimators for
any clients only the aborted member was forgetting (sound by the same
effective-set argument — those clients cannot have participated yet)
and keep replaying.  Aborted work is never wasted: every committed
snapshot is salvaged into the forest — also when an exception escapes
the loop — so the verbatim retry resumes almost for free.

Crash checkpoints (``checkpoint_dir``) and ``round_callback`` describe
a single trajectory, so they are honoured when the call carries one
request: a checkpoint is written after a round (replayed or skipped)
every ``checkpoint_every`` rounds, one found at start takes precedence
over a forest hit, and the callback sees each replayed round.

Telemetry: ``recovery_forest_forks_total`` / ``recovery_forest_fork_depth``
/ ``recovery_forest_fused_branches`` / ``recovery_forest_shared_rounds_total``
— see ``docs/METRICS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from repro.unlearning.base import (
    UnlearnResult,
    remaining_ids,
    resolve_forget_round,
)
from repro.unlearning.estimator import (
    CohortForm,
    CohortState,
    estimate_cohort,
    found_in,
)
from repro.unlearning.recovery import (
    ReplayForest,
    SignRecoveryUnlearner,
    _ReplaySnapshot,
)
from repro.utils.logging import get_logger

__all__ = ["BranchOutcome", "FusedReplayStats", "fused_unlearn"]

_log = get_logger("unlearning.forest")


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
        "rounds_replayed",
        "skipped_rounds",
        "missing_entries",
        "missing_checkpoints",
        "displacement_norms",
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
        self.rounds_replayed = 0
        self.skipped_rounds = 0
        self.missing_entries = 0
        self.missing_checkpoints = 0
        self.displacement_norms: List[float] = []
        self.snapshots: Dict[int, _ReplaySnapshot] = {}
        self.resume = 0
        self.store_forget: FrozenSet[int] = frozenset()
        # The state's stacked compact forms; None after any change to
        # its pairs column, rebuilt at the node's next estimate.
        self.form: Optional[CohortForm] = None

    def forget(self, union: FrozenSet[int]) -> None:
        self.union = union
        self.union_ids = np.array(sorted(union), dtype=np.int64)


def _node_snapshot(
    unlearner: SignRecoveryUnlearner, node: _ExecNode
) -> _ReplaySnapshot:
    return unlearner._make_snapshot(
        node.recovered,
        node.state,
        node.rounds_replayed,
        node.skipped_rounds,
        node.missing_entries,
        node.missing_checkpoints,
        node.displacement_norms,
    )


def fused_unlearn(
    unlearner: SignRecoveryUnlearner,
    record: TrainingRecord,
    forget_sets: Sequence[Sequence[int]],
    cancel_checks: Optional[Sequence[Optional[Callable[[], None]]]] = None,
) -> Tuple[List[BranchOutcome], FusedReplayStats]:
    """Replay K erasure requests through one shared execution tree.

    Returns one :class:`BranchOutcome` per request (order preserved):
    ``result`` is byte-identical — parameters *and* stats — to
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
        _run_group(
            unlearner,
            record,
            forget_round,
            groups[forget_round],
            forget_of,
            checks,
            outcomes,
            stats,
        )
    assert all(o is not None for o in outcomes)
    return outcomes, stats  # type: ignore[return-value]


def _run_group(
    unlearner: SignRecoveryUnlearner,
    record: TrainingRecord,
    forget_round: int,
    idxs: List[int],
    forget_of: Dict[int, FrozenSet[int]],
    checks: List[Optional[Callable[[], None]]],
    outcomes: List[Optional[BranchOutcome]],
    stats: FusedReplayStats,
) -> None:
    aggregate = AGGREGATORS[record.aggregator]
    forest: Optional[ReplayForest] = unlearner.prefix_cache
    base_key = unlearner._cache_base_key(record)
    num_rounds = record.num_rounds
    telemetry = current_telemetry()
    replay_window = max(1, num_rounds - forget_round)
    # Single-trajectory features: only a call with one request has one.
    single = len(checks) == 1
    callback = unlearner.round_callback if single else None
    fingerprint = (
        unlearner._fingerprint(record, forget_of[idxs[0]], forget_round)
        if single and unlearner.checkpoint_dir is not None
        else None
    )
    resumed_from: Optional[int] = None

    # ------------------------------------------------------------- resume
    resumes: Dict[int, int] = {}
    restored: Dict[int, Optional[_ReplaySnapshot]] = {}
    for i in idxs:
        checkpoint = (
            unlearner._load_checkpoint(fingerprint) if fingerprint is not None else None
        )
        if checkpoint is not None:
            # Takes precedence over the forest.  None of its rounds are
            # the forest's, so for the forest the node starts at F.
            resumed_from, snap = checkpoint
            _log.info("resuming recovery at round %d", resumed_from)
            hit = (forget_round, snap)
        elif forest is not None:
            hit = forest.lookup(record, base_key, forget_of[i], forget_round)
        else:
            hit = None
        resumes[i], restored[i] = hit or (forget_round, None)
        stats.member_rounds += num_rounds - resumes[i]

    # P[F..F+i), from the forest; without one every request starts at F.
    cum = (
        forest.participant_unions(record, base_key, forget_round)
        if forest is not None
        else [frozenset()]
    )
    # Requests sharing (resume round, effective set) have byte-identical
    # state there — they start in one node.
    buckets: Dict[Tuple[int, FrozenSet[int]], List[int]] = {}
    for i in sorted(idxs):
        key = (resumes[i], forget_of[i] & cum[resumes[i] - forget_round])
        buckets.setdefault(key, []).append(i)

    def seed_state(cids) -> CohortState:
        return CohortState.from_estimators(
            unlearner._seed_estimators(record, cids, forget_round)
        )

    def seed_missing(node: _ExecNode) -> None:
        """Seed estimators for the node's remaining clients that have
        none.  A form stays current unless a seeded one holds pairs:
        clients without pairs are in no group, they only move slots."""
        remaining = np.array(remaining_ids(record, node.union), dtype=np.int64)
        missing = remaining[np.isin(remaining, node.state.cids, invert=True)]
        if not missing.size:
            return
        fresh = seed_state(missing.tolist())
        node.state = node.state.merged(fresh)
        if node.form is not None:
            pairs = any(map(len, fresh.pairs))
            node.form = None if pairs else CohortForm(node.state, like=node.form)

    # FedAvg weights |D_i| for a block of clients, from one sorted table.
    known = np.array(sorted(record.client_sizes), dtype=np.int64)
    sizes = np.array([float(record.client_sizes[c]) for c in known.tolist()])

    def weigh(present: np.ndarray) -> np.ndarray:
        if len(known) and found_in(known, present).all():
            return sizes[np.searchsorted(known, present)]
        return np.array([record.weight_of(c) for c in present.tolist()])

    opt = SGD(record.learning_rate)

    def replay_node(node, rows: RoundRows, at, disp_vec, refresh_now) -> float:
        """Eq. 6/7 for the node's present rows ``rows`` at ``at``, then
        the aggregate and Eq. 2 on its arena row; the displacement norm.
        (Its own scope: nothing of the round outlives it, so the next
        round's form is never built beside this one's.)"""
        if node.form is None:
            node.form = CohortForm(node.state)
        plan = node.form.plan(rows.cids[at], weigh)
        stored = rows.rows_at(at)
        if stored is None:
            ragged = [rows[c] for c in rows.cids[at].tolist()]
            stored = _stack_rows(ragged, disp_vec.size)
        estimates = estimate_cohort(node.state, plan, stored, disp_vec, refresh_now)
        if refresh_now:
            node.form = None  # the present slots took new pairs
        displacement = float(np.linalg.norm(disp_vec))
        node.displacement_norms.append(displacement)
        opt.step_(
            node.recovered,
            plan.fedavg(estimates)
            if aggregate is fedavg
            else aggregate(estimates, plan.weights),
        )
        node.rounds_replayed += 1
        return displacement

    arena = BranchArena(len(idxs), int(record.final_params().size))
    active: List[_ExecNode] = []
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
            node.row = arena.acquire(params)
            node.state = seed_state(remaining_ids(record, node.union))
        else:
            node.row = arena.acquire(snap.params)
            # The snapshot was filtered by one member's forget set; the
            # node must exclude every member's.
            node.state = snap.estimators.without(node.union)
            seed_missing(node)
            progress = snap.progress
            node.rounds_replayed = int(progress["rounds_replayed"])
            node.skipped_rounds = int(progress["skipped_rounds"])
            node.missing_entries = int(progress["missing_entries"])
            node.missing_checkpoints = int(progress["missing_checkpoints"])
            norms, length = progress["displacement_norms"]
            node.displacement_norms = norms[:length]
        node.recovered = arena.row(node.row)
        active.append(node)

    def flush_snapshots(node: _ExecNode) -> None:
        if forest is not None and node.snapshots:
            forest.store(
                record, base_key, node.store_forget, forget_round, node.snapshots
            )
        node.snapshots = {}

    def retire(node: _ExecNode) -> None:
        flush_snapshots(node)
        arena.release(node.row)
        active.remove(node)

    def refit_union(node: _ExecNode) -> None:
        """After members left (abort), the node may forget fewer
        clients: re-seed estimators for the newly remaining ones (they
        cannot have participated yet — otherwise the departed member
        would have forked off earlier)."""
        new_union = frozenset().union(*(forget_of[m] for m in node.members))
        if new_union == node.union:
            node.store_forget = forget_of[node.members[0]]
            return
        flush_snapshots(node)  # committed under the old effective keying
        node.forget(new_union)
        node.store_forget = forget_of[node.members[0]]
        seed_missing(node)

    def round_done(node: _ExecNode, t: int) -> None:
        """The crash checkpoint, on its cadence, after a round."""
        if (
            fingerprint is not None
            and (t - forget_round + 1) % unlearner.checkpoint_every == 0
        ):
            if telemetry.enabled:
                telemetry.inc("recovery_checkpoints_total")
            unlearner._save_checkpoint(
                fingerprint, t + 1, _node_snapshot(unlearner, node), resumed_from
            )

    def node_skip(node: _ExecNode, t: int, missing_checkpoint: bool = False) -> None:
        node.skipped_rounds += 1
        if missing_checkpoint:
            node.missing_checkpoints += 1
        if telemetry.enabled:
            telemetry.inc("recovery_rounds_skipped_total")
            telemetry.set_gauge(
                "recovery_progress", (t - forget_round + 1) / replay_window
            )
        round_done(node, t)

    # -------------------------------------------------------------- replay
    start = (
        resumed_from
        if resumed_from is not None
        else min(node.resume for node in active)
    )
    depth = unlearner.prefetch_depth
    prefetcher: Optional[RoundPrefetcher] = None
    if depth > 0 and getattr(record.gradients, "supports_bulk_round", False):
        # Pipeline the shared read: one prefetcher serves every branch,
        # over the rounds some member still reads — those with a
        # participant outside every member's forget set.  A lone request
        # lends it its cancel_check; otherwise cancellation is per member,
        # and an aborted member must not kill the siblings' pipeline.
        forgotten_by_all = frozenset.intersection(*(forget_of[i] for i in idxs))
        reads = [
            t
            for t in range(start, num_rounds)
            if any(
                c not in forgotten_by_all for c in record.ledger.participants_at(t)
            )
        ]
        if reads:
            prefetcher = RoundPrefetcher(
                record.gradients,
                reads,
                depth=depth,
                cache=unlearner.decode_cache,
                cancel_check=checks[idxs[0]] if single else None,
                executor=unlearner.prefetch_executor,
            )
    try:
        for t in range(start, num_rounds):
            live = [n for n in active if n.resume <= t]
            if not live:
                continue

            # Per-member cooperative cancellation, between rounds.
            for node in list(live):
                for m in list(node.members):
                    check = checks[m]
                    if check is None:
                        continue
                    try:
                        check()
                    except BaseException as exc:
                        outcomes[m] = BranchOutcome(
                            result=None,
                            error=exc,
                            cached_prefix_rounds=resumes[m] - forget_round,
                        )
                        node.members.remove(m)
                        stats.aborted += 1
                if not node.members:
                    if forest is not None and t > node.resume:
                        # Nothing of round t has run: its start is the
                        # deepest state the members' retries can resume.
                        node.snapshots[t] = _node_snapshot(unlearner, node)
                    retire(node)
                    live.remove(node)
                else:
                    refit_union(node)
            if not live:
                continue

            # Committed start-of-round state, where someone new takes part
            # (the only rounds a node can fork, or a later request leave
            # it) — one snapshot per node, shared by every member.
            step = t - forget_round
            joined = forest is None or cum[step + 1] is not cum[step]
            if forest is not None and joined:
                for node in live:
                    if t > node.resume:
                        node.snapshots[t] = _node_snapshot(unlearner, node)

            # Fork at divergence: members whose forget sets intersect this
            # round's participants differently stop sharing here.  They
            # share their effective sets, so only a round where someone
            # takes part for the first time since F can split them
            # (without a forest to say which, every round is checked).
            participants_t = record.ledger.participant_ids(t)
            for node in list(live) if joined else ():
                if len(node.members) == 1:
                    continue  # nobody to part from
                p_set = frozenset(participants_t.tolist())
                parts: Dict[FrozenSet[int], List[int]] = {}
                for m in node.members:
                    parts.setdefault(forget_of[m] & p_set, []).append(m)
                if len(parts) == 1:
                    continue
                stats.forks += len(parts) - 1
                if telemetry.enabled:
                    telemetry.inc("recovery_forest_forks_total", len(parts) - 1)
                    telemetry.observe("recovery_forest_fork_depth", t - forget_round)
                flush_snapshots(node)
                part_list = sorted(parts.values(), key=min)
                children: List[Tuple[_ExecNode, List[int]]] = [(node, part_list[0])]
                for member_part in part_list[1:]:
                    clone = _ExecNode()
                    clone.row = arena.acquire(node.recovered)
                    clone.recovered = arena.row(clone.row)
                    clone.state = node.state.copy()
                    clone.rounds_replayed = node.rounds_replayed
                    clone.skipped_rounds = node.skipped_rounds
                    clone.missing_entries = node.missing_entries
                    clone.missing_checkpoints = node.missing_checkpoints
                    clone.displacement_norms = list(node.displacement_norms)
                    clone.resume = node.resume
                    clone.form = node.form  # same pairs, same frozen stacks
                    children.append((clone, member_part))
                for child, member_part in children:
                    child.members = list(member_part)
                    child.forget(
                        frozenset().union(*(forget_of[m] for m in member_part))
                    )
                    child.store_forget = forget_of[member_part[0]]
                    # Clients only the *other* parts forget become remaining
                    # here; by the fork invariant they have not participated
                    # yet, so seeding reproduces their cold state.
                    seed_missing(child)
                    if child is not node:
                        active.append(child)
                        live.append(child)
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
                    node_skip(node, t)
            if not reading:
                continue
            try:
                historical = record.params_at(t)
            except Exception:
                # Damaged record: without w_t neither Eq. 6's displacement
                # nor the refresh pairs exist — skip the round, keep going.
                for node, _ in reading:
                    node_skip(node, t, missing_checkpoint=True)
                continue
            rows: Optional[RoundRows] = None
            if prefetcher is not None:
                # Usually decoded in the background already; a failure
                # falls through to the per-client reads below.
                rows = prefetcher.fetch(t)
            elif getattr(record.gradients, "supports_bulk_round", False):
                try:
                    rows = RoundRows.of(record.gradients.get_round(t))
                except Exception:
                    rows = None
            if rows is None:
                # No bulk read, or a damaged round block: per-client reads
                # isolate the broken entries.
                entries: Dict[int, np.ndarray] = {}
                p_set = frozenset(participants_t.tolist())
                for cid in sorted(set().union(*(p_set - n.union for n, _ in reading))):
                    try:
                        entries[cid] = record.gradients.get(t, cid)
                    except Exception:
                        pass
                rows = RoundRows.of(entries)
            # Block positions of this round's participants' rows.
            listed = np.flatnonzero(found_in(participants_t, rows.cids))

            ready: List[Tuple[_ExecNode, np.ndarray]] = []
            for node, participating in reading:
                at = listed
                if node.union_ids.size and at.size:
                    at = at[~found_in(node.union_ids, rows.cids[at])]
                # Absent or undecodable entries: like a historical dropout.
                round_missing = participating - at.size
                node.missing_entries += round_missing
                if telemetry.enabled and round_missing:
                    telemetry.inc("recovery_missing_entries_total", round_missing)
                if at.size:
                    ready.append((node, at))
                else:
                    node_skip(node, t)
            if not ready:
                continue

            # Each ready node steps its own arena row: Eq. 6's displacement
            # is a fresh vector (a refresh may adopt it), Eq. 2 in place.
            refresh_now = (t - forget_round + 1) % unlearner.refresh_period == 0
            for node, at in ready:
                disp_vec = node.recovered - historical
                with telemetry.span("recovery_round_seconds"):
                    displacement = replay_node(
                        node, rows, at, disp_vec, refresh_now
                    )
                if telemetry.enabled:
                    telemetry.inc("recovery_rounds_total")
                    telemetry.set_gauge("recovery_displacement_norm", displacement)
                    telemetry.set_gauge(
                        "recovery_progress", (t - forget_round + 1) / replay_window
                    )
            stats.executed_node_rounds += len(ready)
            for node, _ in ready:
                shared = len(node.members) - 1
                if shared:
                    stats.shared_rounds += shared
                    if telemetry.enabled:
                        telemetry.inc("recovery_forest_shared_rounds_total", shared)
                round_done(node, t)
                if callback is not None:
                    callback(t, node.recovered.copy())
    except Exception:
        # Abort (substrate fault, a raising callback): every snapshot
        # held is committed start-of-round state, so salvaging it never
        # exposes a half-replayed round — the retry resumes the prefix
        # and recovers parameters byte-identical to a cold replay.
        for node in active:
            flush_snapshots(node)
        raise
    finally:
        if prefetcher is not None:
            # Releases every cache pin and cancels in-flight decodes
            # even on abort paths.
            prefetcher.close()

    # ------------------------------------------------------------ finalize
    for node in list(active):
        if forest is not None:
            node.snapshots[num_rounds] = _node_snapshot(unlearner, node)
        base_accepted = int(node.state.accepted.sum())
        base_rejected = int(node.state.rejected.sum())
        norms = node.displacement_norms
        mean_disp = float(np.mean(norms)) if norms else 0.0
        max_disp = float(np.max(norms)) if norms else 0.0
        for m in node.members:
            # Clients forgotten by siblings but remaining for this
            # member never participated (fork invariant), so their cold
            # estimators are exactly the seeded ones — count their pair
            # stats for parity with a standalone replay.
            extra = sorted(node.union - forget_of[m])
            accepted, rejected = base_accepted, base_rejected
            if extra:
                seeded = unlearner._seed_estimators(record, extra, forget_round)
                accepted += sum(e.pairs_accepted for e in seeded.values())
                rejected += sum(e.pairs_rejected for e in seeded.values())
            outcomes[m] = BranchOutcome(
                result=UnlearnResult(
                    params=node.recovered.copy(),
                    method=unlearner.name,
                    rounds_replayed=node.rounds_replayed,
                    client_gradient_calls=0,
                    stats={
                        "forget_round": forget_round,
                        "skipped_rounds": node.skipped_rounds,
                        "missing_entries": node.missing_entries,
                        "missing_checkpoints": node.missing_checkpoints,
                        "resumed_from": resumed_from,
                        "pairs_accepted": accepted,
                        "pairs_rejected": rejected,
                        "mean_displacement": mean_disp,
                        "max_displacement": max_disp,
                    },
                ),
                error=None,
                cached_prefix_rounds=resumes[m] - forget_round,
            )
        retire(node)
    _log.info(
        "replay from round %d over %d requests: %d node-rounds executed for "
        "%d member-rounds (%d shared, %d forks, peak width %d)",
        forget_round,
        len(idxs),
        stats.executed_node_rounds,
        stats.member_rounds,
        stats.shared_rounds,
        stats.forks,
        stats.peak_branches,
    )


def _stack_rows(rows: List[np.ndarray], d: int) -> np.ndarray:
    """A ragged round's rows as one block, once each is checked to hold
    ``d`` elements."""
    for row in rows:
        if row.shape != (d,):
            raise ValueError(f"gradient/displacement mismatch: {row.shape} vs {(d,)}")
    return np.stack(rows)
