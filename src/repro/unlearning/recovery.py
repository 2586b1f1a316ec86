"""The paper's federated-unlearning scheme (Algorithm 1).

Complete pipeline, entirely on the server:

1. **Backtrack** (Eq. 5): roll the global model to ``w_F``.
2. **Seed** each remaining client's L-BFGS buffer from the historical
   information that existed *before* round ``F`` ("recovered
   information", §IV-B) — vector pairs
   ``(w_j − w_F, g_j^i − g_F^i)`` for the last ``s`` pre-``F`` rounds.
3. **Replay** rounds ``F … T−1``: estimate every remaining client's
   gradient with Eq. 6, clip with Eq. 7, aggregate with the training
   aggregation rule, and step with the training learning rate
   (the paper applies "the same settings as the original FL training").
4. **Refresh** the vector pairs every ``refresh_period`` rounds
   (paper: 21) with the recovery-round differences, because "outdated
   vector pairs … lead to a gradual divergence".

The stored gradients here are *directions* in ``{−1, 0, +1}`` (decoded
from the 2-bit sign store), so recovery is sign-SGD-like; this is
exactly the paper's design and the source of its storage savings.

No client is ever contacted: ``client_gradient_calls`` is 0 by
construction, which the integration tests assert.

One replay loop: :meth:`SignRecoveryUnlearner.unlearn` runs the
replay engine of :mod:`repro.unlearning.forest` with one request — a
one-member tree node *is* a serial replay — so every feature below
lives in that one loop.

Resilience: recovery over hundreds of rounds is itself a long-running
server job, and the record it replays may have rotted on disk.  With a
``checkpoint_dir`` the unlearner atomically checkpoints its replay
state every ``checkpoint_every`` rounds and resumes from the last
checkpoint after a crash, returning the same
:class:`~repro.unlearning.base.UnlearnResult` an uninterrupted run
would.  Missing or undecodable per-``(round, client)`` gradient entries
and missing checkpoints are skipped and counted (``missing_entries`` /
``missing_checkpoints`` in the stats) instead of raising; a round with
no remaining participant is skipped before anything of it is read.

Telemetry: each replayed round's Eq. 6/7 + aggregate is timed
(``recovery_round_seconds`` span), replayed/skipped/missing counts and
checkpoint commits feed counters, and two gauges track live progress —
the completed fraction of the replay window (``recovery_progress``) and
the Eq. 6 displacement ``‖w̄_t − w_t‖₂``
(``recovery_displacement_norm``).  The per-estimate clip rate and drift
come from :mod:`repro.unlearning.estimator` — see ``docs/METRICS.md``.

Amortized serving: successive erasure requests replay overlapping
windows — forgetting ``{a}`` then ``{a, b}`` repeats every round up to
``b``'s first appearance.  A :class:`ReplayForest` keeps the committed
state (parameters, L-BFGS pairs columns, progress counters — replay is
RNG-free, so no generator state exists to key) at the start of every
round that brings in a new participant, and at the end,
in a shared tree keyed by the **effective forget set**
``S ∩ P[F..t)``: the trajectory at round ``t`` depends on the forget
set only through the forgotten clients that participated since the
backtrack round, so arbitrary overlapping requests — supersets,
subsets, or *incomparable* sets — share every common prefix segment
and fork only at the first round where their participation differs.
The restored state is exactly what a cold replay would have reached
(clients the storing request had forgotten are re-seeded, which the
effective-set match makes exact), so cached-prefix results stay
bitwise identical (``tests/test_service_cache.py`` and
``tests/test_replay_forest.py`` assert this, stats included).  Forest
traffic feeds the ``recovery_cache_*`` and ``recovery_forest_*``
metrics; ``docs/REPLAY.md`` is the design doc.

Round reads go through the store's bulk
:meth:`~repro.storage.store.GradientStore.get_round` when the backend
advertises ``supports_bulk_round`` — one LUT pass per cohort, whose
block the cohort kernel reads as is — and fall back to per-client
reads (with their per-entry damage isolation) otherwise.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.fl.client import VehicleClient
from repro.fl.history import TrainingRecord
from repro.nn.model import Sequential
from repro.storage.prefetch import RoundDecodeCache
from repro.unlearning.base import ModelFactory, UnlearnResult, UnlearningMethod
from repro.telemetry.core import current_telemetry
from repro.unlearning.estimator import CohortState, GradientEstimator
from repro.utils.serialization import load_state, save_state_atomic

__all__ = ["ReplayForest", "SignRecoveryUnlearner"]

_CHECKPOINT = "recovery.npz"


class _ReplaySnapshot:
    """Committed replay state at the *start* of one round — immutable.

    ``params`` is a read-only copy of the recovered vector;
    ``estimators`` is a :class:`~repro.unlearning.estimator.CohortState`
    copy: its own counters and the replay's pairs column itself, so the
    snapshots a replay takes between two refreshes share one pairs
    column; ``progress`` holds the stats counters accumulated so far,
    so a resumed run's final ``UnlearnResult.stats`` is byte-identical
    to a cold one's.  Its ``"displacement_norms"`` is ``(norms, n)``:
    the first ``n`` entries of the storing run's append-only list.
    """

    __slots__ = ("params", "estimators", "progress")

    def __init__(self, params, estimators, progress):
        self.params = params
        self.estimators = estimators
        self.progress = progress

    def arrays(self):
        """Every array the snapshot keeps alive (shared ones repeat)."""
        yield self.params
        for pairs in self.estimators.pairs:
            for pair in pairs:
                yield from pair


class _ForestNode:
    """One shared snapshot in the forest: committed start-of-round state
    keyed (within its root) by ``(round, effective forget set)``.  Its
    snapshot's pairs column is the unit the byte accounting counts."""

    __slots__ = ("snapshot", "round", "effective")

    def __init__(self, snapshot: _ReplaySnapshot, round, effective):
        self.snapshot = snapshot
        self.round = round
        self.effective = effective


class _ForestRoot:
    """All trajectories sharing one ``(record, hyperparameters,
    backtrack round)`` anchor.  ``cum[i]`` caches the union of
    participants over rounds ``[F, F+i)`` — the basis for the
    effective-forget-set keying below.  ``nodes[t]`` maps effective set
    to node for the rounds ``t`` that hold one."""

    __slots__ = ("record_ref", "base_key", "forget_round", "cum", "nodes")

    def __init__(self, record_ref, base_key, forget_round):
        self.record_ref = record_ref
        self.base_key = base_key
        self.forget_round = forget_round
        self.cum: List[FrozenSet[int]] = [frozenset()]
        self.nodes: Dict[int, Dict[FrozenSet[int], _ForestNode]] = {}


class ReplayForest:
    """Shares every common replay prefix across erasure requests — a
    tree of committed snapshots, not a per-forget-set line.

    Replay is fully deterministic given (record, hyperparameters,
    forget set): each remaining client's estimator is seeded and
    refreshed independently, and a round's aggregation sees only that
    round's non-forgotten participants.  The trajectory up to round
    ``t`` therefore depends on the forget set ``S`` only through its
    **effective forget set** ``E_t = S ∩ P[F..t)`` — the forgotten
    clients that actually participated since the backtrack round ``F``.
    Two requests whose effective sets agree at ``t`` have byte-identical
    state at ``t``, whether or not either forget set contains the other
    (see ``docs/REPLAY.md`` for the argument).

    Snapshots are therefore stored as forest *nodes* keyed by
    ``(t, E_t)`` under a *root* keyed by ``(record identity,
    hyperparameter key, backtrack round)``.  A lookup for forget set
    ``S`` resumes from the deepest node whose key equals
    ``(t, S ∩ P[F..t))`` — the fork-at-divergence rule: overlapping but
    *incomparable* forget sets share every round before the first one
    where their symmetric difference participates.  On restore,
    estimators of clients in ``S`` are dropped; clients forgotten by
    the storing request but *remaining* for this one are absent from
    the node and are re-seeded by the caller (sound because an
    effective-set match proves they never participated in ``[F, t)``,
    so their seeded state equals their cold state).

    Snapshots are immutable and handed out by reference: a restore
    shares the node's read-only arrays with every other holder and
    copies only what it is about to write.

    ``S' ∩ P[F..t)`` only changes at a round that brings in someone
    new, so the deepest node a request can match is at such a
    *divergence round* or at a trajectory's tip (end state, watermark,
    abort point): the replay loop snapshots exactly those
    (:meth:`participant_unions`).  A caller whose forget sets only grow
    — the service — says so after each commit with :meth:`retire`,
    which drops what no later request can resume from.

    The record is held by weak reference: the forest never keeps a
    superseded history alive, and a root whose record is gone gives its
    bytes back at the next lookup or store.  Eviction is two-level LRU:
    whole roots beyond ``max_entries`` (``__len__`` counts roots) and
    individual snapshot nodes while the forest holds more than
    ``max_bytes`` — ``nbytes`` counts every distinct array once, however
    many nodes share it — except the most recently used node, which
    always stays, so a replay's progress is salvageable under any
    budget.  Evicting a node only deepens a future request's replay.

    Counters ``hits``/``misses``/``evictions``/``rounds_saved`` mirror
    the ``recovery_cache_*`` telemetry; ``node_evictions``,
    ``nodes_retired``, the node count and ``nbytes`` feed the
    ``recovery_forest_*`` family (see ``docs/METRICS.md``).
    """

    def __init__(self, max_entries: int = 8, max_bytes: int = 128 * 1024 * 1024):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # Least recently used first, like ``_lru``.
        self._roots: List[_ForestRoot] = []
        # Every node -> its root, least recently used first.  (Not a
        # pointer on the node: a dying forest must not need the cycle
        # collector to give its bytes back.)
        self._lru: "OrderedDict[_ForestNode, _ForestRoot]" = OrderedDict()
        # id -> [object, holders] for each params array, pairs column,
        # pairs tuple and pair array the nodes hold; a shared one is
        # counted once.
        self._held: Dict[int, List] = {}
        #: Bytes of the distinct arrays held by all nodes.
        self.nbytes = 0
        # Snapshot-isolated erasures replay (and salvage) concurrently;
        # the forest is their shared rendezvous, so its public surface
        # is serialized by one reentrant lock.  Sections are short
        # (bookkeeping, no replay work), so contention is negligible.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rounds_saved = 0
        self.node_evictions = 0
        self.nodes_retired = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._roots)

    @property
    def node_count(self) -> int:
        """Snapshot nodes currently held across all roots."""
        return len(self._lru)

    def recount_nbytes(self) -> int:
        """Recompute :attr:`nbytes` from the nodes actually held — the
        accounting oracle, like the stores' ``recount_nbytes``."""
        with self._lock:
            sizes = {
                id(array): array.nbytes
                for node in self._lru
                for array in node.snapshot.arrays()
            }
            return sum(sizes.values())

    # ------------------------------------------------------------------
    @staticmethod
    def _anchor(record):
        """Root-identity object for ``record``.

        A pinned :class:`~repro.fl.live.RecordSnapshot` carries a
        ``forest_anchor`` pointing at the live record it froze — so
        replays against any watermark of one live history, and the
        merge commits over the history itself, all share one root (and
        therefore every common prefix segment).  Plain records anchor
        to themselves.
        """
        return getattr(record, "forest_anchor", record)

    @staticmethod
    def _extend_cum(root: _ForestRoot, record) -> None:
        """Grow ``root.cum`` through ``record.num_rounds``.

        A root created from a snapshot view covers rounds up to its
        watermark; a later lookup/store over a deeper view (the live
        record at commit time, or a fresher snapshot) extends the
        cached participant unions from the passed record's ledger.
        Participation of past rounds is append-only — events only ever
        land on the current round — so extension never rewrites an
        existing entry.  A round that brings nobody new repeats the
        previous entry itself, not a copy of it.
        """
        F = root.forget_round
        want = record.num_rounds - F + 1
        while len(root.cum) < want:
            t = F + len(root.cum) - 1
            seen = root.cum[-1]
            joined = frozenset(record.ledger.participants_at(t)) - seen
            root.cum.append(seen | joined if joined else seen)

    def _find_root(self, record, base_key, forget_round: int) -> Optional[_ForestRoot]:
        """The root for this anchor, marked most recently used.  Roots
        whose record has been garbage-collected can never match again —
        they are dropped, and their bytes released, on the way."""
        for root in [r for r in self._roots if r.record_ref() is None]:
            self._drop_root(root)
        anchor = self._anchor(record)
        for root in self._roots:
            if (
                root.record_ref() is anchor
                and root.forget_round == forget_round
                and root.base_key == base_key
            ):
                self._roots.remove(root)
                self._roots.append(root)
                return root
        return None

    def _root(self, record, base_key, forget_round: int) -> _ForestRoot:
        """:meth:`_find_root`, or a new root (whole roots beyond
        ``max_entries`` go, LRU); ``cum`` covers ``record`` either way."""
        root = self._find_root(record, base_key, forget_round)
        if root is None:
            root = _ForestRoot(
                weakref.ref(self._anchor(record)), base_key, forget_round
            )
            self._roots.append(root)
            while len(self._roots) > self.max_entries:
                self._drop_root(self._roots[0])
                self.evictions += 1
                current_telemetry().inc("recovery_cache_evictions_total")
        self._extend_cum(root, record)
        return root

    def participant_unions(
        self, record, base_key: Tuple, forget_round: int
    ) -> List[FrozenSet[int]]:
        """``P[F..F+i)`` for ``i = 0 … record.num_rounds − F`` — this
        anchor's root's own list, to read.  Entries ``i`` and ``i + 1``
        are the *same object* when round ``F + i`` brought nobody new:
        no request stops matching a trajectory there, so its start is
        not worth a snapshot."""
        with self._lock:
            return self._root(record, base_key, forget_round).cum

    # ------------------------------------------------------------------
    # byte accounting
    # ------------------------------------------------------------------
    def _count(self, obj, delta: int) -> bool:
        """Add (+1) or remove (-1) one holder of ``obj``; True when it
        thereby became held, or stopped being held."""
        entry = self._held.get(id(obj))
        if entry is None:
            self._held[id(obj)] = [obj, 1]
            return True
        entry[1] += delta
        if entry[1]:
            return False
        del self._held[id(obj)]
        return True

    def _count_array(self, array: np.ndarray, delta: int) -> None:
        if self._count(array, delta):
            self.nbytes += delta * array.nbytes

    def _count_column(self, column: Tuple, delta: int) -> None:
        """One node's hold on a pairs column.  A replay's snapshots share
        one column between refreshes, so a node mostly costs one probe;
        a column's tuples, and a tuple's arrays, are visited only when
        the first holder arrives or the last leaves."""
        if column and self._count(column, delta):
            for pairs in column:
                if self._count(pairs, delta):
                    for pair in pairs:
                        for array in pair:
                            self._count_array(array, delta)

    def _drop_node(self, node: _ForestNode) -> None:
        root = self._lru.pop(node)
        level = root.nodes[node.round]
        del level[node.effective]
        if not level:
            del root.nodes[node.round]
        self._count_array(node.snapshot.params, -1)
        self._count_column(node.snapshot.estimators.pairs, -1)

    def _drop_root(self, root: _ForestRoot) -> None:
        self._roots.remove(root)
        for level in list(root.nodes.values()):
            for node in list(level.values()):
                self._drop_node(node)

    # ------------------------------------------------------------------
    def lookup(
        self,
        record,
        base_key: Tuple,
        forget: FrozenSet[int],
        forget_round: int,
    ) -> Optional[Tuple[int, _ReplaySnapshot]]:
        """Deepest reusable ``(resume_round, snapshot)`` for a request.

        Matches nodes under the root with the same record,
        hyperparameters, and backtrack round (the refresh cadence and
        estimator seeding are anchored at the backtrack round, so a
        different anchor is a different trajectory) whose key equals
        ``(t, forget ∩ P[F..t))`` — the one key the request can occupy
        at round ``t``, probed at each round that holds a node, from
        the deepest within the requesting view's watermark down to the
        backtrack round.  Returns None — and counts a miss —
        when no node deeper than the backtrack round matches.
        The snapshot returned shares the node's (read-only) arrays.
        """
        telemetry = current_telemetry()
        forget = frozenset(forget)
        with self._lock:
            root = self._find_root(record, base_key, forget_round)
            node: Optional[_ForestNode] = None
            if root is not None:
                self._extend_cum(root, record)
                for t in sorted(root.nodes, reverse=True):
                    if forget_round < t <= record.num_rounds:
                        node = root.nodes[t].get(forget & root.cum[t - forget_round])
                        if node is not None:
                            break
            if node is None:
                self.misses += 1
                if telemetry.enabled:
                    telemetry.inc("recovery_cache_misses_total")
                return None
            self._lru.move_to_end(node)
            saved = node.round - forget_round
            self.hits += 1
            self.rounds_saved += saved
            if telemetry.enabled:
                telemetry.inc("recovery_cache_hits_total")
                telemetry.inc("recovery_cache_rounds_saved_total", saved)
                telemetry.observe("recovery_forest_hit_depth", saved)
            snapshot = node.snapshot
            return node.round, _ReplaySnapshot(
                params=snapshot.params,
                estimators=snapshot.estimators.without(forget),
                progress=snapshot.progress,
            )

    def store(
        self,
        record,
        base_key: Tuple,
        forget: FrozenSet[int],
        forget_round: int,
        snapshots: Dict[int, _ReplaySnapshot],
    ) -> None:
        """Commit one replay's snapshots into the forest.

        Each snapshot at round ``t`` lands on the node keyed by
        ``(t, forget ∩ P[F..t))``.  An existing node keeps its snapshot
        and absorbs estimator entries for clients it lacked (coverage
        only ever grows); new nodes join the shared tree, so a later
        request matches them regardless of which forget set committed
        them.  Whole roots beyond ``max_entries`` are evicted LRU; then
        nodes are, oldest first, until ``nbytes`` fits ``max_bytes`` —
        rounds are committed in ascending order, so the replay's
        deepest round is the newest node and the one that always stays.
        """
        if not snapshots:
            return
        telemetry = current_telemetry()
        with self._lock:
            forget = frozenset(forget)
            root = self._root(record, base_key, forget_round)
            for t in sorted(snapshots):
                snap = snapshots[t]
                effective = forget & root.cum[t - forget_round]
                level = root.nodes.setdefault(t, {})
                node = level.get(effective)
                if node is None:
                    node = level[effective] = _ForestNode(snap, t, effective)
                    self._count_array(snap.params, +1)
                    self._count_column(snap.estimators.pairs, +1)
                else:
                    # Keep the established snapshot (byte-identical state by
                    # the effective-set argument) but widen its estimator
                    # coverage with clients this replay tracked and the
                    # stored one had forgotten.
                    held = node.snapshot
                    wider = held.estimators.merged(snap.estimators)
                    if wider is not held.estimators:
                        self._count_column(wider.pairs, +1)
                        self._count_column(held.estimators.pairs, -1)
                        node.snapshot = _ReplaySnapshot(
                            held.params, wider, held.progress
                        )
                self._lru[node] = root
                self._lru.move_to_end(node)
            while self.nbytes > self.max_bytes and len(self._lru) > 1:
                self._drop_node(next(iter(self._lru)))
                self.node_evictions += 1
                if telemetry.enabled:
                    telemetry.inc("recovery_forest_node_evictions_total")
            self._export_gauges(telemetry)

    def _export_gauges(self, telemetry) -> None:
        telemetry.set_gauge("recovery_cache_entries", len(self._roots))
        telemetry.set_gauge("recovery_forest_nodes", len(self._lru))
        telemetry.set_gauge("recovery_forest_bytes", self.nbytes)

    def retire(self, record, erased) -> int:
        """Drop what no request ``S' ⊇ erased`` over ``record`` can
        resume from — every later request, for a caller whose forget
        sets only grow (the service, after each commit); returns the
        number of nodes dropped.  Hit depth is unchanged for every such
        ``S'`` (``docs/REPLAY.md``, "Retirement").

        ``S'`` backtracks no later than the erased clients' earliest
        join, so a root anchored later is dead.  Elsewhere it can only
        match a node ``(t, eff)`` with ``erased ∩ P[F..t) ⊆ eff``; and
        where two such nodes carry the same not-yet-erased clients
        (``eff − erased``) and nobody not yet erased joins ``P`` between
        their rounds, whatever matches the shallower matches the deeper
        — so the deepest of each such group stays.
        """
        erased = frozenset(erased)
        if not erased:
            return 0
        with self._lock:
            before = len(self._lru)
            anchor = self._anchor(record)
            earliest = min(record.ledger.join_round(cid) for cid in erased)
            for root in [r for r in self._roots if r.record_ref() is anchor]:
                if root.forget_round > earliest:
                    self._drop_root(root)
                    continue
                deepest = set()
                for t in sorted(root.nodes, reverse=True):
                    seen = root.cum[t - root.forget_round]
                    gone = erased & seen
                    # P[F..t) − erased only grows with t: its size names it.
                    alive = len(seen) - len(gone)
                    for node in list(root.nodes[t].values()):
                        group = (alive, node.effective - erased)
                        if gone <= node.effective and group not in deepest:
                            deepest.add(group)
                        else:
                            self._drop_node(node)
            retired = before - len(self._lru)
            self.nodes_retired += retired
            telemetry = current_telemetry()
            if retired:
                telemetry.inc("recovery_forest_nodes_retired_total", retired)
            self._export_gauges(telemetry)
            return retired


class SignRecoveryUnlearner(UnlearningMethod):
    """Backtracking + sign-direction recovery (the paper's scheme).

    Parameters
    ----------
    clip_threshold:
        ``L`` of Eq. 7 (paper default 1).
    buffer_size:
        ``s``, the number of L-BFGS vector pairs (paper default 2).
    refresh_period:
        Rounds between vector-pair refreshes (paper default 21).
    round_callback:
        Optional ``(recovery_round, params)`` hook, used by the figures
        to trace accuracy during recovery.
    checkpoint_dir:
        When set, replay state is checkpointed here (atomically) every
        ``checkpoint_every`` rounds, and :meth:`unlearn` resumes from
        an existing checkpoint instead of restarting.  The checkpoint
        is removed on successful completion.
    checkpoint_every:
        Replay rounds between checkpoints.
    prefix_cache:
        Optional :class:`ReplayForest` shared across requests.
        When set, :meth:`unlearn` resumes from the deepest reusable
        cached snapshot (unless a crash checkpoint takes precedence)
        and commits this replay's snapshots back — one per round that
        brings in a new participant, plus the final state.  The
        rounds skipped this way are reported via
        ``last_cached_prefix_rounds``, *not* in the result stats —
        cached and cold runs return byte-identical results.
    cancel_check:
        Optional no-arg callable invoked *between* replay rounds — the
        cooperative cancellation checkpoint.  Raising from it (e.g. a
        :class:`~repro.serving.requests.DeadlineExceededError` from the
        serving daemon) aborts the replay at a committed round
        boundary: the rounds already replayed, up to the one the
        abort landed on, are salvaged into the prefix cache (committed
        start-of-round states), so an aborted request wastes nothing
        and the next request over the same forget set resumes them —
        recovering parameters byte-identical to an uninterrupted cold
        replay.
    prefetch_depth:
        Look-ahead window of the replay data-path pipeline
        (:mod:`repro.storage.prefetch`): while round ``t`` computes,
        rounds ``t+1 .. t+depth`` bulk-decode on a background thread.
        ``0`` (the default) is the synchronous path (no pipeline).
        Recovered parameters are bitwise identical at every depth.
    decode_cache:
        Optional shared :class:`~repro.storage.prefetch.RoundDecodeCache`
        so concurrent/successive requests over the same record resolve
        each round's decode once (the service wires its own in).
    prefetch_executor:
        Optional externally-owned thread pool for the background
        decodes; a private one is built per replay when omitted.
    """

    name = "ours"

    def __init__(
        self,
        clip_threshold: float = 1.0,
        buffer_size: int = 2,
        refresh_period: int = 21,
        round_callback: Optional[Callable[[int, np.ndarray], None]] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 5,
        prefix_cache: Optional[ReplayForest] = None,
        cancel_check: Optional[Callable[[], None]] = None,
        prefetch_depth: int = 0,
        decode_cache: Optional[RoundDecodeCache] = None,
        prefetch_executor: Optional[ThreadPoolExecutor] = None,
    ):
        if refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        self.clip_threshold = clip_threshold
        self.buffer_size = buffer_size
        self.refresh_period = refresh_period
        self.round_callback = round_callback
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.prefix_cache = prefix_cache
        self.cancel_check = cancel_check
        self.prefetch_depth = prefetch_depth
        self.decode_cache = decode_cache
        self.prefetch_executor = prefetch_executor
        #: Replay rounds the last :meth:`unlearn` call skipped thanks to
        #: a prefix-cache hit (0 on a cold run).
        self.last_cached_prefix_rounds = 0

    # ------------------------------------------------------------------
    def _seed_estimators(
        self,
        record: TrainingRecord,
        remaining: Sequence[int],
        forget_round: int,
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
        estimators: Dict[int, GradientEstimator] = {}
        # ``w_j − w_a`` is the same for every client anchored at ``a``:
        # computed once, frozen, shared by their buffers.
        displacements: Dict[Tuple[int, int], np.ndarray] = {}
        for cid in remaining:
            est = GradientEstimator(
                buffer_size=self.buffer_size, clip_threshold=self.clip_threshold
            )
            anchor = next(
                (
                    t
                    for t in range(forget_round, record.num_rounds)
                    if record.gradients.has(t, cid)
                ),
                None,
            )
            if anchor is not None:
                try:
                    w_anchor = record.params_at(anchor)
                    g_anchor = record.gradients.get(anchor, cid)
                except Exception:  # damaged anchor: start with an empty buffer
                    estimators[cid] = est
                    continue
                pre_rounds = [
                    j
                    for j in range(max(0, forget_round - 4 * self.buffer_size), forget_round)
                    if record.gradients.has(j, cid)
                ][-self.buffer_size :]
                for j in pre_rounds:
                    try:
                        delta_w = displacements.get((j, anchor))
                        if delta_w is None:
                            delta_w = record.params_at(j) - w_anchor
                            delta_w.flags.writeable = False
                            displacements[(j, anchor)] = delta_w
                        est.refresh_pair(
                            delta_w, record.gradients.get(j, cid) - g_anchor
                        )
                    except Exception:
                        continue
            estimators[cid] = est
        return estimators

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_path(self) -> str:
        assert self.checkpoint_dir is not None
        return os.path.join(self.checkpoint_dir, _CHECKPOINT)

    def _fingerprint(
        self, record: TrainingRecord, forget_ids: Sequence[int], forget_round: int
    ) -> Dict:
        """Identity of one logical recovery — a checkpoint from a
        different request or record must never be resumed."""
        return {
            "forget_ids": sorted(int(c) for c in forget_ids),
            "forget_round": int(forget_round),
            "num_rounds": int(record.num_rounds),
            "clip_threshold": float(self.clip_threshold),
            "buffer_size": int(self.buffer_size),
            "refresh_period": int(self.refresh_period),
        }

    # ------------------------------------------------------------------
    # prefix-cache snapshots
    # ------------------------------------------------------------------
    def _cache_base_key(self, record: TrainingRecord) -> Tuple:
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
            float(self.clip_threshold),
            int(self.buffer_size),
            int(self.refresh_period),
        )

    def _make_snapshot(
        self,
        recovered: np.ndarray,
        estimators: CohortState,
        rounds_replayed: int,
        skipped_rounds: int,
        missing_entries: int,
        missing_checkpoints: int,
        displacement_norms: List[float],
    ) -> _ReplaySnapshot:
        """Snapshot the committed replay state: one copy of the
        parameter vector and of the estimator counters, everything else
        by reference.

        ``displacement_norms`` must be the run's own append-only list —
        the snapshot records its current length, not its contents.
        """
        params = recovered.copy()
        params.flags.writeable = False
        return _ReplaySnapshot(
            params=params,
            estimators=estimators.copy(),
            progress={
                "rounds_replayed": rounds_replayed,
                "skipped_rounds": skipped_rounds,
                "missing_entries": missing_entries,
                "missing_checkpoints": missing_checkpoints,
                "displacement_norms": (displacement_norms, len(displacement_norms)),
                # Snapshots restore transparently: a cache hit is not a
                # crash resume, and stats must match a cold run's.
                "resumed_from": None,
            },
        )

    def _save_checkpoint(
        self,
        fingerprint: Dict,
        next_round: int,
        snapshot: _ReplaySnapshot,
        resumed_from: Optional[int],
    ) -> None:
        arrays: Dict[str, np.ndarray] = {"recovered": snapshot.params}
        est_meta: Dict[str, Dict] = {}
        states = snapshot.estimators.states()
        for cid, (pairs, made, accepted, rejected) in states.items():
            for j, (dw, dg) in enumerate(pairs):
                arrays[f"p_{cid}_{j}_w"] = dw
                arrays[f"p_{cid}_{j}_g"] = dg
            est_meta[str(cid)] = {
                "num_pairs": len(pairs),
                "estimates_made": made,
                "pairs_accepted": accepted,
                "pairs_rejected": rejected,
            }
        norms, length = snapshot.progress["displacement_norms"]
        save_state_atomic(
            self._checkpoint_path(),
            arrays,
            {
                "fingerprint": fingerprint,
                "next_round": next_round,
                "estimators": est_meta,
                "progress": {
                    **snapshot.progress,
                    "displacement_norms": norms[:length],
                    "resumed_from": resumed_from,
                },
            },
        )

    def _load_checkpoint(
        self, fingerprint: Dict
    ) -> Optional[Tuple[int, _ReplaySnapshot]]:
        """``(resume_round, snapshot)`` from this request's checkpoint,
        or None when there is none."""
        path = self._checkpoint_path()
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
        progress = dict(meta["progress"])
        norms = [float(n) for n in progress["displacement_norms"]]
        progress["displacement_norms"] = (norms, len(norms))
        params = np.asarray(arrays["recovered"], dtype=np.float64)
        estimators = CohortState.from_states(
            states, self.buffer_size, self.clip_threshold
        )
        return int(meta["next_round"]), _ReplaySnapshot(params, estimators, progress)

    # ------------------------------------------------------------------
    def unlearn(
        self,
        record: TrainingRecord,
        forget_ids: Sequence[int],
        model: Sequential,
        clients: Optional[Dict[int, VehicleClient]] = None,
        model_factory: Optional[ModelFactory] = None,
    ) -> UnlearnResult:
        """Run Algorithm 1: the replay engine
        (:func:`repro.unlearning.forest.fused_unlearn`) with this one
        request.  ``clients``/``model_factory`` are ignored — the
        method is server-only."""
        from repro.unlearning.forest import fused_unlearn

        (outcome,), _ = fused_unlearn(self, record, [forget_ids], [self.cancel_check])
        self.last_cached_prefix_rounds = outcome.cached_prefix_rounds
        if outcome.error is not None:
            raise outcome.error
        if self.checkpoint_dir is not None and os.path.exists(self._checkpoint_path()):
            os.remove(self._checkpoint_path())
        return outcome.result
