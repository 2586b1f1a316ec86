"""The replay forest: committed replay states, shared across erasure
requests.

Successive erasure requests replay overlapping windows — forgetting
``{a}`` then ``{a, b}`` repeats every round up to ``b``'s first
appearance.  A :class:`ReplayForest` keeps the committed state
(parameters, L-BFGS pairs columns, progress counters — replay is
RNG-free, so no generator state exists to key) at the start of every
round that brings in a new participant, and at the end, in a shared
tree keyed by the **effective forget set** ``S ∩ P[F..t)``: the
trajectory at round ``t`` depends on the forget set only through the
forgotten clients that participated since the backtrack round, so
arbitrary overlapping requests — supersets, subsets, or *incomparable*
sets — share every common prefix segment and fork only at the first
round where their participation differs.  The restored state is
exactly what a cold replay would have reached (clients the storing
request had forgotten are re-seeded, which the effective-set match
makes exact), so cached-prefix results stay bitwise identical
(``tests/test_service_cache.py`` and ``tests/test_replay_forest.py``
assert this, stats included).

This module is only the cache: the replay engine
(:mod:`repro.unlearning.engine`) looks snapshots up, fills them in and
stores them back.  Forest traffic feeds the ``recovery_cache_*`` and
``recovery_forest_*`` metrics; ``docs/REPLAY.md`` is the design doc.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.telemetry.core import current_telemetry

__all__ = ["ReplayForest"]


class _ReplaySnapshot:
    """Committed replay state at the *start* of one round — immutable.

    ``params`` is a read-only copy of the recovered vector;
    ``estimators`` is a :class:`~repro.unlearning.estimator.CohortState`
    copy: its own counters and the replay's pairs column itself, so the
    snapshots a replay takes between two refreshes share one pairs
    column; ``progress`` holds the stats counters accumulated so far
    (the engine's :class:`~repro.unlearning.engine.ReplayProgress`,
    opaque here), so a resumed run's final ``UnlearnResult.stats`` is
    byte-identical to a cold one's.
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
