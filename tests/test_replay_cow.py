"""Replay state as a copy-on-write value, and the forest's byte budget.

The contracts under test (``docs/REPLAY.md``, "Eviction and capacity"):

- Every array reachable from a snapshot, a restored estimator or a
  forked sibling is **read-only** and **shared by identity** — nothing
  is copied on the way in or out, and nothing a restored replay does to
  its own state can reach a sibling.
- ``ReplayForest.nbytes`` counts each distinct array once and agrees
  with the ``recount_nbytes()`` oracle after any sequence of stores,
  lookups, coverage widenings, evictions, root evictions and record
  garbage collections; it stays within ``max_bytes`` except for the one
  node that is never evicted.
- Lookup (one probe per round, deepest first) finds exactly what a scan
  over every node finds.
- Retirement (``ReplayForest.retire`` after each commit) and sparse
  snapshots (divergence rounds and tips only) lose no hit depth: a
  forest run that way resumes every admissible next request at the same
  round as an unretired twin fed a snapshot per round.
- A request whose prefix was evicted still reproduces the cold digest,
  on every sign-store backend.
- N snapshots, restores and forks of one replay allocate N parameter
  vectors and no pair bytes.
"""

import gc
import hashlib
import itertools
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.unlearning import ReplayForest, SignRecoveryUnlearner
from repro.unlearning.estimator import CohortState, GradientEstimator
from repro.unlearning.lbfgs import LbfgsBuffer
from repro.unlearning.recovery import _ReplaySnapshot

from tests.test_service_cache import CLIP, NUM_ROUNDS, build_record, cold_reference


def assert_frozen(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 1.0


def snapshot_digest(snapshot, cids=None):
    h = hashlib.sha256(snapshot.params.tobytes())
    states = snapshot.estimators.states()
    for cid in sorted(states if cids is None else cids):
        pairs, *counters = states[cid]
        h.update(repr((cid, counters)).encode())
        for dw, dg in pairs:
            h.update(dw.tobytes())
            h.update(dg.tobytes())
    return h.hexdigest()


def forest_nodes(forest):
    return list(forest._lru)


def columns(estimators):
    """``{cid: (pairs, made, accepted, rejected)}`` as a snapshot's
    estimator columns."""
    return CohortState.from_states(estimators, 1, 1.0)


# ----------------------------------------------------------------------
# frozen, shared pairs
# ----------------------------------------------------------------------
class TestLbfgsOwnership:
    def test_add_pair_copies_and_the_caller_keeps_writing(self):
        buf = LbfgsBuffer()
        dw, dg = np.arange(1.0, 5.0), np.arange(1.0, 5.0)
        assert buf.add_pair(dw, dg)
        dw[0] = dg[0] = 99.0  # still the caller's
        ((held_w, held_g),) = buf.pairs()
        assert held_w[0] == held_g[0] == 1.0
        assert_frozen(held_w)
        assert_frozen(held_g)

    def test_adopt_pair_freezes_in_place_and_runs_the_checks(self):
        buf = LbfgsBuffer()
        dw, dg = np.arange(1.0, 5.0), np.arange(1.0, 5.0)
        assert buf.adopt_pair(dw, dg)
        assert buf.pairs()[0][0] is dw and buf.pairs()[0][1] is dg
        assert_frozen(dw)
        rejected = np.ones(4)
        assert not buf.adopt_pair(np.zeros(4), rejected)  # zero step
        assert not buf.adopt_pair(np.ones(4), -rejected)  # negative curvature
        assert rejected.flags.writeable  # a rejected pair is not taken
        with pytest.raises(ValueError, match="mismatch"):
            buf.adopt_pair(np.ones(3), np.ones(4))

    def test_pairs_is_a_value_the_buffer_never_changes(self):
        buf = LbfgsBuffer(buffer_size=2)
        s = np.arange(1.0, 4.0)
        buf.add_pair(s, s)
        before = buf.pairs()
        assert buf.pairs() is before  # no copy, not even of the tuple
        buf.add_pair(2 * s, s)
        buf.add_pair(3 * s, s)  # rolls the first pair out
        assert len(before) == 1 and len(buf.pairs()) == 2
        other = LbfgsBuffer(buffer_size=2)
        other.adopt_pairs(buf.pairs())
        v = np.array([0.5, -1.0, 2.0])
        assert other.hvp(v).tobytes() == buf.hvp(v).tobytes()
        assert other.pairs()[0][0] is buf.pairs()[0][0]


class TestFrozenSharing:
    def replayed_forest(self):
        record, model = build_record(3)
        forest = ReplayForest()
        # refresh_period=3: several refreshes inside the 12-round record,
        # so nodes hold adopted refresh pairs, not only seeded ones.
        unlearner = SignRecoveryUnlearner(
            clip_threshold=CLIP, refresh_period=3, prefix_cache=forest
        )
        unlearner.unlearn(record, [5, 6], model)
        return record, model, forest, unlearner

    def test_everything_reachable_is_read_only(self):
        record, _, forest, unlearner = self.replayed_forest()
        nodes = forest_nodes(forest)
        assert any(
            state[0] for n in nodes for state in n.snapshot.estimators.states().values()
        )
        for node in nodes:
            for array in node.snapshot.arrays():
                assert_frozen(array)
        resume, restored = forest.lookup(
            record, unlearner._cache_base_key(record), frozenset({5, 7}), 3
        )
        for array in restored.arrays():
            assert_frozen(array)
        # What a replay node's restore and a fork make of it.
        estimators = restored.estimators.without(frozenset({5, 7}))
        forked = estimators.copy()
        stored, own, theirs = (
            state.states() for state in (restored.estimators, estimators, forked)
        )
        for cid in own:
            stored_pairs = stored[cid][0]
            assert own[cid][0] is stored_pairs  # restore copies nothing
            assert theirs[cid][0] is stored_pairs  # nor does a fork
            assert forked.made is not estimators.made
            for pair in own[cid][0]:
                for array in pair:
                    assert_frozen(array)

    def test_a_round_cohort_shares_one_displacement(self):
        _, _, forest, _ = self.replayed_forest()
        final = max(forest_nodes(forest), key=lambda n: n.round).snapshot
        newest = [
            state[0][-1] for state in final.estimators.states().values() if state[0]
        ]
        assert len(newest) > 1
        assert len({id(dw) for dw, _ in newest}) < len(newest)  # Δw shared
        assert len({id(dg) for _, dg in newest}) == len(newest)  # Δg per client

    def test_seeded_clients_share_one_frozen_displacement_per_pre_round(self):
        record, _ = build_record(3)
        unlearner = SignRecoveryUnlearner(clip_threshold=CLIP)
        cohort = [0, 1, 2, 3, 4]  # all present at F=3: one anchor
        seeded = unlearner._seed_estimators(record, cohort, 3)
        # The reference: every client its own copy of every pair.  (At
        # this seed client 0 rejects both of its pairs, the rest keep 2.)
        w_anchor = record.params_at(3)
        held = []
        for cid in cohort:
            copied = GradientEstimator(clip_threshold=CLIP)
            for j in (1, 2):
                copied.seed_pair(
                    record.params_at(j) - w_anchor,
                    record.gradients.get(j, cid) - record.gradients.get(3, cid),
                )
            assert seeded[cid].state()[1:] == copied.state()[1:]
            ours, theirs = seeded[cid].buffer.pairs(), copied.buffer.pairs()
            assert len(ours) == len(theirs)
            for pair, reference in zip(ours, theirs):
                for mine, expected in zip(pair, reference):
                    assert mine.tobytes() == expected.tobytes()
                    assert_frozen(mine)
            held.extend(ours)
        assert len(held) == 8 and sum(e.pairs_rejected for e in seeded.values()) == 2
        # One Δw object per pre-round, however many clients hold it ...
        assert len({id(dw) for dw, _ in held}) == len({dw.tobytes() for dw, _ in held}) == 2
        assert len({id(dg) for _, dg in held}) == len(held)
        # ... which a forest holding them counts once.
        forest = ReplayForest()
        params = record.params_at(3)
        snapshot = unlearner._make_snapshot(
            params, CohortState.from_estimators(seeded), 0, 0, 0, 0, []
        )
        forest.store(FakeRecord([[0]] * 4), BASE_KEY, frozenset({99}), 0, {4: snapshot})
        assert forest.nbytes == (1 + 2 + len(held)) * params.nbytes
        assert forest.recount_nbytes() == forest.nbytes

    def test_mutating_one_restored_replay_cannot_change_a_sibling(self):
        record, model, forest, unlearner = self.replayed_forest()
        # Per node: the clients it covers now (a later store may widen
        # coverage, never change an entry) and the digest over them.
        before = {
            n: (n.snapshot.estimators.cids.tolist(), snapshot_digest(n.snapshot))
            for n in forest_nodes(forest)
        }
        base_key = unlearner._cache_base_key(record)
        _, first = forest.lookup(record, base_key, frozenset({5, 7}), 3)
        _, second = forest.lookup(record, base_key, frozenset({5, 7}), 3)
        # Do to the first restore everything a replay does to its state.
        params = first.params.copy()
        params += 1.0
        d = params.size
        state = first.estimators
        n = len(state.cids)
        state.refresh(np.arange(n), np.ones(d), np.full((n, d), 2.0), np.ones((n, d)))
        state.made += 7
        state.pairs = ((),) * n
        assert snapshot_digest(second) == snapshot_digest(
            forest.lookup(record, base_key, frozenset({5, 7}), 3)[1]
        )
        # A sibling replay forks off the shared prefix, refreshes and steps.
        sibling = unlearner.unlearn(record, [5, 7], model)
        for node, (cids, digest) in before.items():
            assert snapshot_digest(node.snapshot, cids) == digest
        reference = SignRecoveryUnlearner(
            clip_threshold=CLIP, refresh_period=3
        ).unlearn(record, [5, 7], model)
        assert sibling.params.tobytes() == reference.params.tobytes()
        assert sibling.stats == reference.stats
        again = unlearner.unlearn(record, [5, 6], model)  # full hit
        assert unlearner.last_cached_prefix_rounds == NUM_ROUNDS - 3
        cold = SignRecoveryUnlearner(clip_threshold=CLIP, refresh_period=3).unlearn(
            record, [5, 6], model
        )
        assert again.params.tobytes() == cold.params.tobytes()
        assert again.stats == cold.stats


# ----------------------------------------------------------------------
# byte accounting under random traffic
# ----------------------------------------------------------------------
class FakeLedger:
    def __init__(self, participants, joins=None):
        self.participants = participants
        self.joins = joins

    def participants_at(self, t):
        return self.participants[t]

    def join_round(self, cid):
        return self.joins[cid]


class FakeRecord:
    """What the forest reads of a record: its length, who took part and
    (for retirement) when each client joined."""

    def __init__(self, participants, joins=None):
        self.ledger = FakeLedger(participants, joins)
        self.num_rounds = len(participants)


ROUNDS = 9
CLIENTS = (0, 1, 2, 3, 4)
GHOST = 9  # never takes part: forgetting it changes no effective set
DIM = 16
BASE_KEY = ("k",)


def make_record(index):
    # Client c joins at round c; record `index` rotates who is absent.
    return FakeRecord(
        [[c for c in CLIENTS if c <= t and (c + t + index) % 4] for t in range(ROUNDS)]
    )


def frozen(value):
    array = np.full(DIM, float(value))
    array.flags.writeable = False
    return array


class ForestMachine(RuleBasedStateMachine):
    """Random store / lookup / widen / evict / root-evict / record-GC
    traffic against one forest, with synthetic snapshots that share
    arrays the way real replays do: one pairs tuple per client per
    "refresh generation" (three rounds), one Δw per generation."""

    @initialize(max_bytes=st.sampled_from([1, 700, 5000, 10**9]))
    def build(self, max_bytes):
        self.forest = ReplayForest(max_entries=2, max_bytes=max_bytes)
        self.records = [make_record(i) for i in range(3)]
        self.pool = {}

    def pairs_for(self, index, cid, generation):
        key = (index, cid, generation)
        if key not in self.pool:
            dw = self.pool.setdefault((index, generation), frozen(generation + 1))
            self.pool[key] = ((dw, frozen(cid + 2)),)
        return self.pool[key]

    def snapshot(self, index, forget, t):
        estimators = {
            cid: (self.pairs_for(index, cid, t // 3), t, 1, 0)
            for cid in CLIENTS + (GHOST,)
            if cid not in forget
        }
        return _ReplaySnapshot(frozen(t), columns(estimators), {})

    @rule(
        index=st.integers(0, 2),
        forget=st.frozensets(st.sampled_from(CLIENTS + (GHOST,)), min_size=1),
        forget_round=st.sampled_from([0, 2]),
        first=st.integers(0, ROUNDS),
        count=st.integers(1, ROUNDS),
    )
    def store(self, index, forget, forget_round, first, count):
        rounds = range(max(first, forget_round), min(first + count, ROUNDS + 1))
        self.forest.store(
            self.records[index],
            BASE_KEY,
            forget,
            forget_round,
            {t: self.snapshot(index, forget, t) for t in rounds},
        )

    @rule(
        index=st.integers(0, 2),
        forget=st.frozensets(st.sampled_from(CLIENTS + (GHOST,)), min_size=1),
        forget_round=st.sampled_from([0, 2]),
    )
    def lookup(self, index, forget, forget_round):
        record = self.records[index]
        expected = self.scan(record, forget, forget_round)
        hit = self.forest.lookup(record, BASE_KEY, forget, forget_round)
        if expected is None:
            assert hit is None
            return
        resume, restored = hit
        assert resume == expected
        assert not set(restored.estimators.cids.tolist()) & forget
        for array in restored.arrays():
            assert not array.flags.writeable
        assert next(reversed(self.forest._lru)).round == resume  # touched

    def scan(self, record, forget, forget_round):
        """The old lookup: every node of the root, deepest match wins."""
        best = None
        for root in self.forest._roots:
            if root.record_ref() is not record or root.forget_round != forget_round:
                continue
            for t, level in root.nodes.items():
                seen = set()
                for u in range(forget_round, t):
                    seen |= set(record.ledger.participants_at(u))
                if forget_round < t and forget & seen in level:
                    best = t if best is None else max(best, t)
        return best

    @rule(index=st.integers(0, 2))
    def collect_record(self, index):
        self.records[index] = make_record(index)
        gc.collect()

    @precondition(lambda self: self.forest.node_count)
    @rule()
    def nodes_of_dead_records_are_released_on_next_use(self):
        self.records = [make_record(i) for i in range(3)]
        gc.collect()
        assert self.forest.lookup(self.records[0], BASE_KEY, frozenset({0}), 0) is None
        assert self.forest.node_count == 0

    @invariant()
    def accounting_holds(self):
        forest = getattr(self, "forest", None)
        if forest is None:
            return
        assert forest.recount_nbytes() == forest.nbytes
        assert forest.nbytes <= forest.max_bytes or forest.node_count <= 1
        assert len(forest) <= forest.max_entries
        held = sum(len(level) for r in forest._roots for level in r.nodes.values())
        assert held == forest.node_count
        assert bool(forest._held) == bool(forest.node_count)
        if not forest.node_count:
            assert forest.nbytes == 0


ForestMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestForestAccounting = ForestMachine.TestCase


# ----------------------------------------------------------------------
# retirement and sparse snapshots lose no hit depth
# ----------------------------------------------------------------------
#: ``make chaos`` (which sets CHAOS_SEEDS) runs the machine at length.
CHAOS = "CHAOS_SEEDS" in os.environ
ERASABLE = (0, 1, 2, 3, 4, 5)
STAYER = 7  # never erased: a replay needs somebody left
HISTORY = 12


class RetirementMachine(RuleBasedStateMachine):
    """The service's traffic — single, aborted-then-retried and fused
    cumulative requests over a random join/dropout history — replayed
    into two forests.  ``sparse`` is run the way the service runs one:
    snapshots at divergence rounds and tips only, ``retire`` after every
    commit.  ``dense`` gets a snapshot per round and never retires.  For
    every admissible next request (forget set ⊇ erased set) both must
    resume at the same round."""

    @initialize(seed=st.integers(0, 2**32 - 1))
    def build(self, seed):
        rng = random.Random(seed)
        joins = {c: rng.randrange(HISTORY - 2) for c in ERASABLE}
        joins[STAYER] = 0
        participants = [
            [c for c in sorted(joins) if joins[c] <= t and rng.random() >= 0.25]
            for t in range(HISTORY)
        ]
        self.record = FakeRecord(participants, joins)
        self.joins = joins
        self.erased = []
        self.sparse = ReplayForest()
        self.dense = ReplayForest()
        self.pool = {}

    def snapshot(self, forget, t):
        # One pairs tuple per client per three rounds, one Δw per three.
        estimators = {}
        for cid in sorted(self.joins):
            if cid not in forget:
                key = (cid, t // 3)
                if key not in self.pool:
                    dw = self.pool.setdefault(t // 3, frozen(t // 3 + 1))
                    self.pool[key] = ((dw, frozen(cid + 2)),)
                estimators[cid] = (self.pool[key], t, 1, 0)
        return _ReplaySnapshot(frozen(t), columns(estimators), {})

    def resume(self, forget):
        """Look ``forget`` up in both forests; the round both resume at."""
        start = min(self.joins[c] for c in forget)
        hits = [
            forest.lookup(self.record, BASE_KEY, forget, start)
            for forest in (self.sparse, self.dense)
        ]
        rounds = [start if hit is None else hit[0] for hit in hits]
        assert rounds[0] == rounds[1], (sorted(forget), rounds)
        return start, rounds[0]

    def replay(self, forget, start, resumed, ticks):
        """Store what a replay of ``forget`` resumed at ``resumed`` and
        aborted at its ``ticks``-th cancel poll (None: ran to the end)
        leaves behind; True when it completed."""
        end = HISTORY if ticks is None else min(HISTORY, resumed + ticks)
        cum = self.sparse.participant_unions(self.record, BASE_KEY, start)
        kept = {
            t
            for t in range(resumed + 1, end)
            if cum[t - start + 1] is not cum[t - start]
        }
        if end > resumed or end == HISTORY:
            kept.add(end)  # the tip: end state, or where the abort landed
        for forest, rounds in ((self.sparse, kept), (self.dense, range(resumed + 1, end + 1))):
            forest.store(
                self.record, BASE_KEY, forget, start,
                {t: self.snapshot(forget, t) for t in rounds},
            )
        return end == HISTORY

    def commit(self, clients):
        self.erased.extend(clients)
        self.sparse.retire(self.record, self.erased)

    @rule(data=st.data(), ticks=st.none() | st.integers(0, HISTORY))
    def single(self, data, ticks):
        left = [c for c in ERASABLE if c not in self.erased]
        if not left:
            return
        cid = data.draw(st.sampled_from(left))
        forget = frozenset(self.erased) | {cid}
        start, resumed = self.resume(forget)
        if self.replay(forget, start, resumed, ticks):
            self.commit([cid])

    @rule(data=st.data(), ticks=st.integers(0, HISTORY))
    def fused(self, data, ticks):
        left = [c for c in ERASABLE if c not in self.erased]
        if len(left) < 2:
            return
        members = data.draw(
            st.lists(st.sampled_from(left), min_size=2, max_size=4, unique=True)
        )
        aborting = data.draw(st.none() | st.integers(0, len(members) - 1))
        sets = list(
            itertools.accumulate(
                ([c] for c in members), frozenset.union, initial=frozenset(self.erased)
            )
        )[1:]
        # One fused call: every member looks up before anyone stores.
        resumes = [self.resume(forget) for forget in sets]
        done = [
            self.replay(forget, start, resumed, ticks if k == aborting else None)
            for k, (forget, (start, resumed)) in enumerate(zip(sets, resumes))
        ]
        # Members before the first abort commit; the rest are salvage.
        committed = list(itertools.takewhile(lambda k: done[k], range(len(members))))
        if committed:
            self.commit([members[k] for k in committed])

    @invariant()
    def every_admissible_request_resumes_where_the_twin_does(self):
        if not hasattr(self, "record"):
            return
        left = [c for c in ERASABLE if c not in self.erased]
        for size in range(0 if self.erased else 1, len(left) + 1):
            for extra in itertools.combinations(left, size):
                self.resume(frozenset(self.erased) | set(extra))
        for forest in (self.sparse, self.dense):
            assert forest.recount_nbytes() == forest.nbytes
        assert self.sparse.node_count <= self.dense.node_count


RetirementMachine.TestCase.settings = settings(
    max_examples=300 if CHAOS else 20,
    stateful_step_count=40 if CHAOS else 12,
    deadline=None,
)
TestRetirementKeepsHitDepth = pytest.mark.chaos(RetirementMachine.TestCase)


class TestBudget:
    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            ReplayForest(max_bytes=0)

    def test_a_shared_array_counts_once(self):
        forest = ReplayForest()
        record = make_record(0)
        dw, dg = frozen(1), frozen(2)
        pairs = ((dw, dg),)
        snapshots = {
            t: _ReplaySnapshot(
                frozen(t),
                columns({0: (pairs, t, 1, 0), 1: (((dw, frozen(3)),), t, 1, 0)}),
                {},
            )
            for t in (1, 2, 3)
        }
        forest.store(record, BASE_KEY, frozenset({4}), 0, snapshots)
        # Held: 3 params, Δw once, client 0's Δg once, client 1's Δg per
        # snapshot — 8 arrays for 3 nodes x 2 clients x 2 + 3 references.
        assert forest.nbytes == (3 + 1 + 1 + 3) * DIM * 8
        assert forest.recount_nbytes() == forest.nbytes

    def test_deepest_round_survives_any_budget(self):
        forest = ReplayForest(max_bytes=1)
        record = make_record(0)
        forest.store(
            record, BASE_KEY, frozenset({4}), 0,
            {t: _ReplaySnapshot(frozen(t), columns({}), {}) for t in (3, 1, 2)},
        )
        assert [n.round for n in forest_nodes(forest)] == [3]
        assert forest.node_evictions == 2
        assert forest.lookup(record, BASE_KEY, frozenset({4}), 0)[0] == 3


# ----------------------------------------------------------------------
# an evicted prefix only costs rounds, on every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["dict", "mmap", "tiered"])
# One byte keeps a single node; 70 kB keeps about two thirds of them
# (one per round that brings in a new participant, plus each end state).
@pytest.mark.parametrize("max_bytes", [1, 70_000])
def test_evicted_prefix_still_reproduces_cold_digest(backend, max_bytes, tmp_path):
    directory = None if backend == "dict" else str(tmp_path / backend)
    record, model = build_record(3, backend=backend, directory=directory)
    forest = ReplayForest(max_bytes=max_bytes)
    unlearner = SignRecoveryUnlearner(clip_threshold=CLIP, prefix_cache=forest)
    try:
        for forget in ([5], [5, 6], [5, 7], [5, 6, 7], [5, 6]):
            result = unlearner.unlearn(record, forget, model)
            reference = cold_reference(3, forget)
            assert result.params.tobytes() == reference.params.tobytes()
            assert result.stats == reference.stats
            assert forest.recount_nbytes() == forest.nbytes
            assert forest.nbytes <= max_bytes or forest.node_count == 1
        assert forest.node_evictions > 0
    finally:
        close = getattr(record.gradients, "close", None)
        if close is not None:
            close()


# ----------------------------------------------------------------------
# allocation guard
# ----------------------------------------------------------------------
def test_snapshots_restores_and_forks_allocate_no_pair_bytes():
    d, clients, snapshots, restores = 50_000, 8, 12, 6
    rng = np.random.default_rng(5)
    unlearner = SignRecoveryUnlearner(clip_threshold=CLIP)
    estimators = {}
    for cid in range(clients):
        est = estimators[cid] = GradientEstimator(clip_threshold=CLIP)
        for _ in range(2):
            dw = rng.normal(size=d)
            assert est.seed_pair(dw, dw + 0.1 * rng.normal(size=d))
    estimator_set = clients * 2 * 2 * d * 8
    recovered = rng.normal(size=d)
    norms = []
    record = FakeRecord([[0]] * snapshots)
    forest = ReplayForest()

    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        taken = {}
        state = CohortState.from_estimators(estimators)
        for t in range(1, snapshots + 1):
            norms.append(float(t))
            taken[t] = unlearner._make_snapshot(recovered, state, t, 0, 0, 0, norms)
        forest.store(record, BASE_KEY, frozenset({99}), 0, taken)
        live = []
        for _ in range(restores):
            _, restored = forest.lookup(record, BASE_KEY, frozenset({99}), 0)
            own = restored.estimators.without(frozenset({99}))  # a node's restore
            live.append((restored.params.copy(), own, own.copy()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    vectors = (snapshots + restores) * d * 8
    assert peak - start <= vectors + 512 * 1024
    assert peak - start < vectors + estimator_set // 8  # nowhere near one pair set
    assert forest.nbytes == snapshots * d * 8 + estimator_set
