"""The in-memory stores' round-major container and the ledger's memo.

- **Container.**  :class:`SignGradientStore` and
  :class:`FullGradientStore` keep each round as one block (ids
  ascending, rows of one length; a list for a round whose rows differ in
  length), and :class:`TieredSignGradientStore` keeps its hot rounds in
  a composed :class:`SignGradientStore`.  A state machine drives any of
  the three through any mix of ``put``, ``put_round``, ``put_encoded``,
  re-puts, ``drop_client`` and every read — the tiered store, with a hot
  budget of a few rows, also through spills, ``flush``,
  ``compact(cold_after=k)`` and ``close`` + ``open`` — against a
  per-row reference model built with the per-row codec: rows, ids,
  ``items``, ``rounds`` and ``clients_at`` equal the model's after every
  step, ``nbytes() == recount_nbytes()`` always, and both equal the
  model's bytes while no round is cold.
- **No torn round.**  A reader thread calls ``get_round`` and ``get``
  while a writer appends rounds and rows and drops clients; every round
  it sees has its rows aligned with its ids and holds every row written
  before the read that no drop has removed.
- **Ledger memo.**  ``participants_at`` (memoised per round) equals a
  brute-force scan under interleaved join, leave, dropout and query.

Tier-1 runs each at a small example budget; ``make chaos`` (which sets
``CHAOS_SEEDS``) runs them at length.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.fl import MembershipLedger
from repro.storage import FullGradientStore, SignGradientStore, TieredSignGradientStore
from repro.storage.sign_codec import encode_gradient, pack_signs, unpack_signs

#: ``make chaos`` (which sets CHAOS_SEEDS) runs the machines at length.
CHAOS = "CHAOS_SEEDS" in os.environ
EXAMPLES = 400 if CHAOS else 40
DELTA = 0.25
ROUNDS = st.integers(0, 4)
CLIENTS = st.integers(0, 5)
#: 5, 6 and 8 elements all pack into two bytes; 9 takes three.
LENGTHS = st.sampled_from([5, 6, 8, 9])
SEEDS = st.integers(0, 2**32 - 1)
#: The tiered store's hot budget: a few packed rows, so writes spill.
HOT_BUDGET = 8


def gradient(seed: int, length: int) -> np.ndarray:
    g = np.random.default_rng(seed).normal(scale=0.5, size=length)
    g[::3] = 0.0  # inside the δ band
    return g


def make_store(kind: str):
    return SignGradientStore(delta=DELTA) if kind == "sign" else FullGradientStore()


def expected_row(kind: str, g: np.ndarray):
    """``(value get_round returns, stored bytes, items payload)`` of one
    gradient through the per-row codec."""
    if kind != "full":
        packed, length = encode_gradient(g, DELTA)
        return unpack_signs(packed, length), packed.nbytes, (packed, length)
    stored = g.astype(np.float32)
    return stored.astype(np.float64), stored.nbytes, stored


class ContainerMachine(RuleBasedStateMachine):
    """Random writes and reads on one store against a per-row model."""

    @initialize(kind=st.sampled_from(["sign", "full", "tiered"]))
    def build(self, kind):
        self.kind = kind
        if kind == "tiered":
            self.directory = tempfile.mkdtemp(prefix="container-")
            self.store = TieredSignGradientStore(
                self.directory, delta=DELTA, hot_budget_bytes=HOT_BUDGET
            )
        else:
            self.store = make_store(kind)
        self.model = {}  # (t, cid) -> (row, nbytes, payload)

    def teardown(self):
        if getattr(self, "kind", None) == "tiered":
            self.store.close()
            shutil.rmtree(self.directory, ignore_errors=True)

    def record(self, t, cid, g):
        self.model[(t, cid)] = expected_row(self.kind, g)

    @rule(t=ROUNDS, cid=CLIENTS, length=LENGTHS, seed=SEEDS)
    def put(self, t, cid, length, seed):
        g = gradient(seed, length)
        self.store.put(t, cid, g)
        self.record(t, cid, g)

    @rule(
        t=ROUNDS,
        cids=st.lists(CLIENTS, unique=True, max_size=5),
        lengths=st.lists(LENGTHS, min_size=1, max_size=2),
        seed=SEEDS,
    )
    def put_round(self, t, cids, lengths, seed):
        # Ids in drawn order (not sorted); one length, or two alternating.
        updates = {
            cid: gradient(seed + i, lengths[i % len(lengths)])
            for i, cid in enumerate(cids)
        }
        self.store.put_round(t, updates)
        for cid, g in updates.items():
            self.record(t, cid, g)

    @precondition(lambda self: self.kind != "full")
    @rule(t=ROUNDS, cid=CLIENTS, length=LENGTHS, seed=SEEDS)
    def put_encoded(self, t, cid, length, seed):
        signs = np.random.default_rng(seed).integers(-1, 2, size=length).astype(np.int8)
        packed, _ = pack_signs(signs)
        self.store.put_encoded(t, cid, packed, length)
        self.model[(t, cid)] = (signs, packed.nbytes, (packed, length))

    @rule(cid=CLIENTS)
    def drop_client(self, cid):
        gone = [key for key in self.model if key[1] == cid]
        assert self.store.drop_client(cid) == len(gone)
        for key in gone:
            del self.model[key]

    @precondition(lambda self: self.kind == "tiered")
    @rule()
    def flush(self):
        self.store.flush()
        assert self.store.tier_rounds()["hot"] == 0

    @precondition(lambda self: self.kind == "tiered")
    @rule(k=st.integers(1, 4))
    def compact(self, k):
        self.store.compact(cold_after=k)
        assert self.store.stats()["tombstone_pairs"] == 0

    @precondition(lambda self: self.kind == "tiered")
    @rule()
    def reopen(self):
        self.store.close()
        self.store = TieredSignGradientStore.open(
            self.directory, hot_budget_bytes=HOT_BUDGET
        )

    @rule(t=st.integers(0, 5))
    def get_round(self, t):
        rows = self.store.get_round(t)
        ids = sorted(c for (r, c) in self.model if r == t)
        assert list(rows) == ids and rows.cids.tolist() == ids
        dtype = np.float64 if self.kind == "full" else np.int8
        shapes = {self.model[(t, c)][0].shape for c in ids}
        if len(shapes) <= 1:
            assert rows.block is not None and len(rows.block) == len(ids)
        else:
            assert rows.block is None
        for cid in ids:
            value = rows[cid]
            assert value.dtype == dtype
            np.testing.assert_array_equal(value, self.model[(t, cid)][0])
            np.testing.assert_array_equal(value, self.store.get(t, cid))

    @rule(t=st.integers(0, 5), cid=CLIENTS)
    def get(self, t, cid):
        if (t, cid) not in self.model:
            assert not self.store.has(t, cid)
            with pytest.raises(KeyError):
                self.store.get(t, cid)
            return
        assert self.store.has(t, cid)
        value = self.store.get(t, cid)
        assert value.dtype == np.float64
        np.testing.assert_array_equal(value, self.model[(t, cid)][0])

    @invariant()
    def view_matches_model(self):
        store = getattr(self, "store", None)
        if store is None:
            return
        want = sum(nbytes for _, nbytes, _ in self.model.values())
        assert store.nbytes() == store.recount_nbytes()
        if self.kind != "tiered" or not store.tier_bytes()["cold"]:
            assert store.nbytes() == want
        rounds = sorted({t for t, _ in self.model})
        assert store.rounds() == rounds
        for t in rounds:
            assert store.clients_at(t) == sorted(c for (r, c) in self.model if r == t)
            self.get_round(t)
        items = store.items()
        assert [key for key, _ in items] == sorted(self.model)
        for key, payload in items:
            want = self.model[key][2]
            if self.kind == "full":
                np.testing.assert_array_equal(payload, want)
            else:
                assert payload[1] == want[1]
                np.testing.assert_array_equal(payload[0], want[0])


ContainerMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=30, deadline=None
)
TestContainerMatchesPerRowModel = pytest.mark.chaos(ContainerMachine.TestCase)


# ----------------------------------------------------------------------
# a reader never sees a torn round
# ----------------------------------------------------------------------
def reference(kind, t, cid, length):
    return expected_row(kind, gradient(1000 * t + cid, length))[0]


@pytest.mark.chaos
@settings(max_examples=EXAMPLES, deadline=None)
@given(kind=st.sampled_from(["sign", "full"]), seed=SEEDS)
def test_reader_never_sees_a_torn_round(kind, seed):
    rng = np.random.default_rng(seed)
    store = make_store(kind)
    lengths = {}  # (t, cid) -> length, set before the row is written
    written = {}  # t -> ids whose write has returned
    dropping = set()  # clients whose drop has begun
    done = threading.Event()
    failures = []

    def read():
        try:
            while True:
                finished = done.is_set()  # one more pass after the writer
                for t in list(written):
                    before = set(written[t])
                    # The lock-free per-row read first, while rows may still
                    # be pending: a live row is never lost while its round
                    # is merged or a block rebuilt.
                    for cid in sorted(before):
                        try:
                            row = store.get(t, cid)
                        except KeyError:
                            assert cid in dropping, "a written row went missing"
                        else:
                            want = reference(kind, t, cid, lengths[(t, cid)])
                            np.testing.assert_array_equal(row, want)
                    rows = store.get_round(t)
                    after = set(dropping)
                    ids = rows.cids.tolist()
                    assert ids == sorted(set(ids)), "ids not ascending"
                    if rows.block is not None:
                        assert len(rows.block) == len(ids), "block and ids disagree"
                    assert before - after <= set(ids), "a written row is missing"
                    for cid in ids:
                        want = reference(kind, t, cid, lengths[(t, cid)])
                        np.testing.assert_array_equal(rows[cid], want)
                if finished:
                    return
        except BaseException as exc:  # surfaced on the test thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    reader = threading.Thread(target=read)
    reader.start()
    try:
        for t in range(8):
            cohort = [c for c in range(10) if c not in dropping and rng.random() < 0.7]
            for cid in cohort:
                lengths[(t, cid)] = 8
            store.put_round(t, {c: gradient(1000 * t + c, 8) for c in cohort})
            written[t] = list(cohort)
            for _ in range(4):
                u = int(rng.integers(0, t + 1))
                cid = int(rng.integers(10, 20))
                if cid in dropping or (u, cid) in lengths:
                    continue
                lengths[(u, cid)] = int(rng.choice([8, 8, 9]))  # 9: ragged
                store.put(u, cid, gradient(1000 * u + cid, lengths[(u, cid)]))
                written.setdefault(u, []).append(cid)
                assert cid in store.clients_at(u)  # merges the row in, here
            if rng.random() < 0.5:
                victim = int(rng.integers(0, 20))
                dropping.add(victim)
                store.drop_client(victim)
    finally:
        done.set()
        reader.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    if failures:
        raise failures[0]
    assert store.nbytes() == store.recount_nbytes()


# ----------------------------------------------------------------------
# the ledger's participants memo
# ----------------------------------------------------------------------
class LedgerMachine(RuleBasedStateMachine):
    """Join / leave / dropout / query against a brute-force scan."""

    def __init__(self):
        super().__init__()
        self.ledger = MembershipLedger()
        self.joins, self.leaves, self.drops = {}, {}, {}

    def scan(self, t):
        return sorted(
            c
            for c, j in self.joins.items()
            if j <= t < self.leaves.get(c, t + 1) and t not in self.drops[c]
        )

    @rule(cid=CLIENTS, r=ROUNDS)
    def join(self, cid, r):
        if cid in self.joins:
            with pytest.raises(ValueError):
                self.ledger.join(cid, r)
            return
        self.ledger.join(cid, r)
        self.joins[cid], self.drops[cid] = r, set()

    @rule(cid=CLIENTS, r=ROUNDS)
    def leave(self, cid, r):
        if cid not in self.joins:
            with pytest.raises(KeyError):
                self.ledger.leave(cid, r)
        elif cid in self.leaves or r <= self.joins[cid]:
            with pytest.raises(ValueError):
                self.ledger.leave(cid, r)
        else:
            self.ledger.leave(cid, r)
            self.leaves[cid] = r

    @precondition(lambda self: self.joins)
    @rule(data=st.data(), r=ROUNDS)
    def dropout(self, data, r):
        cid = data.draw(st.sampled_from(sorted(self.joins)))
        self.ledger.record_dropout(cid, r)
        self.drops[cid].add(r)

    @rule(t=st.integers(0, 5))
    def query(self, t):
        want = self.scan(t)
        assert self.ledger.participants_at(t) == want
        ids = self.ledger.participant_ids(t)
        assert ids.tolist() == want and not ids.flags.writeable


LedgerMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=30, deadline=None
)
TestLedgerMemoMatchesScan = pytest.mark.chaos(LedgerMachine.TestCase)
