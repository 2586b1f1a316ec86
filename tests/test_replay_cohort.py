"""The replay round's cohort kernel: pinned digests and bit-for-bit parity.

Two layers of guard around :func:`repro.unlearning.estimator.estimate_cohort`
(Eq. 6/7 for a round's whole cohort, written into one block):

- **Pinned digests.**  SHA-256 values of recovered parameters recorded
  before the kernel existed, when each client still ran its own
  ``estimate_displaced`` chain.  Pairwise "fused == cold" tests follow a
  kernel change on both sides; these do not.  They cover a cold serial
  replay whose cohort mixes empty, one-pair and two-pair buffers across
  refresh rounds, a fused forest batch on a small ladder-shaped world,
  and int8 ``get_round`` rows against float64 ``get`` rows.
- **Property tests.**  Over random cohorts, the kernel's aggregate
  equals ``fedavg`` of the per-client chain byte for byte, with the same
  bookkeeping, refresh pairs and errors — also along the replay's round
  path (stored rows a slice or a take of the decoded round block, the
  in-place FedAvg).  ``make chaos`` (which sets ``CHAOS_SEEDS``) runs
  them at a large example budget.
- **Structure.**  A node's stacked form stays current, and a fused burst
  builds no per-client estimator state past seeding.
"""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.aggregation import AGGREGATORS, fedavg
from repro.storage.store import RoundRows
from repro.unlearning import ReplayForest, SignRecoveryUnlearner
from repro.unlearning.base import remaining_ids
from repro.unlearning.estimator import (
    CohortForm,
    CohortState,
    GradientEstimator,
    estimate_cohort,
)
import repro.unlearning.engine as engine
from repro.unlearning.engine import fused_unlearn
from tests.test_service_cache import CLIP, build_record
from tests.conftest import CorePins, pin_note

#: Vehicle 4 joins at round 2, one round before the erased vehicle 5:
#: seeded from round 3, its buffer holds one pair, vehicles 0-3 hold two
#: and the late joiners 6 and 7 none.
COLD_JOINS = {4: 2, 5: 3, 6: 6, 7: 9}

#: Small ladder-shaped world: 8 base vehicles and 16 erasable ones that
#: join on a grid, MLP 64-8-10 (d = 610) as in the ``gdpr_ladder`` world.
LADDER_CLIENTS = 24
LADDER_ROUNDS = 16
LADDER_JOINS = {8 + i: 1 + (7 * i) % 14 for i in range(16)}
LADDER_SETS = [
    frozenset({8}),
    frozenset({9}),
    frozenset({8, 9}),
    frozenset({10, 11}),
    frozenset({12}),
    frozenset({13, 8}),
    frozenset({14, 15, 16}),
    frozenset({17}),
    frozenset({18, 19}),
    frozenset({20, 9}),
]

#: Recorded with the per-client Eq. 6/7 chain; the kernel must not move
#: them.  ``cold_pairs`` is (accepted, rejected).  The Haswell table was
#: recorded at the commit that keyed these pins by core.
PINS = CorePins(__name__, {
    "SkylakeX": {
        "cold": "88499054bf419195dfa9ea48ff0682ae0b305d4622b56809280654e88a3d62ae",
        "cold_pairs": (13, 14),
        "ladder": "1d7b8e10c608a8c7801bf081551d8bf8d1aa684f84ecc353c8846d74d65ee316",
    },
    "Haswell": {
        "cold": "718980c793f1eff3ef97e3262d3a03c23d6790ef907b01fb2a867394429b027b",
        "cold_pairs": (13, 14),
        "ladder": "a3d6df3b3b7f22270678a4710e94d04b35a9a8ebf1c3bb8f1e1b787ab5b79c7c",
    },
})


def sha(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def cold_record():
    return build_record(5, joins=COLD_JOINS)


class TestPinnedDigests:
    def test_seeding_mixes_pair_counts(self):
        record, _ = cold_record()
        unlearner = SignRecoveryUnlearner(clip_threshold=CLIP, refresh_period=3)
        remaining = remaining_ids(record, [5])
        seeded = engine._seed_estimators(record, remaining, 3, unlearner)
        assert {len(e.buffer) for e in seeded.values()} == {0, 1, 2}

    @pytest.mark.parametrize("prefetch_depth", [0, 2])
    def test_cold_serial_replay(self, prefetch_depth):
        record, model = cold_record()
        result = SignRecoveryUnlearner(
            clip_threshold=CLIP, refresh_period=3, prefetch_depth=prefetch_depth
        ).unlearn(record, [5], model)
        assert result.rounds_replayed == 9
        assert result.stats["forget_round"] == 3
        assert (
            result.stats["pairs_accepted"],
            result.stats["pairs_rejected"],
        ) == PINS["cold_pairs"], pin_note()
        assert sha(result.params) == PINS["cold"], pin_note()

    def test_float64_rows_give_the_same_digest(self):
        record, model = cold_record()
        # Shadow the class flag: every read goes through per-client
        # ``get``, which decodes float64 rows instead of int8 views.
        record.gradients.supports_bulk_round = False
        assert record.gradients.get(3, 0).dtype == np.float64
        result = SignRecoveryUnlearner(
            clip_threshold=CLIP, refresh_period=3
        ).unlearn(record, [5], model)
        assert sha(result.params) == PINS["cold"], pin_note()

    def test_int8_rows_are_what_the_bulk_path_reads(self):
        record, _ = cold_record()
        rows = record.gradients.get_round(3)
        assert rows and all(row.dtype == np.int8 for row in rows.values())

    def test_fused_ladder_batch(self):
        record, _ = build_record(
            2,
            num_rounds=LADDER_ROUNDS,
            num_clients=LADDER_CLIENTS,
            joins=LADDER_JOINS,
        )
        unlearner = SignRecoveryUnlearner(
            clip_threshold=CLIP, prefix_cache=ReplayForest()
        )
        outcomes, stats = fused_unlearn(unlearner, record, LADDER_SETS)
        assert all(o.error is None for o in outcomes)
        assert (stats.executed_node_rounds, stats.member_rounds) == (122, 136)
        assert stats.forks > 0 and stats.shared_rounds > 0
        assert sha(*(o.result.params for o in outcomes)) == PINS["ladder"], pin_note()


# ----------------------------------------------------------------------
# kernel == per-client chain, bit for bit
# ----------------------------------------------------------------------
#: ``make chaos`` (which sets CHAOS_SEEDS) runs the property at length.
CHAOS = "CHAOS_SEEDS" in os.environ


def make_estimator(rng, d, pairs, clip):
    """An estimator offered ``pairs`` random pairs (some may be rejected
    for curvature, which only widens the pair-count mix)."""
    est = GradientEstimator(buffer_size=3, clip_threshold=clip)
    for _ in range(pairs):
        dw = rng.normal(size=d)
        est.seed_pair(dw, rng.uniform(0.2, 3.0) * dw + rng.normal(size=d))
    return est


def clone(est):
    """An estimator holding ``est``'s pairs (by reference) and counters."""
    twin = GradientEstimator(buffer_size=3, clip_threshold=est.clip_threshold)
    pairs, twin.estimates_made, twin.pairs_accepted, twin.pairs_rejected = est.state()
    twin.buffer.adopt_pairs(pairs)
    return twin


def make_singular(est):
    """Inject an exactly singular middle matrix into the cached form."""
    dw, dg, sigma, middle, wing = est.buffer.compact_form()
    middle = middle.copy()
    middle[-1] = middle[0]
    est.buffer._form = (dw, dg, sigma, middle, wing)


def plant_singular(form):
    """Give every stacked middle the row ``make_singular`` plants in a
    buffer's cached form (the kernel reads the stacked form, not that
    cache)."""
    for g, (*head, middle, wing) in enumerate(form.groups):
        middle = middle.copy()
        middle[:, -1] = middle[:, 0]
        form.groups[g] = (*head, middle, wing)


def kernel_plan(cohort, singular):
    """The cohort's estimators as columns and the kernel's plan over
    them, singular as ``make_singular`` makes the reference twins when
    ``singular``."""
    state = CohortState.from_estimators(dict(enumerate(est for est, _ in cohort)))
    form = CohortForm(state)
    if singular:
        plant_singular(form)
    return state, form.plan(np.arange(len(cohort)), lambda ids: np.ones(ids.size))


def kernel(cohort, v, refresh=False, singular=False):
    """The kernel over a ``(estimator, row)`` cohort, rows stacked into
    one stored block; ``(block, state)``."""
    state, plan = kernel_plan(cohort, singular)
    stored = np.stack([row for _, row in cohort]) if cohort else np.empty((0, v.size))
    return estimate_cohort(state, plan, stored, v, refresh), state


def make_row(rng, d, int8):
    if int8:
        return rng.integers(-1, 2, size=d).astype(np.int8)
    return rng.normal(scale=2.0, size=d)


def reference(cohort, v, refresh):
    """The per-client chain the kernel replaces."""
    estimates = []
    for est, row in cohort:
        estimate = est.estimate_displaced(row, v)
        estimates.append(estimate)
        if refresh:
            est.refresh_pair(v, estimate - row)
    return estimates


def cohort_case(seed, k, d, clip, refresh, singular):
    rng = np.random.default_rng(seed)
    mine, theirs = [], []
    for i in range(k):
        est = make_estimator(rng, d, int(rng.integers(0, 4)), clip)
        twin = clone(est)
        if singular and len(est.buffer):
            make_singular(twin)
        row = make_row(rng, d, bool(rng.integers(0, 2)))
        mine.append((est, row))
        theirs.append((twin, row))
    v = rng.normal(scale=rng.choice([0.01, 1.0, 10.0]), size=d)
    weights = rng.uniform(0.5, 20.0, size=k).tolist()
    return mine, theirs, v, weights


@pytest.mark.chaos
@settings(max_examples=400 if CHAOS else 40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 9),
    d=st.integers(1, 48),
    clip=st.sampled_from([0.3, 1.0, 5.0, np.inf]),
    refresh=st.booleans(),
    singular=st.booleans(),
    rule=st.sampled_from(sorted(AGGREGATORS)),
)
def test_kernel_matches_per_client_chain(seed, k, d, clip, refresh, singular, rule):
    mine, theirs, v, weights = cohort_case(seed, k, d, clip, refresh, singular)
    block, state = kernel(mine, v.copy(), refresh, singular)
    expected = reference(theirs, v.copy(), refresh)
    assert block.shape == (k, d) and block.dtype == np.float64
    for row, estimate in zip(block, expected):
        assert row.tobytes() == estimate.tobytes()
    aggregate = AGGREGATORS[rule]
    assert aggregate(block, weights).tobytes() == aggregate(expected, weights).tobytes()
    for slot, (twin, _) in enumerate(theirs):
        assert state.made[slot] == twin.estimates_made == 1
        assert (state.accepted[slot], state.rejected[slot]) == (
            twin.pairs_accepted,
            twin.pairs_rejected,
        )
        assert len(state.pairs[slot]) == len(twin.buffer)
        for (dw, dg), (tw, tg) in zip(state.pairs[slot], twin.buffer.pairs()):
            assert dw.tobytes() == tw.tobytes() and dg.tobytes() == tg.tobytes()
            assert not np.shares_memory(dg, block)


# ----------------------------------------------------------------------
# the replay's round path == the per-client chain, bit for bit
# ----------------------------------------------------------------------
def round_case(seed, k, d, int8, special, take):
    """A node's cohort (0-3 offered pairs each) and the round it reads:
    its present rows picked from a decoded block that also holds rows
    of clients outside the node — as one slice, or (``take``) with a
    gap, so the pick is one ``take``."""
    rng = np.random.default_rng(seed)
    cids = np.arange(k) * 3 + 1
    mine = {}
    for cid in cids.tolist():
        mine[cid] = make_estimator(rng, d, int(rng.integers(0, 4)), 5.0)
    theirs = {cid: clone(est) for cid, est in mine.items()}
    # The decoded round: a forgotten client before and after the node's
    # rows, and (take) two between each pair of them.
    if take:
        everyone = np.arange(3 * k + 2)
    else:
        everyone = np.concatenate([[0], cids, [3 * k + 2]])
    if int8:
        block = rng.integers(-1, 2, size=(everyone.size, d)).astype(np.int8)
    else:
        block = rng.normal(scale=2.0, size=(everyone.size, d))
        block[rng.random(block.shape) < 0.2] = -0.0
    rows = RoundRows(everyone, block)
    v = rng.normal(scale=rng.choice([0.01, 1.0, 10.0]), size=d)
    if special:
        v[rng.integers(0, d, size=3)] = rng.choice([np.inf, -np.inf, np.nan], size=3)
    weights = rng.uniform(0.5, 20.0, size=k)
    return mine, theirs, rows, v, weights


@pytest.mark.chaos
@settings(max_examples=400 if CHAOS else 40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 12),
    d=st.one_of(st.integers(1, 48), st.sampled_from([4095, 4096, 4097, 9000])),
    int8=st.booleans(),
    special=st.booleans(),
    take=st.booleans(),
    refresh=st.booleans(),
)
def test_round_path_matches_per_client_chain(seed, k, d, int8, special, take, refresh):
    """The node-round path: present rows picked out of the decoded
    round block (a slice or one take), the kernel on that block, the
    in-place FedAvg on the kernel's own block — against the per-client
    chain and ``fedavg``.  Row chunks straddle ``_CHUNK_BYTES`` at the
    large ``d``; rows hold −0.0, ``v`` ±inf and NaN."""
    mine, theirs, rows, v, weights = round_case(seed, k, d, int8, special, take)
    state = CohortState.from_estimators(mine)
    at = np.flatnonzero(np.isin(rows.cids, state.cids))
    stored = rows.rows_at(at)
    assert np.shares_memory(stored, rows.block) == (not take or k == 1)
    assert stored.dtype == (np.int8 if int8 else np.float64)
    table = dict(zip(state.cids.tolist(), weights))
    plan = CohortForm(state).plan(
        rows.cids[at], lambda ids: np.array([table[c] for c in ids.tolist()])
    )
    with np.errstate(all="ignore"):
        block = estimate_cohort(state, plan, stored, v.copy(), refresh)
        expected = reference(
            [(theirs[c], rows[c]) for c in state.cids.tolist()], v.copy(), refresh
        )
        for row, estimate in zip(block, expected):
            assert row.tobytes() == estimate.tobytes()
        want = fedavg(expected, weights)
        assert plan.fedavg(block).tobytes() == want.tobytes()
    for slot, cid in enumerate(state.cids.tolist()):
        twin = theirs[cid]
        assert state.made[slot] == twin.estimates_made == 1
        assert (state.accepted[slot], state.rejected[slot]) == (
            twin.pairs_accepted,
            twin.pairs_rejected,
        )
        assert len(state.pairs[slot]) == len(twin.buffer)
        for (dw, dg), (tw, tg) in zip(state.pairs[slot], twin.buffer.pairs()):
            assert dw.tobytes() == tw.tobytes() and dg.tobytes() == tg.tobytes()
            assert not np.shares_memory(dg, block)


def test_singular_middle_takes_the_least_squares_branch(monkeypatch):
    mine, theirs, v, _ = cohort_case(7, 4, 12, 5.0, False, False)
    for (est, _), (twin, _) in zip(mine, theirs):
        est.seed_pair(np.ones(12), np.full(12, 2.0))
        twin.seed_pair(np.ones(12), np.full(12, 2.0))
        make_singular(twin)
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(
        np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or lstsq(*a, **kw)
    )
    block, _ = kernel(mine, v, False, True)
    assert len(calls) == len(mine)
    for row, estimate in zip(block, reference(theirs, v, False)):
        assert row.tobytes() == estimate.tobytes()


def test_empty_buffers_give_the_stored_rows_exactly():
    # 0·v would be -0.0 against a negative element and NaN against inf.
    v = np.array([np.inf, -1.0, 1.0])
    rows = [np.array([-0.0, 0.5, -2.0]), np.array([1, 0, -1], dtype=np.int8)]
    cohort = [(GradientEstimator(clip_threshold=10.0), row) for row in rows]
    with np.errstate(invalid="ignore"):
        block, _ = kernel(cohort, v)
    ref = [GradientEstimator(clip_threshold=10.0).estimate_displaced(row, v)
           for row in rows]
    assert block.tobytes() == np.stack(ref).tobytes()


class TestKernelErrors:
    def test_mis_sized_row(self):
        est = GradientEstimator()
        with pytest.raises(ValueError, match="gradient/displacement mismatch"):
            est.estimate_displaced(np.zeros(4), np.zeros(5))
        with pytest.raises(ValueError, match="gradient/displacement mismatch"):
            kernel([(GradientEstimator(), np.zeros(4))], np.zeros(5))

    def test_mis_sized_pairs(self):
        est = GradientEstimator()
        est.seed_pair(np.ones(4), np.ones(4))
        with pytest.raises(ValueError, match="vector has 5 elements, pairs have 4"):
            kernel([(est, np.zeros(5))], np.zeros(5))

    def test_mixed_clip_thresholds(self):
        cohort = [(GradientEstimator(clip_threshold=c), np.ones(3)) for c in (1.0, 2.0)]
        with pytest.raises(ValueError, match="one clip threshold"):
            kernel(cohort, np.zeros(3))

    @pytest.mark.parametrize(
        "weights, message",
        [([1.0, -1.0], "non-negative"), ([0.0, 0.0], "sum to zero")],
    )
    def test_bad_weights(self, weights, message):
        cohort = [(GradientEstimator(), np.ones(3)) for _ in range(2)]
        block, state = kernel(cohort, np.zeros(3))
        with pytest.raises(ValueError, match=message):
            fedavg(block, weights)
        with pytest.raises(ValueError, match=message):
            fedavg(list(block), weights)
        with pytest.raises(ValueError, match=message):  # the replay's in-place FedAvg
            CohortForm(state).plan(np.arange(2), lambda ids: np.array(weights))


def test_telemetry_one_observation_per_client():
    from repro.telemetry.core import Telemetry, use_telemetry

    counts = []
    for stacked in (True, False):
        mine, theirs, v, _ = cohort_case(11, 6, 20, 0.3, True, False)
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            if stacked:
                kernel(mine, v, True)
            else:
                reference(theirs, v, True)
        reg = telemetry.registry
        clip = reg.histogram("recovery_clip_rate")
        drift = reg.histogram("recovery_estimate_drift")
        counts.append(
            (
                reg.counter_value("lbfgs_hvp_total"),
                reg.histogram("lbfgs_hvp_seconds").count,
                clip.count,
                round(clip.sum, 9),
                drift.count,
                round(drift.sum, 6),
            )
        )
    assert counts[0] == counts[1]
    assert counts[0][0] == 6


# ----------------------------------------------------------------------
# a node's stacked form == the per-client chain, and stays current
# ----------------------------------------------------------------------
def node_case(seed, n, d, clip, shared):
    """A replay node's estimators by client id: 0-3 pairs each, every
    ``Δw`` drawn from one frozen pool (``shared``) or fresh per pair."""
    rng = np.random.default_rng(seed)
    pool = [rng.normal(size=d) for _ in range(3)]
    for w in pool:
        w.flags.writeable = False
    cids = sorted(int(c) for c in rng.choice(4 * n, size=n, replace=False))
    mine = {}
    for cid in cids:
        est = GradientEstimator(buffer_size=3, clip_threshold=clip)
        for j in range(int(rng.integers(0, 4))):
            dw = pool[j] if shared else rng.normal(size=d)
            est.refresh_pair(dw, rng.uniform(0.2, 3.0) * dw + rng.normal(size=d))
        mine[cid] = est
    theirs = {cid: clone(est) for cid, est in mine.items()}
    present = sorted(
        int(c) for c in rng.choice(cids, size=int(rng.integers(1, n + 1)), replace=False)
    )
    rows = {cid: make_row(rng, d, bool(rng.integers(0, 2))) for cid in present}
    v = rng.normal(scale=rng.choice([0.01, 1.0, 10.0]), size=d)
    return mine, theirs, present, rows, v


@pytest.mark.chaos
@settings(max_examples=400 if CHAOS else 40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    d=st.integers(1, 40),
    clip=st.sampled_from([0.3, 1.0, 5.0, np.inf]),
    shared=st.booleans(),
    refresh=st.booleans(),
    singular=st.booleans(),
)
def test_node_form_matches_per_client_chain(seed, n, d, clip, shared, refresh, singular):
    mine, theirs, present, rows, v = node_case(seed, n, d, clip, shared)
    state = CohortState.from_estimators(mine)
    form = CohortForm(state)
    if singular:
        plant_singular(form)
        for est in theirs.values():
            if len(est.buffer):
                make_singular(est)
    stored = np.stack([rows[c] for c in present])
    plan = form.plan(np.array(present))
    block = estimate_cohort(state, plan, stored, v.copy(), refresh)
    expected = reference([(theirs[c], rows[c]) for c in present], v.copy(), refresh)
    for row, estimate in zip(block, expected):
        assert row.tobytes() == estimate.tobytes()
    for cid in present:
        (pairs, made, accepted, _), twin = state.states()[cid], theirs[cid]
        assert (made, accepted) == (
            twin.estimates_made,
            twin.pairs_accepted,
        )
        for (dw, dg), (tw, tg) in zip(pairs, twin.buffer.pairs()):
            assert dw.tobytes() == tw.tobytes() and dg.tobytes() == tg.tobytes()


def test_delta_w_is_stacked_once_per_distinct_tuple():
    rng = np.random.default_rng(5)
    w = rng.normal(size=16)
    w.flags.writeable = False
    shared, own = {}, {}
    for cid in range(4):
        shared[cid] = GradientEstimator()
        shared[cid].refresh_pair(w, 2.0 * w + rng.normal(scale=0.1, size=16))
        own[cid] = GradientEstimator()
        own[cid].seed_pair(w, 2.0 * w + rng.normal(scale=0.1, size=16))
    ((dw, which, dg, *_),) = CohortForm(CohortState.from_estimators(shared)).groups
    assert (dw.shape, which.tolist(), dg.shape) == ((1, 16, 1), [0] * 4, (4, 16, 1))
    # seed_pair copies: 4 arrays
    ((dw, which, *rest),) = CohortForm(CohortState.from_estimators(own)).groups
    assert (dw.shape, which.tolist()) == ((4, 16, 1), [0, 1, 2, 3])
    assert not any(a.flags.writeable for a in (dw, which, *rest))


def test_plan_slices_contiguous_runs_and_takes_the_rest():
    ests = {}
    for cid in range(6):
        ests[cid] = GradientEstimator()
        if cid != 2:
            ests[cid].seed_pair(np.ones(4) + cid, np.full(4, 2.0 + cid))
    form = CohortForm(CohortState.from_estimators(ests))
    ((_, take, at),) = form.plan(np.array([0, 1, 3])).groups
    assert (take, at) == (slice(0, 3), slice(0, 3))  # stack rows skip cid 2
    ((_, take, at),) = form.plan(np.array([1, 2, 4])).groups
    assert take.tolist() == [1, 3] and at.tolist() == [0, 2]
    assert form.plan(np.array([1, 2, 4])) is form.plan(np.array([1, 2, 4]))


def rows_of(group, take):
    """A group's arrays at the stack rows ``take``, one per block row
    (each row's ΔW looked up)."""
    dw, which, *rest = group
    return [dw[which[take]], *(r[take] for r in rest)]


def assert_fresh(state, plan):
    """The node's form, at the rows a round reads, equals a form built
    now from the same estimators."""
    fresh = CohortForm(state)
    block = np.arange(len(plan.slots))
    fresh_plan = fresh.plan(state.cids[plan.slots])
    assert len(plan.groups) == len(fresh_plan.groups)
    for (group, take, at), (new, new_take, new_at) in zip(
        plan.groups, fresh_plan.groups
    ):
        assert block[at].tolist() == block[new_at].tolist()
        for old, now in zip(rows_of(group, take), rows_of(new, new_take)):
            assert old.tobytes() == now.tobytes()


@pytest.fixture
def form_spy(monkeypatch):
    """Check every replay round's node form against a fresh build; the
    list holds each checked round's ``refresh`` flag."""
    real, rounds = engine.estimate_cohort, []

    def checked(state, plan, stored, displacement, refresh=False):
        assert_fresh(state, plan)
        rounds.append(refresh)
        return real(state, plan, stored, displacement, refresh)

    monkeypatch.setattr(engine, "estimate_cohort", checked)
    return rounds


def seed_with_pairs(monkeypatch, unlearner):
    """Give every client seeded without pre-F pairs one synthetic pair,
    so that seeding at a fork or a refit changes the node's form (real
    late joiners seed empty, and an empty buffer is in no group)."""
    seed = engine._seed_estimators

    def seeded(record, remaining, forget_round, unlearner):
        ests = seed(record, remaining, forget_round, unlearner)
        for cid, est in ests.items():
            if not len(est.buffer):
                w = np.full(record.final_params().size, 1.0 + cid)
                est.seed_pair(w, 2.0 * w)
        return ests

    monkeypatch.setattr(engine, "_seed_estimators", seeded)
    return unlearner


def ladder_record():
    return build_record(
        2, num_rounds=LADDER_ROUNDS, num_clients=LADDER_CLIENTS, joins=LADDER_JOINS
    )[0]


class TestNodeFormStaysCurrent:
    def test_after_refresh(self, form_spy):
        record, model = cold_record()
        result = SignRecoveryUnlearner(clip_threshold=CLIP, refresh_period=3).unlearn(
            record, [5], model
        )
        assert sha(result.params) == PINS["cold"], pin_note()
        assert form_spy.count(True) == 3 and len(form_spy) == 9

    def test_after_fork(self, form_spy, monkeypatch):
        unlearner = seed_with_pairs(
            monkeypatch,
            SignRecoveryUnlearner(clip_threshold=CLIP, refresh_period=5)
        )
        outcomes, stats = fused_unlearn(unlearner, ladder_record(), LADDER_SETS)
        assert all(o.error is None for o in outcomes)
        assert stats.forks > 0 and form_spy

    def test_after_refit_union(self, form_spy, monkeypatch):
        # {8} and {8, 9} share a node until 9 joins at round 8; the
        # second aborts at round 4, so the node re-seeds vehicle 9.
        unlearner = seed_with_pairs(
            monkeypatch, SignRecoveryUnlearner(clip_threshold=CLIP)
        )
        polls = iter(range(100))

        def abort_after_three():
            if next(polls) >= 3:
                raise RuntimeError("cancelled")

        (kept, aborted), stats = fused_unlearn(
            unlearner,
            ladder_record(),
            [frozenset({8}), frozenset({8, 9})],
            cancel_checks=[None, abort_after_three],
        )
        assert kept.error is None and isinstance(aborted.error, RuntimeError)
        assert stats.aborted == 1 and len(form_spy) > 4

    def test_after_forest_restore(self, form_spy):
        record = ladder_record()
        unlearner = SignRecoveryUnlearner(
            clip_threshold=CLIP, refresh_period=3, prefix_cache=ReplayForest()
        )
        (first,), _ = fused_unlearn(unlearner, record, [frozenset({8})])
        checked = len(form_spy)
        # Vehicle 23 joins at round 8: the superset resumes there.
        (second,), _ = fused_unlearn(unlearner, record, [frozenset({8, 23})])
        assert first.error is None and second.error is None
        assert second.cached_prefix_rounds > 0 and len(form_spy) > checked


# ----------------------------------------------------------------------
# node state is columnar: no per-client objects in a fused burst
# ----------------------------------------------------------------------
#: 64 base vehicles and 8 that join one per round from round 2.
WIDE_CLIENTS = 72
WIDE_JOINS = {64 + i: 2 + i for i in range(8)}
WIDE_SETS = [{64}, {65}, {64, 65}, {66}, {67, 68}, {69}, {70}, {71}]
WIDE_REFRESH = 4


def test_fused_burst_builds_no_per_client_state(monkeypatch):
    """Over a fused burst on a K ≥ 64 cohort no ``GradientEstimator`` is
    built outside seeding or asked for ``state()``; a fork and a
    snapshot share the node's pairs column; consecutive snapshots with
    no refresh between them hold one pairs column (``is``)."""
    record, _ = build_record(
        4, num_rounds=14, num_clients=WIDE_CLIENTS, joins=WIDE_JOINS
    )
    forest = ReplayForest()
    unlearner = SignRecoveryUnlearner(
        clip_threshold=CLIP, refresh_period=WIDE_REFRESH, prefix_cache=forest
    )
    seeding, strays, copies, stored = [False], [], [], []
    seed = engine._seed_estimators

    def seeding_only(call):
        """``call`` as seeding: estimators built and read out per client."""

        def watched(*args):
            seeding[0] = True
            try:
                return call(*args)
            finally:
                seeding[0] = False

        return watched

    init, state, real_copy, real_store = (
        GradientEstimator.__init__, GradientEstimator.state, CohortState.copy,
        forest.store,
    )
    columns = CohortState.from_estimators.__func__

    def init_watched(self, *args, **kwargs):
        if not seeding[0]:
            strays.append("built")
        init(self, *args, **kwargs)

    def state_watched(self):
        if not seeding[0]:
            strays.append("state()")
        return state(self)

    def copy_watched(self, *keep):
        out = real_copy(self, *keep)
        if keep:  # a restore's or a merge's pick of slots
            return out
        copies.append(
            (out.pairs is self.pairs, out.made is not self.made)
        )
        return out

    def store_watched(record, base_key, forget, forget_round, snapshots):
        stored.append((forget_round, dict(snapshots)))
        return real_store(record, base_key, forget, forget_round, snapshots)

    monkeypatch.setattr(engine, "_seed_estimators", seeding_only(seed))
    forest.store = store_watched
    monkeypatch.setattr(GradientEstimator, "__init__", init_watched)
    monkeypatch.setattr(GradientEstimator, "state", state_watched)
    monkeypatch.setattr(
        CohortState,
        "from_estimators",
        classmethod(lambda cls, ests: seeding_only(columns)(cls, ests)),
    )
    monkeypatch.setattr(CohortState, "copy", copy_watched)

    outcomes, stats = fused_unlearn(unlearner, record, WIDE_SETS)
    assert all(o.error is None for o in outcomes)
    assert stats.forks > 0 and len(remaining_ids(record, [])) >= 64
    assert not strays
    # Every fork and snapshot shares the pairs column and copies counters.
    assert copies and all(all(copy) for copy in copies)
    shared = 0
    for forget_round, snapshots in stored:
        rounds = sorted(snapshots)
        for early, late in zip(rounds, rounds[1:]):
            if not any(
                (r - forget_round + 1) % WIDE_REFRESH == 0 for r in range(early, late)
            ):
                columns = (snapshots[r].estimators.pairs for r in (early, late))
                assert next(columns) is next(columns)
                shared += 1
    assert shared
