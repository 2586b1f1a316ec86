"""One replay engine: the single-trajectory features, pinned.

:meth:`SignRecoveryUnlearner.unlearn` is the fused tree executor
(:func:`repro.unlearning.forest.fused_unlearn`) run with one request.
The features a single trajectory carries ride on that one loop:

- crash checkpoints (``checkpoint_dir``) and the resume from them,
  including ``stats["resumed_from"]`` and the checkpoint's contents;
- ``round_callback``, called after each replayed round;
- a ``cancel_check`` abort, whose salvaged prefix a retry resumes;
- the live path's replay-merge commit.

Every digest below (SHA-256 over parameters *and* stats) was recorded
while ``unlearn`` still ran its own serial round loop, so these pins
hold the engine to that loop's bytes.

The two regression tests at the bottom pin what both requests of a
fused call report on a damaged record: a round whose participants are
all forgotten is skipped *before* its checkpoint ``w_t`` is read, and
an exception escaping the replay still salvages every active branch's
committed snapshots into the forest.
"""

import dataclasses
import hashlib
import json
import os
import threading

import numpy as np
import pytest

from repro.fl import LiveTrainingSession
from repro.serving.requests import DeadlineExceededError
from repro.unlearning import (
    ReplayForest,
    SignRecoveryUnlearner,
    UnlearningService,
    fused_unlearn,
)
from repro.utils.serialization import load_state

from tests.conftest import pin_note
from tests.test_fl_live import build_sim
from tests.test_service_cache import CLIP, JOINS, build_record

#: Recorded while ``unlearn`` ran its own serial round loop.
PINS = {
    "checkpoint": (7, "4752cb625e12258fd3cbb1941b6addef3189e3cab9f2414091bceadc4f2de18a"),
    "resumed": (7, "89a6fdd6bf9c59dd8bc987b15c681cce1fba66dafabb76cdd11fbca7f221a840"),
    "callback_rounds_healthy": [3, 4, 5, 6, 7, 8, 9, 10, 11],
    "callback_healthy": "c4868560609ce0e63066c0b8836e6b081c40d6e0588798e83c3bfd8d55639764",
    "callback_rounds_damaged": [3, 4, 6, 7, 8, 9, 10, 11],
    "callback_damaged": "f8ef1b6ff41384212680e682c7a29ea54e5b861065e91c55be6ce102e66e17cf",
    "abort_retry_0": (
        5, 3, "a085c1d50de3e2b1e8eaf016b5b270e6f6b8c13d130870e9dc099f78566a925a"
    ),
    "abort_retry_2": (
        5, 3, "a085c1d50de3e2b1e8eaf016b5b270e6f6b8c13d130870e9dc099f78566a925a"
    ),
    "live": "64d3d89b89ac8f8df84364dc24c94cf3c5017d64ea7762b6952ba70073399804",
    # What the serial loop reported on the damaged records.
    "damaged_single": (1, 0),
    "damaged_fused": [(1, 0), (1, 0)],
    "salvaged": [(6, [5]), (9, [5]), (9, [5, 6])],
    "salvaged_retry": [6, 6],
}


def digest(result, *extra):
    """SHA-256 over a result's parameters, stats and ``extra`` values."""
    h = hashlib.sha256(np.ascontiguousarray(result.params).tobytes())
    h.update(repr(result.rounds_replayed).encode())
    h.update(repr(sorted(result.stats.items())).encode())
    for value in extra:
        h.update(repr(value).encode())
    return h.hexdigest()


def sha(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def check(name, value):
    assert value == PINS[name], f"{name}: {pin_note()}"


class Died(RuntimeError):
    pass


# ----------------------------------------------------------------------
# (a) crash through round_callback, resume from the checkpoint
# ----------------------------------------------------------------------
def test_crash_then_resume_from_checkpoint(tmp_path):
    record, model = build_record(3)

    def die_at_seven(t, params):
        if t == 7:
            raise Died

    victim = SignRecoveryUnlearner(
        clip_threshold=CLIP,
        round_callback=die_at_seven,
        checkpoint_dir=str(tmp_path),
        checkpoint_every=2,
    )
    with pytest.raises(Died):
        victim.unlearn(record, [5], model)
    arrays, meta = load_state(str(tmp_path / "recovery.npz"))
    h = hashlib.sha256(json.dumps(meta, sort_keys=True).encode())
    for name, array in arrays.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(array).tobytes())
    check("checkpoint", (meta["next_round"], h.hexdigest()))

    survivor = SignRecoveryUnlearner(
        clip_threshold=CLIP, checkpoint_dir=str(tmp_path), checkpoint_every=2
    )
    result = survivor.unlearn(record, [5], model)
    check("resumed", (result.stats["resumed_from"], digest(result)))
    assert not os.path.exists(tmp_path / "recovery.npz")


# ----------------------------------------------------------------------
# (b) round_callback: the rounds it sees and the parameters at each
# ----------------------------------------------------------------------
@pytest.mark.parametrize("world", ["healthy", "damaged"])
def test_round_callback_sequence(world):
    record, model = damaged_record() if world == "damaged" else build_record(3)
    seen = []
    unlearner = SignRecoveryUnlearner(
        clip_threshold=CLIP, round_callback=lambda t, p: seen.append((t, sha(p)))
    )
    result = unlearner.unlearn(record, [5], model)
    check(f"callback_rounds_{world}", [t for t, _ in seen])
    check(f"callback_{world}", digest(result, seen))


# ----------------------------------------------------------------------
# (d) cancel_check abort, then the retry
# ----------------------------------------------------------------------
def abort_on_own_poll(k):
    """A ``cancel_check`` that raises on the replay thread's (k+1)-th
    poll.  The prefetcher polls it too, from its decode threads; those
    polls pass and are not counted, so the abort round is fixed."""
    owner = threading.get_ident()
    polls = [0]

    def check():
        if threading.get_ident() == owner:
            polls[0] += 1
            if polls[0] > k:
                raise DeadlineExceededError("budget spent")

    return check


@pytest.mark.parametrize("prefetch_depth", [0, 2])
def test_cancel_abort_then_retry(prefetch_depth):
    record, model = build_record(3)
    forest = ReplayForest()
    aborting = SignRecoveryUnlearner(
        clip_threshold=CLIP,
        prefix_cache=forest,
        cancel_check=abort_on_own_poll(5),
        prefetch_depth=prefetch_depth,
    )
    with pytest.raises(DeadlineExceededError):
        aborting.unlearn(record, [6], model)
    retry = SignRecoveryUnlearner(
        clip_threshold=CLIP, prefix_cache=forest, prefetch_depth=prefetch_depth
    )
    result = retry.unlearn(record, [6], model)
    check(
        f"abort_retry_{prefetch_depth}",
        (retry.last_cached_prefix_rounds, forest.node_count, digest(result)),
    )


# ----------------------------------------------------------------------
# (e) live replay-merge commit
# ----------------------------------------------------------------------
def test_live_replay_merge_commit():
    model, sim = build_sim(22)
    session = LiveTrainingSession(sim, 6, paced=True)
    service = UnlearningService(
        record=sim.record_view(0),
        model=model,
        clip_threshold=5.0,
        prefetch_depth=0,
        merge_mode="replay",
    ).bind_live(session)
    # The first phase-1 replay lets two more rounds train before it
    # returns, so the commit replays a two-round tail through the forest.
    replay = service._replay
    fired = []

    def overlapping(view, forget_sets, checks):
        result = replay(view, forget_sets, checks)
        if not fired:
            fired.append(True)
            session.allow_rounds(2)
            assert session.wait_for_round(view.num_rounds + 2, timeout=60)
        return result

    service._replay = overlapping
    session.start()
    try:
        session.allow_rounds(3)
        assert session.wait_for_round(3, timeout=60)
        outcome = service.handle_erasure_request(2)
    finally:
        session.release_pacing()
    session.result(timeout=120)
    check(
        "live",
        digest(
            outcome.result,
            outcome.snapshot_watermark,
            outcome.commit_round,
            outcome.cached_prefix_rounds,
        ),
    )


# ----------------------------------------------------------------------
# damaged records: what each request of a fused call reports
# ----------------------------------------------------------------------
#: Round 5's participants are reduced to the erased vehicle 5 alone,
#: and its checkpoint w_5 is lost.
DAMAGED_ROUND = JOINS[5] + 2


class _OnlyFiveAt:
    def __init__(self, inner):
        self._inner = inner

    def participants_at(self, t):
        if t == DAMAGED_ROUND:
            return [5]
        return self._inner.participants_at(t)

    def participant_ids(self, t):
        return np.array(self.participants_at(t), dtype=np.int64)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _LostCheckpoint:
    def __init__(self, inner):
        self._inner = inner

    def has(self, t):
        return t != DAMAGED_ROUND and self._inner.has(t)

    def get(self, t):
        if t == DAMAGED_ROUND:
            raise KeyError(f"checkpoint w_{t} lost")
        return self._inner.get(t)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def damaged_record():
    record, model = build_record(3)
    return (
        dataclasses.replace(
            record,
            ledger=_OnlyFiveAt(record.ledger),
            checkpoints=_LostCheckpoint(record.checkpoints),
        ),
        model,
    )


def test_forgotten_round_with_lost_checkpoint_is_a_plain_skip():
    record, model = damaged_record()
    result = SignRecoveryUnlearner(clip_threshold=CLIP).unlearn(record, [5], model)
    check(
        "damaged_single",
        (result.stats["skipped_rounds"], result.stats["missing_checkpoints"]),
    )
    outcomes, _ = fused_unlearn(
        SignRecoveryUnlearner(clip_threshold=CLIP, prefix_cache=ReplayForest()),
        record,
        [[5], [5, 6]],
    )
    check(
        "damaged_fused",
        [
            (o.result.stats["skipped_rounds"], o.result.stats["missing_checkpoints"])
            for o in outcomes
        ],
    )


#: Round 10 comes after the last divergence round (9, where vehicle 7
#: joins); one of its bulk rows is one element short.
BAD_ROUND = 10


class _ShortRowAt:
    def __init__(self, inner):
        self._inner = inner
        self.broken = True

    def get_round(self, t):
        rows = self._inner.get_round(t)
        if t == BAD_ROUND and self.broken:
            cid = min(rows)
            rows = {**rows, cid: rows[cid][:-1]}
        return rows

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_escaping_error_salvages_every_active_branch():
    record, model = build_record(3)
    store = record.gradients = _ShortRowAt(record.gradients)
    forest = ReplayForest()
    unlearner = SignRecoveryUnlearner(
        clip_threshold=CLIP, prefix_cache=forest, prefetch_depth=0
    )
    with pytest.raises(ValueError, match="gradient/displacement mismatch"):
        fused_unlearn(unlearner, record, [[5], [5, 6]])
    (root,) = forest._roots
    check(
        "salvaged",
        sorted((t, sorted(eff)) for t, level in root.nodes.items() for eff in level),
    )
    store.broken = False
    outcomes, _ = fused_unlearn(unlearner, record, [[5], [5, 6]])
    check("salvaged_retry", [o.cached_prefix_rounds for o in outcomes])
