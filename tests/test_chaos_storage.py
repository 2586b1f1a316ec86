"""Chaos scenarios for the on-disk sign-store layouts.

A SIGKILL can land anywhere inside a spill or compaction.  The tiered
store's durability contract is that the tiny manifest swap is the only
commit point: whatever instant the process dies, reopening the
directory must yield a store byte-identical to either the last durable
state or the fully-committed new state — never a torn mix.  Hot rows
that were never spilled are the one permissible loss (they were never
durable); rounds that reached a shard can never be lost or corrupted.
These tests inject a crash at every declared
:data:`~repro.storage.tiered.CRASH_POINTS` hook during spill and
compaction (and at the manifest rename of the read-only view's
``compact``, which is the tiered store's) and assert exactly that.

Seeds come from the ``CHAOS_SEEDS`` environment variable, same harness
as :mod:`tests.test_chaos` — ``make chaos`` sweeps several.
"""

import os
import shutil
import zlib

import numpy as np
import pytest

from repro.storage import (
    MmapSignGradientStore,
    SignGradientStore,
    TieredSignGradientStore,
)
from repro.storage.tiered import CRASH_POINTS

pytestmark = pytest.mark.chaos

CHAOS_SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "7").split(",")]

DELTA = 1e-6
DIM = 57


class _InjectedCrash(BaseException):
    """Raised by the crash hook; BaseException so no except Exception
    inside the store can swallow the simulated SIGKILL."""


def _cohorts(rng, rounds):
    return {
        t: {int(c): rng.normal(size=DIM) * 1e-3 for c in range(t % 3 + 1, 6)}
        for t in rounds
    }


def _snapshot(store):
    """Full byte-level view: {(round, client): payload bytes + length}."""
    return {
        (int(t), int(cid)): (bytes(np.asarray(packed)), int(length))
        for (t, cid), (packed, length) in store.items()
    }


def _crash_hook(point):
    def crash(p):
        if p == point:
            raise _InjectedCrash(p)

    return crash


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_during_spill_keeps_durable_or_new_state(seed, point, tmp_path):
    rng = np.random.default_rng(seed)
    directory = str(tmp_path / "tiered")
    store = TieredSignGradientStore(directory, delta=DELTA)

    # rounds 0-2 reach disk and become the durable baseline
    for t, cohort in _cohorts(rng, range(3)).items():
        store.put_round(t, cohort)
    store.flush()
    durable = _snapshot(store)

    # rounds 3-4 are hot-only when the crash lands mid-flush
    for t, cohort in _cohorts(rng, range(3, 5)).items():
        store.put_round(t, cohort)
    full = _snapshot(store)
    assert set(full) > set(durable)

    store._crash_hook = _crash_hook(point)
    with pytest.raises(_InjectedCrash):
        store.flush()
    store._crash_hook = None

    # the in-process store never adopts a torn write: it still serves
    # every round, bit-for-bit
    assert _snapshot(store) == full
    assert store.nbytes() == store.recount_nbytes()

    # a restart sees exactly one of the two valid states — never a mix
    reopened = TieredSignGradientStore.open(directory)
    observed = _snapshot(reopened)
    assert observed in (durable, full), sorted(observed)
    if point == "after-manifest-replace":
        # past the commit point the flush IS durable
        assert observed == full
    assert reopened.nbytes() == reopened.recount_nbytes()
    for t in reopened.rounds():
        got = reopened.get_round(t)
        for cid in reopened.clients_at(t):
            np.testing.assert_array_equal(got[cid], reopened.get(t, cid))


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_during_compaction_never_loses_a_round(seed, point, tmp_path):
    rng = np.random.default_rng(seed)
    reference = SignGradientStore(delta=DELTA)
    directory = str(tmp_path / "tiered")
    store = TieredSignGradientStore(directory, delta=DELTA, hot_budget_bytes=64)
    for t, cohort in _cohorts(rng, range(5)).items():
        reference.put_round(t, cohort)
        store.put_round(t, cohort)
    store.flush()
    reference.drop_client(2)
    store.drop_client(2)
    pre = _snapshot(reference)  # compaction reclaims bytes, not records
    assert _snapshot(store) == pre
    disk_before = store.disk_bytes()

    store._crash_hook = _crash_hook(point)
    with pytest.raises(_InjectedCrash):
        store.compact(cold_after=1)
    store._crash_hook = None

    # compaction operates on durable rounds only: no crash point may
    # lose or corrupt a single record, in-process or across a restart
    assert _snapshot(store) == pre
    assert store.nbytes() == store.recount_nbytes()
    reopened = TieredSignGradientStore.open(directory)
    assert _snapshot(reopened) == pre
    assert reopened.nbytes() == reopened.recount_nbytes()

    # the aborted attempt left no poison: a clean retry completes,
    # demotes old rounds, and the dropped client's bytes are gone
    reopened.compact(cold_after=1)
    assert _snapshot(reopened) == pre
    assert reopened.disk_bytes() < disk_before
    assert reopened.tier_rounds()["cold"] > 0


def _stored_layout(store):
    """``{round: (codec, stored block bytes)}`` — the on-disk form."""
    out = {}
    for t, dr in store._disk.items():
        data = store._shard_data(dr.shard)
        out[t] = (dr.codec, bytes(data[dr.offset : dr.offset + dr.stored_bytes]))
    return out


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_during_mixed_compaction_is_old_or_new(
    seed, point, tmp_path, monkeypatch
):
    """One compaction that both passes untouched cold blocks through
    and re-deflates dirtied ones: a crash at any hook leaves the old or
    the new layout on disk, block for block."""
    rng = np.random.default_rng(seed)
    reference = SignGradientStore(delta=DELTA)
    directory = str(tmp_path / "tiered")
    store = TieredSignGradientStore(directory, delta=DELTA)
    for t, cohort in _cohorts(rng, range(7)).items():
        reference.put_round(t, cohort)
        store.put_round(t, cohort)
    store.flush()
    store.compact(cold_after=1)
    # client 1 sits in rounds 0, 3 and 6 only: two cold rounds (and the
    # warm newest) get dirty, cold rounds 1, 2, 4, 5 stay untouched
    reference.drop_client(1)
    store.drop_client(1)
    pre = _snapshot(reference)
    old = _stored_layout(store)

    # the fully committed outcome, from a clean run on a copy
    shutil.copytree(directory, str(tmp_path / "clean"))
    clean = TieredSignGradientStore.open(str(tmp_path / "clean"))
    deflates = []
    compressobj = zlib.compressobj
    monkeypatch.setattr(
        zlib, "compressobj", lambda **kw: deflates.append(kw) or compressobj(**kw)
    )
    clean.compact(cold_after=1)
    monkeypatch.undo()
    assert len(deflates) == 2  # rounds 0 and 3; the rest pass through
    new = _stored_layout(clean)
    assert all(new[t] == old[t] for t in (1, 2, 4, 5))
    assert all(new[t] != old[t] and new[t][0] == "zlib" for t in (0, 3))

    store._crash_hook = _crash_hook(point)
    with pytest.raises(_InjectedCrash):
        store.compact(cold_after=1)
    store._crash_hook = None
    assert _snapshot(store) == pre
    assert store.nbytes() == store.recount_nbytes()

    reopened = TieredSignGradientStore.open(directory)
    observed = _stored_layout(reopened)
    assert observed in (old, new)
    if point == "after-manifest-replace":
        assert observed == new
    assert _snapshot(reopened) == pre
    assert reopened.nbytes() == reopened.recount_nbytes()

    # a clean retry completes to the committed layout
    reopened.compact(cold_after=1)
    assert _stored_layout(reopened) == new
    assert _snapshot(reopened) == pre
    assert reopened.nbytes() == reopened.recount_nbytes()


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_crash_between_tmp_write_and_rename_mmap_compact(seed, tmp_path, monkeypatch):
    rng = np.random.default_rng(seed)
    reference = SignGradientStore(delta=DELTA)
    for t, cohort in _cohorts(rng, range(5)).items():
        reference.put_round(t, cohort)
    directory = str(tmp_path / "mmap")
    store = MmapSignGradientStore.from_store(reference, directory)
    reference.drop_client(3)
    store.drop_client(3)
    pre = _snapshot(reference)

    real_replace = os.replace

    def crash_on_manifest(src, dst):
        if os.path.basename(dst) == "MANIFEST.json":
            raise _InjectedCrash(dst)
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_on_manifest)
    with pytest.raises(_InjectedCrash):
        store.compact()
    monkeypatch.undo()

    # manifest swap never happened → reopening serves the old shard set
    reopened = MmapSignGradientStore.open(directory)
    assert _snapshot(reopened) == pre
    assert reopened.nbytes() == reopened.recount_nbytes()

    # retry on the reopened store completes and reclaims bytes
    disk_before = reopened.disk_bytes()
    stats = reopened.compact()
    assert stats["reclaimed_bytes"] > 0
    assert reopened.disk_bytes() < disk_before
    assert reopened.stats()["tombstone_pairs"] == 0
    assert _snapshot(reopened) == pre
    assert _snapshot(MmapSignGradientStore.open(directory)) == pre


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_mmap_compact_orphans_swept_on_reopen(seed, tmp_path, monkeypatch):
    """A crash between compact()'s shard renames and its manifest swap
    leaves new-generation shards no manifest references; open() must
    sweep them (and the manifest tmp) instead of leaking disk."""
    rng = np.random.default_rng(seed)
    reference = SignGradientStore(delta=DELTA)
    for t, cohort in _cohorts(rng, range(4)).items():
        reference.put_round(t, cohort)
    directory = str(tmp_path / "mmap")
    store = MmapSignGradientStore.from_store(reference, directory)
    old_names = set(store._shard_names)
    old_names |= {name + ".idx.npz" for name in old_names}
    reference.drop_client(2)
    store.drop_client(2)
    pre = _snapshot(reference)

    real_replace = os.replace

    def crash_on_manifest(src, dst):
        if os.path.basename(dst) == "MANIFEST.json":
            raise _InjectedCrash(dst)
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_on_manifest)
    with pytest.raises(_InjectedCrash):
        store.compact()
    monkeypatch.undo()

    orphans = [
        f
        for f in os.listdir(directory)
        if f.startswith("shard_") and f not in old_names
    ]
    assert orphans, "crash point should have left unreferenced shards behind"
    # like a SIGKILL, the crash left the manifest tmp behind
    assert "MANIFEST.json.tmp" in os.listdir(directory)

    reopened = MmapSignGradientStore.open(directory)
    assert _snapshot(reopened) == pre
    live = set(reopened._shard_names)
    live |= {name + ".idx.npz" for name in live}
    leftover = [
        f
        for f in os.listdir(directory)
        if (f.startswith("shard_") and f not in live) or f.endswith(".tmp")
    ]
    assert leftover == [], "open() must sweep unreferenced shard and tmp files"


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_crash_garbage_is_swept_on_reopen(seed, tmp_path):
    """Unreferenced shard/tmp files from a torn spill are deleted by open()."""
    rng = np.random.default_rng(seed)
    directory = str(tmp_path / "tiered")
    store = TieredSignGradientStore(directory, delta=DELTA)
    for t, cohort in _cohorts(rng, range(3)).items():
        store.put_round(t, cohort)
    store.flush()
    durable = _snapshot(store)
    referenced = list(store._shard_names)

    for t, cohort in _cohorts(rng, range(3, 5)).items():
        store.put_round(t, cohort)
    store._crash_hook = _crash_hook("after-shard-write")
    with pytest.raises(_InjectedCrash):
        store.flush()

    orphans = [
        f
        for f in os.listdir(directory)
        if f.startswith("shard_") and not f.endswith(".idx.npz")
        and f not in referenced
    ]
    assert orphans, "crash point should have left unreferenced files behind"

    reopened = TieredSignGradientStore.open(directory)
    assert _snapshot(reopened) == durable
    leftover = [
        f
        for f in os.listdir(directory)
        if f.startswith("shard_") and not f.endswith(".idx.npz")
        and f not in reopened._shard_names
    ]
    assert leftover == []
