"""Isolated per-layer micro-benchmarks at the calling workload's shape.

Each number is the median of ``REPS`` warm repetitions of one call into
one module, on inputs of the (cohort, d) the workload itself uses — so
a per-layer figure can be set beside the traced run's spans (which see
the same calls in context) and a regression localised rather than just
detected.  Emitted under the same names as the traced numbers.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Optional

import numpy as np

from repro.fl.aggregation import fedavg
from repro.fl.history import TrainingRecord
from repro.fl.membership import MembershipLedger
from repro.nn.arena import BranchArena
from repro.nn.optim import SGD
from repro.storage import (
    MmapSignGradientStore,
    ModelCheckpointStore,
    SignGradientStore,
    TieredSignGradientStore,
)
from repro.storage.sign_codec import decode_round, encode_round
from repro.unlearning import UnlearningService
from repro.unlearning.backtrack import backtrack
from repro.unlearning.estimator import GradientEstimator
from repro.unlearning.lbfgs import LbfgsBuffer

from metrics import median
from records import DELTA, LEARNING_RATE

REPS = 30
BUFFER_SIZE = 2
STORE_ROUNDS = 10
ARENA_ROWS = 32
_now = time.perf_counter


def timed(fn: Callable[[], object], reps: int = REPS, warm: int = 3) -> float:
    """Median seconds of ``fn()`` over ``reps`` calls after ``warm``."""
    for _ in range(warm):
        fn()
    samples = []
    for _ in range(reps):
        start = _now()
        fn()
        samples.append(_now() - start)
    return median(samples)


def _round_updates(rng: np.random.Generator, cohort: int, d: int) -> Dict[int, np.ndarray]:
    dense = rng.normal(size=(cohort, d)) * 1e-3
    dense[rng.random(dense.shape) < 0.8] = 0.0
    return {cid: dense[cid] for cid in range(cohort)}


def kernels(rng: np.random.Generator, cohort: int, d: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    # L-BFGS at s = 2: pairs with positive curvature so both are kept.
    dw = [rng.normal(size=d) for _ in range(BUFFER_SIZE)]
    dg = [w * 0.5 + rng.normal(size=d) * 0.01 for w in dw]
    buffer = LbfgsBuffer(buffer_size=BUFFER_SIZE)
    for w, g in zip(dw, dg):
        buffer.add_pair(w, g)
    vector = rng.normal(size=d)
    out["lbfgs.hvp_us"] = 1e6 * timed(lambda: buffer.hvp(vector))
    scratch = LbfgsBuffer(buffer_size=BUFFER_SIZE)
    out["lbfgs.add_pair_us"] = 1e6 * timed(lambda: scratch.add_pair(dw[0], dg[0]))
    estimator = GradientEstimator(buffer_size=BUFFER_SIZE, clip_threshold=5.0)
    for w, g in zip(dw, dg):
        estimator.seed_pair(w, g)
    stored = np.sign(rng.normal(size=d))
    out["estimator.estimate_us"] = 1e6 * timed(
        lambda: estimator.estimate_displaced(stored, vector))

    grads = [rng.normal(size=d) for _ in range(cohort)]
    weights = [64.0] * cohort
    out["aggregation.fedavg_us"] = 1e6 * timed(lambda: fedavg(grads, weights))
    params = rng.normal(size=d)
    optimizer = SGD(LEARNING_RATE)
    out["optim.step_us"] = 1e6 * timed(lambda: optimizer.step_(params, grads[0]))
    arena = BranchArena(ARENA_ROWS, d)
    rows = [arena.acquire(params) for _ in range(ARENA_ROWS)]
    block = rng.normal(size=(ARENA_ROWS, d))
    out["arena.step_rows_us"] = 1e6 * timed(
        lambda: arena.step_rows(rows, block, LEARNING_RATE))

    matrix = np.stack(list(_round_updates(rng, cohort, d).values()))
    megabytes = matrix.nbytes / 1e6  # decoded float64 bytes, both ways
    packed, length = encode_round(matrix, DELTA)
    out["codec.encode_mb_s"] = megabytes / timed(lambda: encode_round(matrix, DELTA))
    out["codec.decode_mb_s"] = megabytes / timed(lambda: decode_round(packed, length))
    return out


def stores(rng: np.random.Generator, cohort: int, d: int, workdir: str
           ) -> Dict[str, float]:
    """Read, write and purge cost per backend and tier."""
    out: Dict[str, float] = {}
    rounds = [_round_updates(rng, cohort, d) for _ in range(STORE_ROUNDS)]

    def fill(store):
        for t, updates in enumerate(rounds):
            store.put_round(t, updates)
        return store

    def read_cost(store, over) -> float:
        """Median get_round per row, cycling over ``over`` so a small
        block cache cannot answer from memory."""
        cursor = [0]

        def read():
            store.get_round(over[cursor[0] % len(over)])
            cursor[0] += 1

        return 1e6 * timed(read) / cohort

    def write_cost(make) -> float:
        samples = []
        for rep in range(3):
            store = make(rep)
            for t, updates in enumerate(rounds):
                start = _now()
                store.put_round(t, updates)
                samples.append(_now() - start)
            close = getattr(store, "close", None)
            if close is not None:
                close()
        return 1e6 * median(samples) / cohort

    def drop_cost(store) -> float:
        samples = []
        for cid in range(min(8, cohort)):
            start = _now()
            store.drop_client(cid)
            samples.append(_now() - start)
        return 1e3 * median(samples)

    every = list(range(STORE_ROUNDS))
    plain = fill(SignGradientStore(delta=DELTA))
    out["store.get_round_us_per_row.dict"] = read_cost(plain, every)
    mapped = MmapSignGradientStore.from_store(plain, os.path.join(workdir, "m-mmap"))
    out["store.get_round_us_per_row.mmap"] = read_cost(mapped, every)

    big = 1 << 30
    hot = fill(TieredSignGradientStore(os.path.join(workdir, "m-hot"), delta=DELTA,
                                       hot_budget_bytes=big))
    out["store.get_round_us_per_row.tiered_hot"] = read_cost(hot, every)
    hot.flush()
    out["store.get_round_us_per_row.tiered_warm"] = read_cost(hot, every)
    hot.compact(cold_after=1)
    # More cold rounds than the block cache holds, so every read inflates.
    out["store.get_round_us_per_row.tiered_cold"] = read_cost(hot, every[:-2])

    out["store.put_round_us_per_row.dict"] = write_cost(
        lambda rep: SignGradientStore(delta=DELTA))
    out["store.put_round_us_per_row.tiered"] = write_cost(
        lambda rep: TieredSignGradientStore(
            os.path.join(workdir, f"m-put{rep}"), delta=DELTA, hot_budget_bytes=1 << 20))

    out["store.drop_client_ms.dict"] = drop_cost(plain)
    out["store.drop_client_ms.mmap"] = drop_cost(mapped)
    out["store.drop_client_ms.tiered"] = drop_cost(hot)
    hot.close()
    return out


def service_io(rng: np.random.Generator, cohort: int, d: int, workdir: str
               ) -> Dict[str, float]:
    """``persist``/``restore`` of a small record at the workload's
    shape, and ``backtrack`` on it."""
    ledger = MembershipLedger()
    checkpoints = ModelCheckpointStore()
    store = SignGradientStore(delta=DELTA)
    params = rng.normal(size=d)
    for cid in range(cohort):
        ledger.join(cid, 0 if cid else 2)
    for t in range(STORE_ROUNDS):
        checkpoints.put(t, params)
        members = [c for c in range(cohort) if c or t >= 2]
        dense = _round_updates(rng, cohort, d)
        store.put_round(t, {c: dense[c] for c in members})
    checkpoints.put(STORE_ROUNDS, params)
    record = TrainingRecord(checkpoints, store, ledger, {c: 64 for c in range(cohort)},
                            STORE_ROUNDS, LEARNING_RATE)
    service = UnlearningService(record=record, model=None)
    out = {"backtrack.ms": 1e3 * timed(lambda: backtrack(record, [0]))}
    persist, restore = [], []
    for rep in range(3):
        directory = os.path.join(workdir, f"m-persist{rep}")
        start = _now()
        service.persist(directory)
        persist.append(_now() - start)
        start = _now()
        UnlearningService.restore(directory, None)
        restore.append(_now() - start)
    out["service.persist_s"] = median(persist)
    out["service.restore_s"] = median(restore)
    return out


def training(make_sim: Optional[Callable[[], object]]) -> Dict[str, float]:
    """One unloaded training round and one client update, on a fresh
    copy of the workload's own simulation (0 where it has none)."""
    if make_sim is None:
        return {"fl.round_ms_solo": 0.0, "fl.client_update_us": 0.0}
    sim = make_sim()
    stream = sim.stream(REPS + 3)
    samples = []
    for _ in range(REPS + 3):
        start = _now()
        next(stream)
        samples.append(_now() - start)
    stream.close()
    client = sim.clients[0]
    params = sim.server.params
    return {
        "fl.round_ms_solo": 1e3 * median(samples[3:]),
        "fl.client_update_us": 1e6 * timed(
            lambda: client.compute_update(params, sim.model)),
    }


def run_micro(seed: int, cohort: int, d: int, workdir: str,
              make_sim: Optional[Callable[[], object]] = None) -> Dict[str, float]:
    rng = np.random.default_rng(seed)
    out = kernels(rng, cohort, d)
    out.update(stores(rng, cohort, d, workdir))
    out.update(service_io(rng, cohort, d, workdir))
    out.update(training(make_sim))
    return out
