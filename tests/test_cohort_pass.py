"""The training round's cohort pass: one stacked forward/backward.

- **Identity.**  Row ``k`` of a stacked pass equals the pass on vehicle
  ``k`` alone (``K = 1``) bit for bit — over MLPs, a CNN, float64 and
  float32 models, ragged batches and chunk boundaries inside the
  cohort.
  ``make chaos`` (which sets ``CHAOS_SEEDS``) runs the property at a
  large example budget.
- **Pins.**  Five simulations keep the record digests they had when
  every vehicle ran its own pass: faults with a quarantining
  validator, ragged batches, ``local_steps=3``, a float32 model and a
  ``tiny_cnn``.
- **Structure.**  A serial round makes exactly groups × chunks passes.
"""

from __future__ import annotations

import copy
import hashlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.model as model_module
from repro.datasets import ArrayDataset, make_synthetic_mnist, partition_iid
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.faults.validation import UpdateValidator
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient
from repro.fl.client import cohort_updates
from repro.nn import Sequential, mlp, tiny_cnn
from repro.storage import SignGradientStore
from repro.utils.rng import SeedSequenceTree
from tests.conftest import CorePins, pin_note

#: ``make chaos`` (which sets CHAOS_SEEDS) runs the property at length.
CHAOS = "CHAOS_SEEDS" in os.environ


def rows_per_pass(model, batch_shape, rows):
    """A ``PASS_BYTES`` under which ``model`` takes ``rows`` batches of
    ``batch_shape`` per pass."""
    big = 10**15
    with mock.patch.object(model_module, "PASS_BYTES", big):
        per_row = big / model.pass_rows(batch_shape)
    return int((rows + 0.5) * per_row)


def make_model(kind, rng, dtype):
    """``(model, sample shape)`` for one architecture of the property."""
    if kind == "mlp1":
        return mlp(rng, 20, 5, hidden=7, depth=1, dtype=dtype), (20,)
    if kind == "mlp2":
        return mlp(rng, 16, 4, hidden=6, depth=2, dtype=dtype), (1, 4, 4)
    return tiny_cnn(rng, image_size=6, channels=2, num_classes=3, dtype=dtype), (
        2,
        6,
        6,
    )


def make_clients(rng, k, sample, classes, ragged):
    """``k`` vehicles; with ``ragged`` some shards are smaller than the
    batch and some batch sizes differ, so the cohort splits into runs."""
    clients = []
    for i in range(k):
        n = int(rng.integers(2, 9)) if ragged and i % 3 == 1 else 12
        batch = 6 if ragged and i % 3 == 2 else 8
        data = ArrayDataset(
            rng.normal(size=(n,) + sample),
            rng.integers(0, classes, size=n),
            classes,
        )
        clients.append(
            VehicleClient(i, data, np.random.default_rng(int(rng.integers(2**31))),
                          batch_size=batch, reduction="sum" if i % 4 else "mean")
        )
    return clients


@pytest.mark.chaos
@settings(max_examples=300 if CHAOS else 30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["mlp1", "mlp2", "tiny_cnn"]),
    dtype=st.sampled_from(["float64", "float32"]),
    k=st.sampled_from([1, 2, 7]),
    ragged=st.booleans(),
    chunk=st.sampled_from([None, 1, 2, 3]),
)
def test_cohort_rows_match_lone_passes(seed, kind, dtype, k, ragged, chunk):
    rng = np.random.default_rng(seed)
    model, sample = make_model(kind, rng, dtype)
    classes = 3 if kind == "tiny_cnn" else 4
    clients = make_clients(rng, k, sample, classes, ragged)
    params = rng.normal(scale=0.3, size=model.num_params)
    lone_model = model.clone()
    lone_clients = copy.deepcopy(clients)  # same sampling generator states
    bound = model_module.PASS_BYTES
    if chunk is not None:
        bound = rows_per_pass(model, clients[0].batch_shape, chunk)
    with mock.patch.object(model_module, "PASS_BYTES", bound):
        if chunk is not None and not ragged:
            assert model.pass_rows(clients[0].batch_shape) == chunk
        block = cohort_updates(clients, params, model)
    assert block.shape == (k, model.num_params) and block.dtype == np.float64
    for row, client in zip(block, lone_clients):
        lone = cohort_updates([client], params, lone_model)
        assert lone.shape == (1, model.num_params)
        assert np.array_equal(row, lone[0]), (kind, dtype, k, ragged, chunk)
    for mine, theirs in zip(clients, lone_clients):
        assert mine.rng.bit_generator.state == theirs.rng.bit_generator.state


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["mlp2", "tiny_cnn"]),
    dtype=st.sampled_from(["float64", "float32"]),
    k=st.sampled_from([1, 2, 7]),
)
def test_cohort_pass_rows_match_loss_and_flat_grad(seed, kind, dtype, k):
    rng = np.random.default_rng(seed)
    model, sample = make_model(kind, rng, dtype)
    lone = model.clone()
    xs = rng.normal(size=(k, 5) + sample)
    ys = rng.integers(0, 3, size=(k, 5))
    grads = np.empty((k, model.num_params), dtype=model.dtype)
    losses = model.cohort_pass(xs, ys, grads)
    for i in range(k):
        loss, grad = lone.loss_and_flat_grad(xs[i], ys[i])
        assert loss == losses[i]
        assert np.array_equal(grads[i].astype(np.float64), grad)


def test_cohort_pass_rejects_a_block_of_another_shape_or_dtype():
    model = mlp(np.random.default_rng(0), 6, 3, hidden=4)
    xs, ys = np.zeros((2, 3, 6)), np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="grads must be"):
        model.cohort_pass(xs, ys, np.empty((1, model.num_params)))
    with pytest.raises(ValueError, match="grads must be"):
        model.cohort_pass(xs, ys, np.empty((2, model.num_params), np.float32))


# ----------------------------------------------------------------------
# record pins
# ----------------------------------------------------------------------
def record_digest(record) -> str:
    """SHA-256 over every checkpoint and every stored sign row."""
    digest = hashlib.sha256()
    for t in range(record.num_rounds + 1):
        digest.update(np.ascontiguousarray(record.params_at(t)).tobytes())
    for (t, cid), (packed, length) in sorted(record.gradients.items()):
        digest.update(np.int64([t, cid, length]).tobytes())
        digest.update(np.ascontiguousarray(packed).tobytes())
    return digest.hexdigest()


def pinned_simulation(seed, model="mlp", dtype="float64", ragged=False,
                      local_steps=1, faults=False, rounds=8):
    n, batch = 6, 16
    tree = SeedSequenceTree(seed)
    image = 12 if model == "tiny_cnn" else 8
    data = make_synthetic_mnist(n * batch * 2, tree.rng("data"), image_size=image)
    shards = partition_iid(data, n, tree.rng("part"))
    clients = []
    for i in range(n):
        shard = shards[i]
        if ragged and i % 3 == 1:
            keep = batch // 2 + i
            shard = ArrayDataset(shard.x[:keep], shard.y[:keep], shard.num_classes)
        steps = {}
        if local_steps > 1 and i % 2 == 0:
            steps = dict(local_steps=local_steps, local_lr=0.01)
        clients.append(
            VehicleClient(i, shard, tree.rng(f"c{i}"),
                          batch_size=batch + (4 if ragged and i % 3 == 2 else 0), **steps)
        )
    if model == "tiny_cnn":
        net = tiny_cnn(tree.rng("model"), image_size=image, num_classes=10, dtype=dtype)
    else:
        net = mlp(tree.rng("model"), image * image, 10, hidden=12, depth=2, dtype=dtype)
    plan = validator = retry = None
    if faults:
        plan = FaultPlan.random(range(n), rounds, seed=seed, crash_rate=0.1,
                                corrupt_rate=0.2, straggle_rate=0.15, flaky_rate=0.15,
                                straggle_delay_scale=20.0)
        validator, retry = UpdateValidator(), RetryPolicy(max_attempts=2)
    sim = FederatedSimulation(
        net, clients, 2e-3,
        schedule=ParticipationSchedule.with_events(range(n), joins={n - 1: 2}),
        gradient_store=SignGradientStore(), fault_plan=plan, validator=validator,
        retry_policy=retry,
    )
    return sim, sim.run(rounds)


#: Recorded before the cohort pass, when each vehicle ran its own.  The
#: Haswell table was recorded at the commit that keyed these pins by core.
PINS = CorePins(__name__, {
    "SkylakeX": {
        "faults": "49fe4bd8e786ae7d6af20da2156acf99b0b477b1c3973af3a082edfea5361290",
        "ragged": "4e73bf223ca0eb31dd207981324b50c4cdf0dbea72d0294e8362eab071065568",
        "local_steps": "7d8320fa3c1236dc12fe4424148011c873efcd2f222265001281eaab7965768b",
        "float32": "951165545b2435d13ec699ac5070dd8e5763ee10e3a59b79a549fc3b3fa391d8",
        "tiny_cnn": "154fe3a005bc057ca17c8a9ef3aaf65c4b5846f6db881e9d66569712e0235911",
    },
    "Haswell": {
        "faults": "49fe4bd8e786ae7d6af20da2156acf99b0b477b1c3973af3a082edfea5361290",
        "ragged": "4e73bf223ca0eb31dd207981324b50c4cdf0dbea72d0294e8362eab071065568",
        "local_steps": "7d8320fa3c1236dc12fe4424148011c873efcd2f222265001281eaab7965768b",
        "float32": "47c1b851a3846f11f52bda1f83fba84b633ddcae916d333c1b4946053dc3bb6c",
        "tiny_cnn": "154fe3a005bc057ca17c8a9ef3aaf65c4b5846f6db881e9d66569712e0235911",
    },
})
CASES = {
    "faults": dict(seed=3, faults=True, rounds=12),
    "ragged": dict(seed=4, ragged=True),
    "local_steps": dict(seed=5, local_steps=3),
    "float32": dict(seed=6, dtype="float32"),
    "tiny_cnn": dict(seed=7, model="tiny_cnn"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_digest_is_pinned(case):
    sim, record = pinned_simulation(**CASES[case])
    assert record_digest(record) == PINS[case], pin_note()
    if case == "faults":
        # The pin covers every fault kind and the quarantine gate.
        stats = sim.fault_stats
        assert stats["crashes"] and stats["corrupted"] and stats["retries"]
        assert stats["stragglers_dropped"] + stats["stragglers_met"]
        # A truncated or padded row leaves the pass's block for a dict.
        assert any("wrong dimension" in e.reason for e in sim.server.quarantine)


# ----------------------------------------------------------------------
# structure: passes per round
# ----------------------------------------------------------------------
def test_serial_round_makes_groups_times_chunks_passes():
    """Seven vehicles, the fourth with a shard smaller than the batch:
    three runs of one minibatch shape (3, 1, 3 vehicles).  One pass per
    run by default; at two vehicles a pass, 2 + 1 + 2."""
    rng = np.random.default_rng(0)
    clients = []
    for i in range(7):
        n = 5 if i == 3 else 12
        data = ArrayDataset(rng.normal(size=(n, 6)), rng.integers(0, 3, size=n), 3)
        clients.append(VehicleClient(i, data, np.random.default_rng(i), batch_size=8))
    model = mlp(np.random.default_rng(1), 6, 3, hidden=4)
    passes = []
    real = Sequential.cohort_pass

    def counting(self, xs, ys, grads):
        passes.append(len(xs))
        return real(self, xs, ys, grads)

    def run(bound):
        sim = FederatedSimulation(model, copy.deepcopy(clients), 1e-2)
        per_round = []

        def end_of_round(t, w):
            per_round.append(list(passes))
            passes.clear()

        with mock.patch.object(model_module, "PASS_BYTES", bound), \
                mock.patch.object(Sequential, "cohort_pass", counting):
            sim.run(3, round_callback=end_of_round)
        return per_round

    assert run(model_module.PASS_BYTES) == [[3, 1, 3]] * 3
    assert run(rows_per_pass(model, (8, 6), 2)) == [[2, 1, 1, 2, 1]] * 3
