"""Tests for the zero-copy parameter arena and allocation-free core.

Three families of guarantees:

1. **Aliasing/ownership semantics** — layer parameters really are views
   into the model's flat buffers, view identity is stable across
   ``set_flat_params``/training, and clones/pickles rebuild their own
   arena instead of sharing one.
2. **Bitwise equivalence** — the golden hashes below were captured from
   the pre-arena implementation (PR 3 head).  A seeded federated run,
   its sign recovery, and a CNN train step must reproduce them exactly:
   the arena is a memory-layout change, not a numeric change.
3. **Allocation behaviour** — tracemalloc guards assert that a warm
   train step performs no steady-state allocations above 1 MB for
   models/workloads sized so the *old* flatten/unflatten/im2col copies
   would blow the budget.
"""

import copy
import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.datasets import make_synthetic_mnist, partition_iid, train_test_split
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient
from repro.nn import SGD, Dropout, ParameterArena, Sequential, Workspace, mlp, tiny_cnn
from repro.storage import SignGradientStore
from repro.unlearning import SignRecoveryUnlearner
from repro.unlearning.lbfgs import LbfgsBuffer, compact_form_matrices, compact_hvp
from repro.utils.rng import SeedSequenceTree

from tests.conftest import pin_note


def sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# ----------------------------------------------------------------------
# arena + workspace primitives
# ----------------------------------------------------------------------
class TestParameterArena:
    def test_views_alias_flat_buffers(self):
        arena = ParameterArena([(2, 3), (3,)])
        arena.param_views[0][1, 2] = 7.0
        assert arena.w[5] == 7.0
        arena.g[6] = -1.0
        assert arena.grad_views[1][0] == -1.0

    def test_rejects_non_float_dtype(self):
        with pytest.raises(ValueError, match="floating"):
            ParameterArena([(2,)], dtype=np.int64)

    def test_readonly_views(self):
        arena = ParameterArena([(4,)])
        view = arena.readonly_params()
        with pytest.raises(ValueError):
            view[0] = 1.0
        # The underlying buffer stays writable.
        arena.w[0] = 1.0
        assert view[0] == 1.0

    def test_workspace_reuses_buffers(self):
        ws = Workspace()
        a = ws.get("x", (4, 4))
        b = ws.get("x", (4, 4))
        assert a is b
        c = ws.get("x", (2, 2))
        assert c is not a
        assert len(ws) == 2
        assert ws.nbytes == a.nbytes + c.nbytes
        ws.clear()
        assert len(ws) == 0

    def test_workspace_zero_only_on_first_allocation(self):
        ws = Workspace()
        a = ws.get("z", (3,), zero=True)
        assert np.all(a == 0.0)
        a[:] = 5.0
        assert np.all(ws.get("z", (3,), zero=True) == 5.0)

    def test_workspace_drops_buffers_on_copy_and_pickle(self):
        ws = Workspace()
        ws.get("x", (8,))
        assert len(copy.deepcopy(ws)) == 0
        assert len(pickle.loads(pickle.dumps(ws))) == 0


# ----------------------------------------------------------------------
# Sequential aliasing semantics
# ----------------------------------------------------------------------
class TestSequentialArena:
    def _model(self, seed=3):
        return mlp(np.random.default_rng(seed), 6, 3, hidden=4)

    def test_layer_params_are_arena_views(self):
        model = self._model()
        for p, g in zip(model._param_refs(), model._grad_refs()):
            assert p.base is model.arena.w
            assert g.base is model.arena.g

    def test_view_identity_stable_across_set_and_train(self):
        model = self._model()
        refs = [id(p) for p in model._param_refs()]
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 6))
        y = rng.integers(0, 3, size=5)
        model.set_flat_params(np.zeros(model.num_params))
        model.loss_and_flat_grad(x, y)
        model.set_flat_params(np.ones(model.num_params) * 0.01)
        model.loss_and_flat_grad(x, y)
        assert [id(p) for p in model._param_refs()] == refs

    def test_set_flat_params_is_visible_through_layer_views(self):
        model = self._model()
        vec = np.arange(model.num_params, dtype=np.float64)
        model.set_flat_params(vec)
        first = model.layers[1]  # Flatten is layer 0
        assert first.weight[0, 0] == 0.0
        assert first.weight.ravel()[-1] == first.weight.size - 1
        # ...and writes through a layer view are visible in the flat vector.
        first.weight[0, 0] = -42.0
        assert model.get_flat_params()[0] == -42.0

    def test_get_flat_params_returns_owned_copy(self):
        model = self._model()
        w = model.get_flat_params()
        w[:] = 99.0
        assert model.get_flat_params()[0] != 99.0

    def test_set_flat_params_wrong_size_raises(self):
        model = self._model()
        with pytest.raises(ValueError, match="elements"):
            model.set_flat_params(np.zeros(model.num_params + 1))

    def test_view_accessors_are_readonly_and_zero_copy(self):
        model = self._model()
        wview = model.get_flat_params_view()
        gview = model.get_flat_grads_view()
        assert wview.base is model.arena.w
        assert gview.base is model.arena.g
        for view in (wview, gview):
            with pytest.raises(ValueError):
                view[0] = 1.0

    def test_loss_and_flat_grad_matches_view_variant(self):
        model = self._model()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6))
        y = rng.integers(0, 3, size=4)
        loss_a, grad = model.loss_and_flat_grad(x, y)
        loss_b, gview = model.loss_and_flat_grad_view(x, y)
        assert loss_a == loss_b
        assert np.array_equal(grad, gview)
        assert not gview.flags.writeable

    def test_clone_rebuilds_independent_arena(self):
        model = self._model()
        clone = model.clone()
        assert clone.arena.w is not model.arena.w
        assert np.array_equal(clone.get_flat_params(), model.get_flat_params())
        for p in clone._param_refs():
            assert p.base is clone.arena.w
        clone.set_flat_params(np.zeros(clone.num_params))
        assert not np.array_equal(clone.get_flat_params(), model.get_flat_params())

    def test_pickle_roundtrip_rebuilds_arena(self):
        model = self._model()
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6))
        y = rng.integers(0, 3, size=3)
        restored = pickle.loads(pickle.dumps(model))
        assert np.array_equal(
            restored.get_flat_params(), model.get_flat_params()
        )
        for p in restored._param_refs():
            assert p.base is restored.arena.w
        la, _ = model.loss_and_flat_grad(x, y)
        lb, _ = restored.loss_and_flat_grad(x, y)
        assert la == lb

    def test_cnn_workspace_bookkeeping(self):
        cnn = tiny_cnn(np.random.default_rng(2))
        assert cnn.workspace_nbytes() == 0
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, 12, 12))
        y = rng.integers(0, 4, size=2)
        cnn.loss_and_flat_grad(x, y)
        assert cnn.workspace_nbytes() > 0
        cnn.clear_workspaces()
        assert cnn.workspace_nbytes() == 0


# ----------------------------------------------------------------------
# satellite behaviours
# ----------------------------------------------------------------------
class TestSatellites:
    def test_dropout_rate_zero_is_identity_without_copies(self):
        drop = Dropout(0.0, np.random.default_rng(0))
        x = np.ones((4, 4))
        out = drop.forward(x, training=True)
        assert out is x  # no ones-mask, no x.copy()
        dout = np.full((4, 4), 2.0)
        assert drop.backward(dout) is dout
        with pytest.raises(RuntimeError):
            drop.backward(dout)

    def test_dropout_nonzero_rate_still_masks(self):
        drop = Dropout(0.5, np.random.default_rng(0))
        x = np.ones((64, 64))
        out = drop.forward(x, training=True)
        assert out is not x
        kept = out[out != 0]
        assert np.allclose(kept, 2.0)  # inverted scaling by 1/keep

    def test_predict_proba_preallocated_matches_unbatched(self):
        model = mlp(np.random.default_rng(7), 6, 3, hidden=4)
        x = np.random.default_rng(8).normal(size=(25, 6))
        batched = model.predict_proba(x, batch_size=4)
        whole = model.predict_proba(x, batch_size=100)
        assert batched.shape == whole.shape == (25, 3)
        # Different batch sizes go through different BLAS blockings, so
        # agreement is to rounding, not bitwise.
        np.testing.assert_allclose(batched, whole, rtol=1e-12, atol=1e-15)
        with pytest.raises(ValueError, match="empty"):
            model.predict_proba(x[:0])

    def test_evaluate_loss_batching(self):
        model = mlp(np.random.default_rng(7), 6, 3, hidden=4)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(25, 6))
        y = rng.integers(0, 3, size=25)
        assert model.evaluate_loss(x, y, batch_size=4) == pytest.approx(
            model.evaluate_loss(x, y, batch_size=100)
        )
        with pytest.raises(ValueError, match="empty"):
            model.evaluate_loss(x[:0], y[:0])

    def test_sgd_step_inplace_matches_functional(self):
        rng = np.random.default_rng(11)
        for momentum, wd in [(0.0, 0.0), (0.9, 0.0), (0.0, 1e-2), (0.5, 1e-3)]:
            a = SGD(0.05, momentum=momentum, weight_decay=wd)
            b = SGD(0.05, momentum=momentum, weight_decay=wd)
            params_a = rng.normal(size=40)
            params_b = params_a.copy()
            for _ in range(4):
                grad = rng.normal(size=40)
                params_a = a.step(params_a, grad)
                grad_before = grad.copy()
                ret = b.step_(params_b, grad)
                assert ret is params_b
                assert np.array_equal(grad, grad_before)  # grad untouched
                assert np.array_equal(params_a, params_b)

    def test_sgd_step_inplace_validates(self):
        opt = SGD(0.1)
        with pytest.raises(ValueError, match="mismatch"):
            opt.step_(np.zeros(3), np.zeros(4))
        frozen = np.zeros(3)
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            opt.step_(frozen, np.zeros(3))

    def test_lbfgs_compact_form_cache_invalidation(self):
        rng = np.random.default_rng(13)
        buf = LbfgsBuffer(buffer_size=3)
        for _ in range(2):
            dw = rng.normal(size=30)
            buf.add_pair(dw, dw + 0.1 * rng.normal(size=30))
        v = rng.normal(size=30)
        first = buf.hvp(v)
        assert buf._form is not None
        cached = buf._form
        assert np.array_equal(buf.hvp(v), first)
        assert buf._form is cached  # second product reused the form
        dw = rng.normal(size=30)
        buf.add_pair(dw, dw + 0.1 * rng.normal(size=30))
        assert buf._form is None  # invalidated
        after = buf.hvp(v)
        assert not np.array_equal(after, first)
        buf.clear()
        assert buf._form is None
        assert np.array_equal(buf.hvp(v), np.zeros_like(v))

    def test_compact_hvp_precomputed_matches_from_scratch(self):
        rng = np.random.default_rng(17)
        dw = rng.normal(size=(20, 2))
        dg = dw + 0.05 * rng.normal(size=(20, 2))
        sigma = 1.3
        v = rng.normal(size=20)
        middle, wing = compact_form_matrices(dw, dg, sigma)
        assert np.array_equal(
            compact_hvp(dw, dg, sigma, v),
            compact_hvp(dw, dg, sigma, v, middle=middle, wing=wing),
        )

    def test_float32_policy_smoke(self):
        model = mlp(np.random.default_rng(23), 6, 3, hidden=4, dtype="float32")
        assert model.arena.w.dtype == np.float32
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 6))
        y = rng.integers(0, 3, size=5)
        loss, grad = model.loss_and_flat_grad(x, y)
        # Boundary contract: flat vectors crossing the model are float64.
        assert grad.dtype == np.float64
        assert model.get_flat_params().dtype == np.float64
        ref = mlp(np.random.default_rng(23), 6, 3, hidden=4)
        loss64, grad64 = ref.loss_and_flat_grad(x, y)
        assert loss == pytest.approx(loss64, rel=1e-4)
        np.testing.assert_allclose(grad, grad64, rtol=1e-3, atol=1e-5)
        # Same random draws either way: float32 init is the cast of float64's.
        assert np.array_equal(
            model.get_flat_params(),
            ref.get_flat_params().astype(np.float32).astype(np.float64),
        )

    def test_sequential_rejects_other_dtypes(self):
        with pytest.raises(ValueError, match="float64 or float32"):
            mlp(np.random.default_rng(0), 4, 2, dtype="float16")


# ----------------------------------------------------------------------
# bitwise golden equivalence vs the pre-arena implementation
# ----------------------------------------------------------------------
GOLDEN_FINAL_PARAMS = "088f1b3ac91ff38a770787c10511f86a330e49d72ff7b6c361dee7b4c16e043d"
GOLDEN_ACCURACY = [0.066666666667, 0.083333333333, 0.083333333333]
GOLDEN_CHECKPOINTS = "97ec5b46630b9e306bfc80eb54737e02076dacb9c99fac6135caed5f1b076c2c"
GOLDEN_RECOVERED = "d9794241d03b376e7a315454194088bfccdae590d595ba9912363f7a860834c3"

GOLDEN_CNN_W0 = "babd10f2ff4e997d3309c996dd7ec45f9dc1200edb6589ecc1f04fd66d5f390f"
GOLDEN_CNN_LOSS = 2.4234254925390237
GOLDEN_CNN_GRAD = "006bc6e5e34e21b3bf33127443f2c6074a6321b8a432d80eca054196aff2e9c6"
GOLDEN_CNN_LOSS2 = 2.62931824182229
GOLDEN_CNN_GRAD2 = "16872a9fbabf51c9c3012c67fef1ad8347d758811963e87bb2bbf3d37b95e003"


class TestGoldenEquivalence:
    """The arena refactor must be bitwise-invisible at default float64."""

    def test_federated_run_and_recovery_match_pre_arena_golden(self):
        SEED, NUM_CLIENTS, NUM_ROUNDS, IMAGE = 424242, 4, 6, 8
        tree = SeedSequenceTree(SEED)
        data = make_synthetic_mnist(240, tree.rng("data"), image_size=IMAGE)
        train, test = train_test_split(data, 0.25, tree.rng("split"))
        shards = partition_iid(train, NUM_CLIENTS, tree.rng("part"))
        clients = [
            VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=16)
            for i in range(NUM_CLIENTS)
        ]
        model = mlp(tree.rng("model"), IMAGE * IMAGE, 10, hidden=12)
        schedule = ParticipationSchedule.with_events(
            range(NUM_CLIENTS), joins={1: 2}
        )
        sim = FederatedSimulation(
            model,
            clients,
            2e-3,
            schedule=schedule,
            gradient_store=SignGradientStore(),
            test_set=test,
            eval_every=2,
        )
        record = sim.run(NUM_ROUNDS)
        assert sha(record.params_at(NUM_ROUNDS)) == GOLDEN_FINAL_PARAMS, pin_note()
        accuracy = [round(a, 12) for a in record.accuracy_history]
        assert accuracy == GOLDEN_ACCURACY, pin_note()
        digest = hashlib.sha256()
        for t in range(NUM_ROUNDS + 1):
            digest.update(np.ascontiguousarray(record.params_at(t)).tobytes())
        assert digest.hexdigest() == GOLDEN_CHECKPOINTS, pin_note()

        result = SignRecoveryUnlearner(refresh_period=2).unlearn(record, [1], model)
        assert sha(result.params) == GOLDEN_RECOVERED, pin_note()
        assert result.rounds_replayed == 4
        assert result.stats["forget_round"] == 2

    def test_cnn_train_step_matches_pre_arena_golden(self):
        rng = np.random.default_rng(777)
        cnn = tiny_cnn(rng, image_size=12, channels=1, num_classes=4)
        x = rng.normal(size=(8, 1, 12, 12))
        y = rng.integers(0, 4, size=8)
        w0 = cnn.get_flat_params()
        assert sha(w0) == GOLDEN_CNN_W0, pin_note()
        loss, grad = cnn.loss_and_flat_grad(x, y)
        assert float(loss) == GOLDEN_CNN_LOSS, pin_note()
        assert sha(grad) == GOLDEN_CNN_GRAD, pin_note()
        cnn.set_flat_params(w0 - 0.05 * grad)
        loss2, grad2 = cnn.loss_and_flat_grad(x, y)
        assert float(loss2) == GOLDEN_CNN_LOSS2, pin_note()
        assert sha(grad2) == GOLDEN_CNN_GRAD2, pin_note()


# ----------------------------------------------------------------------
# allocation guards
# ----------------------------------------------------------------------
_MB = 1024 * 1024


def _warm_step_peak(model, x, y, opt):
    """Peak tracemalloc delta of one fully-warm train step."""

    def step():
        _, gview = model.loss_and_flat_grad_view(x, y)
        opt.step_(model.arena.w, gview)

    for _ in range(3):  # warm caches: workspaces, optimizer scratch
        step()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


class TestAllocationGuards:
    def test_mlp_warm_step_allocates_under_1mb(self):
        # d = 20000*16 + ... ≈ 320k params → flat vector ≈ 2.56 MB.  The
        # pre-arena step materialized several of those per step; the
        # arena step's transients (activations, batch 4) are tiny.
        model = mlp(np.random.default_rng(0), 20000, 10, hidden=16)
        assert model.num_params * 8 > 2 * _MB
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 20000))
        y = rng.integers(0, 10, size=4)
        peak = _warm_step_peak(model, x, y, SGD(0.01))
        assert peak < _MB, f"warm MLP step allocated {peak / _MB:.2f} MB"

    def test_cnn_warm_step_allocates_under_1mb(self):
        # im2col patch buffers for 16×(1→4)×32² exceed 1 MB and must be
        # held by the workspace, not reallocated per step.
        model = tiny_cnn(np.random.default_rng(0), image_size=32, channels=1)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(16, 1, 32, 32))
        y = rng.integers(0, 4, size=16)
        opt = SGD(0.01)
        peak = _warm_step_peak(model, x, y, opt)
        assert model.workspace_nbytes() > _MB  # the big buffers are cached
        assert peak < _MB, f"warm CNN step allocated {peak / _MB:.2f} MB"
