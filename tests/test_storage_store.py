"""Tests for gradient/model stores and their byte accounting."""

import copy
import pickle

import numpy as np
import pytest

from repro.eval import ExperimentConfig
from repro.fl.history import with_sign_store
from repro.storage import (
    FullGradientStore,
    GradientStore,
    ModelCheckpointStore,
    SignGradientStore,
    encode_gradient,
    make_gradient_store,
)


@pytest.fixture(params=["full", "sign"])
def store(request):
    return make_gradient_store(request.param)


class TestGradientStoreInterface:
    def test_put_get_has(self, store, rng):
        g = rng.normal(size=32)
        store.put(3, 7, g)
        assert store.has(3, 7)
        assert not store.has(3, 8)
        assert store.get(3, 7).shape == (32,)

    def test_get_missing_raises(self, store):
        with pytest.raises(KeyError):
            store.get(0, 0)

    def test_rounds_and_clients(self, store, rng):
        store.put(1, 5, rng.normal(size=4))
        store.put(1, 3, rng.normal(size=4))
        store.put(2, 5, rng.normal(size=4))
        assert store.rounds() == [1, 2]
        assert store.clients_at(1) == [3, 5]
        assert store.clients_at(2) == [5]

    def test_drop_client(self, store, rng):
        store.put(1, 5, rng.normal(size=4))
        store.put(2, 5, rng.normal(size=4))
        store.put(1, 6, rng.normal(size=4))
        assert store.drop_client(5) == 2
        assert not store.has(1, 5)
        assert store.has(1, 6)

    def test_nbytes_grows(self, store, rng):
        before = store.nbytes()
        store.put(0, 0, rng.normal(size=1000))
        assert store.nbytes() > before

    def test_overwrite_same_key(self, store, rng):
        store.put(0, 0, np.ones(8))
        store.put(0, 0, -np.ones(8))
        value = store.get(0, 0)
        assert (value <= 0).all()


class TestCopyAndPickle:
    """The in-memory stores carry a ``threading.Lock``; since the live
    path added it, ``copy.deepcopy(record)`` died with ``TypeError:
    cannot pickle '_thread.lock'``."""

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
        ids=["deepcopy", "pickle"],
    )
    def test_round_trip_equals_and_is_independent(self, store, rng, clone):
        store.put_round(0, {1: rng.normal(size=9), 2: rng.normal(size=9)})
        store.put(1, 2, rng.normal(size=9))
        twin = clone(store)

        def contents(s):
            return [(key, np.asarray(v[0] if isinstance(v, tuple) else v).tobytes())
                    for key, v in s.items()]

        assert contents(twin) == contents(store)
        assert twin.nbytes() == store.nbytes() == twin.recount_nbytes()
        assert twin.get_round(0).keys() == store.get_round(0).keys()
        # Its own lock and its own records: writes do not cross over.
        assert twin._mutex is not store._mutex
        twin.put(2, 1, rng.normal(size=9))
        assert twin.drop_client(2) == 2
        assert not store.has(2, 1) and store.has(1, 2)
        assert twin.nbytes() == twin.recount_nbytes()
        assert store.nbytes() == store.recount_nbytes()


class TestFullGradientStore:
    def test_returns_values_float32_rounded(self, rng):
        store = FullGradientStore()
        g = rng.normal(size=16)
        store.put(0, 0, g)
        np.testing.assert_allclose(store.get(0, 0), g, atol=1e-6)

    def test_nbytes_is_4_per_element(self):
        store = FullGradientStore()
        store.put(0, 0, np.zeros(100))
        assert store.nbytes() == 400


class TestSignGradientStore:
    def test_returns_directions(self, rng):
        store = SignGradientStore(delta=1e-6)
        store.put(0, 0, np.array([0.5, -0.5, 0.0]))
        np.testing.assert_array_equal(store.get(0, 0), [1.0, -1.0, 0.0])

    def test_delta_thresholding(self):
        store = SignGradientStore(delta=0.1)
        store.put(0, 0, np.array([0.05, 0.2, -0.05, -0.2]))
        np.testing.assert_array_equal(store.get(0, 0), [0.0, 1.0, 0.0, -1.0])

    def test_nbytes_is_quarter_byte_per_element(self):
        store = SignGradientStore()
        store.put(0, 0, np.zeros(100))
        assert store.nbytes() == 25

    def test_storage_savings_vs_full(self, rng):
        """The headline claim: ~94% fewer bytes than float32 storage."""
        g = rng.normal(size=10_000)
        full = FullGradientStore()
        sign = SignGradientStore()
        full.put(0, 0, g)
        sign.put(0, 0, g)
        savings = 1 - sign.nbytes() / full.nbytes()
        assert savings > 0.93

    def test_negative_delta_raises(self):
        with pytest.raises(ValueError):
            SignGradientStore(delta=-1.0)


class TestNbytesAccounting:
    """The incremental nbytes cache must never drift from a full recount.

    Regression guard: ``put_encoded`` used to accept non-flat payloads
    and ``drop_client`` kept its own key scan, so a drop-then-reinsert
    of a reshaped payload could desynchronize the cache.  Accounting now
    funnels through one choke point; these sequences pin that down.
    """

    @pytest.mark.parametrize("kind", ["full", "sign"])
    def test_recount_matches_through_mutation_sequence(self, kind, rng):
        store = make_gradient_store(kind)
        assert store.nbytes() == store.recount_nbytes() == 0
        # puts, batched puts, overwrites, drops, reinsert of a dropped key
        for t in range(3):
            store.put_round(t, {c: rng.normal(size=40) for c in range(4)})
            assert store.nbytes() == store.recount_nbytes()
        store.put(1, 2, rng.normal(size=40))  # overwrite same key
        assert store.nbytes() == store.recount_nbytes()
        assert store.drop_client(2) == 3
        assert store.nbytes() == store.recount_nbytes()
        store.put(1, 2, rng.normal(size=40))  # reinsert dropped key
        assert store.nbytes() == store.recount_nbytes()
        store.drop_client(0)
        store.drop_client(1)
        store.drop_client(2)
        store.drop_client(3)
        assert store.nbytes() == store.recount_nbytes() == 0

    def test_recount_matches_through_put_encoded(self, rng):
        store = SignGradientStore()
        packed, length = encode_gradient(rng.normal(size=101), 1e-6)
        store.put_encoded(0, 0, packed, length)
        assert store.nbytes() == store.recount_nbytes()
        # Non-flat payloads are normalized, not stored verbatim.
        store.put_encoded(0, 1, packed.reshape(1, -1), length)
        assert store.nbytes() == store.recount_nbytes()
        np.testing.assert_array_equal(store.get(0, 0), store.get(0, 1))
        # overwrite an encoded record through the plain put path
        store.put(0, 1, rng.normal(size=11))
        assert store.nbytes() == store.recount_nbytes()
        store.drop_client(1)
        assert store.nbytes() == store.recount_nbytes()

    def test_put_encoded_validates(self):
        store = SignGradientStore()
        with pytest.raises(ValueError):
            store.put_encoded(0, 0, np.zeros(2, dtype=np.uint8), -1)
        with pytest.raises(ValueError):
            store.put_encoded(0, 0, np.zeros(2, dtype=np.uint8), 100)


class TestGetRound:
    """Bulk round decode equals per-client get, bit for bit."""

    @pytest.mark.parametrize("kind", ["full", "sign"])
    def test_bulk_matches_per_client(self, kind, rng):
        store = make_gradient_store(kind)
        assert store.supports_bulk_round
        for t in range(3):
            store.put_round(t, {c: rng.normal(size=33) * 1e-3 for c in range(5)})
        for t in range(3):
            bulk = store.get_round(t)
            assert sorted(bulk) == store.clients_at(t)
            for cid in bulk:
                np.testing.assert_array_equal(bulk[cid], store.get(t, cid))

    def test_empty_round(self, store):
        assert store.get_round(17) == {}

    def test_heterogeneous_lengths_fall_back(self, rng):
        store = SignGradientStore()
        store.put(0, 0, rng.normal(size=8))
        store.put(0, 1, rng.normal(size=12))
        bulk = store.get_round(0)
        assert sorted(bulk) == [0, 1]
        for cid in (0, 1):
            np.testing.assert_array_equal(bulk[cid], store.get(0, cid))

    def test_base_interface_default_loops_get(self, rng):
        assert GradientStore.supports_bulk_round is False


class TestSignBackendPolicy:
    def test_default_is_dict(self, small_fl):
        record = with_sign_store(small_fl["record"])
        assert type(record.gradients) is SignGradientStore

    def test_unknown_backend_raises(self, small_fl):
        """``with_sign_store`` and the experiment config both check the
        name against ``SIGN_BACKENDS``."""
        with pytest.raises(ValueError):
            with_sign_store(small_fl["record"], backend="sqlite")
        with pytest.raises(ValueError):
            ExperimentConfig(sign_backend="sqlite")


class TestMakeGradientStore:
    def test_kinds(self):
        assert isinstance(make_gradient_store("full"), FullGradientStore)
        assert isinstance(make_gradient_store("sign"), SignGradientStore)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            make_gradient_store("zip")


class TestModelCheckpointStore:
    def test_put_get(self, rng):
        store = ModelCheckpointStore()
        w = rng.normal(size=64)
        store.put(5, w)
        np.testing.assert_allclose(store.get(5), w, atol=1e-6)

    def test_put_owns_its_copy(self, rng):
        # One copy on the way in, whatever the input dtype: a float32
        # input must not be aliased, a float64 one is cast once.
        store = ModelCheckpointStore()
        w32 = rng.normal(size=64).astype(np.float32)
        store.put(0, w32)
        store.put(1, w32.astype(np.float64))
        assert not np.shares_memory(store._checkpoints[0], w32)
        expected = store.get(0).copy()
        w32[:] = 0.0
        assert store.get(0).tobytes() == expected.tobytes()
        assert store.get(1).tobytes() == expected.tobytes()
        assert store.nbytes() == 2 * 64 * 4

    def test_missing_raises(self):
        with pytest.raises(KeyError):
            ModelCheckpointStore().get(3)

    def test_rounds_sorted(self, rng):
        store = ModelCheckpointStore()
        for r in (5, 1, 3):
            store.put(r, rng.normal(size=2))
        assert store.rounds() == [1, 3, 5]

    def test_prune(self, rng):
        store = ModelCheckpointStore()
        for r in range(6):
            store.put(r, rng.normal(size=2))
        removed = store.prune(keep=[0, 5])
        assert removed == 4
        assert store.rounds() == [0, 5]

    def test_nbytes(self):
        store = ModelCheckpointStore()
        store.put(0, np.zeros(10))
        assert store.nbytes() == 40
