"""Tests for RsuServer, ParticipationSchedule, and FederatedSimulation."""

import numpy as np
import pytest

from repro.datasets import ArrayDataset
from repro.fl import (
    FederatedSimulation,
    ParticipationSchedule,
    RsuServer,
    VehicleClient,
    with_sign_store,
)
from repro.nn import mlp
from repro.storage import FullGradientStore, SignGradientStore


def make_clients(rng, n=4, samples=20, features=6):
    clients = []
    for i in range(n):
        x = rng.normal(size=(samples, features))
        y = (x[:, 0] > 0).astype(np.int64)
        ds = ArrayDataset(x=x, y=y, num_classes=2)
        clients.append(VehicleClient(i, ds, np.random.default_rng(i), batch_size=8))
    return clients


class TestRsuServer:
    def test_initial_checkpoint(self, rng):
        server = RsuServer(rng.normal(size=10), learning_rate=0.1)
        assert server.checkpoints.has(0)

    def test_run_round_applies_eq2(self):
        server = RsuServer(np.zeros(3), learning_rate=0.5)
        server.register_client(0, num_samples=10, join_round=0)
        new = server.run_round({0: np.ones(3)})
        np.testing.assert_allclose(new, -0.5 * np.ones(3))

    def test_run_round_weighted(self):
        server = RsuServer(np.zeros(1), learning_rate=1.0)
        server.register_client(0, num_samples=10, join_round=0)
        server.register_client(1, num_samples=30, join_round=0)
        new = server.run_round({0: np.array([0.0]), 1: np.array([4.0])})
        assert new[0] == pytest.approx(-3.0)

    def test_records_gradients(self, rng):
        server = RsuServer(np.zeros(4), learning_rate=0.1)
        server.register_client(0, 5, 0)
        g = rng.normal(size=4)
        server.run_round({0: g})
        assert server.gradients.has(0, 0)

    def test_unregistered_client_raises(self):
        server = RsuServer(np.zeros(2), learning_rate=0.1)
        with pytest.raises(KeyError):
            server.run_round({0: np.zeros(2)})

    def test_empty_round_raises(self):
        server = RsuServer(np.zeros(2), learning_rate=0.1)
        with pytest.raises(ValueError):
            server.run_round({})

    def test_skip_round_keeps_params(self):
        server = RsuServer(np.ones(2), learning_rate=0.1)
        out = server.skip_round()
        np.testing.assert_array_equal(out, np.ones(2))
        assert server.round_index == 1
        assert server.checkpoints.has(1)

    def test_default_store_is_sign(self):
        server = RsuServer(np.zeros(2), learning_rate=0.1)
        assert isinstance(server.gradients, SignGradientStore)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RsuServer(np.zeros(2), learning_rate=0.0)
        with pytest.raises(ValueError):
            RsuServer(np.zeros(2), learning_rate=0.1, aggregator="nope")


class TestParticipationSchedule:
    def test_always_on(self):
        sched = ParticipationSchedule.always_on([0, 1, 2])
        assert sched.participants_at(0) == [0, 1, 2]
        assert sched.participants_at(99) == [0, 1, 2]

    def test_with_joins(self):
        sched = ParticipationSchedule.with_events([0, 1], joins={1: 5})
        assert sched.participants_at(4) == [0]
        assert sched.participants_at(5) == [0, 1]

    def test_with_leaves(self):
        sched = ParticipationSchedule.with_events([0, 1], leaves={1: 3})
        assert sched.participants_at(2) == [0, 1]
        assert sched.participants_at(3) == [0]

    def test_dropouts(self):
        sched = ParticipationSchedule.with_events([0, 1], dropouts=[(2, 1)])
        assert sched.participants_at(2) == [0]
        assert sched.participants_at(3) == [0, 1]

    def test_leave_before_join_raises(self):
        with pytest.raises(ValueError):
            ParticipationSchedule.with_events([0], joins={0: 5}, leaves={0: 5})

    def test_dropout_unknown_client_raises(self):
        with pytest.raises(ValueError):
            ParticipationSchedule(join_rounds={0: 0}, dropouts={(1, 99)})

    def test_random_dropouts_rate(self, rng):
        sched = ParticipationSchedule.random_dropouts(
            range(10), rounds=50, dropout_rate=0.3, rng=rng
        )
        total = 10 * 50
        assert 0.2 < len(sched.dropouts) / total < 0.4

    def test_random_dropouts_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            ParticipationSchedule.random_dropouts(range(3), 10, 1.0, rng)


class TestFederatedSimulation:
    def test_produces_valid_record(self, rng):
        clients = make_clients(rng)
        model = mlp(np.random.default_rng(0), 6, 2, hidden=8)
        sim = FederatedSimulation(model, clients, learning_rate=0.05)
        record = sim.run(10)
        record.validate()
        assert record.num_rounds == 10
        assert record.checkpoints.has(10)

    def test_respects_join_schedule(self, rng):
        clients = make_clients(rng)
        model = mlp(np.random.default_rng(0), 6, 2, hidden=8)
        sched = ParticipationSchedule.with_events(range(4), joins={3: 4})
        sim = FederatedSimulation(model, clients, learning_rate=0.05, schedule=sched)
        record = sim.run(8)
        assert record.ledger.join_round(3) == 4
        assert not record.gradients.has(3, 3)
        assert record.gradients.has(4, 3)

    def test_respects_leaves(self, rng):
        clients = make_clients(rng)
        model = mlp(np.random.default_rng(0), 6, 2, hidden=8)
        sched = ParticipationSchedule.with_events(range(4), leaves={2: 5})
        sim = FederatedSimulation(model, clients, learning_rate=0.05, schedule=sched)
        record = sim.run(8)
        assert record.gradients.has(4, 2)
        assert not record.gradients.has(5, 2)
        assert record.ledger.leave_round(2) == 5

    def test_respects_dropouts(self, rng):
        clients = make_clients(rng)
        model = mlp(np.random.default_rng(0), 6, 2, hidden=8)
        sched = ParticipationSchedule.with_events(range(4), dropouts=[(3, 1)])
        sim = FederatedSimulation(model, clients, learning_rate=0.05, schedule=sched)
        record = sim.run(6)
        assert not record.gradients.has(3, 1)
        assert 1 not in record.ledger.participants_at(3)
        record.validate()

    def test_empty_round_skips(self, rng):
        clients = make_clients(rng, n=2)
        model = mlp(np.random.default_rng(0), 6, 2, hidden=8)
        sched = ParticipationSchedule.with_events([0, 1], joins={0: 2, 1: 2})
        sim = FederatedSimulation(model, clients, learning_rate=0.05, schedule=sched)
        record = sim.run(5)
        w0 = record.params_at(0)
        w2 = record.params_at(2)
        np.testing.assert_array_equal(w0, w2)  # idle rounds keep params

    def test_duplicate_ids_raise(self, rng):
        clients = make_clients(rng, n=2)
        clients[1].client_id = 0
        model = mlp(np.random.default_rng(0), 6, 2, hidden=8)
        with pytest.raises(ValueError):
            FederatedSimulation(model, clients, learning_rate=0.05)

    def test_schedule_unknown_client_raises(self, rng):
        clients = make_clients(rng, n=2)
        model = mlp(np.random.default_rng(0), 6, 2, hidden=8)
        sched = ParticipationSchedule.always_on([0, 1, 7])
        with pytest.raises(ValueError):
            FederatedSimulation(model, clients, learning_rate=0.05, schedule=sched)

    def test_accuracy_history_recorded(self, rng):
        clients = make_clients(rng)
        model = mlp(np.random.default_rng(0), 6, 2, hidden=8)
        test = ArrayDataset(rng.normal(size=(20, 6)), rng.integers(0, 2, 20), num_classes=2)
        sim = FederatedSimulation(
            model, clients, learning_rate=0.05, test_set=test, eval_every=5
        )
        record = sim.run(10)
        assert len(record.accuracy_history) == 2

    def test_training_reduces_loss(self, rng):
        clients = make_clients(rng, n=3, samples=60)
        model = mlp(np.random.default_rng(0), 6, 2, hidden=8)
        w0 = model.get_flat_params()
        x = np.concatenate([c.dataset.x for c in clients])
        y = np.concatenate([c.dataset.y for c in clients])
        model.set_flat_params(w0)
        loss_before = model.evaluate_loss(x, y)
        sim = FederatedSimulation(model, clients, learning_rate=2e-3)
        record = sim.run(60)
        model.set_flat_params(record.final_params())
        assert model.evaluate_loss(x, y) < loss_before


class TestWithSignStore:
    def test_derives_directions(self, rng):
        clients = make_clients(rng)
        model = mlp(np.random.default_rng(0), 6, 2, hidden=8)
        sim = FederatedSimulation(
            model, clients, learning_rate=0.05, gradient_store=FullGradientStore()
        )
        record = sim.run(5)
        sign_record = with_sign_store(record, delta=1e-6)
        sign_record.validate()
        g = sign_record.gradients.get(0, 0)
        assert set(np.unique(g)).issubset({-1.0, 0.0, 1.0})

    def test_matches_direct_ternarize(self, rng):
        clients = make_clients(rng)
        model = mlp(np.random.default_rng(0), 6, 2, hidden=8)
        sim = FederatedSimulation(
            model, clients, learning_rate=0.05, gradient_store=FullGradientStore()
        )
        record = sim.run(3)
        from repro.storage import ternarize

        sign_record = with_sign_store(record, delta=1e-6)
        full = record.gradients.get(1, 2)
        np.testing.assert_array_equal(
            sign_record.gradients.get(1, 2), ternarize(full, 1e-6).astype(float)
        )

    def test_shares_checkpoints(self, rng):
        clients = make_clients(rng)
        model = mlp(np.random.default_rng(0), 6, 2, hidden=8)
        sim = FederatedSimulation(
            model, clients, learning_rate=0.05, gradient_store=FullGradientStore()
        )
        record = sim.run(3)
        sign_record = with_sign_store(record)
        assert sign_record.checkpoints is record.checkpoints

    def test_sign_store_smaller(self, rng):
        clients = make_clients(rng)
        model = mlp(np.random.default_rng(0), 6, 2, hidden=8)
        sim = FederatedSimulation(
            model, clients, learning_rate=0.05, gradient_store=FullGradientStore()
        )
        record = sim.run(4)
        sign_record = with_sign_store(record)
        assert sign_record.gradients.nbytes() < record.gradients.nbytes() / 10
