"""The training fan-out's determinism contract.

With ``workers > 1`` :class:`~repro.fl.simulation.FederatedSimulation`
splits each round's cohort pass into contiguous chunks on a thread
pool.  The promise is that the result is *bitwise identical* to the
one-pass run — same training records, same accuracies, same fault
bookkeeping — with only wall time allowed to differ.  These tests pin
that contract:

- the guard that the constructor default stays at one worker, so the
  fan-out cannot perturb seed-sensitive tests, and that one worker
  builds no pool and no clone;
- one worker vs 2 and 3 for ``FederatedSimulation.run`` across seeds,
  with and without an active ``FaultPlan`` (including dropped
  stragglers and flaky retries), with more workers than participants
  (empty chunks) and with rounds nobody participates in;
- telemetry counter parity and the ``fl_parallel_*`` gauges;
- the batched sign codec (`pack_signs_batch` / `encode_round` /
  ``put_round``) against the per-vector reference, and the cached
  store ``nbytes`` against a from-scratch recount.
"""

import sys

import numpy as np
import pytest

import repro.fl.simulation as simulation
from repro.datasets import make_synthetic_mnist, partition_iid, train_test_split
from repro.faults import FaultPlan, RetryPolicy
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient
from repro.nn import Sequential, mlp
from repro.storage import (
    FullGradientStore,
    SignGradientStore,
    encode_round,
    pack_signs,
    pack_signs_batch,
    ternarize,
    unpack_signs,
)
from repro.telemetry import Telemetry, use_telemetry
from repro.utils.rng import SeedSequenceTree

NUM_CLIENTS = 6
IMAGE = 6
FEATURES = IMAGE * IMAGE

WORKERS = [2, 3]


def build_sim(seed, rounds=None, schedule=None, model=None, **kwargs):
    """A tiny but real FL setup, rebuilt identically from its seed."""
    tree = SeedSequenceTree(seed)
    data = make_synthetic_mnist(180, tree.rng("data"), image_size=IMAGE)
    train, test = train_test_split(data, 0.2, tree.rng("split"))
    shards = partition_iid(train, NUM_CLIENTS, tree.rng("part"))
    clients = [
        VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=16)
        for i in range(NUM_CLIENTS)
    ]
    if model is None:
        model = mlp(tree.rng("model"), FEATURES, 10, hidden=6)
    kwargs.setdefault("gradient_store", SignGradientStore())
    kwargs.setdefault("test_set", test)
    kwargs.setdefault("eval_every", 5)
    return model, FederatedSimulation(
        model, clients, 2e-3, schedule=schedule, **kwargs
    )


def assert_records_equal(a, b):
    """Bitwise equality of two training records (params + history)."""
    np.testing.assert_array_equal(a.final_params(), b.final_params())
    for t in range(a.num_rounds + 1):
        np.testing.assert_array_equal(a.params_at(t), b.params_at(t))
    assert a.ledger.to_dict() == b.ledger.to_dict()
    assert a.client_sizes == b.client_sizes
    items_a, items_b = a.gradients.items(), b.gradients.items()
    assert [k for k, _ in items_a] == [k for k, _ in items_b]
    for (_, pa), (_, pb) in zip(items_a, items_b):
        if isinstance(pa, tuple):  # sign store: (packed bytes, length)
            np.testing.assert_array_equal(pa[0], pb[0])
            assert pa[1] == pb[1]
        else:
            np.testing.assert_array_equal(pa, pb)


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------
class TestExecutionPolicy:
    def test_process_default_is_serial_single_worker(self):
        """No scale profile turns the fan-out on: an experiment trains
        with threads only when its caller asks (``--workers``)."""
        from repro.eval import available_scales, config_for

        for dataset in ("mnist", "gtsrb"):
            for scale in available_scales():
                assert config_for(dataset, scale).train_workers == 1

    def test_constructors_resolve_to_serial_by_default(self):
        """Every test not asking for threads runs the one-pass path."""
        _, sim = build_sim(3)
        assert sim.workers == 1

    def test_invalid_policies_rejected(self):
        for workers in (0, -1):
            with pytest.raises(ValueError):
                build_sim(3, workers=workers)

class TestCliPolicyPlumbing:
    def test_eval_main_installs_and_restores_policy(self, capsys, monkeypatch):
        """``--workers 2`` reaches the run's simulation, and the next
        run without the flag trains on the one-pass default."""
        from repro.eval.__main__ import main

        seen = []
        sim_init = FederatedSimulation.__init__

        def spy_init(sim, *args, **kwargs):
            sim_init(sim, *args, **kwargs)
            seen.append(sim.workers)

        monkeypatch.setattr(FederatedSimulation, "__init__", spy_init)
        assert main(["storage", "--scale", "smoke", "--workers", "2", "--quiet"]) == 0
        assert seen == [2]
        seen.clear()
        assert main(["storage", "--scale", "smoke", "--quiet"]) == 0
        assert seen == [1]
        capsys.readouterr()


# ----------------------------------------------------------------------
# training identity
# ----------------------------------------------------------------------
class TestTrainingIdentity:
    @pytest.mark.parametrize("seed", [11, 23])
    def test_clean_run_bitwise_identical_across_backends(self, seed):
        _, ref_sim = build_sim(seed)
        reference = ref_sim.run(8)
        for workers in WORKERS:
            _, sim = build_sim(seed, workers=workers)
            record = sim.run(8)
            assert_records_equal(record, reference)
            assert record.accuracy_history == reference.accuracy_history
            assert sim.fault_stats == ref_sim.fault_stats

    @pytest.mark.parametrize("seed", [11, 23])
    def test_faulted_run_bitwise_identical_across_backends(self, seed):
        """Every fault kind active, tuned so both straggler outcomes
        (met and dropped) and flaky retries actually occur."""

        def plan():
            return FaultPlan.random(
                range(NUM_CLIENTS),
                rounds=10,
                seed=seed + 1,
                crash_rate=0.1,
                corrupt_rate=0.1,
                straggle_rate=0.2,
                flaky_rate=0.2,
                straggle_delay_scale=2.0,
                fallback_deadline=2.0,
            )

        _, ref_sim = build_sim(
            seed, fault_plan=plan(), retry_policy=RetryPolicy(max_attempts=2)
        )
        reference = ref_sim.run(10)
        assert ref_sim.fault_stats["stragglers_dropped"] > 0
        assert ref_sim.fault_stats["stragglers_met"] > 0
        assert ref_sim.fault_stats["retries"] > 0
        assert ref_sim.fault_stats["crashes"] > 0
        assert ref_sim.fault_stats["corrupted"] > 0
        for workers in WORKERS:
            _, sim = build_sim(
                seed,
                fault_plan=plan(),
                retry_policy=RetryPolicy(max_attempts=2),
                workers=workers,
            )
            record = sim.run(10)
            assert_records_equal(record, reference)
            assert sim.fault_stats == ref_sim.fault_stats
            assert record.accuracy_history == reference.accuracy_history

    def test_empty_chunks_and_empty_rounds_bitwise_identical(self):
        """More workers than participants (and than cores) leaves chunks
        empty, and rounds 0–1 have no participant at all (everyone joins
        at 2 or 3; round 4 loses everyone to dropouts)."""

        def schedule():
            return ParticipationSchedule.with_events(
                range(NUM_CLIENTS),
                joins={cid: 2 if cid < 3 else 3 for cid in range(NUM_CLIENTS)},
                dropouts=[(4, cid) for cid in range(NUM_CLIENTS)],
            )

        _, ref_sim = build_sim(5, schedule=schedule())
        reference = ref_sim.run(6)
        assert reference.ledger.members_at(0) == []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside the chunks
        try:
            for workers in (4, 8):
                _, sim = build_sim(5, schedule=schedule(), workers=workers)
                assert_records_equal(sim.run(6), reference)
        finally:
            sys.setswitchinterval(interval)

    def test_one_worker_builds_no_pool_and_no_clone(self, monkeypatch):
        built = {"pools": 0, "clones": 0}
        real_pool, real_clone = simulation.ThreadPoolExecutor, Sequential.clone

        def pool(*args, **kwargs):
            built["pools"] += 1
            return real_pool(*args, **kwargs)

        def clone(self):
            built["clones"] += 1
            return real_clone(self)

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(Sequential, "clone", clone)
        build_sim(3)[1].run(3)
        assert built == {"pools": 0, "clones": 0}
        build_sim(3, workers=3)[1].run(3)  # once per run, not per round
        assert built == {"pools": 1, "clones": 2}

    def test_telemetry_counter_parity(self):
        """The round loop books every client after the pass, so counters
        (not just results) match the one-pass run."""
        counters = {}
        for workers in (1, 3):
            telemetry = Telemetry()
            plan = FaultPlan.random(
                range(NUM_CLIENTS),
                rounds=6,
                seed=5,
                crash_rate=0.1,
                flaky_rate=0.3,
                straggle_rate=0.2,
                straggle_delay_scale=2.0,
                fallback_deadline=2.0,
            )
            _, sim = build_sim(
                31,
                fault_plan=plan,
                retry_policy=RetryPolicy(max_attempts=2),
                workers=workers,
            )
            with use_telemetry(telemetry):
                sim.run(6)
            registry = telemetry.registry
            counters[workers] = {
                name: registry.counter_value(name)
                for name in (
                    "fl_dropouts_total",
                    "faults_retries_total",
                    "faults_giveups_total",
                )
            }
            counters[workers]["update_count"] = registry.histogram(
                "fl_client_update_seconds"
            ).count
            counters[workers]["update_bytes"] = registry.histogram(
                "fl_client_update_bytes"
            ).sum
        assert counters[3] == counters[1]
        assert counters[1]["faults_retries_total"] > 0

    def test_parallel_pool_metrics_emitted_only_for_pool_backends(self):
        for workers in (1, 2):
            telemetry = Telemetry()
            _, sim = build_sim(7, workers=workers)
            with use_telemetry(telemetry):
                sim.run(3)
            registry = telemetry.registry
            if workers > 1:
                assert registry.gauge_value("fl_parallel_workers") == workers
                utilization = registry.gauge_value("fl_parallel_utilization")
                assert 0.0 <= utilization <= 1.0
            else:
                assert registry.gauge_value("fl_parallel_workers") is None
                assert registry.gauge_value("fl_parallel_utilization") is None


# ----------------------------------------------------------------------
# batched sign codec + store caches (satellites)
# ----------------------------------------------------------------------
class TestBatchedCodec:
    @pytest.mark.parametrize("length", [0, 1, 3, 4, 5, 64, 257, 1000])
    def test_pack_signs_batch_rows_match_per_vector_pack(self, length):
        rng = np.random.default_rng(length)
        signs = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(5, length))
        packed, out_length = pack_signs_batch(signs)
        assert out_length == length
        for row, vector in zip(packed, signs):
            single, single_length = pack_signs(vector)
            np.testing.assert_array_equal(row, single)
            assert single_length == length
            np.testing.assert_array_equal(unpack_signs(row, length), vector)

    def test_encode_round_matches_ternarize_then_pack(self):
        rng = np.random.default_rng(9)
        gradients = rng.normal(size=(4, 33))
        packed, length = encode_round(gradients, delta=0.1)
        assert length == 33
        for row, gradient in zip(packed, gradients):
            reference, _ = pack_signs(ternarize(gradient, 0.1))
            np.testing.assert_array_equal(row, reference)

    def test_pack_signs_batch_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pack_signs_batch(np.zeros(4, dtype=np.int8))  # 1-D
        with pytest.raises(ValueError):
            pack_signs_batch(np.full((2, 4), 3, dtype=np.int8))  # not ternary


class TestStoreBatchingAndCaches:
    @staticmethod
    def _updates(rng, num_clients=5, dim=67):
        return {i: rng.normal(size=dim) for i in range(num_clients)}

    @pytest.mark.parametrize("store_cls", [SignGradientStore, FullGradientStore])
    def test_put_round_identical_to_per_client_puts(self, store_cls):
        rng = np.random.default_rng(3)
        updates = {t: self._updates(np.random.default_rng(t)) for t in range(3)}
        batched, reference = store_cls(), store_cls()
        for t, round_updates in updates.items():
            batched.put_round(t, round_updates)
            for client_id, update in round_updates.items():
                reference.put(t, client_id, update)
        items_a, items_b = batched.items(), reference.items()
        assert [k for k, _ in items_a] == [k for k, _ in items_b]
        for t, round_updates in updates.items():
            for client_id in round_updates:
                np.testing.assert_array_equal(
                    batched.get(t, client_id), reference.get(t, client_id)
                )
        assert batched.nbytes() == reference.nbytes()
        del rng

    def test_put_round_falls_back_on_ragged_sizes(self):
        store = SignGradientStore()
        store.put_round(0, {0: np.ones(8), 1: np.ones(12)})
        np.testing.assert_array_equal(store.get(0, 0), np.ones(8))
        np.testing.assert_array_equal(store.get(0, 1), np.ones(12))

    @pytest.mark.parametrize("store_cls", [SignGradientStore, FullGradientStore])
    def test_nbytes_cache_survives_overwrite_and_drop(self, store_cls):
        store = store_cls()
        rng = np.random.default_rng(5)

        def recount():
            total = 0
            for _, payload in store.items():
                if isinstance(payload, tuple):
                    total += payload[0].nbytes
                else:
                    total += payload.nbytes
            return total

        for t in range(3):
            store.put_round(t, self._updates(rng))
        assert store.nbytes() == recount()
        store.put(1, 2, rng.normal(size=129))  # overwrite with a new size
        assert store.nbytes() == recount()
        store.drop_client(2)
        assert store.nbytes() == recount()
        store.put_round(3, self._updates(rng, dim=31))
        assert store.nbytes() == recount()
