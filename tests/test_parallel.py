"""The parallel execution engine's determinism contract.

``repro.parallel`` promises that the thread and process backends are
*bitwise identical* to the serial reference — same training records,
same accuracies, same fault bookkeeping — with only wall time allowed
to differ.  These tests pin that contract:

- executor unit behaviour (in-task-order results, worker contexts,
  pool stats, utilization math);
- the guard that the process-wide default stays ``serial``/1, so the
  engine's existence cannot perturb seed-sensitive tests;
- serial vs thread vs process equality for ``FederatedSimulation.run``
  across seeds, with and without an active ``FaultPlan`` (including
  dropped stragglers and flaky retries);
- telemetry counter parity: the parallel path re-emits per-client
  metrics from worker stats, so counters match the serial run;
- the batched sign codec (`pack_signs_batch` / `encode_round` /
  ``put_round``) against the per-vector reference, and the cached
  store ``nbytes`` against a from-scratch recount.
"""

import os
import time

import numpy as np
import pytest

from repro.datasets import make_synthetic_mnist, partition_iid, train_test_split
from repro.faults import FaultPlan, RetryPolicy
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient
from repro.nn import mlp
from repro.parallel import (
    ExecutionPolicy,
    Executor,
    PoolStats,
    default_execution,
    get_context,
    make_executor,
    pool_utilization,
    resolve_execution,
    set_default_execution,
)
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

BACKENDS = [("serial", 1), ("thread", 3), ("process", 2)]


def build_sim(seed, rounds=None, schedule=None, **kwargs):
    """A tiny but real FL setup, rebuilt identically from its seed."""
    tree = SeedSequenceTree(seed)
    data = make_synthetic_mnist(180, tree.rng("data"), image_size=IMAGE)
    train, test = train_test_split(data, 0.2, tree.rng("split"))
    shards = partition_iid(train, NUM_CLIENTS, tree.rng("part"))
    clients = [
        VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=16)
        for i in range(NUM_CLIENTS)
    ]
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
        """The guard: nothing in the package may flip the default —
        every test and experiment not asking for parallelism runs the
        reference serial path."""
        assert default_execution() == ExecutionPolicy(backend="serial", workers=1)

    def test_constructors_resolve_to_serial_by_default(self):
        _, sim = build_sim(3)
        assert sim.execution == ExecutionPolicy(backend="serial", workers=1)

    def test_resolve_fills_unset_knobs_from_default(self):
        previous = set_default_execution(backend="thread", workers=4)
        try:
            assert resolve_execution() == ExecutionPolicy("thread", 4)
            assert resolve_execution(workers=2) == ExecutionPolicy("thread", 2)
            assert resolve_execution(backend="serial") == ExecutionPolicy("serial", 4)
        finally:
            set_default_execution(previous.backend, previous.workers)
        assert default_execution() == ExecutionPolicy("serial", 1)

    def test_set_default_reaches_constructors(self):
        previous = set_default_execution(backend="thread", workers=2)
        try:
            _, sim = build_sim(3)
            assert sim.execution == ExecutionPolicy("thread", 2)
        finally:
            set_default_execution(previous.backend, previous.workers)

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(backend="gpu")
        with pytest.raises(ValueError):
            ExecutionPolicy(workers=0)
        with pytest.raises(ValueError):
            make_executor("gpu", 1)


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _delayed_identity(pair):
    index, delay = pair
    time.sleep(delay)
    return index


def _context_factory(base):
    return {"base": base}


def _read_context(key):
    return get_context(key)["base"]


class TestExecutor:
    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_results_in_task_order(self, backend, workers):
        with make_executor(backend, workers) as ex:
            results, stats = ex.run(_square, list(range(10)))
        assert results == [x * x for x in range(10)]
        assert isinstance(stats, PoolStats)
        assert stats.wall_seconds >= 0.0

    def test_thread_results_ordered_despite_completion_order(self):
        """Later-submitted tasks finish first; results stay task-ordered."""
        pairs = [(i, 0.03 * (4 - i)) for i in range(5)]
        with make_executor("thread", 5) as ex:
            results, _ = ex.run(_delayed_identity, pairs)
        assert results == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_worker_context_install_and_release(self, backend, workers):
        ex = make_executor(backend, workers, context=(_context_factory, (7,)))
        try:
            assert ex.context_key is not None
            results, _ = ex.run(_read_context, [ex.context_key] * 3)
            assert results == [7, 7, 7]
        finally:
            ex.close()
        if backend != "process":  # parent-side registry is cleared on close
            with pytest.raises(RuntimeError):
                get_context(ex.context_key)

    def test_get_context_unknown_key_raises(self):
        with pytest.raises(RuntimeError):
            get_context("never-installed")

    def test_executor_base_class_is_abstract(self):
        ex = Executor(workers=1)
        with pytest.raises(NotImplementedError):
            ex.run(_square, [1])
        with pytest.raises(NotImplementedError):
            ex.submit(_square, 1)

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_submit_returns_future_with_result(self, backend, workers):
        with make_executor(backend, workers) as ex:
            future = ex.submit(_square, 6)
            assert future.result(timeout=30) == 36

    def test_serial_submit_resolves_inline(self):
        with make_executor("serial", 1) as ex:
            future = ex.submit(_square, 3)
            # the serial engine runs the call before returning
            assert future.done()
            assert future.result() == 9

    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 2)])
    def test_submit_propagates_exceptions(self, backend, workers):
        def boom():
            raise RuntimeError("task failed")

        with make_executor(backend, workers) as ex:
            future = ex.submit(boom)
            with pytest.raises(RuntimeError, match="task failed"):
                future.result(timeout=30)

    def test_pool_utilization_math(self):
        assert pool_utilization(2.0, 4, 1.0) == 0.5
        assert pool_utilization(100.0, 1, 1.0) == 1.0  # clamped
        assert pool_utilization(1.0, 4, 0.0) == 0.0
        assert pool_utilization(1.0, 0, 1.0) == 0.0


# ----------------------------------------------------------------------
# training identity
# ----------------------------------------------------------------------
class TestTrainingIdentity:
    @pytest.mark.parametrize("seed", [11, 23])
    def test_clean_run_bitwise_identical_across_backends(self, seed):
        _, ref_sim = build_sim(seed)
        reference = ref_sim.run(8)
        for backend, workers in BACKENDS[1:]:
            _, sim = build_sim(seed, backend=backend, workers=workers)
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
        for backend, workers in BACKENDS[1:]:
            _, sim = build_sim(
                seed,
                fault_plan=plan(),
                retry_policy=RetryPolicy(max_attempts=2),
                backend=backend,
                workers=workers,
            )
            record = sim.run(10)
            assert_records_equal(record, reference)
            assert sim.fault_stats == ref_sim.fault_stats
            assert record.accuracy_history == reference.accuracy_history

    def test_telemetry_counter_parity(self):
        """The parent re-emits per-client metrics from worker stats, so
        counters (not just results) match the serial run."""
        counters = {}
        for backend, workers in [("serial", 1), ("thread", 3)]:
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
                backend=backend,
                workers=workers,
            )
            with use_telemetry(telemetry):
                sim.run(6)
            registry = telemetry.registry
            counters[backend] = {
                name: registry.counter_value(name)
                for name in (
                    "fl_dropouts_total",
                    "faults_retries_total",
                    "faults_giveups_total",
                )
            }
            counters[backend]["update_count"] = registry.histogram(
                "fl_client_update_seconds"
            ).count
            counters[backend]["update_bytes"] = registry.histogram(
                "fl_client_update_bytes"
            ).sum
        assert counters["thread"] == counters["serial"]
        assert counters["serial"]["faults_retries_total"] > 0

    def test_parallel_pool_metrics_emitted_only_for_pool_backends(self):
        for backend, workers, expect in [("serial", 1, False), ("thread", 2, True)]:
            telemetry = Telemetry()
            _, sim = build_sim(7, backend=backend, workers=workers)
            with use_telemetry(telemetry):
                sim.run(3)
            registry = telemetry.registry
            dispatch = registry.histogram("fl_parallel_dispatch_seconds")
            if expect:
                assert registry.gauge_value("fl_parallel_workers") == workers
                assert dispatch is not None and dispatch.count == 3
                utilization = registry.gauge_value("fl_parallel_utilization")
                assert 0.0 <= utilization <= 1.0
            else:
                assert registry.gauge_value("fl_parallel_workers") is None
                assert dispatch is None


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


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestCliPolicyPlumbing:
    def test_eval_main_installs_and_restores_policy(self, tmp_path, capsys):
        from repro.eval.__main__ import main

        assert default_execution() == ExecutionPolicy("serial", 1)
        code = main(
            ["storage", "--scale", "smoke", "--backend", "thread",
             "--workers", "2", "--quiet"]
        )
        assert code == 0
        assert default_execution() == ExecutionPolicy("serial", 1)
        capsys.readouterr()
