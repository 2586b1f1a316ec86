"""Tests for the evaluation harness: configs, workloads, reporting."""

import numpy as np
import pytest

from repro.eval import (
    ExperimentConfig,
    available_scales,
    build_workload,
    config_for,
    format_result,
    format_table,
    train_workload,
)
from repro.fl import ParticipationSchedule
from repro.storage import FullGradientStore


class TestConfig:
    def test_scales(self):
        assert available_scales() == ["smoke", "ci", "paper"]

    def test_config_for_each_combination(self):
        for dataset in ("mnist", "gtsrb"):
            for scale in available_scales():
                cfg = config_for(dataset, scale)
                assert cfg.dataset == dataset
                assert cfg.scale == scale

    def test_paper_pinned_values(self):
        """Fields the paper pins must match across all profiles."""
        for dataset in ("mnist", "gtsrb"):
            for scale in available_scales():
                cfg = config_for(dataset, scale)
                assert cfg.forget_join_round == 2
                assert cfg.delta == 1e-6
                assert cfg.buffer_size == 2
                assert cfg.refresh_period == 21
                assert cfg.malicious_fraction == 0.2

    def test_paper_profile_uses_cnn(self):
        assert config_for("mnist", "paper").model_kind == "cnn"
        assert config_for("gtsrb", "paper").model_kind == "cnn"

    def test_paper_profile_scale(self):
        cfg = config_for("mnist", "paper")
        assert cfg.num_clients == 100
        assert cfg.num_rounds == 100
        assert cfg.batch_size == 128

    def test_overrides(self):
        cfg = config_for("mnist", "smoke", num_rounds=7)
        assert cfg.num_rounds == 7

    def test_with_overrides(self):
        cfg = config_for("mnist", "smoke")
        new = cfg.with_overrides(delta=1e-3)
        assert new.delta == 1e-3
        assert cfg.delta == 1e-6

    def test_invalid_dataset(self):
        with pytest.raises(ValueError):
            config_for("cifar", "smoke")

    def test_invalid_attack(self):
        with pytest.raises(ValueError):
            ExperimentConfig(attack="dos")

    def test_forget_round_bounds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(forget_join_round=999, num_rounds=10)

    def test_execution_fields(self):
        cfg = ExperimentConfig()
        assert (cfg.train_workers, cfg.sign_backend, cfg.prefetch_depth) == (1, "dict", 0)
        for bad in ({"train_workers": 0}, {"sign_backend": "sqlite"}, {"prefetch_depth": -1}):
            with pytest.raises(ValueError):
                ExperimentConfig(**bad)

    def test_every_runner_forwards_overrides(self, monkeypatch):
        """Each runner hands its extra keyword arguments to
        ``config_for`` — the CLI's only way to reach the config."""
        import repro.eval.experiments as experiments

        class Seen(Exception):
            pass

        def config_for_spy(*args, **overrides):
            raise Seen(overrides)

        monkeypatch.setattr(experiments, "config_for", config_for_spy)
        for name, runner in experiments.EXPERIMENT_RUNNERS.items():
            with pytest.raises(Seen) as seen:
                runner(scale="smoke", prefetch_depth=3)
            assert seen.value.args[0].get("prefetch_depth") == 3, name

    @pytest.mark.parametrize(
        "backend, trained_on, store_type",
        [("tiered", "tiered", "TieredSignGradientStore"),
         ("mmap", "dict", "SignGradientStore")],
    )
    def test_serve_live_phase_trains_on_the_store_flag(
        self, monkeypatch, backend, trained_on, store_type
    ):
        """``run_serve``'s mixed live phase trains on a tiered store for
        ``tiered``; the read-only ``mmap`` layout cannot take appends, so
        that phase trains on ``dict`` and its row says so."""
        from repro.eval.experiments import run_serve
        from repro.fl import FederatedSimulation

        stores = []
        init = FederatedSimulation.__init__

        def spy_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            stores.append(type(sim.server.gradients).__name__)

        monkeypatch.setattr(FederatedSimulation, "__init__", spy_init)
        result = run_serve(scale="smoke", sign_backend=backend)
        mixed = result["measured"][-1]
        assert mixed["label"] == "mixed"
        assert mixed["store"] == trained_on
        assert stores[-1] == store_type
        assert all("store" not in row for row in result["measured"][:-1])

    def test_env_scale(self, monkeypatch):
        from repro.eval.config import current_scale

        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale() == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            current_scale()


class TestWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        return build_workload(config_for("mnist", "smoke"))

    def test_client_count(self, workload):
        assert len(workload.clients) == workload.config.num_clients

    def test_benign_forget_target(self, workload):
        assert workload.forget_ids == [workload.config.num_clients - 1]
        assert workload.label_flip is None and workload.backdoor is None

    def test_forget_client_joins_late(self, workload):
        fid = workload.forget_ids[0]
        assert workload.schedule.join_rounds[fid] == 2

    def test_train_records_full_gradients(self, workload):
        record = train_workload(workload)
        assert isinstance(record.gradients, FullGradientStore)
        record.validate()

    def test_training_cached(self, workload):
        a = train_workload(workload)
        b = train_workload(workload)
        assert a is b

    def test_label_flip_workload(self):
        w = build_workload(config_for("mnist", "smoke", attack="label_flip"))
        assert w.label_flip is not None
        assert len(w.forget_ids) == max(1, round(0.2 * w.config.num_clients))
        # Malicious shards contain no source-class labels.
        for cid in w.forget_ids:
            assert not (w.clients[cid].dataset.y == 7).any()

    def test_backdoor_workload(self):
        w = build_workload(config_for("mnist", "smoke", attack="backdoor"))
        assert w.backdoor is not None
        for cid in w.forget_ids:
            assert (w.clients[cid].dataset.y == w.config.backdoor_target).sum() > 0

    def test_custom_schedule_respected(self):
        cfg = config_for("mnist", "smoke")
        sched = ParticipationSchedule.with_events(range(cfg.num_clients), joins={0: 3})
        w = build_workload(cfg, schedule=sched)
        assert w.schedule.join_rounds[0] == 3
        # Forget client still forced to F.
        assert w.schedule.join_rounds[w.forget_ids[0]] == cfg.forget_join_round

    def test_remaining_client_map(self, workload):
        remaining = workload.remaining_client_map()
        assert set(remaining) == set(range(workload.config.num_clients - 1))

    def test_model_factory_deterministic(self, workload):
        a = workload.model_factory().get_flat_params()
        b = workload.model_factory().get_flat_params()
        np.testing.assert_array_equal(a, b)


class TestReporting:
    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "333" in out

    def test_format_table_row_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_format_result_table1(self):
        result = {
            "experiment": "table1",
            "measured": {"mnist": {"retrain": 0.9, "fedrecover": 0.89, "fedrecovery": 0.8, "ours": 0.85, "trained": 0.91}},
            "paper": {"mnist": {"retrain": 0.873, "fedrecover": 0.869, "fedrecovery": 0.825, "ours": 0.859}},
        }
        out = format_result(result)
        assert "mnist" in out and "0.850" in out

    def test_format_result_generic(self):
        out = format_result({"experiment": "custom", "scale": "smoke", "measured": {"x": 1.0}})
        assert "custom" in out


class TestReportingSweepsAndStorage:
    def test_format_fig2(self):
        from repro.eval import format_result

        result = {
            "experiment": "fig2",
            "measured": [{"L": 0.5, "accuracy": 0.4}, {"L": 1.0, "accuracy": 0.9}],
            "measured_optimum_l": 1.0,
            "paper_optimum_l": 1.0,
        }
        out = format_result(result)
        assert "L" in out and "0.900" in out

    def test_format_fig3(self):
        from repro.eval import format_result

        result = {
            "experiment": "fig3",
            "measured": [{"delta": 1e-6, "accuracy": 0.9}, {"delta": 0.5, "accuracy": 0.5}],
            "measured_optimum_delta": 1e-6,
            "paper_optimum_delta": 1e-6,
        }
        out = format_result(result)
        assert "delta" in out

    def test_format_storage(self):
        from repro.eval import format_result

        result = {
            "experiment": "storage",
            "model_params": 100,
            "full_gradient_bytes": 400,
            "sign_gradient_bytes": 25,
            "measured_savings": 0.9375,
            "paper_claim": 0.95,
        }
        out = format_result(result)
        assert "0.9375" in out

    def test_format_fig1_full(self):
        from repro.eval import format_result

        result = {
            "experiment": "fig1",
            "measured": {
                "backdoor": {
                    "asr_before": 0.4, "asr_after_forget": 0.05,
                    "asr_after_recover": 0.06, "accuracy_after_recover": 0.9,
                }
            },
        }
        out = format_result(result)
        assert "backdoor" in out and "0.400" in out
