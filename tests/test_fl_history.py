"""Direct tests for TrainingRecord beyond what validate() covers."""

import numpy as np
import pytest

from repro.fl import MembershipLedger, TrainingRecord
from repro.storage import FullGradientStore, ModelCheckpointStore


@pytest.fixture
def record(rng):
    checkpoints = ModelCheckpointStore()
    gradients = FullGradientStore()
    ledger = MembershipLedger()
    ledger.join(0, 0)
    ledger.join(1, 0)
    for t in range(4):
        checkpoints.put(t, rng.normal(size=6))
        if t < 3:
            gradients.put(t, 0, rng.normal(size=6))
            gradients.put(t, 1, rng.normal(size=6))
    return TrainingRecord(
        checkpoints=checkpoints,
        gradients=gradients,
        ledger=ledger,
        client_sizes={0: 10, 1: 20},
        num_rounds=3,
        learning_rate=0.1,
    )


class TestTrainingRecord:
    def test_final_params(self, record):
        np.testing.assert_array_equal(record.final_params(), record.params_at(3))

    def test_weight_of(self, record):
        assert record.weight_of(1) == 20.0

    def test_weight_of_unknown_raises(self, record):
        with pytest.raises(KeyError):
            record.weight_of(42)

    def test_storage_bytes(self, record):
        bytes_ = record.storage_bytes()
        assert bytes_["gradients"] == 6 * 4 * 6  # 6 grads x 6 float32
        assert bytes_["checkpoints"] == 4 * 6 * 4

    def test_validate_passes(self, record):
        record.validate()

    def test_validate_catches_missing_checkpoint(self, record):
        record.checkpoints.prune(keep=[0, 1, 3])
        with pytest.raises(AssertionError):
            record.validate()

    def test_validate_catches_gradient_ledger_mismatch(self, record):
        record.gradients.drop_client(1)
        with pytest.raises(AssertionError):
            record.validate()


class TestCliMain:
    def test_storage_experiment_via_cli(self, tmp_path, capsys):
        from repro.eval.__main__ import main

        code = main(["storage", "--scale", "smoke", "--quiet", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "savings" in out
        assert (tmp_path / "storage.json").exists()

    def test_store_flag_selects_mmap_and_restores_default(self, tmp_path, capsys, monkeypatch):
        """``--store mmap`` reaches the run's config, and the next run
        without the flag is back on the in-memory default."""
        import repro.eval.experiments as experiments
        from repro.eval.__main__ import main

        backends = []
        build = experiments.config_for

        def spy_config_for(*args, **kwargs):
            config = build(*args, **kwargs)
            backends.append(config.sign_backend)
            return config

        monkeypatch.setattr(experiments, "config_for", spy_config_for)
        base = ["storage", "--scale", "smoke", "--quiet", "--out"]
        assert main(base + [str(tmp_path / "mmap"), "--store", "mmap"]) == 0
        assert (tmp_path / "mmap" / "storage.json").exists()
        assert backends == ["mmap"]
        backends.clear()
        assert main(base + [str(tmp_path / "default")]) == 0
        assert backends == ["dict"]
        capsys.readouterr()

    @pytest.mark.parametrize("flag, value", [("--workers", "0"), ("--prefetch-depth", "-1")])
    def test_out_of_range_flag_is_a_usage_error(self, flag, value, capsys, monkeypatch):
        """A value the config would refuse stops argparse with exit code
        2 and names the flag, before any runner starts."""
        import repro.eval.__main__ as cli

        started = []
        monkeypatch.setitem(
            cli.EXPERIMENT_RUNNERS, "storage", lambda **kw: started.append(kw)
        )
        with pytest.raises(SystemExit) as exc:
            cli.main(["storage", "--scale", "smoke", "--quiet", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "must be at least" in err
        assert started == []

    def test_flags_reach_constructors_and_keep_output(self, tmp_path, capsys, monkeypatch):
        """``--workers`` / ``--store`` / ``--prefetch-depth`` arrive at the
        simulation, the sign store and the unlearner, and the written
        record equals the default run's."""
        from repro.eval.__main__ import main
        from repro.fl import FederatedSimulation
        from repro.storage import SignGradientStore, TieredSignGradientStore
        from repro.unlearning import SignRecoveryUnlearner

        seen = []
        sim_init = FederatedSimulation.__init__
        unlearn = SignRecoveryUnlearner.unlearn

        def spy_init(sim, *args, **kwargs):
            sim_init(sim, *args, **kwargs)
            seen.append(("workers", sim.workers))

        def spy_unlearn(unlearner, record, *args, **kwargs):
            seen.append(("store", type(record.gradients)))
            seen.append(("prefetch_depth", unlearner.prefetch_depth))
            return unlearn(unlearner, record, *args, **kwargs)

        monkeypatch.setattr(FederatedSimulation, "__init__", spy_init)
        monkeypatch.setattr(SignRecoveryUnlearner, "unlearn", spy_unlearn)
        base = ["recovery_trace", "--scale", "smoke", "--quiet", "--out"]
        assert main(base + [str(tmp_path / "default")]) == 0
        assert seen == [("workers", 1), ("store", SignGradientStore), ("prefetch_depth", 0)]
        seen.clear()
        flags = ["--workers", "2", "--store", "tiered", "--prefetch-depth", "2"]
        assert main(base + [str(tmp_path / "flags")] + flags) == 0
        assert seen == [
            ("workers", 2),
            ("store", TieredSignGradientStore),
            ("prefetch_depth", 2),
        ]
        capsys.readouterr()
        default = (tmp_path / "default" / "recovery_trace.json").read_text()
        assert (tmp_path / "flags" / "recovery_trace.json").read_text() == default

    def test_unknown_experiment_rejected(self):
        from repro.eval.__main__ import main

        with pytest.raises(SystemExit):
            main(["nope"])
