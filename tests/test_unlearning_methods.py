"""Tests for backtracking, the paper's recovery scheme, and all baselines.

These use the session-scoped ``small_fl`` fixture: a real 6-client FL
run where client 5 joined at round 2 (the paper's forgotten-client
shape).
"""

import numpy as np
import pytest

from repro.fl import with_sign_store
from repro.nn import accuracy
from repro.storage import SignGradientStore
from repro.unlearning import (
    ClientsRequiredError,
    FedRecoverUnlearner,
    FedRecoveryUnlearner,
    RetrainUnlearner,
    SignRecoveryUnlearner,
    backtrack,
    remaining_ids,
    resolve_forget_round,
)


def acc(small_fl, params):
    model = small_fl["model"]
    model.set_flat_params(params)
    test = small_fl["test"]
    return accuracy(model.predict(test.x), test.y)


class TestResolveForgetRound:
    def test_single_client(self, small_fl):
        assert resolve_forget_round(small_fl["record"], [5]) == 2

    def test_multiple_clients_earliest_join(self, small_fl):
        assert resolve_forget_round(small_fl["record"], [0, 5]) == 0

    def test_empty_raises(self, small_fl):
        with pytest.raises(ValueError):
            resolve_forget_round(small_fl["record"], [])

    def test_unknown_raises(self, small_fl):
        with pytest.raises(ValueError):
            resolve_forget_round(small_fl["record"], [99])


class TestBacktrack:
    def test_returns_checkpoint_f(self, small_fl):
        record = small_fl["record"]
        params, f = backtrack(record, [5])
        assert f == 2
        np.testing.assert_array_equal(params, record.params_at(2))

    def test_erases_all_influence(self, small_fl):
        """w_F must be bitwise independent of the forgotten client:
        it equals the checkpoint taken before the client ever joined."""
        record = small_fl["record"]
        params, f = backtrack(record, [5])
        assert record.ledger.join_round(5) == f
        # No gradient of client 5 exists before round f.
        for t in range(f):
            assert not record.gradients.has(t, 5)

    def test_remaining_ids(self, small_fl):
        assert remaining_ids(small_fl["record"], [5]) == [0, 1, 2, 3, 4]


class TestSignRecovery:
    @pytest.fixture(scope="class")
    def result(self, small_fl):
        sign_record = with_sign_store(small_fl["record"], delta=1e-6)
        unlearner = SignRecoveryUnlearner(clip_threshold=5.0)
        return unlearner.unlearn(sign_record, [5], small_fl["model"])

    def test_zero_client_calls(self, result):
        """Headline claim: recovery is server-only."""
        assert result.client_gradient_calls == 0

    def test_recovers_accuracy(self, small_fl, result):
        trained = acc(small_fl, small_fl["record"].final_params())
        backtracked = acc(small_fl, backtrack(small_fl["record"], [5])[0])
        recovered = acc(small_fl, result.params)
        assert recovered > backtracked + 0.1
        assert recovered > trained - 0.15

    def test_replays_correct_rounds(self, small_fl, result):
        assert result.rounds_replayed == small_fl["record"].num_rounds - 2

    def test_stats_populated(self, result):
        assert result.stats["forget_round"] == 2
        assert result.stats["pairs_accepted"] >= 0
        assert result.stats["mean_displacement"] >= 0.0

    def test_works_without_clients_or_factory(self, small_fl):
        """Must not need what the baselines need."""
        sign_record = with_sign_store(small_fl["record"])
        result = SignRecoveryUnlearner().unlearn(
            sign_record, [5], small_fl["model"], clients=None, model_factory=None
        )
        assert np.isfinite(result.params).all()

    def test_deterministic(self, small_fl):
        sign_record = with_sign_store(small_fl["record"])
        a = SignRecoveryUnlearner().unlearn(sign_record, [5], small_fl["model"])
        b = SignRecoveryUnlearner().unlearn(sign_record, [5], small_fl["model"])
        np.testing.assert_array_equal(a.params, b.params)

    def test_round_callback_invoked(self, small_fl):
        seen = []
        sign_record = with_sign_store(small_fl["record"])
        SignRecoveryUnlearner(round_callback=lambda t, p: seen.append(t)).unlearn(
            sign_record, [5], small_fl["model"]
        )
        assert len(seen) == small_fl["record"].num_rounds - 2

    def test_forgetting_all_but_one(self, small_fl):
        sign_record = with_sign_store(small_fl["record"])
        result = SignRecoveryUnlearner().unlearn(
            sign_record, [1, 2, 3, 4, 5], small_fl["model"]
        )
        assert np.isfinite(result.params).all()

    def test_no_remaining_raises(self, small_fl):
        sign_record = with_sign_store(small_fl["record"])
        with pytest.raises(ValueError):
            SignRecoveryUnlearner().unlearn(
                sign_record, [0, 1, 2, 3, 4, 5], small_fl["model"]
            )

    def test_invalid_refresh_period(self):
        with pytest.raises(ValueError):
            SignRecoveryUnlearner(refresh_period=0)

    def test_works_on_full_store_too(self, small_fl):
        """The recovery machinery is storage-agnostic (ablation path)."""
        result = SignRecoveryUnlearner().unlearn(
            small_fl["record"], [5], small_fl["model"]
        )
        assert np.isfinite(result.params).all()


class TestRetrain:
    def test_reaches_trained_quality(self, small_fl):
        result = RetrainUnlearner().unlearn(
            small_fl["record"], [5], small_fl["model"],
            clients=small_fl["clients"], model_factory=small_fl["factory"],
        )
        trained = acc(small_fl, small_fl["record"].final_params())
        assert acc(small_fl, result.params) > trained - 0.1

    def test_counts_client_calls(self, small_fl):
        result = RetrainUnlearner(num_rounds=5).unlearn(
            small_fl["record"], [5], small_fl["model"],
            clients=small_fl["clients"], model_factory=small_fl["factory"],
        )
        assert result.client_gradient_calls == 5 * 5  # 5 rounds x 5 remaining

    def test_requires_clients(self, small_fl):
        with pytest.raises(ClientsRequiredError):
            RetrainUnlearner().unlearn(
                small_fl["record"], [5], small_fl["model"],
                model_factory=small_fl["factory"],
            )

    def test_requires_factory(self, small_fl):
        with pytest.raises(ClientsRequiredError):
            RetrainUnlearner().unlearn(
                small_fl["record"], [5], small_fl["model"],
                clients=small_fl["clients"],
            )


class TestFedRecover:
    def test_recovers(self, small_fl):
        result = FedRecoverUnlearner(correction_period=10).unlearn(
            small_fl["record"], [5], small_fl["model"],
            clients=small_fl["clients"], model_factory=small_fl["factory"],
        )
        trained = acc(small_fl, small_fl["record"].final_params())
        assert acc(small_fl, result.params) > trained - 0.2

    def test_uses_fewer_calls_than_retrain(self, small_fl):
        fr = FedRecoverUnlearner(correction_period=10).unlearn(
            small_fl["record"], [5], small_fl["model"],
            clients=small_fl["clients"], model_factory=small_fl["factory"],
        )
        rt = RetrainUnlearner().unlearn(
            small_fl["record"], [5], small_fl["model"],
            clients=small_fl["clients"], model_factory=small_fl["factory"],
        )
        assert 0 < fr.client_gradient_calls < rt.client_gradient_calls

    def test_rejects_sign_store(self, small_fl):
        """FedRecover NEEDS full gradients — the paper's storage point."""
        sign_record = with_sign_store(small_fl["record"])
        with pytest.raises(TypeError):
            FedRecoverUnlearner().unlearn(
                sign_record, [5], small_fl["model"],
                clients=small_fl["clients"], model_factory=small_fl["factory"],
            )

    def test_requires_clients(self, small_fl):
        with pytest.raises(ClientsRequiredError):
            FedRecoverUnlearner().unlearn(
                small_fl["record"], [5], small_fl["model"],
                model_factory=small_fl["factory"],
            )

    def test_fails_when_client_offline(self, small_fl):
        """If a needed client left FL, FedRecover cannot run — the IoV
        failure mode motivating the paper."""
        partial = {cid: c for cid, c in small_fl["clients"].items() if cid != 0}
        with pytest.raises(ClientsRequiredError):
            FedRecoverUnlearner().unlearn(
                small_fl["record"], [5], small_fl["model"],
                clients=partial, model_factory=small_fl["factory"],
            )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FedRecoverUnlearner(warmup_rounds=0)
        with pytest.raises(ValueError):
            FedRecoverUnlearner(correction_period=0)
        with pytest.raises(ValueError):
            FedRecoverUnlearner(norm_clip_factor=0.0)


class TestFedRecovery:
    def test_no_client_calls(self, small_fl, rng):
        result = FedRecoveryUnlearner(noise_multiplier=1.0, rng=rng).unlearn(
            small_fl["record"], [5], small_fl["model"]
        )
        assert result.client_gradient_calls == 0
        assert result.rounds_replayed == 0

    def test_moves_model(self, small_fl, rng):
        result = FedRecoveryUnlearner(noise_multiplier=1.0, rng=rng).unlearn(
            small_fl["record"], [5], small_fl["model"]
        )
        assert not np.array_equal(result.params, small_fl["record"].final_params())

    def test_noise_free_mode(self, small_fl):
        a = FedRecoveryUnlearner(noise_multiplier=0.0).unlearn(
            small_fl["record"], [5], small_fl["model"]
        )
        b = FedRecoveryUnlearner(noise_multiplier=0.0).unlearn(
            small_fl["record"], [5], small_fl["model"]
        )
        np.testing.assert_array_equal(a.params, b.params)

    def test_more_noise_hurts_more(self, small_fl):
        rng = np.random.default_rng(0)
        small_noise = FedRecoveryUnlearner(noise_multiplier=1.0, rng=np.random.default_rng(1))
        big_noise = FedRecoveryUnlearner(noise_multiplier=200.0, rng=np.random.default_rng(1))
        a = acc(small_fl, small_noise.unlearn(small_fl["record"], [5], small_fl["model"]).params)
        b = acc(small_fl, big_noise.unlearn(small_fl["record"], [5], small_fl["model"]).params)
        assert b < a

    def test_rejects_sign_store(self, small_fl):
        sign_record = with_sign_store(small_fl["record"])
        with pytest.raises(TypeError):
            FedRecoveryUnlearner(noise_multiplier=0.0).unlearn(
                sign_record, [5], small_fl["model"]
            )

    def test_requires_rng_with_noise(self):
        with pytest.raises(ValueError):
            FedRecoveryUnlearner(noise_multiplier=1.0, rng=None)

    def test_unknown_client_raises(self, small_fl):
        with pytest.raises(ValueError):
            FedRecoveryUnlearner(noise_multiplier=0.0).unlearn(
                small_fl["record"], [99], small_fl["model"]
            )

    def test_residual_rounds_counted(self, small_fl):
        result = FedRecoveryUnlearner(noise_multiplier=0.0).unlearn(
            small_fl["record"], [5], small_fl["model"]
        )
        # Client 5 joined at round 2 and participated every round after.
        assert result.stats["residual_rounds"] == small_fl["record"].num_rounds - 2


class TestStorageRequirements:
    """The method-requirements matrix from the module docstring."""

    def test_ours_works_from_sign_only(self, small_fl):
        sign_record = with_sign_store(small_fl["record"])
        assert isinstance(sign_record.gradients, SignGradientStore)
        result = SignRecoveryUnlearner().unlearn(sign_record, [5], small_fl["model"])
        assert np.isfinite(result.params).all()

    def test_sign_storage_is_much_smaller(self, small_fl):
        sign_record = with_sign_store(small_fl["record"])
        ratio = sign_record.gradients.nbytes() / small_fl["record"].gradients.nbytes()
        assert ratio < 0.07  # ~ 2/32 plus padding


class TestDeltaGrad:
    """The shared-Hessian baseline the paper's §II critiques."""

    def test_runs_server_only(self, small_fl):
        from repro.unlearning import DeltaGradUnlearner

        sign_record = with_sign_store(small_fl["record"])
        result = DeltaGradUnlearner(clip_threshold=5.0).unlearn(
            sign_record, [5], small_fl["model"]
        )
        assert result.client_gradient_calls == 0
        assert np.isfinite(result.params).all()

    def test_worse_than_per_client(self, small_fl):
        """Reproduces §II: one shared Hessian underperforms per-client
        Hessians for FL recovery."""
        from repro.unlearning import DeltaGradUnlearner

        sign_record = with_sign_store(small_fl["record"])
        shared = DeltaGradUnlearner(clip_threshold=5.0).unlearn(
            sign_record, [5], small_fl["model"]
        )
        per_client = SignRecoveryUnlearner(clip_threshold=5.0).unlearn(
            sign_record, [5], small_fl["model"]
        )
        assert acc(small_fl, per_client.params) >= acc(small_fl, shared.params)

    def test_invalid_params(self):
        from repro.unlearning import DeltaGradUnlearner

        with pytest.raises(ValueError):
            DeltaGradUnlearner(clip_threshold=0.0)
        with pytest.raises(ValueError):
            DeltaGradUnlearner(refresh_period=0)

    def test_no_remaining_raises(self, small_fl):
        from repro.unlearning import DeltaGradUnlearner

        sign_record = with_sign_store(small_fl["record"])
        with pytest.raises(ValueError):
            DeltaGradUnlearner().unlearn(
                sign_record, [0, 1, 2, 3, 4, 5], small_fl["model"]
            )


class TestResultDataclass:
    def test_unlearn_result_defaults(self):
        from repro.unlearning import UnlearnResult

        result = UnlearnResult(params=np.zeros(3), method="x")
        assert result.rounds_replayed == 0
        assert result.client_gradient_calls == 0
        assert result.stats == {}
