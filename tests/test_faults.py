"""Unit tests for the repro.faults subsystem.

Fast, deterministic checks of the fault-plan generator, the update
corruptors, the server-side validation gate, and the retry policy.
The heavier end-to-end chaos scenarios (kill/resume, disk rot) live in
``test_chaos.py``.
"""

import numpy as np
import pytest

from repro.faults import (
    CORRUPTION_MODES,
    ClientFault,
    FaultPlan,
    RetryPolicy,
    TransientClientError,
    UpdateValidator,
    corrupt_update,
)
from repro.iov import V2iLink


class TestClientFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            ClientFault("meltdown")

    def test_corrupt_requires_mode(self):
        with pytest.raises(ValueError, match="corrupt fault needs a mode"):
            ClientFault("corrupt")

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            ClientFault("straggle", delay_seconds=-1.0)


class TestFaultPlan:
    def test_random_is_deterministic_per_seed(self):
        kwargs = dict(
            client_ids=range(8),
            rounds=30,
            crash_rate=0.05,
            corrupt_rate=0.1,
            straggle_rate=0.05,
            flaky_rate=0.1,
        )
        a = FaultPlan.random(seed=42, **kwargs)
        b = FaultPlan.random(seed=42, **kwargs)
        c = FaultPlan.random(seed=43, **kwargs)
        assert a.client_faults == b.client_faults
        assert a.client_faults != c.client_faults

    def test_rates_control_fault_mix(self):
        plan = FaultPlan.random(
            range(10), rounds=100, seed=7, crash_rate=0.2, corrupt_rate=0.0
        )
        counts = plan.counts()
        assert counts["corrupt"] == 0
        # 1000 draws at 20% — far from zero, far from all.
        assert 100 < counts["crash"] < 300

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError, match="sum to <= 1"):
            FaultPlan.random(range(3), rounds=5, seed=0, crash_rate=0.6, corrupt_rate=0.5)

    def test_corruption_rng_reproducible_per_site(self):
        plan = FaultPlan(seed=9)
        a = plan.corruption_rng(3, 1).random(4)
        b = plan.corruption_rng(3, 1).random(4)
        other = plan.corruption_rng(3, 2).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, other)

    def test_kill_after(self):
        plan = FaultPlan(server_kills={4, 9})
        assert plan.kill_after(4)
        assert not plan.kill_after(5)

    def test_deadline_without_link_uses_fallback(self):
        plan = FaultPlan(fallback_deadline=7.5)
        assert plan.deadline(5, 1000) == 7.5

    def test_deadline_with_link_scales_with_round_time(self):
        from repro.iov.comm import round_time

        link = V2iLink()
        plan = FaultPlan(link=link, deadline_factor=2.0)
        expected = 2.0 * round_time(link, 5, 1000)
        assert plan.deadline(5, 1000) == pytest.approx(expected)


class TestCorruptUpdate:
    @pytest.fixture
    def update(self):
        return np.linspace(-1.0, 1.0, 200)

    def test_input_never_mutated(self, update):
        original = update.copy()
        for mode in CORRUPTION_MODES:
            corrupt_update(update, mode, np.random.default_rng(0))
            np.testing.assert_array_equal(update, original)

    def test_nan_and_inf_inject_nonfinite(self, update):
        for mode in ("nan", "inf"):
            out = corrupt_update(update, mode, np.random.default_rng(1))
            assert not np.isfinite(out).all()

    def test_shape_changes_length(self, update):
        out = corrupt_update(update, "shape", np.random.default_rng(2))
        assert out.size != update.size

    def test_scale_blows_up_norm(self, update):
        out = corrupt_update(update, "scale", np.random.default_rng(3))
        assert np.linalg.norm(out) > 1e3 * np.linalg.norm(update)

    def test_unknown_mode_rejected(self, update):
        with pytest.raises(ValueError, match="unknown corruption mode"):
            corrupt_update(update, "gremlins", np.random.default_rng(4))


class TestUpdateValidator:
    def test_structural_rejections(self):
        v = UpdateValidator()
        dim = 10
        good = np.ones(dim)
        assert v.check_round({0: good}, dim)[0].ok
        assert not v.check_round({0: np.ones(dim + 1)}, dim)[0].ok
        assert not v.check_round({0: np.ones((2, 5))}, dim)[0].ok
        bad = good.copy()
        bad[3] = np.nan
        assert not v.check_round({0: bad}, dim)[0].ok
        bad[3] = np.inf
        assert not v.check_round({0: bad}, dim)[0].ok

    def test_cohort_catches_outlier_at_round_zero(self):
        """No history yet — the round cohort alone must convict."""
        v = UpdateValidator(relative_factor=25.0)
        updates = {cid: np.full(8, 0.1) for cid in range(4)}
        updates[2] = np.full(8, 1e6)
        verdicts = v.check_round(updates, expected_dim=8)
        assert not verdicts[2].ok
        assert all(verdicts[c].ok for c in (0, 1, 3))

    def test_outlier_cannot_vouch_for_itself(self):
        """The reference pool for each update excludes that update."""
        v = UpdateValidator(relative_factor=5.0, min_pool=2)
        updates = {0: np.full(8, 0.1), 1: np.full(8, 0.1), 2: np.full(8, 100.0)}
        verdicts = v.check_round(updates, expected_dim=8)
        assert not verdicts[2].ok

    def test_absolute_cap(self):
        v = UpdateValidator(max_norm=1.0)
        assert not v.check_round({0: np.full(8, 10.0)}, 8)[0].ok

    def test_history_round_trips_through_journal_api(self):
        v = UpdateValidator()
        v.check_round({c: np.full(8, 0.1) for c in range(4)}, expected_dim=8)
        norms = v.observed_norms()
        assert len(norms) == 4
        w = UpdateValidator()
        w.restore_norms(norms)
        assert w.observed_norms() == norms


class TestRetryPolicy:
    def test_backoff_schedule_is_capped_exponential(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=0.5)
        assert policy.delays() == pytest.approx([0.1, 0.2, 0.4, 0.5])

    def test_succeeds_after_transient_failures(self):
        calls = [0]

        def flaky():
            calls[0] += 1
            if calls[0] < 3:
                raise TransientClientError("hiccup")
            return "ok"

        outcome = RetryPolicy(max_attempts=3).call(flaky)
        assert outcome.succeeded and outcome.value == "ok"
        assert outcome.attempts == 3
        assert outcome.total_delay == pytest.approx(0.1 + 0.2)

    def test_gives_up_after_max_attempts(self):
        def always_fails():
            raise TransientClientError("down")

        outcome = RetryPolicy(max_attempts=2).call(always_fails)
        assert not outcome.succeeded
        assert outcome.attempts == 2

    def test_non_transient_errors_propagate(self):
        def broken():
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            RetryPolicy(max_attempts=3).call(broken)
