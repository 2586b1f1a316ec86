"""Tests for history-based malicious-client detection."""

import pytest

from repro.attacks import LabelFlipAttack
from repro.datasets import make_synthetic_mnist, partition_iid, train_test_split
from repro.defenses import (
    DetectionReport,
    client_suspicion_scores,
    detect_malicious_clients,
)
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient, with_sign_store
from repro.nn import mlp
from repro.storage import FullGradientStore
from repro.utils.rng import SeedSequenceTree


def _make_fl(seed: int, malicious):
    """8-client, 100-round run; the detection signal needs this scale
    (shorter/noisier runs drown the per-round majority statistic in
    SGD noise — validated across seeds during calibration)."""
    tree = SeedSequenceTree(seed)
    data = make_synthetic_mnist(1200, tree.rng("data"), image_size=16)
    train, _test = train_test_split(data, 0.2, tree.rng("split"))
    shards = partition_iid(train, 8, tree.rng("part"))
    attack = LabelFlipAttack(oversample=8)
    for cid in malicious:
        shards[cid] = attack.poison(shards[cid])
    clients = [
        VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=64) for i in range(8)
    ]
    model = mlp(tree.rng("model"), 16 * 16, 10, hidden=24)
    sim = FederatedSimulation(
        model, clients, learning_rate=1e-3,
        schedule=ParticipationSchedule.with_events(
            range(8), joins={c: 2 for c in malicious}
        ),
        gradient_store=FullGradientStore(),
    )
    return sim.run(100)


@pytest.fixture(scope="module")
def poisoned_fl():
    """Run where clients 1 and 4 label-flip with oversampling."""
    malicious = [1, 4]
    return _make_fl(31, malicious), malicious


@pytest.fixture(scope="module")
def clean_fl():
    return _make_fl(33, [])


class TestSuspicionScores:
    def test_malicious_score_highest(self, poisoned_fl):
        record, malicious = poisoned_fl
        scores, rounds = client_suspicion_scores(record)
        assert rounds > 0
        ranked = sorted(scores, key=scores.get, reverse=True)
        assert set(ranked[:2]) == set(malicious)

    def test_works_on_sign_store(self, poisoned_fl):
        """Detection must function under the paper's 2-bit storage."""
        record, malicious = poisoned_fl
        sign_record = with_sign_store(record, delta=1e-6)
        scores, _ = client_suspicion_scores(sign_record)
        ranked = sorted(scores, key=scores.get, reverse=True)
        assert set(ranked[:2]) == set(malicious)

    def test_all_clients_scored(self, poisoned_fl):
        record, _ = poisoned_fl
        scores, _ = client_suspicion_scores(record)
        assert set(scores) == set(record.ledger.known_clients())

    def test_min_participants_validation(self, poisoned_fl):
        with pytest.raises(ValueError):
            client_suspicion_scores(poisoned_fl[0], min_participants=1)


class TestDetect:
    def test_flags_exactly_the_attackers(self, poisoned_fl):
        record, malicious = poisoned_fl
        report = detect_malicious_clients(record)
        assert report.flagged == sorted(malicious)
        precision, recall = report.precision_recall(malicious)
        assert precision == 1.0 and recall == 1.0

    def test_clean_run_flags_nobody(self, clean_fl):
        report = detect_malicious_clients(clean_fl)
        assert report.flagged == []

    def test_report_structure(self, poisoned_fl):
        record, _ = poisoned_fl
        report = detect_malicious_clients(record)
        assert isinstance(report, DetectionReport)
        assert report.rounds_used > 0
        assert "score_mean" in report.details

    def test_precision_recall_empty_flagged(self):
        report = DetectionReport(scores={}, flagged=[], threshold=1.0, rounds_used=0)
        assert report.precision_recall([1]) == (0.0, 0.0)
        assert report.precision_recall([]) == (1.0, 1.0)
