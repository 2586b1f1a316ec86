"""Round-trip tests for TrainingRecord disk persistence (the round log)."""

import os

import numpy as np
import pytest

from repro.datasets import make_synthetic_mnist, partition_iid
from repro.fl import (
    FederatedSimulation,
    RoundJournal,
    VehicleClient,
    load_record,
    persistence,
    save_record,
    with_sign_store,
)
from repro.nn import mlp
from repro.storage import SignGradientStore
from repro.unlearning import SignRecoveryUnlearner
from repro.utils.rng import SeedSequenceTree


class TestFullStoreRoundTrip:
    def test_round_trip_equality(self, small_fl, tmp_path):
        record = small_fl["record"]
        save_record(record, str(tmp_path / "rec"))
        loaded = load_record(str(tmp_path / "rec"))
        loaded.validate()
        assert loaded.num_rounds == record.num_rounds
        assert loaded.learning_rate == record.learning_rate
        assert loaded.client_sizes == record.client_sizes
        np.testing.assert_array_equal(loaded.final_params(), record.final_params())
        t = record.num_rounds // 2
        for cid in record.gradients.clients_at(t):
            np.testing.assert_array_equal(
                loaded.gradients.get(t, cid), record.gradients.get(t, cid)
            )

    def test_ledger_round_trip(self, small_fl, tmp_path):
        record = small_fl["record"]
        save_record(record, str(tmp_path / "rec"))
        loaded = load_record(str(tmp_path / "rec"))
        assert loaded.ledger.known_clients() == record.ledger.known_clients()
        assert loaded.ledger.join_round(5) == record.ledger.join_round(5)


class TestSignStoreRoundTrip:
    def test_round_trip_preserves_directions(self, small_fl, tmp_path):
        sign_record = with_sign_store(small_fl["record"], delta=1e-6)
        save_record(sign_record, str(tmp_path / "sign"))
        loaded = load_record(str(tmp_path / "sign"))
        loaded.validate()
        assert loaded.gradients.delta == 1e-6
        t = sign_record.num_rounds // 2
        for cid in sign_record.gradients.clients_at(t):
            np.testing.assert_array_equal(
                loaded.gradients.get(t, cid), sign_record.gradients.get(t, cid)
            )

    def test_unlearning_from_loaded_record(self, small_fl, tmp_path):
        """The whole point: a server restart must not block unlearning."""
        sign_record = with_sign_store(small_fl["record"], delta=1e-6)
        save_record(sign_record, str(tmp_path / "sign"))
        loaded = load_record(str(tmp_path / "sign"))
        fresh = SignRecoveryUnlearner(clip_threshold=5.0).unlearn(
            loaded, [5], small_fl["model"]
        )
        original = SignRecoveryUnlearner(clip_threshold=5.0).unlearn(
            sign_record, [5], small_fl["model"]
        )
        np.testing.assert_allclose(fresh.params, original.params, atol=1e-5)

    def test_rows_of_an_excluded_client_never_reach_the_log(self, small_fl, tmp_path):
        """A commit whose state excludes a vehicle drops its rows from
        every round the store still holds them for (a live erasure's
        purge may still be pending); the other rows stay bit for bit."""
        sign_record = with_sign_store(small_fl["record"], delta=1e-6)
        state = persistence.record_state(
            sign_record.ledger, sign_record.client_sizes, sign_record.accuracy_history
        )
        state["excluded"] = [5]
        directory = str(tmp_path / "log")
        persistence.RoundLog(directory).commit(
            sign_record.num_rounds,
            sign_record.checkpoints,
            sign_record.gradients,
            state,
            sign_record.final_params(),
            {"learning_rate": 0.1, "aggregator": "fedavg", "metadata": {}},
        )
        gradients = persistence.fold(directory)[4]
        kept = [(key, v) for key, v in sign_record.gradients.items() if key[1] != 5]
        assert len(kept) < len(sign_record.gradients.items())
        assert [key for key, _ in gradients.items()] == [key for key, _ in kept]
        for (_, (packed, length)), (_, (want, want_length)) in zip(gradients.items(), kept):
            assert length == want_length and packed.tobytes() == want.tobytes()


class TestErrors:
    def test_unknown_format_version(self, small_fl, tmp_path):
        save_record(small_fl["record"], str(tmp_path / "rec"))
        marker = tmp_path / "rec" / "COMMIT"
        meta, arrays, _ = persistence._unframe(marker.read_bytes(), 0, "COMMIT")
        meta["format"] = 99
        marker.write_bytes(persistence._frame(meta, arrays))
        with pytest.raises(ValueError):
            load_record(str(tmp_path / "rec"))

    def test_saving_over_a_record_replaces_its_log(self, small_fl, tmp_path):
        directory = str(tmp_path / "rec")
        save_record(small_fl["record"], directory)
        save_record(with_sign_store(small_fl["record"]), directory)
        assert sorted(os.listdir(directory)) == ["COMMIT", "rounds-1.log"]
        assert load_record(directory).gradients.delta == 1e-6

    def test_record_of_no_rounds_round_trips(self, tmp_path):
        """Before its first round a record is the marker alone: it
        carries w_0 and the small state, and the log is empty."""
        record = _journal_sim(vehicles=4).record_view(0)
        directory = str(tmp_path / "rec")
        save_record(record, directory)
        assert os.path.getsize(os.path.join(directory, "rounds-0.log")) == 0
        loaded = load_record(directory)
        assert loaded.num_rounds == 0
        np.testing.assert_array_equal(loaded.params_at(0), record.params_at(0))
        assert loaded.ledger.to_dict() == record.ledger.to_dict()
        assert loaded.client_sizes == record.client_sizes
        assert loaded.gradients.items() == []

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_record(str(tmp_path / "nothing"))


# ----------------------------------------------------------------------
# the journal appends to the same log
# ----------------------------------------------------------------------
def _journal_sim(seed=3, vehicles=16):
    """A 16-vehicle MLP (d = 4,810) with a sign store: rows and the
    float32 checkpoint outweigh the per-round RNG states."""
    tree = SeedSequenceTree(seed)
    data = make_synthetic_mnist(vehicles * 12, tree.rng("data"), image_size=8)
    shards = partition_iid(data, vehicles, tree.rng("part"))
    clients = [
        VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=8)
        for i in range(vehicles)
    ]
    model = mlp(tree.rng("model"), 64, 10, hidden=64)
    return FederatedSimulation(model, clients, 2e-3, gradient_store=SignGradientStore())


def _bytes_written(monkeypatch, run):
    """Bytes ``run()`` writes through the round log's files."""
    written = [0]

    class Counting:
        def __init__(self, fh):
            self._fh = fh

        def write(self, data):
            written[0] += len(data)
            return self._fh.write(data)

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    def counting_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return fh if mode == "rb" else Counting(fh)

    monkeypatch.setattr(persistence, "open", counting_open, raising=False)
    try:
        result = run()
    finally:
        monkeypatch.undo()
    return written[0], result


class TestJournalLog:
    def test_journaled_bytes_are_linear_in_rounds(self, tmp_path, monkeypatch):
        """Each commit writes one round's entry and one marker: a run's
        writes stay within 2.2x the record save_record writes, and
        doubling the rounds at most doubles them (+5 %)."""
        def journaled(rounds):
            journal = RoundJournal(str(tmp_path / f"j{rounds}"))
            return _bytes_written(
                monkeypatch, lambda: _journal_sim().run(rounds, journal=journal)
            )

        half, _ = journaled(50)
        full, record = journaled(100)
        save_record(record, str(tmp_path / "final"))
        final = sum(
            os.path.getsize(tmp_path / "final" / name)
            for name in os.listdir(tmp_path / "final")
        )
        assert full <= 2.2 * final
        assert full <= 2.1 * half

    def test_journal_directory_loads_as_the_record(self, tmp_path):
        journal = RoundJournal(str(tmp_path / "j"))
        record = _journal_sim(vehicles=4).run(6, journal=journal)
        loaded = load_record(journal.directory)
        assert loaded.num_rounds == 6
        assert loaded.learning_rate == record.learning_rate
        assert loaded.ledger.to_dict() == record.ledger.to_dict()
        for t in range(7):
            np.testing.assert_array_equal(loaded.params_at(t), record.params_at(t))
        assert [k for k, _ in loaded.gradients.items()] == [
            k for k, _ in record.gradients.items()
        ]
