"""Federated-learning substrate: vehicles, the RSU server, aggregation
rules, participation schedules, and the round loop that records the
training history every unlearning method consumes."""

from repro.fl.aggregation import AGGREGATORS, coordinate_median, fedavg, trimmed_mean
from repro.fl.client import VehicleClient
from repro.fl.events import ParticipationSchedule
from repro.fl.history import TrainingRecord, with_sign_store
from repro.fl.journal import JournalSnapshot, RoundJournal
from repro.fl.live import LiveTrainingSession, RecordSnapshot
from repro.fl.membership import ClientRecord, MembershipLedger
from repro.fl.persistence import RecordCorruptionError, load_record, save_record
from repro.fl.server import RsuServer
from repro.fl.simulation import FederatedSimulation

__all__ = [
    "AGGREGATORS",
    "ClientRecord",
    "FederatedSimulation",
    "JournalSnapshot",
    "LiveTrainingSession",
    "MembershipLedger",
    "RecordSnapshot",
    "ParticipationSchedule",
    "RecordCorruptionError",
    "RoundJournal",
    "RsuServer",
    "TrainingRecord",
    "VehicleClient",
    "coordinate_median",
    "fedavg",
    "load_record",
    "save_record",
    "trimmed_mean",
    "with_sign_store",
]
