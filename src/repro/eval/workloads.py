"""Workload construction shared by every experiment.

A *workload* bundles everything one experiment instance needs: the
synthetic dataset split across vehicles, the (possibly poisoned)
clients, the model + fresh-init factory, the participation schedule
(with the forgotten client joining at round ``F``), the attack objects
and the designated forget set.

The training step records **full gradients**; the paper's method is
then evaluated on the sign-store view derived with
:func:`repro.fl.history.with_sign_store`, so every compared method sees
the *identical* training trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.attacks import BackdoorAttack, LabelFlipAttack, sample_malicious_clients
from repro.datasets import (
    ArrayDataset,
    make_synthetic_gtsrb,
    make_synthetic_mnist,
    partition_iid,
)
from repro.eval.config import ExperimentConfig
from repro.fl import (
    FederatedSimulation,
    ParticipationSchedule,
    TrainingRecord,
    VehicleClient,
)
from repro.nn import Sequential, gtsrb_cnn, mlp, mnist_cnn
from repro.storage import FullGradientStore
from repro.utils.rng import SeedSequenceTree

__all__ = ["Workload", "build_workload", "train_workload"]


@dataclass
class Workload:
    """Everything one experiment instance operates on."""

    config: ExperimentConfig
    train_set: ArrayDataset
    test_set: ArrayDataset
    clients: List[VehicleClient]
    model: Sequential
    model_factory: Callable[[], Sequential]
    schedule: ParticipationSchedule
    forget_ids: List[int]
    label_flip: Optional[LabelFlipAttack] = None
    backdoor: Optional[BackdoorAttack] = None
    record: Optional[TrainingRecord] = field(default=None, repr=False)

    def remaining_client_map(self) -> Dict[int, VehicleClient]:
        """Online clients after the forget set is gone."""
        forget = set(self.forget_ids)
        return {c.client_id: c for c in self.clients if c.client_id not in forget}


def _make_dataset(
    config: ExperimentConfig, samples: int, rng: np.random.Generator, name: str
) -> ArrayDataset:
    if config.dataset == "mnist":
        return make_synthetic_mnist(
            samples, rng, image_size=config.image_size, name=name
        )
    return make_synthetic_gtsrb(
        samples,
        rng,
        image_size=config.image_size,
        num_classes=config.num_classes,
        name=name,
    )


def _make_model(config: ExperimentConfig, rng: np.random.Generator) -> Sequential:
    channels = 1 if config.dataset == "mnist" else 3
    if config.model_kind == "mlp":
        return mlp(
            rng,
            in_features=channels * config.image_size**2,
            num_classes=config.num_classes,
            hidden=config.hidden,
        )
    if config.model_kind == "cnn":
        if config.dataset == "mnist":
            return mnist_cnn(
                rng,
                image_size=config.image_size,
                channels=channels,
                num_classes=config.num_classes,
                hidden=config.hidden,
            )
        return gtsrb_cnn(
            rng,
            image_size=config.image_size,
            channels=channels,
            num_classes=config.num_classes,
        )
    raise ValueError(f"unknown model_kind {config.model_kind!r}")


def build_workload(
    config: ExperimentConfig, schedule: Optional[ParticipationSchedule] = None
) -> Workload:
    """Construct the workload for ``config``.

    The forget set depends on the attack mode:

    - ``attack="none"``: one benign client (the highest id) is the
      privacy-erasure target; it joins FL at ``forget_join_round``
      (paper: round 2), everyone else at round 0.
    - attacks: 20 % of clients are malicious with poisoned shards; all
      of them join at ``forget_join_round`` and form the forget set
      (the poisoning-recovery scenario of Fig. 1).

    A custom ``schedule`` (e.g. mobility-generated) overrides the
    default join plan; the forget clients' joins are still forced to
    ``forget_join_round`` so backtracking has something to preserve.
    """
    tree = SeedSequenceTree(config.seed)
    train_set = _make_dataset(config, config.train_samples, tree.rng("train-data"), "train")
    test_set = _make_dataset(config, config.test_samples, tree.rng("test-data"), "test")
    shards = partition_iid(train_set, config.num_clients, tree.rng("partition"))

    label_flip: Optional[LabelFlipAttack] = None
    backdoor: Optional[BackdoorAttack] = None
    if config.attack == "none":
        forget_ids = [config.num_clients - 1]
    else:
        forget_ids = sample_malicious_clients(
            config.num_clients, config.malicious_fraction, tree.rng("malicious")
        )
        if config.attack == "label_flip":
            label_flip = LabelFlipAttack(
                source_class=config.flip_source,
                target_class=config.flip_target,
                oversample=config.flip_oversample,
            )
            for cid in forget_ids:
                shards[cid] = label_flip.poison(shards[cid])
        else:
            backdoor = BackdoorAttack(
                target_class=config.backdoor_target,
                trigger_size=config.backdoor_trigger_size,
                poison_fraction=config.backdoor_poison_fraction,
            )
            for cid in forget_ids:
                shards[cid] = backdoor.poison(shards[cid], tree.rng(f"poison-{cid}"))

    clients = [
        VehicleClient(
            cid,
            shards[cid],
            tree.rng(f"client-{cid}"),
            batch_size=config.batch_size,
            malicious=cid in set(forget_ids) and config.attack != "none",
        )
        for cid in range(config.num_clients)
    ]
    if schedule is None:
        schedule = ParticipationSchedule.with_events(
            client_ids=range(config.num_clients),
            joins={cid: config.forget_join_round for cid in forget_ids},
        )
    else:
        for cid in forget_ids:
            schedule.join_rounds[cid] = config.forget_join_round

    model = _make_model(config, tree.rng("model-init"))

    def model_factory() -> Sequential:
        # Same stream -> same fresh initialization every call, so
        # "retraining" is reproducible and FedRecover's re-init matches.
        return _make_model(config, tree.rng("model-init"))

    return Workload(
        config=config,
        train_set=train_set,
        test_set=test_set,
        clients=clients,
        model=model,
        model_factory=model_factory,
        schedule=schedule,
        forget_ids=forget_ids,
        label_flip=label_flip,
        backdoor=backdoor,
    )


def train_workload(workload: Workload) -> TrainingRecord:
    """Run FL training for the workload (full-gradient store), caching
    the record on the workload."""
    if workload.record is not None:
        return workload.record
    config = workload.config
    sim = FederatedSimulation(
        model=workload.model,
        clients=workload.clients,
        learning_rate=config.learning_rate,
        schedule=workload.schedule,
        gradient_store=FullGradientStore(),
        aggregator=config.aggregator,
        test_set=workload.test_set,
        eval_every=max(1, config.num_rounds // 4),
        workers=config.train_workers,
    )
    workload.record = sim.run(config.num_rounds)
    return workload.record
