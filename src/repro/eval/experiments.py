"""Experiment runners — one per table/figure of the paper, plus
ablations and the dynamic-IoV extension.

Every runner returns a plain dict (JSON-serializable via
:func:`repro.utils.serialization.save_json`) containing the measured
numbers next to the paper's reference values, so EXPERIMENTS.md and the
benchmark assertions read from one source of truth.

Runners share training runs within themselves (one FL training per
dataset/attack; all methods and sweep points reuse it) — exactly the
comparison protocol of §V.

Every runner forwards extra keyword arguments to
:func:`~repro.eval.config.config_for`, so a caller (the CLI's
``--workers`` / ``--store`` / ``--prefetch-depth``) sets config fields
without each runner naming them.
"""

from __future__ import annotations

import tempfile
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.attacks import attack_success_rate
from repro.eval.config import ExperimentConfig, config_for
from repro.eval.workloads import Workload, build_workload, train_workload
from repro.fl import ParticipationSchedule, TrainingRecord, with_sign_store
from repro.iov import IovScenario, generate_iov_schedule
from repro.nn import accuracy
from repro.storage import packed_size_bytes, storage_savings_ratio
from repro.unlearning import (
    FedRecoverUnlearner,
    FedRecoveryUnlearner,
    NegatedPseudoGradientUnlearner,
    RetrainUnlearner,
    SignRecoveryUnlearner,
    backtrack,
)
from repro.utils.rng import SeedSequenceTree
from repro.utils.timer import Timer

__all__ = [
    "EXPERIMENT_RUNNERS",
    "run_ablation_buffer",
    "run_ablation_clipping",
    "run_ablation_dropout",
    "run_ablation_hessian",
    "run_ablation_refresh",
    "run_ablation_sign",
    "run_communication",
    "run_cost",
    "run_detection",
    "run_dynamic_iov",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_noniid",
    "run_recovery_trace",
    "run_robust_agg",
    "run_serve",
    "run_storage",
    "run_table1",
    "run_verification",
]

# Paper reference values (Table I and the figure captions/§V-B text).
PAPER_TABLE1 = {
    "mnist": {"retrain": 0.873, "fedrecover": 0.869, "fedrecovery": 0.825, "ours": 0.859},
    "gtsrb": {"retrain": 0.837, "fedrecover": 0.766, "fedrecovery": 0.702, "ours": 0.747},
}
PAPER_FIG1 = {
    "label_flip": {"before": 0.56, "after_forget": 0.01, "after_recover": 0.01},
    "backdoor": {"before": 0.41, "after_forget": 0.01, "after_recover": 0.01},
}
PAPER_FIG2_OPTIMUM_L = 1.0
PAPER_FIG3_OPTIMUM_DELTA = 1e-6
PAPER_STORAGE_SAVINGS = 0.95


def _accuracy(workload: Workload, params: np.ndarray) -> float:
    workload.model.set_flat_params(params)
    return accuracy(
        workload.model.predict(workload.test_set.x), workload.test_set.y
    )


def _asr(workload: Workload, params: np.ndarray) -> float:
    """Attack success rate of the current attack on ``params``."""
    workload.model.set_flat_params(params)
    config = workload.config
    if workload.label_flip is not None:
        source = np.flatnonzero(workload.test_set.y == config.flip_source)
        if source.size == 0:
            raise RuntimeError("test set has no source-class images")
        eval_set = workload.test_set.subset(source)
        return attack_success_rate(workload.model, eval_set, config.flip_target)
    if workload.backdoor is not None:
        eval_set = workload.backdoor.trigger_test_set(workload.test_set)
        return attack_success_rate(workload.model, eval_set, config.backdoor_target)
    raise RuntimeError("workload has no attack to measure")


def _sign_view(
    record: TrainingRecord, config: ExperimentConfig, delta: Optional[float] = None
) -> TrainingRecord:
    """``record``'s sign-store view on the config's backend, at the
    config's ``δ`` unless ``delta`` is given."""
    return with_sign_store(
        record,
        delta=config.delta if delta is None else delta,
        backend=config.sign_backend,
    )


def _ours(config: ExperimentConfig, **knobs) -> SignRecoveryUnlearner:
    return SignRecoveryUnlearner(
        clip_threshold=knobs.get("clip_threshold", config.clip_threshold),
        buffer_size=knobs.get("buffer_size", config.buffer_size),
        refresh_period=knobs.get("refresh_period", config.refresh_period),
        prefetch_depth=config.prefetch_depth,
    )


# ----------------------------------------------------------------------
# Table I — accuracy of unlearning methods
# ----------------------------------------------------------------------
def run_table1(
    scale: Optional[str] = None,
    seed: int = 2024,
    datasets: Sequence[str] = ("mnist", "gtsrb"),
    **overrides,
) -> Dict[str, Any]:
    """Reproduce Table I: post-unlearning global accuracy per method.

    One benign client (joined at round ``F=2``) is forgotten; each
    method recovers and is scored on test accuracy.
    """
    timer = Timer()
    rows: Dict[str, Dict[str, float]] = {}
    for dataset in datasets:
        config = config_for(dataset, scale, seed=seed, **overrides)
        workload = build_workload(config)
        with timer.section(f"train-{dataset}"):
            record = train_workload(workload)
        sign_record = _sign_view(record, config)
        clients = workload.remaining_client_map()
        results: Dict[str, float] = {"trained": _accuracy(workload, record.final_params())}

        with timer.section(f"retrain-{dataset}"):
            r = RetrainUnlearner().unlearn(
                record, workload.forget_ids, workload.model,
                clients=clients, model_factory=workload.model_factory,
            )
        results["retrain"] = _accuracy(workload, r.params)

        with timer.section(f"fedrecover-{dataset}"):
            r = FedRecoverUnlearner(
                correction_period=config.fedrecover_correction_period,
                buffer_size=config.buffer_size,
            ).unlearn(
                record, workload.forget_ids, workload.model,
                clients=clients, model_factory=workload.model_factory,
            )
        results["fedrecover"] = _accuracy(workload, r.params)

        with timer.section(f"fedrecovery-{dataset}"):
            r = FedRecoveryUnlearner(
                noise_multiplier=config.fedrecovery_noise,
                rng=SeedSequenceTree(seed).rng("fedrecovery-noise"),
            ).unlearn(record, workload.forget_ids, workload.model)
        results["fedrecovery"] = _accuracy(workload, r.params)

        with timer.section(f"npg-{dataset}"):
            # Streaming negated-pseudo-gradient baseline — runs on the
            # same 2-bit store as ours (the live serving fast path).
            r = NegatedPseudoGradientUnlearner().unlearn(
                sign_record, workload.forget_ids, workload.model
            )
        results["npg"] = _accuracy(workload, r.params)

        with timer.section(f"ours-{dataset}"):
            r = _ours(config).unlearn(sign_record, workload.forget_ids, workload.model)
        results["ours"] = _accuracy(workload, r.params)
        results["ours_client_calls"] = float(r.client_gradient_calls)
        rows[dataset] = results
    return {
        "experiment": "table1",
        "scale": scale or rows and config.scale,
        "seed": seed,
        "measured": rows,
        "paper": {d: PAPER_TABLE1[d] for d in datasets},
        "timings": {name: timer.total(name) for name in timer.names()},
    }


# ----------------------------------------------------------------------
# Fig. 1 — attack success rate before/after forgetting/after recovery
# ----------------------------------------------------------------------
def run_fig1(
    scale: Optional[str] = None,
    seed: int = 2024,
    attacks: Sequence[str] = ("label_flip", "backdoor"),
    **overrides,
) -> Dict[str, Any]:
    """Reproduce Fig. 1: ASR at the three pipeline stages on MNIST.

    20 % of clients are malicious (they all joined at round ``F``);
    forgetting erases them; recovery must not re-introduce the poison.
    """
    series: Dict[str, Dict[str, float]] = {}
    for attack in attacks:
        config = config_for("mnist", scale, seed=seed, attack=attack, **overrides)
        workload = build_workload(config)
        record = train_workload(workload)
        sign_record = _sign_view(record, config)

        before = _asr(workload, record.final_params())
        acc_before = _accuracy(workload, record.final_params())
        unlearned, forget_round = backtrack(record, workload.forget_ids)
        after_forget = _asr(workload, unlearned)
        result = _ours(config).unlearn(sign_record, workload.forget_ids, workload.model)
        after_recover = _asr(workload, result.params)
        # Tight-clip variant: a smaller L weakens the pull toward the
        # poisoned historical checkpoints, trading clean accuracy for a
        # lower post-recovery ASR (discussed in EXPERIMENTS.md).
        tight = _ours(config, clip_threshold=min(2.0, config.clip_threshold)).unlearn(
            sign_record, workload.forget_ids, workload.model
        )
        series[attack] = {
            "asr_before": before,
            "asr_after_forget": after_forget,
            "asr_after_recover": after_recover,
            "asr_after_recover_tight_clip": _asr(workload, tight.params),
            "accuracy_after_recover_tight_clip": _accuracy(workload, tight.params),
            "accuracy_before": acc_before,
            "accuracy_after_forget": _accuracy(workload, unlearned),
            "accuracy_after_recover": _accuracy(workload, result.params),
            "forget_round": float(forget_round),
            "num_malicious": float(len(workload.forget_ids)),
        }
    return {
        "experiment": "fig1",
        "scale": scale or config.scale,
        "seed": seed,
        "measured": series,
        "paper": {a: PAPER_FIG1[a] for a in attacks},
    }


# ----------------------------------------------------------------------
# Fig. 2 — clip threshold L sweep
# ----------------------------------------------------------------------
def run_fig2(
    scale: Optional[str] = None,
    seed: int = 2024,
    l_values: Sequence[float] = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0),
    **overrides,
) -> Dict[str, Any]:
    """Reproduce Fig. 2: recovered accuracy vs clipping threshold ``L``
    (δ fixed at the paper's 1e-6).  The reproduced *shape* is an
    interior optimum: small ``L`` starves the recovery step, large ``L``
    amplifies estimation error."""
    config = config_for("mnist", scale, seed=seed, **overrides)
    workload = build_workload(config)
    record = train_workload(workload)
    sign_record = _sign_view(record, config)
    points: List[Dict[str, float]] = []
    for l_value in l_values:
        result = _ours(config, clip_threshold=float(l_value)).unlearn(
            sign_record, workload.forget_ids, workload.model
        )
        points.append(
            {"L": float(l_value), "accuracy": _accuracy(workload, result.params)}
        )
    best = max(points, key=lambda p: p["accuracy"])
    return {
        "experiment": "fig2",
        "scale": config.scale,
        "seed": seed,
        "trained_accuracy": _accuracy(workload, record.final_params()),
        "measured": points,
        "measured_optimum_L": best["L"],
        "paper_optimum_L": PAPER_FIG2_OPTIMUM_L,
    }


# ----------------------------------------------------------------------
# Fig. 3 — sign threshold δ sweep
# ----------------------------------------------------------------------
def run_fig3(
    scale: Optional[str] = None,
    seed: int = 2024,
    delta_values: Sequence[float] = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-2, 1e-1, 0.5),
    **overrides,
) -> Dict[str, Any]:
    """Reproduce Fig. 3: recovered accuracy vs sign threshold ``δ``
    (``L`` fixed).  Shape: flat/slightly-rising plateau for tiny δ,
    collapse once δ zeroes a significant mass of gradient elements."""
    config = config_for("mnist", scale, seed=seed, **overrides)
    workload = build_workload(config)
    record = train_workload(workload)
    points: List[Dict[str, float]] = []
    for delta in delta_values:
        sign_record = _sign_view(record, config, delta=float(delta))
        result = _ours(config).unlearn(
            sign_record, workload.forget_ids, workload.model
        )
        # Fraction of stored elements zeroed at this δ (diagnostic).
        sample = sign_record.gradients.get(
            config.forget_join_round, record.ledger.participants_at(config.forget_join_round)[0]
        )
        points.append(
            {
                "delta": float(delta),
                "accuracy": _accuracy(workload, result.params),
                "zero_fraction": float(np.mean(sample == 0)),
            }
        )
    best = max(points, key=lambda p: p["accuracy"])
    return {
        "experiment": "fig3",
        "scale": config.scale,
        "seed": seed,
        "trained_accuracy": _accuracy(workload, record.final_params()),
        "measured": points,
        "measured_optimum_delta": best["delta"],
        "paper_optimum_delta": PAPER_FIG3_OPTIMUM_DELTA,
    }


# ----------------------------------------------------------------------
# Storage claim — ~95 % savings
# ----------------------------------------------------------------------
def run_storage(
    scale: Optional[str] = None,
    seed: int = 2024,
    **overrides,
) -> Dict[str, Any]:
    """Quantify the §IV storage claim on a real training record:
    bytes held by the sign store vs a full float32 store, plus the
    closed-form ratio for the paper-profile model sizes."""
    config = config_for("mnist", scale, seed=seed, **overrides)
    workload = build_workload(config)
    record = train_workload(workload)
    sign_record = _sign_view(record, config)
    full_bytes = record.gradients.nbytes()
    sign_bytes = sign_record.gradients.nbytes()
    num_params = workload.model.num_params
    return {
        "experiment": "storage",
        "scale": config.scale,
        "seed": seed,
        "model_params": num_params,
        "full_gradient_bytes": full_bytes,
        "sign_gradient_bytes": sign_bytes,
        "measured_savings": 1.0 - sign_bytes / full_bytes,
        "asymptotic_savings": storage_savings_ratio(num_params),
        "paper_claim": PAPER_STORAGE_SAVINGS,
        "per_gradient": {
            "full_bytes": num_params * 4,
            "sign_bytes": packed_size_bytes(num_params),
        },
        "checkpoint_bytes": record.checkpoints.nbytes(),
    }


# ----------------------------------------------------------------------
# Ablations (design decisions called out in DESIGN.md §6)
# ----------------------------------------------------------------------
def _shared_sweep(
    scale: Optional[str],
    seed: int,
    name: str,
    variants: Dict[str, Dict[str, Any]],
    **overrides,
) -> Dict[str, Any]:
    """Train once, run ours under each variant of its hyperparameters."""
    config = config_for("mnist", scale, seed=seed, **overrides)
    workload = build_workload(config)
    record = train_workload(workload)
    sign_record = _sign_view(record, config)
    measured = {}
    for label, knobs in variants.items():
        result = _ours(config, **knobs).unlearn(
            sign_record, workload.forget_ids, workload.model
        )
        measured[label] = {
            "accuracy": _accuracy(workload, result.params),
            **{k: float(v) for k, v in knobs.items()},
        }
    return {
        "experiment": name,
        "scale": config.scale,
        "seed": seed,
        "trained_accuracy": _accuracy(workload, record.final_params()),
        "measured": measured,
    }


def run_ablation_clipping(
    scale: Optional[str] = None, seed: int = 2024, **overrides
) -> Dict[str, Any]:
    """Clipping on (paper) vs effectively off (huge L)."""
    return _shared_sweep(
        scale, seed, "ablation_clipping",
        {
            "clipped_paper_L": {"clip_threshold": 1.0},
            "clipped_tuned_L": {"clip_threshold": 5.0},
            "unclipped": {"clip_threshold": 1e9},
        },
        **overrides,
    )


def run_ablation_refresh(
    scale: Optional[str] = None, seed: int = 2024, **overrides
) -> Dict[str, Any]:
    """Vector-pair refresh period (paper: 21)."""
    return _shared_sweep(
        scale, seed, "ablation_refresh",
        {
            "every_5": {"refresh_period": 5},
            "every_21_paper": {"refresh_period": 21},
            "every_60": {"refresh_period": 60},
            "never": {"refresh_period": 10**9},
        },
        **overrides,
    )


def run_ablation_buffer(
    scale: Optional[str] = None, seed: int = 2024, **overrides
) -> Dict[str, Any]:
    """L-BFGS buffer size s (paper: 2)."""
    return _shared_sweep(
        scale, seed, "ablation_buffer",
        {f"s={s}": {"buffer_size": s} for s in (1, 2, 4, 8)},
        **overrides,
    )


def run_ablation_sign(
    scale: Optional[str] = None, seed: int = 2024, **overrides
) -> Dict[str, Any]:
    """Sign-direction recovery (2-bit storage) vs the same recovery
    machinery running on full stored gradients — the storage/accuracy
    trade at the heart of the paper."""
    config = config_for("mnist", scale, seed=seed, **overrides)
    workload = build_workload(config)
    record = train_workload(workload)
    sign_record = _sign_view(record, config)
    measured = {}
    r = _ours(config).unlearn(sign_record, workload.forget_ids, workload.model)
    measured["sign_store"] = {
        "accuracy": _accuracy(workload, r.params),
        "gradient_bytes": float(sign_record.gradients.nbytes()),
    }
    r = _ours(config).unlearn(record, workload.forget_ids, workload.model)
    measured["full_store"] = {
        "accuracy": _accuracy(workload, r.params),
        "gradient_bytes": float(record.gradients.nbytes()),
    }
    return {
        "experiment": "ablation_sign",
        "scale": config.scale,
        "seed": seed,
        "trained_accuracy": _accuracy(workload, record.final_params()),
        "measured": measured,
    }


def run_ablation_dropout(
    scale: Optional[str] = None,
    seed: int = 2024,
    dropout_rates: Sequence[float] = (0.0, 0.1, 0.3),
    **overrides,
) -> Dict[str, Any]:
    """Robustness of server-only recovery to transient dropouts during
    the original training (missing gradients at some rounds)."""
    measured = {}
    trained = {}
    for rate in dropout_rates:
        config = config_for("mnist", scale, seed=seed, **overrides)
        tree = SeedSequenceTree(seed)
        schedule = ParticipationSchedule.random_dropouts(
            client_ids=range(config.num_clients),
            rounds=config.num_rounds,
            dropout_rate=rate,
            rng=tree.rng(f"dropout-{rate}"),
            joins={config.num_clients - 1: config.forget_join_round},
        )
        workload = build_workload(config, schedule=schedule)
        record = train_workload(workload)
        sign_record = _sign_view(record, config)
        result = _ours(config).unlearn(
            sign_record, workload.forget_ids, workload.model
        )
        measured[f"dropout={rate}"] = {
            "accuracy": _accuracy(workload, result.params),
            "dropout_rate": float(rate),
        }
        trained[f"dropout={rate}"] = _accuracy(workload, record.final_params())
    return {
        "experiment": "ablation_dropout",
        "scale": config.scale,
        "seed": seed,
        "trained_accuracy": trained,
        "measured": measured,
    }


# ----------------------------------------------------------------------
# Dynamic IoV extension — mobility-generated participation
# ----------------------------------------------------------------------
def run_dynamic_iov(
    scale: Optional[str] = None,
    seed: int = 2024,
    **overrides,
) -> Dict[str, Any]:
    """End-to-end dynamic scenario: vehicles join/leave/drop out
    according to the mobility + coverage model; a vehicle that joined
    mid-way is forgotten; recovery runs with *no* client help even
    though several vehicles have left FL (the setting FedRecover-style
    baselines cannot handle, §II Challenge II)."""
    config = config_for("mnist", scale, seed=seed, **overrides)
    tree = SeedSequenceTree(seed)
    scenario = IovScenario(
        num_vehicles=config.num_clients,
        num_rounds=config.num_rounds,
        grid_rows=7,
        grid_cols=7,
        coverage_radius=620.0,
        packet_loss=0.05,
        leave_after=max(5, config.num_rounds // 10),
    )
    schedule, connectivity = generate_iov_schedule(scenario, tree.rng("iov"))
    # Ensure every client id exists in the schedule (vehicles never in
    # coverage are re-added as never-participating is not supported by
    # the workload builder, so give them a late join).
    for cid in range(config.num_clients):
        if cid not in schedule.join_rounds:
            schedule.join_rounds[cid] = max(0, config.num_rounds - 2)
    workload = build_workload(config, schedule=schedule)
    record = train_workload(workload)
    sign_record = _sign_view(record, config)
    result = _ours(config).unlearn(sign_record, workload.forget_ids, workload.model)
    left = [cid for cid in schedule.client_ids() if schedule.leave_rounds.get(cid) is not None]
    return {
        "experiment": "dynamic_iov",
        "scale": config.scale,
        "seed": seed,
        "trained_accuracy": _accuracy(workload, record.final_params()),
        "recovered_accuracy": _accuracy(workload, result.params),
        "client_gradient_calls": result.client_gradient_calls,
        "vehicles_left_fl": len(left),
        "dropout_events": len(schedule.dropouts),
        "forget_round": result.stats["forget_round"],
    }


# ----------------------------------------------------------------------
# Extension: detect attackers from the stored history, then unlearn them
# ----------------------------------------------------------------------
def run_detection(
    scale: Optional[str] = None,
    seed: int = 2024,
    **overrides,
) -> Dict[str, Any]:
    """Close the paper's §I loop — "once the attacker is detected" —
    with the history-based detector: train under a backdoor attack,
    detect the malicious clients from the *stored record alone*, forget
    and recover.  Reports detection precision/recall and the ASR
    pipeline for the detected set."""
    from repro.defenses import detect_malicious_clients

    config = config_for("mnist", scale, seed=seed, attack="backdoor", **overrides)
    workload = build_workload(config)
    record = train_workload(workload)
    report = detect_malicious_clients(record)
    precision, recall = report.precision_recall(workload.forget_ids)

    sign_record = _sign_view(record, config)
    asr_before = _asr(workload, record.final_params())
    measured: Dict[str, Any] = {
        "precision": precision,
        "recall": recall,
        "flagged": [float(c) for c in report.flagged],
        "true_malicious": [float(c) for c in workload.forget_ids],
        "asr_before": asr_before,
    }
    if report.flagged:
        result = _ours(config).unlearn(sign_record, report.flagged, workload.model)
        measured["asr_after_recover"] = _asr(workload, result.params)
        measured["accuracy_after_recover"] = _accuracy(workload, result.params)
    return {
        "experiment": "detection",
        "scale": config.scale,
        "seed": seed,
        "measured": measured,
    }


# ----------------------------------------------------------------------
# Extension: membership-inference verification of forgetting
# ----------------------------------------------------------------------
def run_verification(
    scale: Optional[str] = None,
    seed: int = 2024,
    canary_fraction: float = 0.3,
    **overrides,
) -> Dict[str, Any]:
    """Verify erasure with a canary membership-inference test.

    The forgotten client's shard is salted with *canaries* — samples
    whose labels are random — which the model can only fit by
    memorizing them (they carry no generalizable signal).  The
    loss-threshold MIA advantage on the canaries vs an identically
    mislabeled held-out set is therefore a direct memorization probe:
    well above 0.5 before unlearning, back near 0.5 after.
    """
    from repro.datasets import ArrayDataset as _ArrayDataset
    from repro.eval.verification import verify_unlearning
    from repro.fl import VehicleClient

    config = config_for("mnist", scale, seed=seed, **overrides)
    workload = build_workload(config)
    tree = SeedSequenceTree(seed)
    canary_rng = tree.rng("canaries")

    # Salt the forgotten client's shard with randomly-relabeled samples.
    fid = workload.forget_ids[0]
    shard = workload.clients[fid].dataset
    n_canary = max(8, int(round(len(shard) * canary_fraction)))
    idx = canary_rng.choice(len(shard), size=min(n_canary, len(shard)), replace=False)
    y = shard.y.copy()
    y[idx] = (y[idx] + canary_rng.integers(1, shard.num_classes, size=idx.size)) % shard.num_classes
    # Heavy oversampling of the canaries inside the shard: with one
    # minibatch per round a lone client barely revisits any sample, so
    # the canaries must dominate its batches for memorization to show.
    extra = np.tile(idx, 7)
    salted = _ArrayDataset(
        x=np.concatenate([shard.x, shard.x[extra]], axis=0),
        y=np.concatenate([y, y[extra]], axis=0),
        num_classes=shard.num_classes,
        name="salted",
    )
    workload.clients[fid] = VehicleClient(
        fid, salted, tree.rng("canary-client"), batch_size=config.batch_size
    )
    canaries = salted.subset(idx, name="canaries")

    # Identically-distributed non-member control: held-out images with
    # equally random labels.
    control_idx = canary_rng.choice(
        len(workload.test_set), size=min(idx.size, len(workload.test_set)), replace=False
    )
    control = workload.test_set.subset(control_idx, name="control")
    control_y = (
        control.y + canary_rng.integers(1, control.num_classes, size=len(control))
    ) % control.num_classes
    control = _ArrayDataset(x=control.x, y=control_y, num_classes=control.num_classes)

    record = train_workload(workload)
    sign_record = _sign_view(record, config)
    result = _ours(config).unlearn(sign_record, workload.forget_ids, workload.model)
    report = verify_unlearning(
        workload.model,
        params_before=record.final_params(),
        params_after=result.params,
        forgotten_data=canaries,
        holdout_data=control,
    )
    # Decomposition: the pure backtracked model provably contains no
    # trace of the canaries (advantage ~ 0.5); any residual advantage
    # after recovery comes from tracking historical checkpoints that
    # were themselves influenced by the forgotten client.
    from repro.eval.verification import membership_advantage
    from repro.unlearning import backtrack as _backtrack

    unlearned, _ = _backtrack(record, workload.forget_ids)
    workload.model.set_flat_params(unlearned)
    report["advantage_backtracked"] = membership_advantage(
        workload.model, canaries, control
    )
    return {
        "experiment": "verification",
        "scale": config.scale,
        "seed": seed,
        "measured": report,
        "num_canaries": int(idx.size),
        "recovered_accuracy": _accuracy(workload, result.params),
    }


# ----------------------------------------------------------------------
# Extension: non-IID (Dirichlet) robustness
# ----------------------------------------------------------------------
def run_noniid(
    scale: Optional[str] = None,
    seed: int = 2024,
    alphas: Sequence[float] = (100.0, 1.0, 0.3),
    **overrides,
) -> Dict[str, Any]:
    """Recovery quality under label-skewed client data (Dirichlet α):
    the paper evaluates IID only; this sweep shows how the server-only
    recovery degrades as heterogeneity grows."""
    from repro.datasets import partition_dirichlet
    from repro.fl import VehicleClient

    measured: Dict[str, Dict[str, float]] = {}
    for alpha in alphas:
        config = config_for("mnist", scale, seed=seed, **overrides)
        workload = build_workload(config)
        tree = SeedSequenceTree(seed)
        shards = partition_dirichlet(
            workload.train_set,
            config.num_clients,
            tree.rng(f"dirichlet-{alpha}"),
            alpha=alpha,
            min_samples=max(2, config.batch_size // 8),
        )
        workload.clients = [
            VehicleClient(c, shards[c], tree.rng(f"niid-client-{c}"), batch_size=config.batch_size)
            for c in range(config.num_clients)
        ]
        workload.record = None
        record = train_workload(workload)
        sign_record = _sign_view(record, config)
        result = _ours(config).unlearn(sign_record, workload.forget_ids, workload.model)
        measured[f"alpha={alpha}"] = {
            "trained": _accuracy(workload, record.final_params()),
            "recovered": _accuracy(workload, result.params),
        }
    return {
        "experiment": "noniid",
        "scale": config.scale,
        "seed": seed,
        "measured": measured,
    }


# ----------------------------------------------------------------------
# Extension: vehicle-side and server-side cost accounting
# ----------------------------------------------------------------------
def run_cost(
    scale: Optional[str] = None,
    seed: int = 2024,
    **overrides,
) -> Dict[str, Any]:
    """Quantify the paper's §I motivation — "reducing vehicle-side
    overhead" — by accounting each method's unlearning-time costs:

    - fresh client gradient computations (vehicle compute),
    - vehicle->RSU upload bytes (one float32 gradient per computation),
    - RSU->vehicle download bytes (the model the client computes at),
    - server gradient-storage bytes the method *requires*.
    """
    config = config_for("mnist", scale, seed=seed, **overrides)
    workload = build_workload(config)
    record = train_workload(workload)
    sign_record = _sign_view(record, config)
    clients = workload.remaining_client_map()
    d = workload.model.num_params
    grad_bytes = 4 * d

    def costs(result, storage_bytes: int) -> Dict[str, float]:
        calls = result.client_gradient_calls
        return {
            "client_gradient_calls": float(calls),
            "upload_bytes": float(calls * grad_bytes),
            "download_bytes": float(calls * grad_bytes),
            "server_storage_bytes": float(storage_bytes),
            "accuracy": _accuracy(workload, result.params),
        }

    measured: Dict[str, Dict[str, float]] = {}
    r = RetrainUnlearner().unlearn(
        record, workload.forget_ids, workload.model,
        clients=clients, model_factory=workload.model_factory,
    )
    measured["retrain"] = costs(r, storage_bytes=0)
    r = FedRecoverUnlearner(
        correction_period=config.fedrecover_correction_period
    ).unlearn(
        record, workload.forget_ids, workload.model,
        clients=clients, model_factory=workload.model_factory,
    )
    measured["fedrecover"] = costs(r, storage_bytes=record.gradients.nbytes())
    r = FedRecoveryUnlearner(
        noise_multiplier=config.fedrecovery_noise,
        rng=SeedSequenceTree(seed).rng("cost-noise"),
    ).unlearn(record, workload.forget_ids, workload.model)
    measured["fedrecovery"] = costs(r, storage_bytes=record.gradients.nbytes())
    r = _ours(config).unlearn(sign_record, workload.forget_ids, workload.model)
    measured["ours"] = costs(r, storage_bytes=sign_record.gradients.nbytes())
    return {
        "experiment": "cost",
        "scale": config.scale,
        "seed": seed,
        "model_params": d,
        "measured": measured,
    }


def run_ablation_hessian(
    scale: Optional[str] = None, seed: int = 2024, **overrides
) -> Dict[str, Any]:
    """Per-client Hessians (the paper) vs one shared Hessian
    (DeltaGrad's design) — reproduces the paper's §II claim that a
    shared approximate Hessian "is ineffective for model recovery in
    FL"."""
    from repro.unlearning import DeltaGradUnlearner

    config = config_for("mnist", scale, seed=seed, **overrides)
    workload = build_workload(config)
    record = train_workload(workload)
    sign_record = _sign_view(record, config)
    r_ours = _ours(config).unlearn(sign_record, workload.forget_ids, workload.model)
    r_shared = DeltaGradUnlearner(
        clip_threshold=config.clip_threshold,
        buffer_size=config.buffer_size,
        refresh_period=config.refresh_period,
    ).unlearn(sign_record, workload.forget_ids, workload.model)
    return {
        "experiment": "ablation_hessian",
        "scale": config.scale,
        "seed": seed,
        "trained_accuracy": _accuracy(workload, record.final_params()),
        "measured": {
            "per_client_hessian": {"accuracy": _accuracy(workload, r_ours.params)},
            "shared_hessian_deltagrad": {"accuracy": _accuracy(workload, r_shared.params)},
        },
    }


def run_robust_agg(
    scale: Optional[str] = None,
    seed: int = 2024,
    aggregators: Sequence[str] = ("fedavg", "median", "trimmed_mean"),
    **overrides,
) -> Dict[str, Any]:
    """Recovery under Byzantine-robust aggregation rules.

    The paper positions unlearning as a complement to robust
    aggregation (§I); this extension checks the two compose: training
    *and* recovery both run under median / trimmed-mean (the recovery
    loop replays whatever rule the record used), and server-only
    recovery should still restore most of the trained accuracy."""
    measured: Dict[str, Dict[str, float]] = {}
    for aggregator in aggregators:
        config = config_for("mnist", scale, seed=seed, aggregator=aggregator, **overrides)
        workload = build_workload(config)
        record = train_workload(workload)
        sign_record = _sign_view(record, config)
        result = _ours(config).unlearn(sign_record, workload.forget_ids, workload.model)
        measured[aggregator] = {
            "trained": _accuracy(workload, record.final_params()),
            "recovered": _accuracy(workload, result.params),
        }
    return {
        "experiment": "robust_agg",
        "scale": config.scale,
        "seed": seed,
        "measured": measured,
    }


def run_recovery_trace(
    scale: Optional[str] = None,
    seed: int = 2024,
    trace_points: int = 12,
    **overrides,
) -> Dict[str, Any]:
    """Accuracy along the recovery trajectory.

    Traces test accuracy at ``trace_points`` evenly spaced recovery
    rounds, from the backtracked model to the final recovered one —
    the convergence view FedRecover-style evaluations plot.  The
    qualitative expectation: a steep climb out of the backtracked
    state followed by a plateau near the trained accuracy."""
    config = config_for("mnist", scale, seed=seed, **overrides)
    workload = build_workload(config)
    record = train_workload(workload)
    sign_record = _sign_view(record, config)

    total = record.num_rounds - config.forget_join_round
    stride = max(1, total // trace_points)
    trace: List[Dict[str, float]] = []

    def callback(t: int, params: np.ndarray) -> None:
        offset = t - config.forget_join_round
        if offset % stride == 0 or t == record.num_rounds - 1:
            trace.append(
                {"round": float(t), "accuracy": _accuracy(workload, params)}
            )

    unlearner = SignRecoveryUnlearner(
        clip_threshold=config.clip_threshold,
        buffer_size=config.buffer_size,
        refresh_period=config.refresh_period,
        round_callback=callback,
        prefetch_depth=config.prefetch_depth,
    )
    result = unlearner.unlearn(sign_record, workload.forget_ids, workload.model)
    return {
        "experiment": "recovery_trace",
        "scale": config.scale,
        "seed": seed,
        "trained_accuracy": _accuracy(workload, record.final_params()),
        "backtracked_accuracy": _accuracy(
            workload, record.params_at(config.forget_join_round)
        ),
        "final_recovered_accuracy": _accuracy(workload, result.params),
        "measured": trace,
    }


def run_communication(
    scale: Optional[str] = None,
    seed: int = 2024,
    **overrides,
) -> Dict[str, Any]:
    """Analytic V2I communication budget for the paper-profile models.

    For each wire representation, computes one FL round's duration on a
    shared RSU link and how many rounds a vehicle completes during one
    coverage transit (dwell time = coverage diameter / urban speed) —
    the IoV constraint that makes payload size matter."""
    from repro.iov import V2iLink, payload_bytes, round_time
    from repro.nn import gtsrb_cnn, mnist_cnn

    config = config_for("mnist", scale, seed=seed, **overrides)
    tree = SeedSequenceTree(seed)
    models = {
        "mnist_cnn": mnist_cnn(tree.rng("m1")).num_params,
        "gtsrb_cnn": gtsrb_cnn(tree.rng("m2")).num_params,
    }
    link = V2iLink(uplink_bps=10e6, downlink_bps=50e6, rtt_seconds=0.05)
    dwell_seconds = 2 * 650.0 / 14.0  # coverage diameter / ~50 km/h
    measured: Dict[str, Dict[str, float]] = {}
    for name, d in models.items():
        for representation in ("float32", "sign2bit"):
            seconds = round_time(
                link,
                num_participants=config.num_clients,
                model_elements=d,
                uplink_representation=representation,
            )
            measured[f"{name}/{representation}"] = {
                "round_seconds": seconds,
                "rounds_per_transit": dwell_seconds / seconds,
                "upload_bytes": float(payload_bytes(d, representation)),
            }
    return {
        "experiment": "communication",
        "scale": config.scale,
        "seed": seed,
        "dwell_seconds": dwell_seconds,
        "measured": measured,
    }


# ----------------------------------------------------------------------
# Erasure serving daemon under load (SLO harness)
# ----------------------------------------------------------------------
def run_serve(
    scale: Optional[str] = None,
    seed: int = 2024,
    rate: Optional[float] = None,
    duration_seconds: Optional[float] = None,
    capacity: int = 16,
    workers: int = 2,
    burst_size: Optional[int] = None,
    deadline_seconds: Optional[float] = None,
    **overrides,
) -> Dict[str, Any]:
    """Drive the erasure daemon through a three-phase load story.

    Trains one workload, fronts its :class:`UnlearningService` with an
    :class:`~repro.serving.ErasureDaemon`, and replays three seeded
    open-loop arrival schedules against it:

    1. ``steady`` — nominal traffic; the daemon should serve everything.
    2. ``burst`` — a mass-GDPR burst several times the queue capacity;
       admission control must shed the excess with retry-after hints
       instead of growing the queue without bound.
    3. ``recover`` — nominal traffic again; shedding should stop.

    Records per-phase p50/p95/p99 latency, req/s, and shed rate (the
    ``results/slo.json`` schema ``make bench-slo`` asserts against),
    plus the daemon's final status and breaker transitions.

    A fourth ``mixed`` phase then exercises the live-traffic path: a
    fresh (small) simulation trains *while* the daemon serves erasures
    against it through a :class:`~repro.fl.live.LiveTrainingSession` —
    one seeded :func:`~repro.serving.loadgen.mixed_schedule` interleaves
    train-round arrivals (dispatched as round permits) with erasure
    arrivals, and the summary reports snapshot/merge accounting.  That
    simulation trains on a tiered store under ``sign_backend="tiered"``
    and on ``dict`` otherwise; the phase row's ``store`` names which.
    """
    from repro.fl import FederatedSimulation, LiveTrainingSession, VehicleClient
    from repro.serving import ErasureDaemon, LoadGenerator, mass_gdpr_schedule, steady_schedule
    from repro.serving.loadgen import mixed_schedule
    from repro.storage import SignGradientStore, TieredSignGradientStore
    from repro.unlearning import UnlearningService

    config = config_for("mnist", scale, seed=seed, **overrides)
    defaults = {
        "smoke": (120.0, 0.4),
        "ci": (250.0, 1.0),
        "paper": (400.0, 3.0),
    }[config.scale]
    rate = defaults[0] if rate is None else float(rate)
    duration_seconds = (
        defaults[1] if duration_seconds is None else float(duration_seconds)
    )
    if burst_size is None:
        burst_size = 4 * max(capacity, 1)

    # Stagger the erasable vehicles' joins across the run so successive
    # erasures share replay prefixes (the amortization serving relies on).
    population = list(range(config.num_clients // 2, config.num_clients))
    last_join = max(2, config.num_rounds - 2)
    joins = {
        cid: min(2 + i * max(1, last_join // max(1, len(population))), last_join)
        for i, cid in enumerate(population)
    }
    schedule = ParticipationSchedule.with_events(
        range(config.num_clients), joins=joins
    )
    workload = build_workload(config, schedule=schedule)
    record = train_workload(workload)
    sign_record = _sign_view(record, config)
    service = UnlearningService(
        record=sign_record,
        model=workload.model,
        clip_threshold=config.clip_threshold,
        buffer_size=config.buffer_size,
        refresh_period=config.refresh_period,
        prefetch_depth=config.prefetch_depth,
    )
    daemon = ErasureDaemon(
        service,
        capacity=capacity,
        workers=workers,
        default_deadline_seconds=deadline_seconds,
    ).start()
    generator = LoadGenerator(daemon)
    third = max(1, len(population) // 3)
    phases: List[Dict[str, Any]] = []
    try:
        phases.append(
            generator.run(
                steady_schedule(
                    rate, duration_seconds, population[:third],
                    seed=seed, key_prefix="steady",
                ),
                label="steady",
            ).as_dict()
        )
        phases.append(
            generator.run(
                mass_gdpr_schedule(
                    rate, duration_seconds, burst_size,
                    population[third:2 * third],
                    seed=seed + 1, key_prefix="burst",
                ),
                label="burst",
            ).as_dict()
        )
        phases.append(
            generator.run(
                steady_schedule(
                    rate, duration_seconds, population[2 * third:],
                    seed=seed + 2, key_prefix="recover",
                ),
                label="recover",
            ).as_dict()
        )
    finally:
        daemon.stop(mode="drain")
    status = daemon.status()
    status["breaker_state"] = str(status["breaker_state"])

    # ------------------------------------------------------------------
    # Phase 4: mixed live traffic — train and erase concurrently.
    # ------------------------------------------------------------------
    live_config = config_for("mnist", scale, seed=seed + 3, **overrides)
    live_workload = build_workload(live_config)
    # Training appends rounds, which the read-only mmap layout cannot
    # take: only --store tiered trains on disk, and the row says which.
    live_backend = "tiered" if live_config.sign_backend == "tiered" else "dict"
    live_store = SignGradientStore()
    if live_backend == "tiered":
        live_dir = tempfile.TemporaryDirectory(prefix="sign-tiered-")
        live_store = TieredSignGradientStore(live_dir.name)
    live_sim = FederatedSimulation(
        model=live_workload.model,
        clients=live_workload.clients,
        learning_rate=live_config.learning_rate,
        schedule=live_workload.schedule,
        gradient_store=live_store,
        aggregator=live_config.aggregator,
        workers=live_config.train_workers,
    )
    session = LiveTrainingSession(live_sim, live_config.num_rounds, paced=True)
    live_service = UnlearningService(
        record=live_sim.record_view(0),
        model=live_workload.model,
        clip_threshold=live_config.clip_threshold,
        buffer_size=live_config.buffer_size,
        refresh_period=live_config.refresh_period,
        prefetch_depth=live_config.prefetch_depth,
    ).bind_live(session)
    live_daemon = ErasureDaemon(
        live_service,
        capacity=capacity,
        workers=workers,
        default_deadline_seconds=deadline_seconds,
    ).start()
    live_generator = LoadGenerator(
        live_daemon,
        train_sink=lambda arrival: session.allow_rounds(1),
    )
    session.start()
    # Seed some committed history so the first erasures find their
    # vehicles in the ledger.
    session.allow_rounds(2)
    session.wait_for_round(1, timeout=60.0)
    live_population = list(
        range(live_config.num_clients // 2, live_config.num_clients - 1)
    )
    try:
        phases.append(
            live_generator.run(
                mixed_schedule(
                    rate, duration_seconds, live_population,
                    seed=seed + 3, key_prefix="mixed",
                ),
                label="mixed",
            ).as_dict()
        )
        phases[-1]["store"] = live_backend
    finally:
        session.release_pacing()
        live_daemon.stop(mode="drain")
        session.stop(timeout=120.0)
    live_record = session.result(timeout=120.0)
    merge_commits = live_record.metadata.get("merge_commits", [])
    live_summary = {
        "train_arrivals": live_generator.train_dispatched,
        "rounds_trained": session.rounds_trained,
        "merge_commits": len(merge_commits),
        "tail_rounds": [
            int(c["commit_round"] - c["watermark"]) for c in merge_commits
        ],
        "commit_conflicts": sum(int(c["conflicts"]) for c in merge_commits),
        "snapshot_pins": session.registry.pins_total,
        "deferred_drops": session.registry.deferred_total,
        "erased_clients": [float(c) for c in live_service.erased_clients],
    }
    if live_backend == "tiered":
        live_store.close()
        live_dir.cleanup()

    return {
        "experiment": "serve",
        "scale": config.scale,
        "seed": seed,
        "rate": rate,
        "duration_seconds": duration_seconds,
        "capacity": capacity,
        "workers": workers,
        "burst_size": burst_size,
        "measured": phases,
        "daemon": status,
        "breaker_transitions": list(daemon.breaker.transitions),
        "erased_clients": [float(c) for c in service.erased_clients],
        "live": live_summary,
    }


EXPERIMENT_RUNNERS = {
    "table1": run_table1,
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "storage": run_storage,
    "ablation_clipping": run_ablation_clipping,
    "ablation_refresh": run_ablation_refresh,
    "ablation_buffer": run_ablation_buffer,
    "ablation_sign": run_ablation_sign,
    "ablation_dropout": run_ablation_dropout,
    "dynamic_iov": run_dynamic_iov,
    "detection": run_detection,
    "verification": run_verification,
    "noniid": run_noniid,
    "cost": run_cost,
    "ablation_hessian": run_ablation_hessian,
    "robust_agg": run_robust_agg,
    "recovery_trace": run_recovery_trace,
    "communication": run_communication,
    "serve": run_serve,
}
