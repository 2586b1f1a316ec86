"""Untimed output checks behind the one command.

A seeded sample of eight requests per workload is re-derived on the
reference path — a cache-less, prefetch-less, serial
``SignRecoveryUnlearner`` over the pristine record — and compared
byte for byte (by SHA-256 of the parameter vector).  Erased vehicles
must be gone from the store the service wrote to, byte accounting must
survive a recount, and the archive must hold exactly the surviving rows
after its final compaction and a reopen.  Every failed check counts as
one mismatch; ``run.py`` exits non-zero on any.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.storage import TieredSignGradientStore
from repro.utils.rng import SeedSequenceTree

import records
from records import World, cold_unlearner
from workloads import Outcome, sha

SAMPLES = 8


def _sample(seed: int, label: str, population: Sequence, k: int = SAMPLES) -> List:
    rng = SeedSequenceTree(seed).rng(f"verify-{label}")
    picks = rng.permutation(len(population))[: min(k, len(population))]
    return [population[int(i)] for i in sorted(picks)]


def _cold_sha(record, forget: Sequence[int], model) -> str:
    return sha(cold_unlearner().unlearn(record, sorted(forget), model).params)


def verify_solo(world: World, outcome: Outcome, seed: int) -> int:
    mismatches = 0
    samples = outcome.checks["samples"]
    for cid in _sample(seed, "solo", sorted(world.erasable)):
        expected = _cold_sha(world.record, [cid], world.model)
        mismatches += sum(1 for c, got in samples if c == cid and got != expected)
    return mismatches


def verify_ladder(world: World, outcome: Outcome, seed: int) -> int:
    """Request ``k`` of a phase forgot everything committed before it on
    that phase's service plus its own vehicle."""
    mismatches = 0
    commits: Dict[str, List[int]] = outcome.checks["commits"]
    responses = outcome.checks["responses"]
    per_phase = -(-SAMPLES // len(commits))  # ceil: at least SAMPLES in all
    for phase, order in commits.items():
        for k in _sample(seed, phase, range(len(order)), per_phase):
            cid = order[k]
            expected = _cold_sha(world.record, order[: k + 1], world.model)
            response = responses[phase].get(cid)
            if response is None or sha(response.params) != expected:
                mismatches += 1
    return mismatches


def verify_live(world: World, outcome: Outcome, seed: int) -> int:
    """The first commit must equal stopping the world at its commit
    round: train the same seed that far, then unlearn cold.  Later
    commits build on merged history and have no sequential twin; for
    them the check is that nobody comes back."""
    mismatches = 0
    erased: List[int] = outcome.checks["erased"]
    outcomes = outcome.checks["outcomes"]
    final = outcome.checks["final"]
    if erased:
        first = outcomes[erased[0]]
        sim, model, _ = records.live_simulation(seed, world.extra["rounds"])
        reference = sim.run(first.commit_round)
        if _cold_sha(reference, [erased[0]], model) != sha(first.params):
            mismatches += 1
    store = final.gradients
    for cid in erased:
        commit_round = outcomes[cid].commit_round
        if any(store.has(t, cid) for t in range(final.num_rounds)):
            mismatches += 1
        if any(cid in final.ledger.participants_at(t)
               for t in range(commit_round, final.num_rounds)):
            mismatches += 1
    if store.recount_nbytes() != store.nbytes():
        mismatches += 1
    return mismatches


def verify_archive(world: World, outcome: Outcome, seed: int) -> int:
    mismatches = 0
    checks = outcome.checks
    order: List[int] = checks["erased"]
    got = dict(checks["samples"])
    pristine = checks["pristine"]
    for k in _sample(seed, "archive", range(len(order))):
        if _cold_sha(pristine, order[: k + 1], None) != got.get(order[k]):
            mismatches += 1
    # After the reclaiming compaction and a reopen from disk: exactly
    # the surviving rows, nothing of the erased, bytes that add up.
    erased = set(order)
    survivors = sum(1 for (_, cid), _ in pristine.gradients.items() if cid not in erased)
    checks["record"].gradients.close()
    reopened = TieredSignGradientStore.open(
        checks["tiered_dir"], hot_budget_bytes=checks["hot_budget"]
    )
    try:
        if len(reopened.items()) != survivors:
            mismatches += 1
        if reopened.recount_nbytes() != reopened.nbytes():
            mismatches += 1
        rounds = pristine.num_rounds
        if any(reopened.has(t, cid) for cid in erased for t in range(rounds)):
            mismatches += 1
    finally:
        reopened.close()
    if checks["mapped_rows"] != checks["rows"]:
        mismatches += 1
    return mismatches


def verify(name: str, world: World, outcome: Outcome, seed: int) -> int:
    """Mismatch count for one finished run of workload ``name``."""
    check = {
        "solo_replay": verify_solo,
        "gdpr_ladder": verify_ladder,
        "live_interleave": verify_live,
        "archive_lifecycle": verify_archive,
    }[name]
    return check(world, outcome, seed)
