"""RSU coverage and connectivity.

Converts vehicle positions into per-round connectivity with the RSU:
a vehicle inside coverage radius communicates reliably, modulo a
transient packet-loss probability ("network connection problems,
hardware failures, or other technical reasons", §I) that produces the
dropout events the unlearning scheme must tolerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

__all__ = ["Rsu", "connectivity_trace", "coverage_fraction"]


@dataclass(frozen=True)
class Rsu:
    """A Road-Side Unit with circular coverage.

    Attributes
    ----------
    position:
        (x, y) placement in metres.
    coverage_radius:
        Communication range in metres.
    """

    position: tuple
    coverage_radius: float

    def __post_init__(self) -> None:
        if self.coverage_radius <= 0:
            raise ValueError("coverage_radius must be positive")
        if len(self.position) != 2:
            raise ValueError("position must be (x, y)")

    def covers_many(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask over an (N, 2) array of points."""
        points = np.asarray(points, dtype=np.float64)
        delta = points - np.asarray(self.position, dtype=np.float64)
        return np.linalg.norm(delta, axis=-1) <= self.coverage_radius


def connectivity_trace(
    position_traces: Dict[int, np.ndarray],
    rsu: Rsu,
    rng: np.random.Generator,
    packet_loss: float = 0.05,
) -> Dict[int, np.ndarray]:
    """Per-round boolean connectivity for each vehicle.

    A vehicle is connected at step ``t`` iff it is inside coverage and
    it does not suffer an independent transient loss (probability
    ``packet_loss``).
    """
    if not 0.0 <= packet_loss < 1.0:
        raise ValueError(f"packet_loss must be in [0, 1), got {packet_loss}")
    out: Dict[int, np.ndarray] = {}
    for vid, trace in position_traces.items():
        covered = rsu.covers_many(trace)
        losses = rng.random(covered.shape[0]) < packet_loss
        out[vid] = covered & ~losses
    return out


def coverage_fraction(connectivity: Dict[int, np.ndarray]) -> float:
    """Mean fraction of (vehicle, step) pairs that are connected."""
    if not connectivity:
        raise ValueError("empty connectivity map")
    total = sum(c.size for c in connectivity.values())
    on = sum(int(c.sum()) for c in connectivity.values())
    return on / total
