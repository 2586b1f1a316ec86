"""Vehicle mobility on a road network.

The paper's setting is vehicles communicating with a Road-Side Unit
while driving; joins, leaves and dropouts are produced by physical
movement through the RSU's coverage area.  This module provides the
physical layer of that story:

- a :class:`RoadNetwork` — a grid road graph (via networkx) with
  intersection coordinates;
- :class:`Vehicle` — a random-waypoint walker that picks a destination
  intersection, drives the shortest path at its own speed, then picks a
  new destination;
- :func:`simulate_positions` — per-timestep positions for a fleet.

The connectivity layer (:mod:`repro.iov.network`) turns positions +
RSU placement into per-round participation, and
:mod:`repro.iov.scenario` packages everything into the
:class:`~repro.fl.events.ParticipationSchedule` the FL loop consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["RoadNetwork", "Vehicle", "simulate_positions"]


class RoadNetwork:
    """A city-block grid of roads.

    Parameters
    ----------
    rows, cols:
        Number of intersections per side.
    block_length:
        Distance between adjacent intersections (metres).
    """

    def __init__(self, rows: int = 6, cols: int = 6, block_length: float = 200.0):
        if rows < 2 or cols < 2:
            raise ValueError("grid needs at least 2x2 intersections")
        if block_length <= 0:
            raise ValueError("block_length must be positive")
        self.rows = rows
        self.cols = cols
        self.block_length = block_length
        import networkx as nx  # a large import: only road networks load it

        self.graph = nx.grid_2d_graph(rows, cols)
        for u, v in self.graph.edges:
            self.graph.edges[u, v]["length"] = block_length

    def position_of(self, node: Tuple[int, int]) -> np.ndarray:
        """Euclidean coordinates of an intersection."""
        return np.array(
            [node[1] * self.block_length, node[0] * self.block_length], dtype=np.float64
        )

    def random_node(self, rng: np.random.Generator) -> Tuple[int, int]:
        """Uniformly sampled intersection."""
        return (int(rng.integers(0, self.rows)), int(rng.integers(0, self.cols)))

    def shortest_path(
        self, src: Tuple[int, int], dst: Tuple[int, int]
    ) -> List[Tuple[int, int]]:
        """Shortest sequence of intersections from src to dst."""
        import networkx as nx

        return nx.shortest_path(self.graph, src, dst, weight="length")

    @property
    def extent(self) -> Tuple[float, float]:
        """(width, height) of the covered area in metres."""
        return ((self.cols - 1) * self.block_length, (self.rows - 1) * self.block_length)


@dataclass
class _Leg:
    start: np.ndarray
    end: np.ndarray
    length: float


class Vehicle:
    """Random-waypoint vehicle on a road network.

    Parameters
    ----------
    vehicle_id:
        Stable identity, matching the FL client id.
    network:
        The road network driven on.
    rng:
        Private generator (start node, destinations, speed).
    speed_range:
        Uniform speed draw in metres per timestep.
    """

    def __init__(
        self,
        vehicle_id: int,
        network: RoadNetwork,
        rng: np.random.Generator,
        speed_range: Tuple[float, float] = (80.0, 160.0),
    ):
        if speed_range[0] <= 0 or speed_range[1] < speed_range[0]:
            raise ValueError(f"invalid speed range {speed_range}")
        self.vehicle_id = vehicle_id
        self.network = network
        self.rng = rng
        self.speed = float(rng.uniform(*speed_range))
        self._node = network.random_node(rng)
        self.position = network.position_of(self._node).copy()
        self._legs: List[_Leg] = []
        self._leg_progress = 0.0

    def _plan_trip(self) -> None:
        dst = self.network.random_node(self.rng)
        while dst == self._node:
            dst = self.network.random_node(self.rng)
        path = self.network.shortest_path(self._node, dst)
        self._legs = []
        for a, b in zip(path[:-1], path[1:]):
            pa = self.network.position_of(a)
            pb = self.network.position_of(b)
            self._legs.append(_Leg(pa, pb, float(np.linalg.norm(pb - pa))))
        self._node = dst
        self._leg_progress = 0.0

    def step(self) -> np.ndarray:
        """Advance one timestep; returns the new position."""
        remaining = self.speed
        while remaining > 0:
            if not self._legs:
                self._plan_trip()
            leg = self._legs[0]
            left_on_leg = leg.length - self._leg_progress
            if remaining < left_on_leg:
                self._leg_progress += remaining
                remaining = 0.0
            else:
                remaining -= left_on_leg
                self._legs.pop(0)
                self._leg_progress = 0.0
        if self._legs:
            leg = self._legs[0]
            frac = self._leg_progress / leg.length if leg.length > 0 else 0.0
            self.position = leg.start + frac * (leg.end - leg.start)
        else:
            self.position = self.network.position_of(self._node).copy()
        return self.position.copy()


def simulate_positions(
    vehicles: List[Vehicle], num_steps: int
) -> Dict[int, np.ndarray]:
    """Run all vehicles for ``num_steps``; returns
    ``vehicle_id -> (num_steps, 2)`` position traces."""
    if num_steps <= 0:
        raise ValueError("num_steps must be positive")
    traces = {v.vehicle_id: np.zeros((num_steps, 2)) for v in vehicles}
    for t in range(num_steps):
        for vehicle in vehicles:
            traces[vehicle.vehicle_id][t] = vehicle.step()
    return traces
