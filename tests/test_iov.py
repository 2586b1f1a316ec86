"""Tests for the IoV mobility/connectivity/scenario stack."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.fl import ParticipationSchedule
from repro.iov import (
    IovScenario,
    RoadNetwork,
    Rsu,
    Vehicle,
    connectivity_trace,
    coverage_fraction,
    generate_iov_schedule,
    schedule_from_connectivity,
    simulate_positions,
)


def test_import_repro_loads_neither_networkx_nor_scipy():
    """No module in the package imports networkx or scipy, and
    ``import repro`` loads neither."""
    src = Path(__file__).resolve().parent.parent / "src"
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("networkx", "scipy"), (path, name)
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, repro; print(sorted({'networkx', 'scipy'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


class TestRoadNetwork:
    def test_grid_size(self):
        net = RoadNetwork(rows=4, cols=5)
        nodes = {(r, c) for r in range(4) for c in range(5)}
        assert {n for node in nodes for n in net.neighbours(node)} == nodes
        # 16 roads across and 15 down, each seen from both ends.
        assert sum(len(list(net.neighbours(node))) for node in nodes) == 2 * 31

    def test_positions_scale_with_block(self):
        net = RoadNetwork(rows=3, cols=3, block_length=100.0)
        np.testing.assert_array_equal(net.position_of((2, 1)), [100.0, 200.0])

    def test_extent(self):
        net = RoadNetwork(rows=3, cols=5, block_length=100.0)
        assert net.extent == (400.0, 200.0)

    def test_shortest_path_endpoints(self):
        net = RoadNetwork(rows=4, cols=4)
        path = net.shortest_path((0, 0), (3, 3))
        assert path[0] == (0, 0) and path[-1] == (3, 3)
        assert len(path) == 7  # manhattan distance + 1

    @pytest.mark.parametrize("rows", range(2, 7))
    @pytest.mark.parametrize("cols", range(2, 8))
    def test_shortest_paths_match_networkx(self, rows, cols):
        """Every path equals the one networkx's weighted Dijkstra picks
        on the same grid, ties included."""
        nx = pytest.importorskip("networkx")
        graph = nx.grid_2d_graph(rows, cols)
        for u, v in graph.edges:
            graph.edges[u, v]["length"] = 200.0
        net = RoadNetwork(rows=rows, cols=cols)
        for src in graph.nodes:
            for dst in graph.nodes:
                expected = nx.shortest_path(graph, src, dst, weight="length")
                assert net.shortest_path(src, dst) == expected, (src, dst)

    def test_shortest_path_rejects_off_grid_nodes(self):
        net = RoadNetwork(rows=3, cols=3)
        with pytest.raises(ValueError):
            net.shortest_path((0, 0), (3, 0))
        with pytest.raises(ValueError):
            net.shortest_path((-1, 0), (2, 2))

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            RoadNetwork(rows=1, cols=5)


class TestVehicle:
    def test_moves(self, rng):
        net = RoadNetwork()
        vehicle = Vehicle(0, net, rng)
        p0 = vehicle.position.copy()
        positions = [vehicle.step() for _ in range(20)]
        assert any(not np.array_equal(p, p0) for p in positions)

    def test_stays_on_grid_bounds(self, rng):
        net = RoadNetwork(rows=4, cols=4, block_length=100.0)
        vehicle = Vehicle(0, net, rng)
        for _ in range(100):
            p = vehicle.step()
            assert -1 <= p[0] <= 301 and -1 <= p[1] <= 301

    def test_speed_range_validation(self, rng):
        with pytest.raises(ValueError):
            Vehicle(0, RoadNetwork(), rng, speed_range=(0.0, 10.0))
        with pytest.raises(ValueError):
            Vehicle(0, RoadNetwork(), rng, speed_range=(10.0, 5.0))

    def test_deterministic_given_seed(self):
        net = RoadNetwork()
        a = Vehicle(0, net, np.random.default_rng(3))
        b = Vehicle(0, RoadNetwork(), np.random.default_rng(3))
        for _ in range(10):
            np.testing.assert_allclose(a.step(), b.step())


class TestSimulatePositions:
    def test_trace_shapes(self, rng):
        net = RoadNetwork()
        vehicles = [Vehicle(i, net, np.random.default_rng(i)) for i in range(3)]
        traces = simulate_positions(vehicles, 15)
        assert set(traces) == {0, 1, 2}
        assert all(t.shape == (15, 2) for t in traces.values())

    def test_zero_steps_raises(self, rng):
        with pytest.raises(ValueError):
            simulate_positions([], 0)


class TestRsu:
    def test_covers_many(self):
        rsu = Rsu(position=(0.0, 0.0), coverage_radius=10.0)
        points = np.array([[0, 0], [9, 0], [11, 0]], dtype=float)
        np.testing.assert_array_equal(rsu.covers_many(points), [True, True, False])

    def test_invalid(self):
        with pytest.raises(ValueError):
            Rsu(position=(0.0, 0.0), coverage_radius=0.0)
        with pytest.raises(ValueError):
            Rsu(position=(0.0,), coverage_radius=5.0)


class TestConnectivity:
    def test_no_loss_inside_coverage(self, rng):
        traces = {0: np.zeros((10, 2))}
        rsu = Rsu(position=(0.0, 0.0), coverage_radius=5.0)
        conn = connectivity_trace(traces, rsu, rng, packet_loss=0.0)
        assert conn[0].all()

    def test_outside_coverage_disconnected(self, rng):
        traces = {0: np.full((10, 2), 100.0)}
        rsu = Rsu(position=(0.0, 0.0), coverage_radius=5.0)
        conn = connectivity_trace(traces, rsu, rng, packet_loss=0.0)
        assert not conn[0].any()

    def test_packet_loss_rate(self, rng):
        traces = {0: np.zeros((5000, 2))}
        rsu = Rsu(position=(0.0, 0.0), coverage_radius=5.0)
        conn = connectivity_trace(traces, rsu, rng, packet_loss=0.2)
        assert 0.7 < conn[0].mean() < 0.9

    def test_invalid_loss(self, rng):
        with pytest.raises(ValueError):
            connectivity_trace({}, Rsu((0, 0), 1.0), rng, packet_loss=1.0)

    def test_coverage_fraction(self):
        conn = {0: np.array([True, False]), 1: np.array([True, True])}
        assert coverage_fraction(conn) == pytest.approx(0.75)

    def test_coverage_fraction_empty_raises(self):
        with pytest.raises(ValueError):
            coverage_fraction({})


class TestScheduleFromConnectivity:
    def test_join_at_first_connection(self):
        conn = {0: np.array([False, False, True, True, True])}
        sched = schedule_from_connectivity(conn, leave_after=3)
        assert sched.join_rounds[0] == 2

    def test_never_connected_omitted(self):
        conn = {0: np.array([False] * 5), 1: np.array([True] * 5)}
        sched = schedule_from_connectivity(conn)
        assert 0 not in sched.join_rounds
        assert 1 in sched.join_rounds

    def test_short_gap_is_dropout(self):
        conn = {0: np.array([True, False, True, True, True])}
        sched = schedule_from_connectivity(conn, leave_after=3)
        assert (1, 0) in sched.dropouts
        assert sched.leave_rounds.get(0) is None

    def test_long_gap_is_leave(self):
        conn = {0: np.array([True, True, False, False, False, False, True])}
        sched = schedule_from_connectivity(conn, leave_after=4)
        assert sched.leave_rounds[0] == 2

    def test_trailing_long_gap_is_leave(self):
        conn = {0: np.array([True, True, False, False, False])}
        sched = schedule_from_connectivity(conn, leave_after=3)
        assert sched.leave_rounds[0] == 2

    def test_trailing_short_gap_is_dropout(self):
        conn = {0: np.array([True, True, True, False])}
        sched = schedule_from_connectivity(conn, leave_after=3)
        assert (3, 0) in sched.dropouts
        assert sched.leave_rounds.get(0) is None

    def test_schedule_is_consistent(self):
        """Derived schedules satisfy ParticipationSchedule invariants."""
        rng = np.random.default_rng(0)
        conn = {i: rng.random(40) < 0.7 for i in range(12)}
        # Ensure each connects at least once so all are scheduled.
        for mask in conn.values():
            mask[0] = True
        sched = schedule_from_connectivity(conn, leave_after=5)
        assert isinstance(sched, ParticipationSchedule)
        for t in range(40):
            sched.participants_at(t)  # must not raise


class TestGenerateIovSchedule:
    def test_end_to_end(self, rng):
        scenario = IovScenario(num_vehicles=12, num_rounds=30)
        sched, conn = generate_iov_schedule(scenario, rng)
        assert len(conn) == 12
        assert 0 < coverage_fraction(conn) <= 1.0

    def test_invalid_scenario(self):
        with pytest.raises(ValueError):
            IovScenario(num_vehicles=0, num_rounds=10)
        with pytest.raises(ValueError):
            IovScenario(num_vehicles=5, num_rounds=10, leave_after=0)

    def test_deterministic(self):
        scenario = IovScenario(num_vehicles=8, num_rounds=20)
        s1, _ = generate_iov_schedule(scenario, np.random.default_rng(4))
        s2, _ = generate_iov_schedule(scenario, np.random.default_rng(4))
        assert s1.join_rounds == s2.join_rounds
        assert s1.dropouts == s2.dropouts
