"""Unit tests for A* and the ALT landmark index."""

import math

import pytest

from repro.exceptions import ConfigurationError, GraphError
from repro.network.astar import LandmarkIndex, astar_distance, astar_path
from repro.network.engine import engine_for

from ..conftest import V1, V2, V3, V4, V5, V6, V7, V8


class TestAStar:
    def test_matches_dijkstra_on_toy(self, toy_network):
        for source in range(8):
            costs = engine_for(toy_network).sssp(source)
            for target in range(8):
                assert astar_distance(toy_network, source, target) == (
                    pytest.approx(costs[target])
                )

    def test_path_valid_and_optimal(self, toy_network):
        path, cost = astar_path(toy_network, V1, V5)
        assert path[0] == V1 and path[-1] == V5
        assert toy_network.is_path(path)
        reference, expected = engine_for(toy_network).path(V1, V5)
        assert cost == pytest.approx(expected)

    def test_same_node(self, toy_network):
        assert astar_distance(toy_network, V3, V3) == 0.0

    def test_unreachable_raises(self):
        from repro.network.graph import RoadNetwork

        network = RoadNetwork(
            [(0, 0), (1, 0), (9, 9)], [(0, 1, 1.0)], validate_connected=False
        )
        with pytest.raises(GraphError):
            astar_path(network, 0, 2)

    def test_matches_dijkstra_on_grid(self, grid_network):
        costs = engine_for(grid_network).sssp(0)
        for target in (5, 17, 35):
            assert astar_distance(grid_network, 0, target) == (
                pytest.approx(costs[target])
            )

    def test_custom_heuristic_zero_is_dijkstra(self, grid_network):
        got = astar_distance(grid_network, 0, 35, heuristic=lambda v: 0.0)
        assert got == pytest.approx(engine_for(grid_network).sssp(0)[35])


class TestLandmarkIndex:
    def test_lower_bound_is_valid(self, grid_network):
        index = LandmarkIndex(grid_network, num_landmarks=4)
        costs_from = {
            v: engine_for(grid_network).sssp(v) for v in (0, 14, 35)
        }
        for u in (0, 14, 35):
            for v in grid_network.nodes():
                assert index.lower_bound(u, v) <= costs_from[u][v] + 1e-9

    def test_distance_exact(self, toy_network):
        index = LandmarkIndex(toy_network, num_landmarks=3)
        for u in range(8):
            costs = engine_for(toy_network).sssp(u)
            for v in range(8):
                assert index.distance(u, v) == pytest.approx(costs[v])

    def test_landmarks_far_apart(self, grid_network):
        index = LandmarkIndex(grid_network, num_landmarks=3)
        assert len(set(index.landmarks)) == 3
        # farthest-point placement: pairwise distances are large

        for i, a in enumerate(index.landmarks):
            for b in index.landmarks[i + 1:]:
                assert engine_for(grid_network).distance(a, b) >= 3.0

    def test_heuristic_dominates_euclidean_somewhere(self, grid_network):
        """ALT should beat the straight-line bound on at least one pair
        (on a grid with unit detours it usually does)."""
        index = LandmarkIndex(grid_network, num_landmarks=4)
        from repro.network.geometry import euclidean

        coords = grid_network.coordinates()
        wins = 0
        for u in range(0, 36, 5):
            for v in range(0, 36, 7):
                if index.lower_bound(u, v) > euclidean(coords[u], coords[v]) + 1e-9:
                    wins += 1
        assert wins > 0

    def test_invalid_params(self, toy_network):
        with pytest.raises(ConfigurationError):
            LandmarkIndex(toy_network, num_landmarks=0)
        with pytest.raises(ConfigurationError):
            LandmarkIndex(toy_network, num_landmarks=2, seed_node=99)

    def test_more_landmarks_than_nodes(self, toy_network):
        index = LandmarkIndex(toy_network, num_landmarks=100)
        assert len(index.landmarks) <= toy_network.num_nodes
