"""Unit tests for Yen's K shortest paths."""

import itertools

import pytest

from repro.exceptions import ConfigurationError, GraphError
from repro.network.engine import engine_for
from repro.network.ksp import k_shortest_paths

from ..conftest import V1, V2, V3, V4, V5, V6, V7, V8


class TestBasics:
    def test_first_path_is_shortest(self, toy_network):
        paths = k_shortest_paths(toy_network, V1, V4, 3)
        reference, cost = engine_for(toy_network).path(V1, V4)
        assert paths[0][0] == reference
        assert paths[0][1] == pytest.approx(cost)

    def test_costs_non_decreasing(self, toy_network):
        paths = k_shortest_paths(toy_network, V1, V4, 5)
        costs = [c for _, c in paths]
        assert costs == sorted(costs)

    def test_paths_distinct_and_loopless(self, toy_network):
        paths = k_shortest_paths(toy_network, V1, V7, 5)
        seen = set()
        for path, cost in paths:
            key = tuple(path)
            assert key not in seen
            seen.add(key)
            assert len(set(path)) == len(path)  # simple path
            assert toy_network.path_cost(path) == pytest.approx(cost)
            assert path[0] == V1 and path[-1] == V7

    def test_toy_second_path(self, toy_network):
        """v1 -> v4: shortest is v1-v2-v3-v4 (12); the runner-up detours
        via v6/v7 (v1-v2-v3-v6-v7-v4 = 4+4+3+4+3 = 18)."""
        paths = k_shortest_paths(toy_network, V1, V4, 2)
        assert len(paths) == 2
        assert paths[1][1] == pytest.approx(18.0)

    def test_k_larger_than_path_count(self, line_network):
        # A path graph has exactly one simple path between any pair.
        paths = k_shortest_paths(line_network, 0, 5, 10)
        assert len(paths) == 1

    def test_validation(self, toy_network):
        with pytest.raises(ConfigurationError):
            k_shortest_paths(toy_network, V1, V4, 0)
        with pytest.raises(ConfigurationError):
            k_shortest_paths(toy_network, V1, V1, 2)

    def test_unreachable(self):
        from repro.network.graph import RoadNetwork

        network = RoadNetwork(
            [(0, 0), (1, 0), (9, 9)], [(0, 1, 1.0)], validate_connected=False
        )
        with pytest.raises(GraphError):
            k_shortest_paths(network, 0, 2, 2)


class TestAgainstBruteForce:
    def test_matches_enumeration_on_grid(self, grid_network):
        """On a 6x6 grid, the top-5 simple paths from corner to a nearby
        node must match exhaustive enumeration of simple paths."""
        source, target = 0, 8  # (0,0) -> (1,2)
        k = 5
        got = k_shortest_paths(grid_network, source, target, k)

        # brute force: DFS over simple paths with pruning by length
        best: list = []

        def dfs(node, path, cost):
            if len(best) == 50 and cost > best[-1][1]:
                return
            if cost > 8.0:  # generous bound for this pair
                return
            if node == target:
                best.append((list(path), cost))
                best.sort(key=lambda item: item[1])
                del best[50:]
                return
            for neighbor, c in grid_network.neighbors(node):
                if neighbor not in path:
                    path.append(neighbor)
                    dfs(neighbor, path, cost + c)
                    path.pop()

        dfs(source, [source], 0.0)
        expected_costs = sorted(c for _, c in best)[:k]
        assert [c for _, c in got] == pytest.approx(expected_costs)
