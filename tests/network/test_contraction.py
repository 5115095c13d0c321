"""Unit tests for Contraction Hierarchies, cross-checked vs Dijkstra."""

import math

import pytest

from repro.exceptions import ConfigurationError, GraphError
from repro.network.contraction import ContractionHierarchy
from repro.network.engine import engine_for

from ..conftest import V1, V5


class TestCorrectness:
    def test_exact_on_toy(self, toy_network):
        ch = ContractionHierarchy(toy_network)
        for source in range(8):
            costs = engine_for(toy_network).sssp(source)
            for target in range(8):
                assert ch.distance(source, target) == pytest.approx(
                    costs[target]
                ), f"{source}->{target}"

    def test_exact_on_grid(self, grid_network):
        ch = ContractionHierarchy(grid_network)
        for source in (0, 14, 35):
            costs = engine_for(grid_network).sssp(source)
            for target in range(grid_network.num_nodes):
                assert ch.distance(source, target) == pytest.approx(
                    costs[target]
                )

    def test_exact_on_generated_city(self):
        from repro.network.generators import sprawl_city

        network = sprawl_city(num_nodes=150, seed=3)
        ch = ContractionHierarchy(network)
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(25):
            s = int(rng.integers(0, network.num_nodes))
            costs = engine_for(network).sssp(s)
            t = int(rng.integers(0, network.num_nodes))
            assert ch.distance(s, t) == pytest.approx(costs[t])

    def test_same_node(self, toy_network):
        ch = ContractionHierarchy(toy_network)
        assert ch.distance(3, 3) == 0.0

    def test_disconnected_returns_inf(self):
        from repro.network.graph import RoadNetwork

        network = RoadNetwork(
            [(0, 0), (1, 0), (9, 9), (10, 9)],
            [(0, 1, 1.0), (2, 3, 1.0)],
            validate_connected=False,
        )
        ch = ContractionHierarchy(network)
        assert math.isinf(ch.distance(0, 2))
        assert ch.distance(2, 3) == pytest.approx(1.0)

    def test_out_of_range_rejected(self, toy_network):
        ch = ContractionHierarchy(toy_network)
        with pytest.raises(GraphError):
            ch.distance(0, 99)

    def test_batched_one_to_many(self, grid_network):
        ch = ContractionHierarchy(grid_network)
        targets = [0, 7, 21, 35]
        batched = ch.distances_from(14, targets)
        costs = engine_for(grid_network).sssp(14)
        for target, got in zip(targets, batched):
            assert got == pytest.approx(costs[target])


class TestStructure:
    def test_ranks_are_a_permutation(self, grid_network):
        ch = ContractionHierarchy(grid_network)
        assert sorted(ch.rank) == list(range(grid_network.num_nodes))

    def test_upward_edges_point_upward(self, grid_network):
        ch = ContractionHierarchy(grid_network)
        for u in range(grid_network.num_nodes):
            for v, _ in ch._up[u]:
                assert ch.rank[v] > ch.rank[u]

    def test_search_space_smaller_than_graph(self):
        from repro.network.generators import grid_city

        network = grid_city(15, 15, seed=2)
        ch = ContractionHierarchy(network)
        sizes = [ch.search_space_size(v) for v in range(0, network.num_nodes, 17)]
        assert max(sizes) < network.num_nodes / 2

    def test_shortcut_count_reasonable(self, grid_network):
        ch = ContractionHierarchy(grid_network)
        # planar-ish graphs stay near-linear in shortcuts
        assert ch.num_shortcuts < 6 * grid_network.num_edges

    def test_invalid_hop_limit(self, toy_network):
        with pytest.raises(ConfigurationError):
            ContractionHierarchy(toy_network, hop_limit=0)
