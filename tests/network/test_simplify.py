"""Unit tests for degree-2 chain contraction."""

import pytest

from repro.exceptions import GraphError
from repro.network.engine import engine_for
from repro.network.graph import RoadNetwork
from repro.network.simplify import contract_degree_two


class TestBasics:
    def test_line_collapses_to_single_edge(self, line_network):
        result = contract_degree_two(line_network)
        assert result.network.num_nodes == 2  # the two endpoints
        assert result.network.num_edges == 1
        assert result.network.edge_cost(0, 1) == pytest.approx(5.0)
        assert list(result.original_ids) == [0, 5]

    def test_keep_protects_nodes(self, line_network):
        result = contract_degree_two(line_network, keep=[3])
        assert result.network.num_nodes == 3
        assert 3 in result.new_id_of
        a, b = result.new_id_of[0], result.new_id_of[3]
        assert result.network.edge_cost(a, b) == pytest.approx(3.0)

    def test_invalid_keep(self, line_network):
        with pytest.raises(GraphError):
            contract_degree_two(line_network, keep=[99])

    def test_intersections_survive(self, toy_network):
        result = contract_degree_two(toy_network)
        # v3 (degree 4) and v4 (degree 3) must survive.
        assert 2 in result.new_id_of
        assert 3 in result.new_id_of

    def test_pure_cycle_keeps_anchor(self):
        coords = [(0, 0), (1, 0), (1, 1), (0, 1)]
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
        cycle = RoadNetwork(coords, edges)
        result = contract_degree_two(cycle)
        assert result.network.num_nodes >= 1


class TestDistancePreservation:
    def test_distances_exact_on_toy(self, toy_network):
        result = contract_degree_two(toy_network)
        for i, orig_i in enumerate(result.original_ids):
            original = engine_for(toy_network).sssp(orig_i)
            for j, orig_j in enumerate(result.original_ids):
                assert engine_for(result.network).distance(i, j) == (
                    pytest.approx(original[orig_j])
                ), f"{orig_i}->{orig_j}"

    def test_distances_exact_on_generated_city(self):
        from repro.network.generators import sprawl_city

        network = sprawl_city(num_nodes=150, seed=7)
        result = contract_degree_two(network)
        assert result.network.num_nodes <= network.num_nodes
        import numpy as np

        rng = np.random.default_rng(0)
        ids = result.original_ids
        for _ in range(12):
            i = int(rng.integers(0, len(ids)))
            j = int(rng.integers(0, len(ids)))
            expected = engine_for(network).distance(ids[i], ids[j])
            assert engine_for(result.network).distance(i, j) == (
                pytest.approx(expected)
            )

    def test_stops_protected_workflow(self, small_city):
        """The intended real-data workflow: simplify while keeping all
        bus stops; distances between stops are unchanged."""
        stops = small_city.transit.existing_stops[:10]
        result = contract_degree_two(small_city.network, keep=stops)
        for stop in stops:
            assert stop in result.new_id_of
        a, b = stops[0], stops[1]
        expected = engine_for(small_city.network).distance(a, b)
        got = engine_for(result.network).distance(
            result.new_id_of[a], result.new_id_of[b]
        )
        assert got == pytest.approx(expected)

    def test_repeated_simplification_preserves_distances(self, toy_network):
        """Contraction is not idempotent in general: collapsing a
        parallel chain can drop a surviving node to degree 2 (the toy's
        v4 after the v3-v6-v7-v4 chain folds into the v3-v4 edge), so a
        second pass may contract further — but distances between the
        final survivors must still match the original network."""
        once = contract_degree_two(toy_network)
        twice = contract_degree_two(once.network)
        assert twice.network.num_nodes <= once.network.num_nodes
        for i, mid_id in enumerate(twice.original_ids):
            orig_i = once.original_ids[mid_id]
            for j, mid_j in enumerate(twice.original_ids):
                orig_j = once.original_ids[mid_j]
                assert engine_for(twice.network).distance(i, j) == pytest.approx(
                    engine_for(toy_network).distance(orig_i, orig_j)
                )
