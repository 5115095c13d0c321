"""Unit tests for networkx interoperability."""

import networkx as nx
import pytest

from repro.exceptions import GraphError
from repro.network.interop import from_networkx, to_networkx


class TestToNetworkx:
    def test_structure_preserved(self, toy_network):
        graph = to_networkx(toy_network)
        assert graph.number_of_nodes() == toy_network.num_nodes
        assert graph.number_of_edges() == toy_network.num_edges
        for u, v, cost in toy_network.edges():
            assert graph[u][v]["weight"] == pytest.approx(cost)

    def test_coordinates_attached(self, toy_network):
        graph = to_networkx(toy_network)
        assert graph.nodes[0]["x"] == 0.0
        assert graph.nodes[5]["y"] == 3.0

    def test_shortest_paths_agree(self, grid_network):
        from repro.network.engine import engine_for

        graph = to_networkx(grid_network)
        ours = engine_for(grid_network).sssp(0)
        theirs = nx.single_source_dijkstra_path_length(graph, 0)
        for node in grid_network.nodes():
            assert ours[node] == pytest.approx(theirs[node])


class TestFromNetworkx:
    def test_roundtrip(self, toy_network):
        graph = to_networkx(toy_network)
        back, node_map = from_networkx(graph)
        assert back.num_nodes == toy_network.num_nodes
        assert back.num_edges == toy_network.num_edges
        for u, v, cost in toy_network.edges():
            assert back.edge_cost(node_map[u], node_map[v]) == (
                pytest.approx(cost)
            )

    def test_arbitrary_node_labels(self):
        graph = nx.Graph()
        graph.add_node("alpha", x=0.0, y=0.0)
        graph.add_node("beta", x=1.0, y=0.0)
        graph.add_edge("alpha", "beta", weight=2.5)
        network, node_map = from_networkx(graph)
        assert network.num_nodes == 2
        assert network.edge_cost(node_map["alpha"], node_map["beta"]) == 2.5

    def test_missing_coordinates(self):
        graph = nx.Graph()
        graph.add_node(0)
        graph.add_node(1, x=1.0, y=0.0)
        graph.add_edge(0, 1, weight=1.0)
        with pytest.raises(GraphError, match="coordinate"):
            from_networkx(graph)

    def test_missing_weight(self):
        graph = nx.Graph()
        graph.add_node(0, x=0.0, y=0.0)
        graph.add_node(1, x=1.0, y=0.0)
        graph.add_edge(0, 1)
        with pytest.raises(GraphError, match="weight"):
            from_networkx(graph)

    def test_custom_attribute_names(self):
        graph = nx.Graph()
        graph.add_node(0, lon=0.0, lat=0.0)
        graph.add_node(1, lon=1.0, lat=0.0)
        graph.add_edge(0, 1, length=3.0)
        network, _ = from_networkx(
            graph, weight="length", x_attr="lon", y_attr="lat"
        )
        assert network.edge_cost(0, 1) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            from_networkx(nx.Graph())

    def test_disconnected_honours_flag(self):
        graph = nx.Graph()
        for i, (x, y) in enumerate([(0, 0), (1, 0), (9, 9), (10, 9)]):
            graph.add_node(i, x=float(x), y=float(y))
        graph.add_edge(0, 1, weight=1.0)
        graph.add_edge(2, 3, weight=1.0)
        with pytest.raises(GraphError):
            from_networkx(graph)
        network, _ = from_networkx(graph, validate_connected=False)
        assert not network.is_connected()
