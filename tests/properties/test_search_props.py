"""Property tests for the accelerated searches (A*, ALT, CH, Yen):
every one must return exactly the Dijkstra answers on random graphs."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.astar import LandmarkIndex, astar_distance, astar_path
from repro.network.contraction import ContractionHierarchy
from repro.network.engine import engine_for
from repro.network.graph import RoadNetwork
from repro.network.ksp import k_shortest_paths


@st.composite
def planar_networks(draw):
    """Random connected graphs whose edge costs respect the Euclidean
    lower bound (required by the A* heuristic)."""
    n = draw(st.integers(min_value=3, max_value=14))
    coords = [
        (draw(st.floats(0, 10)), draw(st.floats(0, 10))) for _ in range(n)
    ]

    def edge(u, v):
        base = math.dist(coords[u], coords[v])
        detour = draw(st.floats(min_value=1.0, max_value=1.5))
        return (u, v, max(base * detour, 1e-6))

    edges = [edge(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for _ in range(draw(st.integers(0, n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.append(edge(u, v))
    return RoadNetwork(coords, edges)


@settings(max_examples=30, deadline=None)
@given(network=planar_networks(), seed=st.integers(0, 10 ** 6))
def test_astar_matches_dijkstra(network, seed):
    source = seed % network.num_nodes
    costs = engine_for(network).sssp(source)
    for target in range(network.num_nodes):
        assert astar_distance(network, source, target) == pytest.approx(
            costs[target]
        )


@settings(max_examples=15, deadline=None)
@given(network=planar_networks(), seed=st.integers(0, 10 ** 6))
def test_alt_matches_dijkstra(network, seed):
    index = LandmarkIndex(network, num_landmarks=3)
    source = seed % network.num_nodes
    costs = engine_for(network).sssp(source)
    for target in range(network.num_nodes):
        assert index.distance(source, target) == pytest.approx(costs[target])


@settings(max_examples=20, deadline=None)
@given(network=planar_networks(), seed=st.integers(0, 10 ** 6))
def test_astar_engine_equivalence(network, seed):
    """A* now rides the SearchEngine's CSR: its answers must match the
    engine's, its work must be accounted to the 'astar' phase, and the
    heuristic path must produce a valid path of the optimal cost."""
    engine = engine_for(network)
    source = seed % network.num_nodes
    target = (seed // 13) % network.num_nodes
    row = engine.sssp(source, phase="equivalence")
    # The engine row is bit-identical to the legacy free function.
    assert row == engine_for(network).sssp(source)
    assert astar_distance(network, source, target) == pytest.approx(row[target])
    if source != target:
        before = engine.counters("astar").copy()
        path, cost = astar_path(network, source, target)
        after = engine.counters("astar")
        assert after.searches == before.searches + 1
        assert after.settled > before.settled
        assert cost == pytest.approx(row[target])
        assert path[0] == source and path[-1] == target
        assert network.path_cost(path) == pytest.approx(cost)


@settings(max_examples=15, deadline=None)
@given(network=planar_networks(), seed=st.integers(0, 10 ** 6))
def test_landmark_tables_ride_the_engine_cache(network, seed):
    """LandmarkIndex sweeps are engine SSSP rows: bit-identical to the
    legacy Dijkstra and shared with (not recomputed by) the cache."""
    index = LandmarkIndex(network, num_landmarks=2, seed_node=seed % network.num_nodes)
    engine = engine_for(network)
    for landmark, table in zip(index.landmarks, index._tables):
        assert table == engine_for(network).sssp(landmark)
        # A later engine query from the same landmark is a cache hit
        # returning the very same row object.
        assert engine.sssp(landmark, phase="reuse") is table


@settings(max_examples=15, deadline=None)
@given(network=planar_networks(), seed=st.integers(0, 10 ** 6))
def test_ch_matches_dijkstra(network, seed):
    ch = ContractionHierarchy(network)
    source = seed % network.num_nodes
    costs = engine_for(network).sssp(source)
    for target in range(network.num_nodes):
        assert ch.distance(source, target) == pytest.approx(costs[target])


@settings(max_examples=15, deadline=None)
@given(network=planar_networks(), seed=st.integers(0, 10 ** 6))
def test_yen_first_path_and_ordering(network, seed):
    source = seed % network.num_nodes
    target = (seed // 7) % network.num_nodes
    if source == target:
        return
    paths = k_shortest_paths(network, source, target, 4)
    costs = engine_for(network).sssp(source)
    assert paths[0][1] == pytest.approx(costs[target])
    values = [c for _, c in paths]
    assert values == sorted(values)
    for path, cost in paths:
        assert len(set(path)) == len(path)
        assert network.path_cost(path) == pytest.approx(cost)
