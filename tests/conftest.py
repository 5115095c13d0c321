"""Shared test fixtures.

The central fixture is the **paper toy instance**: the road network of
Figure 2 with the transit routes, candidate stops, and queries of
Examples 1-10, reconstructed so that every worked number in the paper
(walking costs, utilities, prices, thresholds, selection order) can be
asserted exactly:

* nodes (0-based here, ``v1..v8`` in the paper)::

      v1 --4-- v2 --4-- v3 --4-- v4 --4-- v5
                        /|\\      |
                      3/ | \\4   3|
                     v6  |  v8   v7
                       \\4______/
                        (v6--v7)

* edges: (v1,v2,4) (v2,v3,4) (v3,v4,4) (v4,v5,4) (v3,v6,3) (v3,v8,4)
  (v4,v7,3) (v6,v7,4);
* ``S_existing = {v1, v2}`` served by four routes — routes 1, 2 pass
  v1, route 3 passes v1 and v2, route 4 passes v2 (Example 1);
* ``S_new = {v3, v4, v5}`` (Example 5);
* queries ``q1=(v6,v1), q2=(v1,v7), q3=(v8,v1)`` so that
  ``Q = {v1,v1,v1,v6,v7,v8}`` (Example 3).

Checks derivable from the paper: ``Walk(S_existing)=26``,
``Walk({v1..v4})=10``, ``Connect({v1})=3``, ``Connect({v1,v2})=4``,
``U({v1,v2,v3,v4})=20`` at α=1, ``U(v3)=12``, ``U(v4)=8``, ``U(v5)=4``,
``p(v3,{v1})=2``, ``p(v2,{v1})=1``, ``lbp(v4)=3`` (Example 9).
"""

from __future__ import annotations

import pytest

from repro.core.utility import BRRInstance
from repro.demand.query import QuerySet, TransitQuery
from repro.network.graph import RoadNetwork
from repro.transit.network import TransitNetwork
from repro.transit.route import BusRoute

# 0-based ids for the paper's v1..v8
V1, V2, V3, V4, V5, V6, V7, V8 = range(8)

TOY_COORDS = [
    (0.0, 0.0),   # v1
    (4.0, 0.0),   # v2
    (8.0, 0.0),   # v3
    (12.0, 0.0),  # v4
    (16.0, 0.0),  # v5
    (8.0, 3.0),   # v6
    (12.0, 3.0),  # v7
    (8.0, -4.0),  # v8
]

TOY_EDGES = [
    (V1, V2, 4.0),
    (V2, V3, 4.0),
    (V3, V4, 4.0),
    (V4, V5, 4.0),
    (V3, V6, 3.0),
    (V3, V8, 4.0),
    (V4, V7, 3.0),
    (V6, V7, 4.0),
]


@pytest.fixture
def toy_network() -> RoadNetwork:
    """The Figure 2 road network."""
    return RoadNetwork(TOY_COORDS, TOY_EDGES)


@pytest.fixture
def toy_transit(toy_network) -> TransitNetwork:
    """Example 1: four routes; v1 serves routes 1-3, v2 serves 3-4."""
    routes = [
        BusRoute("route_1", [V1]),
        BusRoute("route_2", [V1]),
        BusRoute("route_3", [V1, V2], [V1, V2]),
        BusRoute("route_4", [V2]),
    ]
    return TransitNetwork(toy_network, routes)


@pytest.fixture
def toy_queries(toy_network) -> QuerySet:
    """Example 3: Q = {v1, v1, v1, v6, v7, v8}."""
    queries = [
        TransitQuery(V6, V1),
        TransitQuery(V1, V7),
        TransitQuery(V8, V1),
    ]
    return QuerySet.from_queries(toy_network, queries, name="toy")


@pytest.fixture
def toy_instance(toy_transit, toy_queries) -> BRRInstance:
    """The full Example 5 instance: S_new = {v3, v4, v5}, alpha = 1."""
    return BRRInstance(
        toy_transit, toy_queries, candidates=[V3, V4, V5], alpha=1.0
    )


# ----------------------------------------------------------------------
# Generic small fixtures
# ----------------------------------------------------------------------


@pytest.fixture
def line_network() -> RoadNetwork:
    """A 6-node path graph with unit edges at integer coordinates."""
    coords = [(float(i), 0.0) for i in range(6)]
    edges = [(i, i + 1, 1.0) for i in range(5)]
    return RoadNetwork(coords, edges)


@pytest.fixture
def grid_network() -> RoadNetwork:
    """A deterministic 6x6 unit grid (36 nodes)."""
    coords = []
    index = {}
    for r in range(6):
        for c in range(6):
            index[(r, c)] = len(coords)
            coords.append((float(c), float(r)))
    edges = []
    for (r, c), u in index.items():
        if (r, c + 1) in index:
            edges.append((u, index[(r, c + 1)], 1.0))
        if (r + 1, c) in index:
            edges.append((u, index[(r + 1, c)], 1.0))
    return RoadNetwork(coords, edges)


def half_demand(dataset):
    """``dataset`` with every other demand query kept: a different
    instance over the same network and transit."""
    from repro.datasets.cities import CityDataset
    from repro.demand.query import QuerySet

    queries = QuerySet(dataset.network, dataset.queries.nodes[::2])
    return CityDataset(dataset.name, dataset.network, dataset.transit, queries)


@pytest.fixture
def small_city():
    """A cached small synthetic city for integration tests."""
    from repro.datasets import load_city

    return load_city("chicago", scale=0.06, seed=42)
