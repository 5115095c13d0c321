"""Goal-directed point-to-point search: A* and ALT landmarks.

The paper's core efficiency complaint about prior work is the cost of
repeated point-to-point distance computations on road networks.  Two
standard accelerations are provided as substrate:

* :func:`astar_path` / :func:`astar_distance` — A* with the Euclidean
  heuristic.  Admissible on every network in this package because edge
  costs are at least the Euclidean gap between their endpoints (the
  generators and the DIMACS loader guarantee it), and consistent
  because the Euclidean metric satisfies the triangle inequality.
* :class:`LandmarkIndex` — ALT (A*, Landmarks, Triangle inequality)
  lower bounds: precompute distances from a few far-apart landmarks;
  ``max_l |d_l(u) − d_l(v)|`` lower-bounds ``dist(u, v)`` and usually
  dominates the Euclidean heuristic, shrinking the search further.

Both return exactly the Dijkstra answers (the test suite cross-checks
them); only the explored region differs.

Both ride the shared :class:`~repro.network.engine.SearchEngine`: the
A* loop iterates the engine's CSR arrays and accounts its work to the
``astar`` stats phase, and landmark tables are cached engine SSSP rows
(shared, read-only), so rebuilding an index reuses earlier sweeps.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import ConfigurationError, GraphError
from .engine import engine_for
from .graph import RoadNetwork

Heuristic = Callable[[int], float]


def _euclidean_heuristic(network: RoadNetwork, target: int) -> Heuristic:
    tx, ty = network.coordinate(target)

    def h(node: int) -> float:
        x, y = network.coordinate(node)
        return math.hypot(x - tx, y - ty)

    return h


def astar_path(
    network: RoadNetwork,
    source: int,
    target: int,
    *,
    heuristic: Optional[Heuristic] = None,
) -> Tuple[List[int], float]:
    """The cheapest ``source -> target`` path via A*.

    Args:
        network: the road network.
        source / target: endpoint nodes.
        heuristic: admissible lower bound of the remaining distance to
            ``target``; defaults to the Euclidean heuristic.

    Returns:
        ``(path, cost)`` — identical to :meth:`SearchEngine.path`.

    Raises:
        GraphError: if ``target`` is unreachable.
    """
    if heuristic is None:
        heuristic = _euclidean_heuristic(network, target)
    engine = engine_for(network)
    csr = engine.csr
    indptr, targets, costs = csr.indptr, csr.targets, csr.costs
    stats = engine.counters("astar")
    g: Dict[int, float] = {source: 0.0}
    parent: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(heuristic(source), source)]
    settled: set = set()
    stats.searches += 1
    stats.pushes += 1
    while heap:
        _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        stats.settled += 1
        if u == target:
            path = [target]
            while path[-1] != source:
                path.append(parent[path[-1]])
            path.reverse()
            return path, g[target]
        gu = g[u]
        # Known pre-ratchet hot loop (ROADMAP item 2): the A* relaxation
        # still walks the CSR slice in Python pending an ALT kernel
        # primitive.  Counted by lint-baseline.json — may only shrink.
        for i in range(indptr[u], indptr[u + 1]):  # reprolint: disable=RL012
            v = targets[i]
            ng = gu + costs[i]
            if ng < g.get(v, math.inf):
                g[v] = ng
                parent[v] = u
                heapq.heappush(heap, (ng + heuristic(v), v))
                stats.pushes += 1
    raise GraphError(f"node {target} unreachable from {source}")


def astar_distance(
    network: RoadNetwork,
    source: int,
    target: int,
    *,
    heuristic: Optional[Heuristic] = None,
) -> float:
    """``dist(source, target)`` via A* (see :func:`astar_path`)."""
    if source == target:
        return 0.0
    _, cost = astar_path(network, source, target, heuristic=heuristic)
    return cost


class LandmarkIndex:
    """ALT lower bounds from far-apart landmarks.

    Args:
        network: the road network.
        num_landmarks: how many landmarks to place (4-16 is typical).
        seed_node: the farthest-point selection starts from here.

    Landmark selection is the standard farthest-point heuristic: start
    anywhere, repeatedly add the node maximizing the distance to the
    nearest already-chosen landmark.  Preprocessing runs one Dijkstra
    per landmark (O(L · |E| log |V|)).
    """

    def __init__(
        self,
        network: RoadNetwork,
        num_landmarks: int = 8,
        *,
        seed_node: int = 0,
    ) -> None:
        if num_landmarks < 1:
            raise ConfigurationError("need at least one landmark")
        if not (0 <= seed_node < network.num_nodes):
            raise ConfigurationError(f"seed node {seed_node} outside network")
        self._network = network
        self._engine = engine_for(network)
        self.landmarks: List[int] = []
        self._tables: List[List[float]] = []

        # Farthest-point placement (the seed's sweep is only used to
        # pick the first real landmark — the far end of the network).
        # Landmark tables come from the shared engine: SSSP rows are
        # cached, so rebuilding an index (or an engine phase later
        # searching from a landmark node) reuses them.  Cached rows are
        # shared objects — this class only ever reads them.
        sweep = self._engine.sssp(seed_node, phase="landmarks")
        first = max(
            network.nodes(),
            key=lambda v: sweep[v] if math.isfinite(sweep[v]) else -1.0,
        )
        self._add_landmark(first)
        while len(self.landmarks) < min(num_landmarks, network.num_nodes):
            nearest = [
                min(table[v] for table in self._tables)
                for v in network.nodes()
            ]
            farthest = max(
                network.nodes(),
                key=lambda v: nearest[v] if math.isfinite(nearest[v]) else -1.0,
            )
            if farthest in self.landmarks:
                break
            self._add_landmark(farthest)

    def _add_landmark(self, node: int) -> None:
        self.landmarks.append(node)
        self._tables.append(self._engine.sssp(node, phase="landmarks"))

    def lower_bound(self, u: int, v: int) -> float:
        """``max_l |d_l(u) − d_l(v)|`` — a valid lower bound of
        ``dist(u, v)`` by the triangle inequality."""
        best = 0.0
        for table in self._tables:
            du, dv = table[u], table[v]
            if math.isfinite(du) and math.isfinite(dv):
                gap = abs(du - dv)
                if gap > best:
                    best = gap
        return best

    def heuristic_to(self, target: int) -> Heuristic:
        """An A* heuristic toward ``target``: the ALT bound, floored by
        the Euclidean gap (both admissible; the max still is)."""
        tx, ty = self._network.coordinate(target)
        tables = self._tables
        target_values = [table[target] for table in tables]
        coords = self._network.coordinate

        def h(node: int) -> float:
            x, y = coords(node)
            best = math.hypot(x - tx, y - ty)
            for table, dt in zip(tables, target_values):
                dn = table[node]
                if math.isfinite(dn) and math.isfinite(dt):
                    gap = abs(dn - dt)
                    if gap > best:
                        best = gap
            return best

        return h

    def distance(self, source: int, target: int) -> float:
        """Exact ``dist(source, target)`` via ALT-guided A*."""
        if source == target:
            return 0.0
        return astar_distance(
            self._network, source, target, heuristic=self.heuristic_to(target)
        )
