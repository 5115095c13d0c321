"""The vk-TSP baseline [Wang, Bao, Culpepper, Sellis, Qin — VLDB 2019].

vk-TSP comes from trajectory clustering: it defines a distance between
two paths and searches for the route minimizing the summed distance
from all demand trajectories, built greedily by "appending new edges
shown in many trajectories into the route".  The reimplementation
follows that recipe:

1. synthesize trajectories from the demand (offline, reported as
   ``preprocess`` time) and pick the single most-traversed edge as the
   seed;
2. repeatedly evaluate, at both ends of the current path, every unused
   incident edge by how much appending it *reduces the summed
   route-to-trajectory distance* (each trajectory's distance is its
   minimum point distance to the route — the directed-Hausdorff flavour
   the original uses), and append the best;
3. stop once the path is long enough to host ``K`` stops, then drop
   ``K`` stops evenly along it.

Step 2 re-evaluates trajectory distances at every greedy step — the
expensive part of the original system, kept faithfully (vectorized, but
still the dominating cost).  Like ETA-Pre, vk-TSP emits exactly ``K``
stops and ignores the ``C`` constraint.  Busy corridors run through the
established demand centres, so its stops tend to land where coverage
already exists — the behaviour the paper's effectiveness plots show.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.config import EBRRConfig
from ..core.ebrr import evaluate_route
from ..core.utility import BRRInstance
from ..exceptions import ConfigurationError
from ..obs import span, stopwatch
from ..transit.builder import place_stops_along_path
from ..transit.route import BusRoute
from .base import BaselinePlan, RoutePlanner
from .eta_pre import _cap_stops
from .trajectories import EdgeKey, edge_frequencies, synthesize_trajectories


class VkTSP(RoutePlanner):
    """See module docstring.

    Args:
        trajectories_per_query: trajectory count as a fraction of |Q|
            (capped at 3000 for tractability).
        stop_spacing_km: spacing used to drop stops on the grown path.
        length_factor: target path length as a multiple of
            ``K · stop_spacing_km``.
        seed: RNG seed for trajectory synthesis.
    """

    name = "vk-TSP"

    def __init__(
        self,
        *,
        trajectories_per_query: float = 0.25,
        stop_spacing_km: float = 0.6,
        length_factor: float = 1.5,
        seed: int = 0,
    ) -> None:
        self._traj_fraction = trajectories_per_query
        self._spacing = stop_spacing_km
        self._length_factor = length_factor
        self._seed = seed
        self._cache: Optional[_TrajectoryIndex] = None
        self._cache_instance: Optional[BRRInstance] = None

    def plan(self, instance: BRRInstance, config: EBRRConfig) -> BaselinePlan:
        timings: Dict[str, float] = {}
        with span("baseline.vk_tsp"):
            with stopwatch(timings, "preprocess"), span("preprocess"):
                index = self._preprocess(instance)

            with stopwatch(timings, "query"), span("query"):
                path = self._grow(instance, index, config)
                stops = place_stops_along_path(
                    instance.network, path, self._spacing
                )
                stops = _cap_stops(stops, config.max_stops)
                if len(stops) < 2:
                    raise ConfigurationError("vk-TSP produced a degenerate route")
                route = BusRoute("vk_tsp", stops, path)
        timings["total"] = timings["query"]
        metrics = evaluate_route(instance, route)
        return BaselinePlan(route=route, metrics=metrics, timings=timings)

    def invalidate_cache(self) -> None:
        self._cache = None
        self._cache_instance = None

    # ------------------------------------------------------------------

    def _preprocess(self, instance: BRRInstance) -> "_TrajectoryIndex":
        if self._cache is not None and self._cache_instance is instance:
            return self._cache
        count = max(10, min(3000, int(len(instance.queries) * self._traj_fraction)))
        trajectories = synthesize_trajectories(
            instance.queries, count, seed=self._seed
        )
        self._cache = _TrajectoryIndex(instance, trajectories)
        self._cache_instance = instance
        return self._cache

    def _grow(
        self,
        instance: BRRInstance,
        index: "_TrajectoryIndex",
        config: EBRRConfig,
    ) -> List[int]:
        network = instance.network
        seed_u, seed_v = index.busiest_edge()
        path: List[int] = [seed_u, seed_v]
        in_path: Set[int] = {seed_u, seed_v}
        length = network.edge_cost(seed_u, seed_v)
        target = config.max_stops * self._spacing * self._length_factor

        current = np.minimum(
            index.distances_from_node(seed_u), index.distances_from_node(seed_v)
        )
        while length < target:
            best: Optional[Tuple[float, str, int, float, np.ndarray]] = None
            for side, endpoint in (("tail", path[-1]), ("head", path[0])):
                for neighbor, cost in network.neighbors(endpoint):
                    if neighbor in in_path:
                        continue
                    per_traj = index.distances_from_node(neighbor)
                    gain = float(np.maximum(current - per_traj, 0.0).sum())
                    score = gain + 1e-3 * index.edge_frequency(endpoint, neighbor)
                    if best is None or score > best[0]:
                        best = (score, side, neighbor, cost, per_traj)
            if best is None:
                break
            _, side, node, cost, per_traj = best
            if side == "tail":
                path.append(node)
            else:
                path.insert(0, node)
            in_path.add(node)
            length += cost
            np.minimum(current, per_traj, out=current)
        return path


class _TrajectoryIndex:
    """Vectorized route-to-trajectory distance evaluation.

    Flattens all trajectory node coordinates into one array and keeps
    ``reduceat`` offsets per trajectory, so the per-trajectory minimum
    distance from a single route node is one vectorized pass.
    """

    def __init__(self, instance: BRRInstance, trajectories: List[List[int]]) -> None:
        coords = instance.network.coordinates()
        points: List[Tuple[float, float]] = []
        offsets: List[int] = []
        for path in trajectories:
            offsets.append(len(points))
            # Light decimation (every 2nd node plus the endpoint): the
            # route-to-trajectory distance is the baseline's dominant,
            # faithful cost and must scale with the trajectory data.
            sampled = path[::2]
            if sampled[-1] != path[-1]:
                sampled.append(path[-1])
            points.extend(coords[v] for v in sampled)
        self._points = np.asarray(points, dtype=float)
        self._offsets = np.asarray(offsets, dtype=np.intp)
        self._coords = coords
        self._frequencies = edge_frequencies(trajectories)

    def busiest_edge(self) -> EdgeKey:
        if not self._frequencies:
            raise ConfigurationError("no trajectory edges to grow from")
        return max(self._frequencies.items(), key=lambda kv: (kv[1], -kv[0][0]))[0]

    def edge_frequency(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        return self._frequencies.get(key, 0)

    def distances_from_node(self, node: int) -> np.ndarray:
        """Per-trajectory minimum Euclidean distance to ``node``."""
        x, y = self._coords[node]
        diff = self._points - (x, y)
        dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        return np.minimum.reduceat(dists, self._offsets)
