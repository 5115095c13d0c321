"""Uniform planner runner.

Wraps EBRR in the same :class:`~repro.baselines.base.RoutePlanner`
interface the baselines implement, and runs a set of planners on a
shared instance so experiments get comparable rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines.base import BaselinePlan, RoutePlanner
from ..core.config import EBRRConfig
from ..core.ebrr import plan_route
from ..core.preprocess import PreprocessResult, preprocess_queries
from ..core.utility import BRRInstance
from ..obs import span
from ..store import RunStore, store_from_env


class EBRRPlanner(RoutePlanner):
    """EBRR behind the common planner interface.

    Can cache the Algorithm 2 preprocessing per instance — the paper's
    sweeps over ``K``, ``C``, ``α`` re-plan on the same demand, and the
    preprocessing result is identical across them (it only depends on
    the instance and, for the existing-stop utilities, on ``α``, which
    the cache keys on).  Reuse is **off by default** because the paper's
    reported EBRR times *include* Algorithm 2 (EBRR's selling point is
    that it needs no offline phase); effectiveness-only sweeps enable it
    for speed.
    """

    name = "EBRR"

    def __init__(self, *, reuse_preprocessing: bool = False) -> None:
        self._reuse = reuse_preprocessing
        self._cache: Optional[PreprocessResult] = None
        self._cache_key: Optional[Tuple[BRRInstance, float]] = None

    def plan(self, instance: BRRInstance, config: EBRRConfig) -> BaselinePlan:
        preprocess = None
        if self._reuse:
            key = self._cache_key
            if key is not None and key[0] is instance and key[1] == instance.alpha:
                preprocess = self._cache
            else:
                preprocess = preprocess_queries(instance)
                self._cache = preprocess
                self._cache_key = (instance, instance.alpha)
        result = plan_route(instance, config, preprocess=preprocess)
        return BaselinePlan(
            route=result.route, metrics=result.metrics, timings=result.timings
        )

    def invalidate_cache(self) -> None:
        self._cache = None
        self._cache_key = None


def default_planners(*, seed: int = 0) -> List[RoutePlanner]:
    """The paper's three competitors: EBRR, ETA-Pre, vk-TSP."""
    from ..baselines.eta_pre import ETAPre
    from ..baselines.vk_tsp import VkTSP

    return [EBRRPlanner(), ETAPre(seed=seed), VkTSP(seed=seed)]


def run_planners(
    instance: BRRInstance,
    config: EBRRConfig,
    planners: Sequence[RoutePlanner],
    *,
    dataset: Optional[str] = None,
    store: Optional[RunStore] = None,
) -> Dict[str, BaselinePlan]:
    """Run every planner on the same instance/config.

    When an experiment store is given (or ``$REPRO_STORE`` opts in),
    one run row per planner is recorded with its quality metrics and
    phase timings, so comparative experiment grids are queryable via
    ``repro query`` instead of scattered report files.

    Returns:
        ``{planner.name: plan}`` in input order (dicts preserve it).
    """
    plans: Dict[str, BaselinePlan] = {}
    for planner in planners:
        with span("run_planners.plan", planner=planner.name):
            plans[planner.name] = planner.plan(instance, config)
    _record_planner_runs(store, plans, config, dataset=dataset)
    return plans


def _record_planner_runs(
    store: Optional[RunStore],
    plans: Dict[str, BaselinePlan],
    config: EBRRConfig,
    *,
    dataset: Optional[str],
) -> None:
    owned = False
    if store is None:
        store = store_from_env()
        owned = True
    if store is None:
        return
    try:
        for name, plan in plans.items():
            metrics: Dict[str, object] = {
                "K": config.max_stops,
                "C": config.max_adjacent_cost,
                "alpha": config.alpha,
                "utility": plan.metrics.utility,
                "walk_cost": plan.metrics.walk_cost,
                "connectivity": plan.metrics.connectivity,
                "num_stops": plan.metrics.num_stops,
            }
            for phase, seconds in sorted(plan.timings.items()):
                metrics[f"time.{phase}_s"] = seconds
            store.record_run(
                "planner", name, dataset=dataset, config=config,
                metrics=metrics,
            )
    finally:
        if owned:
            store.close()
