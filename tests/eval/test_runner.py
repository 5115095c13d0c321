"""Unit tests for the uniform planner runner."""

import pytest

from repro.core.config import EBRRConfig
from repro.eval.runner import EBRRPlanner, default_planners, run_planners

from ..conftest import half_demand


@pytest.fixture
def instance(small_city):
    return small_city.instance(alpha=25.0)


@pytest.fixture
def config():
    return EBRRConfig(max_stops=8, max_adjacent_cost=2.0, alpha=25.0)


class TestEBRRPlanner:
    def test_plan_matches_plan_route(self, instance, config):
        from repro.core.ebrr import plan_route

        plan = EBRRPlanner().plan(instance, config)
        direct = plan_route(instance, config)
        assert plan.route.stops == direct.route.stops
        assert plan.metrics.utility == pytest.approx(direct.metrics.utility)

    def test_reuse_preprocessing_same_answer(self, instance, config):
        cold = EBRRPlanner(reuse_preprocessing=False).plan(instance, config)
        warm_planner = EBRRPlanner(reuse_preprocessing=True)
        warm_planner.plan(instance, config)  # fills the cache
        warm = warm_planner.plan(instance, config)
        assert warm.route.stops == cold.route.stops

    def test_reuse_skips_preprocess_time(self, instance, config):
        planner = EBRRPlanner(reuse_preprocessing=True)
        planner.plan(instance, config)
        second = planner.plan(instance, config)
        assert second.timings["preprocess"] <= 0.01

    def test_invalidate_cache(self, instance, config):
        planner = EBRRPlanner(reuse_preprocessing=True)
        planner.plan(instance, config)
        planner.invalidate_cache()
        refreshed = planner.plan(instance, config)
        assert refreshed.route.num_stops >= 2

    def test_cache_is_not_inherited_through_a_recycled_id(
        self, small_city, config, monkeypatch
    ):
        """Every ``id()`` in the module is forced equal, as when a new
        instance with the same α is allocated where a dead one lived:
        the new instance must get its own Algorithm 2 result."""
        from repro.core.ebrr import plan_route
        from repro.core.preprocess import preprocess_queries
        from repro.eval import runner

        monkeypatch.setattr(runner, "id", lambda obj: 0, raising=False)
        half = half_demand(small_city).instance(alpha=25.0)
        planner = EBRRPlanner(reuse_preprocessing=True)
        planner.plan(small_city.instance(alpha=25.0), config)
        plan = planner.plan(half, config)
        expected = preprocess_queries(half)
        assert planner._cache.initial_utility == expected.initial_utility
        assert plan.route.stops == plan_route(half, config).route.stops

    def test_name(self):
        assert EBRRPlanner().name == "EBRR"


class TestRunPlanners:
    def test_default_planners_names(self):
        names = [p.name for p in default_planners()]
        assert names == ["EBRR", "ETA-Pre", "vk-TSP"]

    def test_all_planners_produce_plans(self, instance, config):
        plans = run_planners(instance, config, default_planners(seed=1))
        assert set(plans) == {"EBRR", "ETA-Pre", "vk-TSP"}
        for plan in plans.values():
            assert plan.route.num_stops >= 2
            assert plan.metrics.walk_cost > 0
            plan.route.validate_on(instance.network)

    def test_order_preserved(self, instance, config):
        planners = default_planners(seed=1)
        plans = run_planners(instance, config, planners)
        assert list(plans) == [p.name for p in planners]
