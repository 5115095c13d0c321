"""Cross-process trace collection: a ``sweep_plans(workers=N)`` run must
produce one coherent trace — spans from every worker lane, merged under
the parent's ``sweep`` span, with ``search.*`` metric totals exactly
what the workers measured — while a serial ``plan_route`` stays on the
main lane."""

import pytest

import repro.obs as obs
from repro.core.config import EBRRConfig
from repro.core.ebrr import plan_route
from repro.core.utility import BRRInstance
from repro.demand.generators import hotspot_demand
from repro.network.engine import SearchEngine
from repro.network.generators import grid_city
from repro.parallel import sweep_plans
from repro.transit.builder import build_transit_network

pytestmark = pytest.mark.parallel


def _instance(seed=3):
    network = grid_city(8, 8, seed=seed)
    transit = build_transit_network(
        network, num_routes=4, seed=seed + 1, stop_spacing_km=0.8
    )
    queries = hotspot_demand(
        network, 300, num_hotspots=4, transit=transit, seed=seed + 2
    )
    return BRRInstance(transit, queries, alpha=5.0)


def _traced_plan(instance, strategy=None):
    # A fresh engine per run: a shared one would serve later runs from
    # cache and skew the search counters.
    engine = SearchEngine(instance.network)
    config = EBRRConfig(
        max_stops=10, max_adjacent_cost=2.0, alpha=5.0,
        preprocess_strategy=strategy,
    )
    with obs.tracing() as trace:
        result = plan_route(instance, config, engine=engine)
    return trace, result


def _traced_sweep(instance, workers):
    configs = [
        EBRRConfig(max_stops=k, max_adjacent_cost=2.0, alpha=5.0)
        for k in (6, 8, 10, 12)
    ]
    with obs.tracing() as trace:
        results = sweep_plans(instance, configs, workers=workers)
    return trace, results


def _invariant_counts(stats):
    # ``pushes`` is backend-defined; every other counter is contract.
    return (stats.searches, stats.settled, stats.truncated)


class TestPlanRouteFoldBack:
    """``plan_route`` runs in sweep workers fold their spans, metrics
    and kernel choice back into the parent's trace."""

    @pytest.mark.parametrize("workers", [2])
    def test_kernels_agree_across_process_boundaries(self, workers):
        """A kernel named in the config pickles by name into the sweep
        workers, and the swept routes are bit-identical across
        backends, as are the parent's invariant preprocess counters."""
        traces, results, engines = {}, {}, {}
        for kernel in ("python", "vectorized"):
            instance = _instance()
            configs = [
                EBRRConfig(
                    max_stops=k, max_adjacent_cost=2.0, alpha=5.0, kernel=kernel
                )
                for k in (6, 10)
            ]
            engines[kernel] = SearchEngine(instance.network, kernel=kernel)
            with obs.tracing() as traces[kernel]:
                results[kernel] = sweep_plans(
                    instance, configs, workers=workers, engine=engines[kernel]
                )
        for a, b in zip(results["python"], results["vectorized"]):
            assert a.route.stops == b.route.stops
            assert a.route.path == b.route.path
            assert a.metrics.utility == b.metrics.utility
        invariant = {
            kernel: _invariant_counts(engines[kernel].counters("preprocess"))
            for kernel in engines
        }
        assert invariant["python"] == invariant["vectorized"]
        # The gauge, shipped home in the worker shards, records which
        # backend ran the searches.
        assert traces["python"].metrics.gauges["search.kernel"].value == 0
        assert traces["vectorized"].metrics.gauges["search.kernel"].value == 1

    @pytest.mark.parametrize("workers", [2, 4])
    def test_trace_has_worker_lanes(self, workers):
        trace, _ = _traced_sweep(_instance(), workers=workers)
        lanes = {span.lane for span in trace.spans}
        assert "main" in lanes
        worker_lanes = {l for l in lanes if l.startswith("worker-")}
        assert worker_lanes, f"no worker lanes in {sorted(lanes)}"
        plan_lanes = {
            span.lane for span in trace.spans if span.name == "plan_route"
        }
        assert plan_lanes <= worker_lanes

    def test_merged_trace_exports_valid_chrome_json(self):
        trace, _ = _traced_sweep(_instance(), workers=2)
        obj = obs.chrome_trace(trace)
        assert obs.validate_chrome_trace(obj) == []
        lanes = obj["metadata"]["lanes"]
        assert lanes[0] == "main" and len(lanes) >= 2

    def test_serial_run_ships_no_shards(self):
        trace, _ = _traced_plan(_instance())
        assert {span.lane for span in trace.spans} == {"main"}
        assert any(span.name == "preprocess.searches" for span in trace.spans)


class TestSweepFoldBack:
    def test_sweep_shards_carry_worker_plan_spans(self):
        instance = _instance()
        configs = [
            EBRRConfig(max_stops=k, max_adjacent_cost=2.0, alpha=5.0)
            for k in (6, 8, 10, 12)
        ]
        with obs.tracing() as trace:
            results = sweep_plans(instance, configs, workers=2)
        assert len(results) == 4
        lanes = {span.lane for span in trace.spans}
        assert any(l.startswith("worker-") for l in lanes)
        plan_spans = [s for s in trace.spans if s.name == "plan_route"]
        assert len(plan_spans) == 4  # one per config, shipped home
        sweep_span = next(s for s in trace.spans if s.name == "sweep")
        by_index = {s.index: s for s in trace.spans}
        for plan_span in plan_spans:
            assert by_index[plan_span.parent] is sweep_span
        assert obs.validate_chrome_trace(obs.chrome_trace(trace)) == []

    def test_sweep_trace_metrics_match_result_stats(self):
        # The trace totals must equal the sum over the results' own
        # search_stats — the workers recorded them, shards shipped them,
        # nothing was double-counted on merge.
        instance = _instance()
        configs = [
            EBRRConfig(max_stops=k, max_adjacent_cost=2.0, alpha=5.0)
            for k in (6, 10)
        ]
        with obs.tracing() as trace:
            results = sweep_plans(instance, configs, workers=2)
        expected = sum(r.total_search_stats.searches for r in results)
        counters = trace.metrics.as_dict()["counters"]
        assert counters["search.total.searches"] == expected


class TestInvertedStrategyTraces:
    """The inverted preprocessing path keeps the same trace discipline
    as per-query: the same route, and the ``preprocess.labels`` /
    ``preprocess.balls`` spans and counters present."""

    def test_strategies_agree_on_route_and_invariant_counters(self):
        instance = _instance()
        traces, results = {}, {}
        for strategy in ("per-query", "inverted"):
            traces[strategy], results[strategy] = _traced_plan(
                instance, strategy=strategy
            )
        assert (
            results["per-query"].route.stops == results["inverted"].route.stops
        )
        assert (
            results["per-query"].route.path == results["inverted"].route.path
        )

    def test_preprocess_spans_and_counters_present(self):
        trace, _ = _traced_plan(_instance(), strategy="inverted")
        names = {span.name for span in trace.spans}
        assert "preprocess.labels" in names
        assert "preprocess.balls" in names
        counters = trace.metrics.as_dict()["counters"]
        assert counters["preprocess.labels.sources"] > 0
        assert counters["preprocess.labels.reachable"] > 0
        assert counters["preprocess.balls.count"] > 0
        assert counters["preprocess.balls.settled"] > 0
