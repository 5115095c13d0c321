"""One Algorithm 2 run per cold start: repricing equals a scratch run.

Candidate gains do not depend on ``α``; only the existing-stop entries
``initial_utility[s] = α · degree(s)`` do.  So an artifact computed at
one ``α`` and repriced to another must equal ``preprocess_queries`` run
from scratch at the second ``α`` — every field, dict insertion order,
``searches`` and ``settled_nodes`` included — for both strategies on
both kernels over the three city families.
"""

import pytest

from repro.core.preprocess import preprocess_queries
from repro.core.utility import BRRInstance
from repro.datasets.cities import CityDataset
from repro.demand.generators import hotspot_demand
from repro.eval.experiments import calibrated_alpha, calibrated_instance
from repro.network.engine import SearchEngine
from repro.network.generators import grid_city, radial_city, sprawl_city
from repro.transit.builder import build_transit_network

FAMILIES = ["grid", "radial", "sprawl"]
STRATEGIES = ["per-query", "inverted"]
KERNELS = ["python", "vectorized"]


def _dataset(family, seed=3):
    if family == "grid":
        network = grid_city(6, 6, seed=seed)
    elif family == "radial":
        network = radial_city(num_boroughs=3, nodes_per_borough=40, seed=seed)
    else:
        network = sprawl_city(num_nodes=120, seed=seed)
    transit = build_transit_network(
        network, num_routes=4, seed=seed + 1, stop_spacing_km=0.8
    )
    queries = hotspot_demand(
        network, 400, num_hotspots=4, transit=transit, seed=seed + 2
    )
    return CityDataset(family, network, transit, queries)


def assert_same_artifact(actual, expected):
    for name in ("nn_distance", "rnn", "initial_utility"):
        assert list(getattr(actual, name).items()) == list(
            getattr(expected, name).items()
        ), name
    assert actual.searches == expected.searches
    assert actual.settled_nodes == expected.settled_nodes
    assert actual.strategy == expected.strategy
    assert actual.utility_order() == expected.utility_order()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("family", FAMILIES)
def test_repriced_equals_scratch(family, strategy, kernel):
    dataset = _dataset(family)
    base_instance = dataset.instance(1.0)
    base = preprocess_queries(
        base_instance,
        engine=SearchEngine(dataset.network, kernel=kernel),
        strategy=strategy,
    )
    before = list(base.initial_utility.items())
    instance = dataset.instance(7.5)
    scratch = preprocess_queries(
        instance,
        engine=SearchEngine(dataset.network, kernel=kernel),
        strategy=strategy,
    )
    assert_same_artifact(base.repriced(instance), scratch)
    assert list(base.initial_utility.items()) == before  # not mutated


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("family", FAMILIES)
def test_calibrated_instance_equals_separate_runs(family, strategy):
    """α from the shared run equals α from a separate calibration, and
    the artifact equals a scratch run at that α."""
    alpha, instance, preprocess = calibrated_instance(
        _dataset(family), strategy=strategy
    )
    assert alpha == calibrated_alpha(_dataset(family))
    assert instance.alpha == alpha
    scratch = preprocess_queries(
        BRRInstance(instance.transit, instance.queries, alpha=alpha),
        strategy=strategy,
    )
    assert_same_artifact(preprocess, scratch)


def test_calibrated_instance_with_given_alpha():
    dataset = _dataset("grid")
    alpha, instance, preprocess = calibrated_instance(dataset, 2.5)
    assert alpha == instance.alpha == 2.5
    assert not dataset.alpha_bases  # nothing calibrated
    assert_same_artifact(preprocess, preprocess_queries(dataset.instance(2.5)))
