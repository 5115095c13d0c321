"""Golden fingerprints of the generated datasets.

Generator work (faster snapping, vectorised draws) must not change the
data.  Each digest covers the CSR arrays, the node coordinates, the
existing stops, every route's stop sequence and the query list *in
order*, so a change to the draw stream or to a single snap shows up.
The commute and ridership generators are pinned the same way.

Regenerate (only when a change is meant to alter the data, and say why
in the change) with::

    PYTHONPATH=src python tests/datasets/test_golden_fingerprints.py > \\
        tests/datasets/golden_fingerprints.json
"""

from __future__ import annotations

import hashlib
import json
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterable

import pytest

from repro.datasets.cities import chicago, nyc, orlando
from repro.demand.generators import commute_demand
from repro.demand.ridership import ridership_demand
from repro.network.csr import CSRAdjacency

GOLDEN = Path(__file__).with_name("golden_fingerprints.json")
CITIES = {"chicago": chicago, "nyc": nyc, "orlando": orlando}
SCALES = (0.05, 0.15)


def _ints(values: Iterable[int]) -> bytes:
    return array("q", values).tobytes()


def dataset_digest(dataset) -> str:
    digest = hashlib.sha256()
    csr = CSRAdjacency(dataset.network)
    digest.update(_ints(csr.indptr))
    digest.update(_ints(csr.targets))
    digest.update(array("d", csr.costs).tobytes())
    digest.update(
        array("d", [c for xy in dataset.network.coordinates() for c in xy]).tobytes()
    )
    digest.update(_ints(dataset.transit.existing_stops))
    for route in dataset.transit.routes():
        digest.update(_ints(route.stops))
    digest.update(_ints(dataset.queries.nodes))
    return digest.hexdigest()


def _commute_digest() -> str:
    dataset = chicago(0.05)
    queries = commute_demand(dataset.network, 3000, seed=3)
    flat = [v for query in queries for v in query.nodes()]
    return hashlib.sha256(_ints(flat)).hexdigest()


def _ridership_digest() -> str:
    dataset = orlando(0.05)
    queries = ridership_demand(dataset.transit, 3000, seed=5)
    return hashlib.sha256(_ints(queries.nodes)).hexdigest()


GENERATORS: Dict[str, Callable[[], str]] = {
    **{
        f"{name}@{scale:g}": (
            lambda builder=builder, scale=scale: dataset_digest(builder(scale))
        )
        for name, builder in CITIES.items()
        for scale in SCALES
    },
    "commute_demand:chicago@0.05": _commute_digest,
    "ridership_demand:orlando@0.05": _ridership_digest,
}


def compute_all() -> Dict[str, str]:
    return {key: make() for key, make in GENERATORS.items()}


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_generator(golden):
    assert sorted(golden) == sorted(GENERATORS)


@pytest.mark.parametrize("key", sorted(GENERATORS))
def test_fingerprint_matches_golden(key, golden):
    assert GENERATORS[key]() == golden[key], (
        f"{key} changed; regenerate only if the data is meant to change"
    )


if __name__ == "__main__":
    print(json.dumps(compute_all(), indent=2, sort_keys=True))
