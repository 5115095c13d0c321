"""Correctness checks, run in the benchmark process after the timed phase.

* :func:`check_fingerprint` compares a generated dataset against the
  digest pinned in ``fingerprints.json``, so generator work has to show
  that the data did not change.
* :class:`Reference` plans directly in-process with ``plan_route``; the
  benchmark compares what the CLI printed and what the daemon served
  against it.

Importing this module imports ``repro`` from the checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
from array import array
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy

import repro
from repro import EBRRConfig, plan_route
from repro.core.preprocess import PreprocessResult, preprocess_queries
from repro.core.utility import BRRInstance
from repro.datasets.registry import load_city
from repro.demand.query import QuerySet
from repro.eval.experiments import calibrated_alpha
from repro.network.csr import CSRAdjacency

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
#: Datasets built by an earlier run of the same source tree, so that a
#: run's reference checks do not rebuild them (see :func:`cached_city`).
CACHE = Path(__file__).resolve().parent.parent / ".perfbench" / "datasets"


def source_digest() -> str:
    """sha256 over every ``.py`` file of the imported ``repro`` package,
    the Python version and the numpy version: what a generated dataset
    depends on besides the generator seeds."""
    src = Path(repro.__file__).parent
    digest = hashlib.sha256()
    digest.update(f"{sys.version}|numpy {numpy.__version__}".encode())
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cached_city(city: str, scale: float) -> Any:
    """``load_city(city, scale=scale)``, pickled on first use per
    :func:`source_digest`.  The pickle is only ever read back by runs of
    the same source on the same Python and numpy, and the caller
    fingerprints what it gets either way."""
    path = CACHE / f"{city}-{scale:g}-{source_digest()}.pickle"
    if path.exists():
        with open(path, "rb") as handle:
            return pickle.load(handle)
    dataset = load_city(city, scale=scale)
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(dataset, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return dataset


def fingerprint(dataset: Any) -> str:
    """sha256 over the CSR arrays, node coordinates, existing stops, the
    existing routes' stop sequences and the sorted query multiset."""
    digest = hashlib.sha256()
    csr = CSRAdjacency(dataset.network)
    digest.update(array("q", csr.indptr).tobytes())
    digest.update(array("q", csr.targets).tobytes())
    digest.update(array("d", csr.costs).tobytes())
    coords = array("d")
    for x, y in dataset.network.coordinates():
        coords.append(x)
        coords.append(y)
    digest.update(coords.tobytes())
    digest.update(array("q", dataset.transit.existing_stops).tobytes())
    for route in dataset.transit.routes():
        digest.update(array("q", route.stops).tobytes())
    digest.update(array("q", sorted(dataset.queries.nodes)).tobytes())
    return digest.hexdigest()


def check_fingerprint(city: str, scale: float, dataset: Any) -> List[str]:
    pinned = json.loads(FINGERPRINTS.read_text())
    key = f"{city}@{scale:g}"
    actual = fingerprint(dataset)
    if key not in pinned:
        return [f"no pinned fingerprint for {key} (actual {actual})"]
    if pinned[key] != actual:
        return [f"dataset {key} changed: fingerprint {actual}, pinned {pinned[key]}"]
    return []


class Reference:
    """One city planned directly in-process, as the CLI and the daemon
    would (same dataset, calibrated alpha and default config)."""

    def __init__(self, city: str, scale: float) -> None:
        self.city = city
        self.scale = scale
        self.dataset = cached_city(city, scale)
        self.alpha = calibrated_alpha(self.dataset)
        self.instance = self.dataset.instance(self.alpha)
        self._preprocess: Optional[PreprocessResult] = None

    def problems(self) -> List[str]:
        return check_fingerprint(self.city, self.scale, self.dataset)

    def config(self, k: int, c: float) -> EBRRConfig:
        return EBRRConfig(max_stops=k, max_adjacent_cost=c, alpha=self.alpha)

    def plan(self, k: int, c: float) -> Any:
        if self._preprocess is None:
            self._preprocess = preprocess_queries(self.instance)
        return plan_route(self.instance, self.config(k, c), preprocess=self._preprocess)

    def plan_after_updates(
        self, log: Sequence[Tuple[Sequence[int], Sequence[int]]], k: int, c: float
    ) -> Any:
        """Plan on the demand left by ``log`` (``(add, remove)`` per
        update, applied as the daemon applies them) with a scratch
        Algorithm 2 run."""
        nodes = list(self.dataset.queries.nodes)
        for add, remove in log:
            nodes.extend(add)
            for node in remove:
                nodes.remove(node)
        instance = BRRInstance(
            self.dataset.transit,
            QuerySet(self.dataset.network, nodes),
            candidates=self.instance.candidates,
            alpha=self.alpha,
        )
        return plan_route(
            instance, self.config(k, c), preprocess=preprocess_queries(instance)
        )

    def cli_lines(self, k: int, c: float) -> List[str]:
        """What ``repro plan`` prints for this shape, minus the timing."""
        result = self.plan(k, c)
        return [
            f"{self.dataset.name} (scale {self.scale}), alpha={self.alpha:.2f}",
            _untimed(result.summary()),
            "stops: " + " -> ".join(str(s) for s in result.route.stops),
        ]


def _untimed(summary: str) -> str:
    return summary.rsplit(", time=", 1)[0]


def cli_output_lines(stdout: str) -> List[str]:
    """The comparable lines of a ``repro plan`` stdout."""
    lines = stdout.strip().splitlines()
    return [lines[0], _untimed(lines[1]), lines[2]] if len(lines) >= 3 else lines


def plan_body(result: Any) -> Dict[str, Any]:
    """The route-determining fields of a ``/v1/plan`` response body."""
    metrics = result.metrics
    return {
        "route": {
            "route_id": result.route.route_id,
            "stops": list(result.route.stops),
            "path": list(result.route.path),
        },
        "metrics": {
            "utility": metrics.utility,
            "walk_cost": metrics.walk_cost,
            "walk_decrease": metrics.walk_decrease,
            "connectivity": metrics.connectivity,
            "num_stops": metrics.num_stops,
            "route_length": metrics.route_length,
        },
        "feasible": result.is_feasible,
        "violations": list(result.constraint_violations),
    }


def served_view(body: Dict[str, Any]) -> Dict[str, Any]:
    return {key: body.get(key) for key in ("route", "metrics", "feasible", "violations")}
