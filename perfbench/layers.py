"""Per-layer accounting for the traced run.

The launcher (``launcher.py``) wraps the public functions of each layer
with :meth:`Recorder.wrap` before it hands control to ``repro.cli.main``.
A wrapper adds the call's wall time to its layer, and its *self* time
(the time not spent inside another wrapped call on the same thread) to
the layer's self total, so self times never overlap and their sum is the
part of the wall time the named layers explain.

This module imports nothing from ``repro``: ``run.py`` uses the pure
helpers at the bottom (:func:`delta`, :func:`split`) on the snapshots
the launcher writes.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Timed layers: (metric stem, module, attribute path).  An attribute
#: path with a dot names a method (``Class.method``).  Every reference
#: to the original function in a loaded ``repro`` module is replaced,
#: so ``from x import f`` bindings are wrapped as well.
TIMED: List[Tuple[str, str, str]] = [
    ("datasets.network", "repro.network.generators", "grid_city"),
    ("datasets.network", "repro.network.generators", "radial_city"),
    ("datasets.network", "repro.network.generators", "sprawl_city"),
    ("datasets.transit", "repro.transit.builder", "build_transit_network"),
    ("datasets.demand", "repro.demand.generators", "hotspot_demand"),
    ("calibrate.alpha", "repro.eval.experiments", "calibrated_alpha"),
    ("preprocess", "repro.core.preprocess", "preprocess_queries"),
    ("selection", "repro.core.selection", "run_selection"),
    ("ordering.christofides", "repro.core.christofides", "christofides_order"),
    ("refinement", "repro.core.refinement", "refine_path"),
    ("ebrr.evaluate_route", "repro.core.ebrr", "evaluate_route"),
    ("plan_route", "repro.core.ebrr", "plan_route"),
    ("update", "repro.core.update", "update_preprocess"),
    ("engine.sssp", "repro.network.engine", "SearchEngine.sssp"),
    ("engine.multi_source_labels", "repro.network.engine",
     "SearchEngine.multi_source_labels"),
    ("engine.batch_query_rows", "repro.network.engine",
     "SearchEngine.batch_query_rows"),
    ("engine.query_search", "repro.network.engine", "SearchEngine.query_search"),
    ("engine.path", "repro.network.engine", "SearchEngine.path"),
    ("journey.build", "repro.transit.journey", "JourneyPlanner.__init__"),
    ("journey.query", "repro.transit.journey", "JourneyPlanner.journey"),
    ("tenant.boot", "repro.serve.registry", "DatasetRegistry.add"),
    ("serve.handle", "repro.serve.api", "PlanService.handle"),
    ("serve.handler", "repro.serve.api", "handle_plan"),
    ("serve.handler", "repro.serve.api", "handle_update"),
    ("serve.handler", "repro.serve.api", "handle_journey"),
]

#: Counted-only calls: far too many and too short to time without
#: distorting their caller, so their time stays in the caller's self.
COUNTED: List[Tuple[str, str, str]] = [
    ("datasets.snap_calls", "repro.network.geometry", "GridIndex.nearest"),
]

ENGINE_METHODS = (
    "sssp", "multi_source_labels", "batch_query_rows", "query_search", "path",
)

#: Layers shown in the split, in pipeline order.  Their self times are
#: disjoint; ``serve.http`` and ``startup.import`` are derived (see
#: ``run.py``).  ``serve.handler`` self time (response building, demand
#: list edits in ``Tenant``) is deliberately left unattributed.
SPLIT_LAYERS = (
    "startup.import",
    "tenant.boot",
    "datasets.network",
    "datasets.transit",
    "datasets.demand",
    "calibrate.alpha",
    "preprocess",
    "selection",
    "ordering.christofides",
    "refinement",
    "ebrr.evaluate_route",
    "plan_route",
    "update",
    *(f"engine.{m}" for m in ENGINE_METHODS),
    "journey.build",
    "journey.query",
    "serve.wait",
    "serve.http",
)


class Recorder:
    """Thread-safe layer totals: inclusive time, self time, calls, and
    free-form counts (selection evaluations, update searches, ...)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.time: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[["Recorder", Any], None]] = None,
    ) -> Callable[..., Any]:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with recorder._lock:
                    recorder.time[name] += elapsed
                    recorder.self_time[name] += elapsed - frame[0]
                    recorder.calls[name] += 1
            if on_result is not None:
                on_result(recorder, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def snapshot(self, engines: List[Any]) -> Dict[str, Any]:
        """Cumulative totals so far, plus the engines' public counters."""
        settled = hits = misses = evictions = 0
        for engine in engines:
            info = engine.cache_info()
            hits += info.hits
            misses += info.misses
            evictions += info.evictions
            settled += engine.total_stats().settled
        with self._lock:
            return {
                "t": time.monotonic(),
                "time": dict(self.time),
                "self": dict(self.self_time),
                "calls": dict(self.calls),
                "counts": {
                    **self.counts,
                    "engine.settled": settled,
                    "engine.hits": hits,
                    "engine.misses": misses,
                    "engine.evictions": evictions,
                },
            }


def on_selection(recorder: Recorder, trace: Any) -> None:
    recorder.add("selection.evaluations", trace.evaluations)
    recorder.add("selection.stops", len(trace.selected))


def on_update(recorder: Recorder, result: Any) -> None:
    recorder.add("update.searches", result[2].searches)


RESULT_HOOKS = {"selection": on_selection, "update": on_update}


# -- pure helpers over snapshots (used by run.py) -----------------------


def delta(after: Dict[str, Any], before: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """``after - before`` for every table of two snapshots."""
    if before is None:
        return after
    out: Dict[str, Any] = {"t": after["t"] - before["t"]}
    for table in ("time", "self", "calls", "counts"):
        old = before[table]
        out[table] = {k: v - old.get(k, 0) for k, v in after[table].items()}
    return out


def merge(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum of several snapshot deltas (one per cold-plan process)."""
    out: Dict[str, Any] = {"time": {}, "self": {}, "calls": {}, "counts": {}}
    for part in parts:
        for table in ("time", "self", "calls", "counts"):
            for k, v in part[table].items():
                out[table][k] = out[table].get(k, 0) + v
    return out


def split(
    layer_self: Dict[str, float], wall: float
) -> List[Tuple[str, float, float]]:
    """``(layer, seconds, share of wall)`` rows for every layer with time,
    in pipeline order, closed by the ``(unattributed)`` remainder."""
    rows = []
    covered = 0.0
    for layer in SPLIT_LAYERS:
        seconds = layer_self.get(layer, 0.0)
        if seconds > 0:
            rows.append((layer, seconds, seconds / wall if wall else 0.0))
            covered += seconds
    rest = wall - covered
    rows.append(("(unattributed)", rest, rest / wall if wall else 0.0))
    return rows
