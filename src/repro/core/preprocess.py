"""Query preprocessing — Algorithm 2 of the paper.

The **per-query** strategy is the paper's literal loop: one truncated
Dijkstra per *distinct* query node, settling outward until it reaches
the first existing stop ``nn(q)`` (the nearest one, by the Dijkstra
property) and recording every candidate stop settled on the way
together with its distance.  Those candidates are exactly the stops
whose selection would reduce this query's walking cost, i.e. the query
belongs to their reverse-nearest-neighbour sets ``RNN(v)``.

The **inverted** strategy computes the same table without the ``|Q|``
sequential searches: one multi-source label field from all existing
stops gives every node its ``nn`` distance and nearest-stop label in a
single pass, forward replay turns those into each query's per-query
``nn`` float, and then — because every query's truncation radius is now
known *up front* — the searches themselves become **query-rooted
balls**, batched hundreds at a time over the product graph
(:meth:`SearchEngine.batch_query_rows`).  A query ball accumulates
distances from the query side, i.e. in exactly the per-query float
association, so its member distances need no replay; the settle-order
cutoff ``(d, v) < (nn(q), nn_stop(q))`` is applied inside the kernel.
The batched search returns *columnar* output, and the merge and
utility folds below stay columnar too (stable grouping by candidate,
exact left-fold accumulation), so the strategy is array-native end to
end.  The two strategies produce equal ``nn_distance``/``rnn``/
``initial_utility`` contents and bit-identical downstream
``EBRRResult``s (see DESIGN.md "Batched preprocessing" for the
inversion argument and the generic-position caveat).  Select via
``strategy=`` / ``EBRRConfig.preprocess_strategy`` / ``--preprocess`` /
``$REPRO_PREPROCESS``; the default is ``inverted`` (flipped after the
parity gates soaked in CI since the strategy landed), with
``per-query`` kept as the explicit opt-out.

The output powers the whole selection phase:

* initial utilities ``U(v)`` for all stops (line 1 of Algorithm 1);
* exact marginal walking gains during selection —
  ``ΔWalk_B(v) = Σ_{(q,d) ∈ RNN(v)} count(q) · max(d_cur(q) − d, 0)``
  where ``d_cur(q)`` is the query's current nearest-stop distance.
  A query outside ``RNN(v)`` satisfies ``dist(q, v) ≥ dist(q, nn(q)) ≥
  d_cur(q)`` and can never gain, so the sum is exact, not a bound.

Query multiplicities are honoured by weighting each distinct node with
its count in the multiset ``Q``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError, GraphError
from ..network.engine import QuerySearchRow, SearchEngine, engine_for
from ..obs import current_trace, span
from .utility import BRRInstance

#: The Algorithm 2 execution strategies (see the module docstring).
PREPROCESS_STRATEGIES: Tuple[str, ...] = ("per-query", "inverted")

#: Strategy used when neither the caller nor ``$REPRO_PREPROCESS``
#: picks one.  ``inverted`` since the CI parity gates proved it
#: bit-identical to ``per-query`` across kernels;
#: pass ``--preprocess per-query`` (or set ``$REPRO_PREPROCESS``) to
#: opt back out.
DEFAULT_PREPROCESS_STRATEGY = "inverted"

_INF = math.inf


def resolve_preprocess_strategy(strategy: Optional[str] = None) -> str:
    """Resolve a preprocessing-strategy name.

    ``None`` falls back to ``$REPRO_PREPROCESS`` and then to
    :data:`DEFAULT_PREPROCESS_STRATEGY` — same resolution shape as the
    kernel registry, so CI can flip a whole test run with one
    environment variable.

    Raises:
        ConfigurationError: for unknown strategy names, listing the
            valid choices and naming ``$REPRO_PREPROCESS`` when the bad
            value came from the environment (mirrors the ``--preprocess``
            CLI flag's choice validation).
    """
    source = ""
    if strategy is None:
        env_value = os.environ.get("REPRO_PREPROCESS", "").strip()
        strategy = env_value or DEFAULT_PREPROCESS_STRATEGY
        if env_value:
            source = " (from $REPRO_PREPROCESS)"
    else:
        strategy = strategy.strip()
    if strategy not in PREPROCESS_STRATEGIES:
        known = ", ".join(PREPROCESS_STRATEGIES)
        raise ConfigurationError(
            f"unknown preprocess strategy {strategy!r}{source} "
            f"(known: {known})"
        )
    return strategy


@dataclass
class PreprocessResult:
    """Output of Algorithm 2.

    Attributes:
        nn_distance: for each distinct query node, its distance to the
            nearest *existing* stop ``dist(q, nn(q))``.
        rnn: for each candidate stop ``v``, the list of
            ``(query_node, dist(q, v))`` pairs with the query in
            ``RNN(v)`` — settled before ``nn(q)`` in the search.
        initial_utility: ``U({v})`` for every stop in
            ``S_new ∪ S_existing`` (walking gain for candidates,
            ``α · |routes(v)|`` for existing stops).
        searches: number of Dijkstra searches performed, as the
            strategy defines them: the per-query path runs
            one search per distinct query node (``= len(nn_distance)``);
            the inverted path runs one multi-source field search plus
            one query-rooted ball per distinct query node
            (``= 1 + len(nn_distance)``), and ``0`` when there are no
            query nodes at all (no field is built).
        settled_nodes: total nodes settled over all searches (the
            ``|Q| · T1`` term of Theorem 5).  Per-query: each search
            settles its candidate prefix plus the terminating existing
            stop (``len(visited) + 1`` per query).  Inverted: the
            field settles every reachable node once, and each query
            ball settles its pruned reached set
            (``reachable + Σ |ball(q)|``).  Both definitions count
            *nodes*, not implementation steps, so they are identical
            across kernel backends.
        strategy: the strategy that produced this result (carried so
            ``update_preprocess`` copies keep their provenance).
    """

    nn_distance: Dict[int, float] = field(default_factory=dict)
    rnn: Dict[int, List[Tuple[int, float]]] = field(default_factory=dict)
    initial_utility: Dict[int, float] = field(default_factory=dict)
    searches: int = 0
    settled_nodes: int = 0
    strategy: str = DEFAULT_PREPROCESS_STRATEGY

    def repriced(self, instance: BRRInstance) -> "PreprocessResult":
        """This artifact at ``instance.alpha``.

        Only the existing-stop entries ``initial_utility[s] = α ·
        degree(s)`` depend on ``α``; everything else is a function of
        the network, the stops and the demand.  So for an ``instance``
        over the same transit and demand as the one this was computed
        for, the copy equals :func:`preprocess_queries` run from scratch
        on ``instance``, field for field and in dict insertion order
        (the existing stops are inserted last, and rewriting a key keeps
        its position).  ``nn_distance`` and ``rnn`` are shared, not
        copied: no consumer mutates them (:func:`~repro.core.update.
        update_preprocess` copies before it edits).
        """
        utility = dict(self.initial_utility)
        for stop in instance.existing_stops:
            utility[stop] = instance.alpha * instance.transit.degree(stop)
        return replace(self, initial_utility=utility)

    def utility_order(self) -> List[Tuple[float, int]]:
        """``(U(v), v)`` pairs in decreasing utility order — the queue
        Algorithm 2 returns (ties broken by node id for determinism)."""
        return sorted(
            ((u, v) for v, u in self.initial_utility.items()),
            key=lambda item: (-item[0], item[1]),
        )


def preprocess_queries(
    instance: BRRInstance,
    *,
    engine: Optional[SearchEngine] = None,
    strategy: Optional[str] = None,
) -> PreprocessResult:
    """Run Algorithm 2 on ``instance``.

    Args:
        instance: the BRR instance.
        engine: the search engine to run the searches on; defaults to
            the instance network's shared engine.
        strategy: ``"per-query"`` or ``"inverted"`` (see the module
            docstring); ``None`` resolves via ``$REPRO_PREPROCESS``
            then the default.

    Returns:
        A :class:`PreprocessResult`; see its attribute docs.

    Raises:
        GraphError: if some query node cannot reach any existing stop
            (the instance is malformed — Definition 5 needs ``nn(q)``).
        ConfigurationError: if the strategy is unknown, or a
            candidate stop is also an existing stop (the utilities of
            lines 11-16 would silently overwrite each other).
    """
    strategy = resolve_preprocess_strategy(strategy)
    result = PreprocessResult(strategy=strategy)
    if engine is None:
        engine = engine_for(instance.network)
    counts = instance.query_counts
    _check_disjoint_stops(instance)

    # Lines 1-10, by either strategy.  Both produce the same table —
    # same floats, same RNN list order, same dict insertion order —
    # regardless of strategy; the inverted path merges its
    # columnar search output with array passes instead of a per-pair
    # python loop (see _group_by_candidate for the ordering argument).
    table: Optional[_InvertedTable] = None
    with span(
        "preprocess.searches",
        queries=len(counts),
        strategy=strategy,
    ):
        if strategy == "inverted":
            table = _inverted_search(instance, engine, result)
            result.nn_distance.update(zip(table.nodes, table.nn_forward))
            for candidate, start, end in table.groups:
                result.rnn[candidate] = list(
                    zip(table.qs[start:end], table.ds[start:end])
                )
        else:
            rows = _per_query_search(instance, engine, result)
            for query_node, _nn_stop, nn_dist, visited in rows:
                result.nn_distance[query_node] = nn_dist
                for candidate, dist in visited:
                    result.rnn.setdefault(candidate, []).append(
                        (query_node, dist)
                    )

    with span("preprocess.utilities"):
        # Lines 11-14: initial utilities of candidate stops.
        if table is not None:
            _inverted_utilities(table, instance, result)
        else:
            for candidate, entries in result.rnn.items():
                gain = 0.0
                for query_node, dist in entries:
                    gain += counts[query_node] * (
                        result.nn_distance[query_node] - dist
                    )
                result.initial_utility[candidate] = gain
        # Candidates never visited by any search have zero walking gain.
        for candidate in instance.candidates:
            result.initial_utility.setdefault(candidate, 0.0)

        # Lines 15-16: initial utilities of existing stops.
        for stop in instance.existing_stops:
            result.initial_utility[stop] = (
                instance.alpha * instance.transit.degree(stop)
            )

    return result


def _per_query_search(
    instance: BRRInstance,
    engine: SearchEngine,
    result: PreprocessResult,
) -> List[QuerySearchRow]:
    """The paper's literal loop: one early-terminated Dijkstra per
    distinct query node."""
    is_existing = instance.is_existing
    is_candidate = instance.is_candidate
    rows: List[QuerySearchRow] = []
    for query_node in instance.query_counts:
        nn_stop, nn_dist, visited = engine.query_search(
            query_node, is_existing, is_candidate, phase="preprocess"
        )
        rows.append((query_node, nn_stop, nn_dist, list(visited)))
    result.searches += len(rows)
    result.settled_nodes += sum(len(visited) + 1 for _q, _s, _d, visited in rows)
    return rows


@dataclass
class _InvertedTable:
    """Columnar Algorithm 2 table from the inverted search.

    ``qs``/``ds`` hold the flattened ``(query_node, dist)`` member
    pairs *grouped by candidate*; ``groups`` lists one
    ``(candidate, start, end)`` slice per candidate in first-appearance
    order over the per-query pair stream — exactly the dict insertion
    order the per-query merge produces — with each group's entries in
    query order (and per-query settle order within a query), exactly
    the per-query append order.
    """

    nodes: List[int]
    nn_forward: List[float]
    groups: List[Tuple[int, int, int]]
    qs: List[int]
    ds: List[float]


def _inverted_search(
    instance: BRRInstance,
    engine: SearchEngine,
    result: PreprocessResult,
) -> _InvertedTable:
    """The inverted strategy: one multi-source label field from the
    existing stops hands every query its truncation radius, then one
    batched query-rooted ball per distinct query node, then a columnar
    regroup by candidate."""
    nodes = list(instance.query_counts)
    if not nodes:
        return _InvertedTable([], [], [], [], [])
    active = current_trace()
    stops = [i for i, flag in enumerate(instance.is_existing) if flag]
    with span("preprocess.labels", stops=len(stops), queries=len(nodes)):
        label_field = engine.multi_source_labels(stops, phase="preprocess")
        nn_forward = engine.label_forward_distances(
            label_field, nodes, phase="preprocess"
        )
        for node, nn_dist in zip(nodes, nn_forward):
            if nn_dist == _INF:
                raise GraphError(
                    f"no existing bus stop reachable from query node {node}"
                )
        if active is not None:
            active.metrics.counter("preprocess.labels.sources").inc(len(stops))
            active.metrics.counter("preprocess.labels.reachable").inc(
                label_field.reachable
            )
    labels = [label_field.label[node] for node in nodes]
    with span("preprocess.balls", queries=len(nodes)):
        member_counts, member_nodes, member_dists, settled = (
            engine.batch_query_rows(
                nodes, nn_forward, labels, instance.is_candidate,
                phase="preprocess",
            )
        )
        ball_nodes = sum(settled)
        if active is not None:
            active.metrics.counter("preprocess.balls.count").inc(len(nodes))
            active.metrics.counter("preprocess.balls.settled").inc(ball_nodes)
    result.searches += 1 + len(nodes)
    result.settled_nodes += label_field.reachable + ball_nodes
    return _group_by_candidate(
        nodes, nn_forward, member_counts, member_nodes, member_dists
    )


def _group_by_candidate(
    nodes: List[int],
    nn_forward: List[float],
    member_counts: List[int],
    member_nodes: List[int],
    member_dists: List[float],
) -> _InvertedTable:
    """Regroup the row-major columnar members by candidate stop.

    The flat member stream arrives in exactly the order the per-query
    merge loop iterates pairs: query-major (``nodes`` order), per-query
    settle order within a row.  A *stable* argsort by candidate id
    therefore keeps each candidate's pairs in per-query append order,
    and sorting the groups by their first flat position reproduces the
    per-query ``rnn`` dict's first-appearance insertion order — both
    orderings land bit-for-bit without touching a single pair in
    python.
    """
    if not member_nodes:
        return _InvertedTable(nodes, nn_forward, [], [], [])
    row_of = np.repeat(
        np.arange(len(nodes), dtype=np.int64),
        np.asarray(member_counts, dtype=np.int64),
    )
    cand = np.asarray(member_nodes, dtype=np.int64)
    dist = np.asarray(member_dists, dtype=np.float64)
    order = np.argsort(cand, kind="stable")
    sorted_cand = cand[order]
    starts = np.flatnonzero(
        np.concatenate(
            (np.ones(1, dtype=bool), sorted_cand[1:] != sorted_cand[:-1])
        )
    )
    ends = np.append(starts[1:], sorted_cand.size)
    first_seen = np.argsort(order[starts], kind="stable")
    node_arr = np.asarray(nodes, dtype=np.int64)
    qs = node_arr[row_of[order]].tolist()
    ds = dist[order].tolist()
    groups = [
        (int(sorted_cand[starts[g]]), int(starts[g]), int(ends[g]))
        for g in first_seen.tolist()
    ]
    return _InvertedTable(nodes, nn_forward, groups, qs, ds)


def _inverted_utilities(
    table: _InvertedTable,
    instance: BRRInstance,
    result: PreprocessResult,
) -> None:
    """Lines 11-14 over the columnar table: per-pair gain terms in one
    vectorized pass, then one exact **left-fold** per candidate group
    via ``np.add.accumulate`` — the ufunc is defined sequentially
    (``out[i] = out[i-1] + in[i]``), so each group's final prefix sum
    is bit-identical to the per-query strategy's ``gain += term``
    python fold over the same terms in the same order."""
    if not table.groups:
        return
    counts = instance.query_counts
    num_nodes = instance.network.num_nodes
    weight = np.zeros(num_nodes)
    nn = np.zeros(num_nodes)
    for node in table.nodes:
        weight[node] = counts[node]
        nn[node] = result.nn_distance[node]
    qs = np.asarray(table.qs, dtype=np.int64)
    terms = weight[qs] * (nn[qs] - np.asarray(table.ds, dtype=np.float64))
    for candidate, start, end in table.groups:
        if end - start == 1:
            gain = float(terms[start])
        else:
            gain = float(np.add.accumulate(terms[start:end])[-1])
        result.initial_utility[candidate] = gain


def _check_disjoint_stops(instance: BRRInstance) -> None:
    """Defence in depth for the utility table: a node that is both a
    candidate and an existing stop would have its walking-gain entry
    silently overwritten by the ``α · degree`` loop above.
    :class:`BRRInstance` validates explicit candidate sets, but masks
    can reach here by other construction paths."""
    overlap = [
        node
        for node in instance.candidates
        if instance.is_existing[node]
    ]
    if overlap:
        raise ConfigurationError(
            "candidate stops must be disjoint from existing stops; "
            f"overlap: {sorted(overlap)[:10]}"
        )
