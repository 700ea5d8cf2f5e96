"""The compiled twig-plan estimation engine.

:class:`CompiledEstimator` executes :class:`~repro.core.estimation.plan.
CompiledPlan` objects against the shared per-synopsis caches of
:class:`~repro.core.estimation.indexes.SynopsisIndex`.  The sum-product
is the same as the scalar :class:`~repro.core.estimator.XClusterEstimator`
— every float is accumulated in the identical order, so the compiled
estimate matches the scalar oracle bit for bit — but the structural
work is served from tables:

* axis steps replay precomputed transition rows instead of re-scanning
  and re-matching labels per frontier node,
* whole edge paths hit the memoized reach cache (keyed by canonicalized
  edge keys, so every repetition of ``//item`` across a workload costs
  one dict probe),
* descendant closures and predicate selectivities are shared across
  every estimator instance bound to the same synopsis.

:class:`EstimatorStats` is the observability layer mirroring the
builder's ``BuildStats``: plan-compile vs. execute timers, per-cache hit
rates, and frontier-size telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.core.estimation.indexes import (
    EdgeKey,
    SynopsisIndex,
    TransitionRow,
    shared_index,
)
from repro.core.estimation.plan import CompiledPlan, PlanSignature, compile_query
from repro.core.estimator import VIRTUAL_ROOT
from repro.core.synopsis import XClusterSynopsis
from repro.query.ast import WILDCARD, TwigQuery
from repro.query.predicates import Predicate, TruePredicate

#: Cross-query plan cache: canonical signature -> shared plan.
PlanCache = Dict[PlanSignature, CompiledPlan]


@dataclass
class EstimatorStats:
    """Diagnostics of one estimation engine (or serving layer).

    Counters accumulate across queries (and, for a shared stats object,
    across synopses), mirroring the construction-side ``BuildStats``.
    """

    #: Queries estimated (plan executions).
    queries_estimated: int = 0
    #: Plans compiled fresh vs. served from the cross-query plan cache.
    plans_compiled: int = 0
    plan_cache_hits: int = 0
    #: Wall-clock seconds spent compiling plans / executing them.
    plan_compile_seconds: float = 0.0
    execute_seconds: float = 0.0
    #: Whole-edge reach frontiers served from / missing the shared cache.
    reach_cache_hits: int = 0
    reach_cache_misses: int = 0
    #: Axis-step transition rows resolved and memoized.
    transition_rows_built: int = 0
    #: Descendant closures computed (shared across estimator instances).
    descendant_closures_built: int = 0
    #: Predicate selectivities served from / missing the shared cache.
    selectivity_cache_hits: int = 0
    selectivity_cache_misses: int = 0
    #: Frontier telemetry over cache-missing reach computations.
    frontiers_expanded: int = 0
    frontier_nodes_total: int = 0
    max_frontier_nodes: int = 0
    #: Times the synopsis index detected a mutation and dropped tables.
    index_invalidations: int = 0

    @property
    def plan_cache_hit_rate(self) -> float:
        """Fraction of compilations served by the cross-query cache."""
        total = self.plans_compiled + self.plan_cache_hits
        return self.plan_cache_hits / total if total else 0.0

    @property
    def reach_cache_hit_rate(self) -> float:
        """Fraction of edge-path reach lookups served cached."""
        total = self.reach_cache_hits + self.reach_cache_misses
        return self.reach_cache_hits / total if total else 0.0

    @property
    def selectivity_cache_hit_rate(self) -> float:
        """Fraction of cache-eligible selectivity lookups served cached."""
        total = self.selectivity_cache_hits + self.selectivity_cache_misses
        return self.selectivity_cache_hits / total if total else 0.0

    @property
    def average_frontier_nodes(self) -> float:
        """Mean per-step frontier size over uncached reach expansions."""
        if not self.frontiers_expanded:
            return 0.0
        return self.frontier_nodes_total / self.frontiers_expanded


def cached_plan(
    query: TwigQuery, plan_cache: PlanCache, stats: EstimatorStats
) -> CompiledPlan:
    """Compile ``query`` and return the cached plan of its signature,
    recording the hit or miss and the compile time in ``stats``."""
    started = perf_counter()
    plan = compile_query(query)
    cached = plan_cache.get(plan.signature)
    if cached is not None:
        stats.plan_cache_hits += 1
        plan = cached
    else:
        plan_cache[plan.signature] = plan
        stats.plans_compiled += 1
    stats.plan_compile_seconds += perf_counter() - started
    return plan


class CompiledEstimator:
    """Plan-compiling, cache-backed twig selectivity estimator.

    Drop-in faster equivalent of the scalar ``XClusterEstimator`` (the
    parity tests pin the two to 1e-9 on full workloads).  Instances
    bound to the same synopsis object share one
    :class:`~repro.core.estimation.indexes.SynopsisIndex`; mutating the
    synopsis between queries is detected by version and invalidates the
    shared tables automatically.
    """

    def __init__(
        self,
        synopsis: XClusterSynopsis,
        max_path_length: int = 40,
        index: Optional[SynopsisIndex] = None,
        plan_cache: Optional[PlanCache] = None,
        stats: Optional[EstimatorStats] = None,
    ) -> None:
        if max_path_length < 1:
            raise ValueError("max_path_length must be >= 1")
        self.synopsis = synopsis
        self.max_path_length = max_path_length
        if index is None:
            index = shared_index(synopsis)
        elif index.synopsis is not synopsis:
            raise ValueError("index was built for a different synopsis")
        self.index = index
        self.plan_cache: PlanCache = plan_cache if plan_cache is not None else {}
        self.stats = stats if stats is not None else EstimatorStats()

    # -- compilation -------------------------------------------------------

    def compile(self, query: TwigQuery) -> CompiledPlan:
        """The (cross-query cached) compiled plan of ``query``."""
        return cached_plan(query, self.plan_cache, self.stats)

    # -- execution ---------------------------------------------------------

    def estimate(self, query: TwigQuery) -> float:
        """The estimated number of binding tuples of ``query``."""
        return self.estimate_plan(self.compile(query))

    def estimate_plan(self, plan: CompiledPlan) -> float:
        """Execute a compiled plan against the bound synopsis."""
        if self.index.ensure_current():
            self.stats.index_invalidations += 1
        started = perf_counter()
        memo: Dict[Tuple[int, int], float] = {}
        value = self._tuples(plan, 0, VIRTUAL_ROOT, memo)
        self.stats.execute_seconds += perf_counter() - started
        self.stats.queries_estimated += 1
        return value

    def reach(self, source_id: int, edge_key: EdgeKey) -> Dict[int, float]:
        """Memoized whole-edge frontier from one source node.

        The returned dict is shared cache state — do not mutate it.
        """
        key = (source_id, edge_key, self.max_path_length)
        cached = self.index.reach_cache.get(key)
        if cached is not None:
            self.stats.reach_cache_hits += 1
            return cached
        self.stats.reach_cache_misses += 1
        frontier: Dict[int, float] = {source_id: 1.0}
        for axis, label in edge_key:
            result: Dict[int, float] = {}
            if axis == "child":
                for node_id, weight in frontier.items():
                    for target_id, avg in self._child_row(node_id, label):
                        result[target_id] = (
                            result.get(target_id, 0.0) + weight * avg
                        )
            else:  # descendant axis
                for node_id, weight in frontier.items():
                    for target_id, count in self._descendant_row(node_id, label):
                        result[target_id] = (
                            result.get(target_id, 0.0) + weight * count
                        )
            frontier = result
            self.stats.frontiers_expanded += 1
            self.stats.frontier_nodes_total += len(frontier)
            if len(frontier) > self.stats.max_frontier_nodes:
                self.stats.max_frontier_nodes = len(frontier)
            if not frontier:
                break
        self.index.reach_cache[key] = frontier
        return frontier

    # -- transition tables -------------------------------------------------

    def _child_row(self, source_id: int, label: str) -> TransitionRow:
        """Resolved child-axis transitions of one (source, label test)."""
        key = (source_id, label)
        row = self.index.child_rows.get(key)
        if row is not None:
            return row
        if source_id == VIRTUAL_ROOT:
            root = self.synopsis.root
            if label == WILDCARD or root.label == label:
                row = ((root.node_id, 1.0),)
            else:
                row = ()
        else:
            children = self.synopsis.node(source_id).children
            if label == WILDCARD:
                row = tuple(children.items())
            else:
                members = self.index.label_set(label)
                row = tuple(
                    (child_id, avg)
                    for child_id, avg in children.items()
                    if child_id in members
                )
        self.index.child_rows[key] = row
        self.stats.transition_rows_built += 1
        return row

    def _descendant_row(self, source_id: int, label: str) -> TransitionRow:
        """Resolved descendant-axis transitions (closure-order pairs)."""
        key = (source_id, label, self.max_path_length)
        row = self.index.descendant_rows.get(key)
        if row is not None:
            return row
        if source_id == VIRTUAL_ROOT:
            root = self.synopsis.root
            reachable = dict(self._descendants(root.node_id))
            reachable[root.node_id] = reachable.get(root.node_id, 0.0) + 1.0
        else:
            reachable = self._descendants(source_id)
        if label == WILDCARD:
            row = tuple(reachable.items())
        else:
            members = self.index.label_set(label)
            row = tuple(
                (target_id, count)
                for target_id, count in reachable.items()
                if target_id in members
            )
        self.index.descendant_rows[key] = row
        self.stats.transition_rows_built += 1
        return row

    def _descendants(self, node_id: int) -> Dict[int, float]:
        """The shared descendant closure of ``node_id`` (scalar-ordered)."""
        key = (node_id, self.max_path_length)
        cached = self.index.descendant_closures.get(key)
        if cached is not None:
            return cached
        totals: Dict[int, float] = {}
        frontier: Dict[int, float] = {node_id: 1.0}
        for _ in range(self.max_path_length):
            next_frontier: Dict[int, float] = {}
            for source_id, weight in frontier.items():
                for child_id, avg in self.synopsis.node(source_id).children.items():
                    next_frontier[child_id] = (
                        next_frontier.get(child_id, 0.0) + weight * avg
                    )
            if not next_frontier:
                break
            for target_id, weight in next_frontier.items():
                totals[target_id] = totals.get(target_id, 0.0) + weight
            frontier = next_frontier
        self.index.descendant_closures[key] = totals
        self.stats.descendant_closures_built += 1
        return totals

    # -- the sum-product ---------------------------------------------------

    def _selectivity(self, node, predicate: Predicate) -> float:
        """σ_p(u) with the exact semantics of ``node_selectivity``."""
        if isinstance(predicate, TruePredicate):
            return 1.0
        vsumm = node.vsumm
        if vsumm is None:
            return 1.0
        if predicate.value_type is not node.value_type:
            return 0.0
        key = (vsumm, predicate)
        cache = self.index.selectivity_cache
        value = cache.get(key)
        if value is None:
            value = vsumm.selectivity(predicate)
            cache[key] = value
            self.stats.selectivity_cache_misses += 1
        else:
            self.stats.selectivity_cache_hits += 1
        return value

    def _tuples(
        self,
        plan: CompiledPlan,
        variable_index: int,
        node_id: int,
        memo: Dict[Tuple[int, int], float],
    ) -> float:
        """Expected binding tuples of the plan subtree at one variable
        per element of the synopsis node bound to it (scalar-identical
        accumulation order)."""
        key = (variable_index, node_id)
        cached = memo.get(key)
        if cached is not None:
            return cached
        variables = plan.variables
        nodes = self.synopsis.nodes
        total = 1.0
        for child_index in variables[variable_index].children:
            child = variables[child_index]
            branch = 0.0
            for target_id, count in self.reach(node_id, child.edge_key).items():
                sigma = self._selectivity(nodes[target_id], child.predicate)
                if sigma <= 0.0 or count <= 0.0:
                    continue
                branch += count * sigma * self._tuples(
                    plan, child_index, target_id, memo
                )
            total *= branch
            if total == 0.0:
                break
        memo[key] = total
        return total
