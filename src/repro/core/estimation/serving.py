"""Batched workload serving over the compiled estimation engine.

Two entry points:

* :func:`estimate_many` — estimate a batch of queries against one
  synopsis in-process, through one
  :class:`~repro.core.estimation.engine.CompiledEstimator` whose caches
  stay warm across the batch (and across calls, when the caller passes
  its own engine).
* :class:`WorkloadEstimator` — compile a fixed workload once and serve
  it against *changing* synopses.  Plans are synopsis-independent, so
  retargeting (autobudget evaluates one candidate synopsis per trial
  ratio) reuses every compiled plan and only the per-synopsis indexes
  are rebuilt.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.estimation.engine import (
    CompiledEstimator,
    EstimatorStats,
    PlanCache,
)
from repro.core.estimation.plan import CompiledPlan
from repro.core.synopsis import XClusterSynopsis
from repro.query.ast import TwigQuery


def estimate_many(
    synopsis: XClusterSynopsis,
    queries: Sequence[TwigQuery],
    max_path_length: int = 40,
    estimator: Optional[CompiledEstimator] = None,
) -> List[float]:
    """Estimates for a batch of queries, in input order.

    Args:
        synopsis: the synopsis to estimate against.
        queries: the twig queries.
        max_path_length: descendant-axis expansion bound.
        estimator: reuse an existing engine; its caches and stats then
            carry across calls.

    Returns:
        One estimate per query, ordered as the input.
    """
    if estimator is not None and estimator.synopsis is not synopsis:
        raise ValueError("estimator is bound to a different synopsis")
    if estimator is None:
        estimator = CompiledEstimator(synopsis, max_path_length)
    return [estimator.estimate(query) for query in queries]


class WorkloadEstimator:
    """Compile-once serving of a fixed workload against any synopsis.

    The workload's plans and the cross-query plan cache live here and
    survive synopsis changes; per-synopsis state (transition tables,
    reach frontiers, selectivities) lives in the shared
    :class:`~repro.core.estimation.indexes.SynopsisIndex` of whichever
    synopsis a call targets.  ``stats`` aggregates across every call.
    """

    def __init__(
        self, queries: Sequence[TwigQuery], max_path_length: int = 40
    ) -> None:
        self.queries: List[TwigQuery] = list(queries)
        self.max_path_length = max_path_length
        self.plan_cache: PlanCache = {}
        self.stats = EstimatorStats()
        self._plans: Optional[List[CompiledPlan]] = None
        #: The engine of the most recent target synopsis.  Holding it
        #: keeps that synopsis' shared index (reach frontiers, transition
        #: rows, closures) alive across calls — the repeated-workload hot
        #: path — while older synopses' caches are free to be collected.
        self._estimator: Optional[CompiledEstimator] = None

    def estimator_for(self, synopsis: XClusterSynopsis) -> CompiledEstimator:
        """A compiled estimator on ``synopsis`` sharing this workload's
        plan cache and stats (reused while the target stays the same)."""
        estimator = self._estimator
        if estimator is None or estimator.synopsis is not synopsis:
            estimator = CompiledEstimator(
                synopsis,
                self.max_path_length,
                plan_cache=self.plan_cache,
                stats=self.stats,
            )
            self._estimator = estimator
        return estimator

    def estimate_all(self, synopsis: XClusterSynopsis) -> List[float]:
        """Estimates for every workload query against ``synopsis``,
        executing the precompiled plans in-process."""
        estimator = self.estimator_for(synopsis)
        if self._plans is None:
            self._plans = [estimator.compile(query) for query in self.queries]
        return [estimator.estimate_plan(plan) for plan in self._plans]
