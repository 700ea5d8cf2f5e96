"""The serving core: shared estimator state, plan coalescing, stats.

Three pieces compose the daemon's hot path:

* :class:`ServeEngine` — owns the loaded synopsis and one
  :class:`~repro.core.estimation.serving.WorkloadEstimator`, so every
  request from every user funnels into one plan-signature cache and one
  ``EstimatorStats``.  Plan signatures are name-free and include value
  predicates, which is what makes cross-user sharing sound: two users
  asking structurally identical twigs *with identical predicates* get
  byte-identical plans — and identical estimates.
* :class:`PlanCoalescer` — request coalescing.  Each request's twig is
  compiled once, through the engine's shared plan cache, and keyed by
  plan signature until the next event-loop tick; structurally identical
  plans collapse onto one representative execution and the tick's
  plans execute as one batch.  Under a repetition-heavy user mix — the
  redbench-style banded workload — most of a tick is duplicates, so the
  executed batch is far smaller than the arrival batch.
* :class:`ServingStats` — latency/throughput observability riding on
  the estimator counters: a bounded reservoir of per-request latencies
  (p50/p99), batch occupancy, coalescing rate, and the cross-user plan
  cache hit rate, all exported by the ``/stats`` endpoint.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from time import perf_counter
from typing import Any, Deque, Dict, List, Optional

from repro.core.estimation import WorkloadEstimator
from repro.core.estimation.engine import CompiledEstimator, EstimatorStats
from repro.core.estimation.plan import CompiledPlan, PlanSignature
from repro.core.synopsis import XClusterSynopsis
from repro.query.ast import TwigQuery
from repro.query.jsonast import QueryFormatError, twig_from_dict
from repro.query.xpath import XPathSyntaxError, parse_twig
from repro.update.maintainer import IncrementalMaintainer
from repro.update.ops import UpdateOp

#: Latency reservoir size: enough for stable p99 at serving rates
#: without unbounded growth on a long-lived daemon.
LATENCY_WINDOW = 8192


class ServingStats:
    """Latency/throughput counters layered over ``EstimatorStats``.

    Latencies are kept in a bounded reservoir (the most recent
    :data:`LATENCY_WINDOW` requests), so percentiles track current
    behaviour on a long-lived daemon rather than averaging over its
    whole life.
    """

    def __init__(
        self, estimator_stats: EstimatorStats, window: int = LATENCY_WINDOW
    ) -> None:
        self.estimator_stats = estimator_stats
        self._latencies: Deque[float] = deque(maxlen=window)
        self.requests_total = 0
        #: Requests absorbed by an already in-flight identical plan.
        self.coalesced_requests = 0
        #: Dispatched batches and what they carried.
        self.batches_dispatched = 0
        self.batched_requests_total = 0
        self.batched_plans_total = 0
        self.errors = 0
        self._started = perf_counter()

    def observe_latency(self, seconds: float) -> None:
        """Record one served request's wall-clock latency, in seconds."""
        self._latencies.append(seconds)
        self.requests_total += 1

    def record_batch(self, requests: int, plans: int) -> None:
        """Record one dispatched batch: requests served and distinct plans."""
        self.batches_dispatched += 1
        self.batched_requests_total += requests
        self.batched_plans_total += plans

    def latency_percentile(self, percentile: float) -> float:
        """The given percentile (in [0, 100]) of recent latencies, seconds."""
        if not self._latencies:
            return 0.0
        ordered = sorted(self._latencies)
        rank = max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)
        return ordered[min(rank, len(ordered) - 1)]

    @property
    def p50_ms(self) -> float:
        return self.latency_percentile(50.0) * 1000.0

    @property
    def p99_ms(self) -> float:
        return self.latency_percentile(99.0) * 1000.0

    @property
    def mean_batch_occupancy(self) -> float:
        """Mean requests carried per dispatched batch (≥ 1 when busy)."""
        if not self.batches_dispatched:
            return 0.0
        return self.batched_requests_total / self.batches_dispatched

    @property
    def coalesce_rate(self) -> float:
        """Fraction of requests that rode an in-flight identical plan."""
        if not self.requests_total:
            return 0.0
        return self.coalesced_requests / self.requests_total

    @property
    def uptime_seconds(self) -> float:
        return perf_counter() - self._started

    def snapshot(self) -> Dict[str, Any]:
        """The ``/stats`` payload: serving + estimator counters."""
        estimator = self.estimator_stats
        return {
            "requests_total": self.requests_total,
            "errors": self.errors,
            "uptime_seconds": self.uptime_seconds,
            "latency": {
                "p50_ms": self.p50_ms,
                "p99_ms": self.p99_ms,
                "window": len(self._latencies),
            },
            "coalescing": {
                "coalesced_requests": self.coalesced_requests,
                "coalesce_rate": self.coalesce_rate,
                "batches_dispatched": self.batches_dispatched,
                "mean_batch_occupancy": self.mean_batch_occupancy,
                "batched_plans_total": self.batched_plans_total,
            },
            "estimator": {
                "queries_estimated": estimator.queries_estimated,
                "plans_compiled": estimator.plans_compiled,
                "plan_cache_hits": estimator.plan_cache_hits,
                "plan_cache_hit_rate": estimator.plan_cache_hit_rate,
                "reach_cache_hit_rate": estimator.reach_cache_hit_rate,
                "selectivity_cache_hit_rate": estimator.selectivity_cache_hit_rate,
            },
        }


class ServeEngine:
    """One loaded synopsis plus the shared estimation state serving it.

    All users of a synopsis share one ``WorkloadEstimator`` — its plan
    cache and stats object — so a plan compiled for one user is a cache
    hit for every later user asking the same shape, which is exactly
    the structure a repetition-banded workload rewards.
    """

    def __init__(
        self,
        synopsis: Optional[XClusterSynopsis] = None,
        max_path_length: int = 40,
        maintainer: Optional[IncrementalMaintainer] = None,
    ) -> None:
        if (synopsis is None) == (maintainer is None):
            raise ValueError(
                "ServeEngine needs exactly one of a synopsis or a maintainer"
            )
        self.maintainer = maintainer
        # A maintainer-backed engine serves the maintainer's live
        # synopsis; grafts preserve object identity, so this binding
        # (and every derived cache, through the version protocol) stays
        # valid across ``/update`` batches.
        self.synopsis = synopsis if maintainer is None else maintainer.synopsis
        self.max_path_length = max_path_length
        self.workload = WorkloadEstimator([], max_path_length)
        self.stats = ServingStats(self.workload.stats)
        self.coalescer = PlanCoalescer(self)

    @property
    def estimator(self) -> CompiledEstimator:
        """The shared compiled estimator bound to the loaded synopsis."""
        return self.workload.estimator_for(self.synopsis)

    def apply_updates(self, ops: List[UpdateOp]) -> List[Dict[str, Any]]:
        """Apply a document-update batch through the live maintainer.

        Returns one result dict per applied op.  Raises ``ValueError``
        when the engine serves a static synopsis (no maintainer) or
        when an op is invalid against the current document — earlier
        ops in the batch stay applied, and the synopsis version has
        already advanced past them, so serving state remains coherent.
        """
        if self.maintainer is None:
            raise ValueError(
                "this engine serves a static synopsis; restart it from a "
                "document to accept updates"
            )
        results = []
        for op in ops:
            results.append(self.maintainer.apply(op))
        return results

    def parse_request_query(self, payload: Dict[str, Any]) -> TwigQuery:
        """A twig from a request body: ``query`` (XPath) or ``ast``.

        Raises ``ValueError`` subclasses (``XPathSyntaxError`` /
        ``QueryFormatError``) on malformed input; the HTTP layer maps
        those to 400 responses.
        """
        if not isinstance(payload, dict):
            raise QueryFormatError("request body must be a JSON object")
        text = payload.get("query")
        ast = payload.get("ast")
        if (text is None) == (ast is None):
            raise QueryFormatError(
                "request needs exactly one of 'query' (XPath) or 'ast' (JSON AST)"
            )
        if text is not None:
            if not isinstance(text, str):
                raise QueryFormatError("'query' must be an XPath string")
            return parse_twig(text)
        return twig_from_dict(ast)

    def compile(self, query: TwigQuery) -> CompiledPlan:
        """The plan of ``query`` from the shared cross-user plan cache."""
        return self.estimator.compile(query)

    def estimate_plans(self, plans: List[CompiledPlan]) -> List[float]:
        """Execute compiled plans against the loaded synopsis, in order."""
        estimator = self.estimator
        return [estimator.estimate_plan(plan) for plan in plans]

    def estimate_batch(self, queries: List[TwigQuery]) -> List[float]:
        """Synchronously estimate a batch (``/batch``): compile each
        query through the shared plan cache, then execute the plans."""
        return self.estimate_plans([self.compile(query) for query in queries])

    async def estimate(self, query: TwigQuery) -> float:
        """Estimate one request through the coalescer, recording latency."""
        started = perf_counter()
        try:
            value = await self.coalescer.submit(query)
        except Exception:
            self.stats.errors += 1
            raise
        self.stats.observe_latency(perf_counter() - started)
        return value

    def stats_snapshot(self) -> Dict[str, Any]:
        """A point-in-time copy of the serving counters (see ``/stats``)."""
        snapshot = self.stats.snapshot()
        if self.maintainer is not None:
            maintenance = self.maintainer.stats.snapshot()
            maintenance["synopsis_version"] = self.synopsis.version
            maintenance["document_elements"] = len(self.maintainer.doc)
            snapshot["maintenance"] = maintenance
        return snapshot


class _PendingPlan:
    """One distinct in-flight plan and every request waiting on it."""

    __slots__ = ("plan", "futures")

    def __init__(self, plan: CompiledPlan) -> None:
        self.plan = plan
        self.futures: List["asyncio.Future[float]"] = []


class PlanCoalescer:
    """Coalesce structurally identical in-flight plans into one batch.

    Requests submitted before the next event-loop tick are grouped by
    plan signature; each signature is executed once and its result fans
    out to every waiting future.  Every request whose bytes were
    readable in the same tick — genuinely concurrent arrivals across
    connections — lands in one batch, while a lone sequential client
    pays no added latency.  All state is touched only from the event
    loop, so no locking is needed.
    """

    def __init__(self, engine) -> None:
        self._engine = engine
        self._pending: Dict[PlanSignature, _PendingPlan] = {}
        self._flush_handle: Optional[asyncio.Handle] = None

    async def submit(self, query: TwigQuery) -> float:
        """Enqueue ``query``, coalescing with signature-identical in-flight
        plans, and await its estimate from the next dispatched batch."""
        loop = asyncio.get_running_loop()
        plan = self._engine.compile(query)
        future: "asyncio.Future[float]" = loop.create_future()
        pending = self._pending.get(plan.signature)
        if pending is None:
            pending = _PendingPlan(plan)
            self._pending[plan.signature] = pending
        else:
            self._engine.stats.coalesced_requests += 1
        pending.futures.append(future)
        if self._flush_handle is None:
            self._flush_handle = loop.call_soon(self.flush)
        return await future

    def flush(self) -> None:
        """Execute every pending plan as one batch and resolve its waiters."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        pending = self._pending
        if not pending:
            return
        self._pending = {}
        plans = list(pending.values())
        requests = sum(len(plan.futures) for plan in plans)
        try:
            estimates = self._engine.estimate_plans([plan.plan for plan in plans])
        except Exception as err:  # pragma: no cover - estimator is total
            for plan in plans:
                for future in plan.futures:
                    if not future.done():
                        future.set_exception(err)
            return
        self._engine.stats.record_batch(requests, len(plans))
        for plan, estimate in zip(plans, estimates):
            for future in plan.futures:
                if not future.done():
                    future.set_result(estimate)
