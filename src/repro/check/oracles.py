"""The reference implementations production is checked against.

Production scores Δ with :class:`~repro.core.scoring.ScoringEngine` and
runs phase 2 on the kernel steppers.  The implementations those
replaced are oracles, built only by the differential harness, the
parity tests and the oracle-vs-production benches:

* :class:`ScalarScorer` — the scalar Δ of :mod:`repro.core.distance`;
* ``Reference*Stepper`` — each phase-2 step re-run from scratch by the
  summary classes themselves;
* :class:`ReferenceBuilder` — XCLUSTERBUILD with either oracle or both.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.builder import BuildConfig, XClusterBuilder
from repro.core.distance import SelectivityCache, compression_delta, merge_delta
from repro.core.synopsis import SynopsisNode, XClusterSynopsis
from repro.values.kernels.pst import prune_leaves_reference
from repro.values.kernels.queue import GenericStepper, SummaryStepper
from repro.values.summary import (
    HistogramSummary,
    StringSummary,
    TextSummary,
    ValueSummary,
    _copy_pst,
)


class ScalarScorer:
    """Scalar Δ with the :class:`~repro.core.scoring.ScoringEngine` API.

    Keeps no profiles, so it has nothing to invalidate or audit, and
    its profile and cache counters stay zero.
    """

    cache_hits = cache_misses = profile_hits = profile_misses = 0

    def __init__(
        self, synopsis: XClusterSynopsis, predicate_limit: int = 48
    ) -> None:
        self.synopsis = synopsis
        self.predicate_limit = predicate_limit
        self.cache: SelectivityCache = {}

    def merge_delta(self, u: SynopsisNode, v: SynopsisNode) -> float:
        """Δ(S, merge(S, u, v)) by the scalar double loop."""
        return merge_delta(
            self.synopsis, u, v, self.predicate_limit, self.cache
        )

    def compression_delta(self, node: SynopsisNode, compressed) -> float:
        """Δ(S, S′) for a value-compression step, scalar form."""
        return compression_delta(
            node, compressed, self.predicate_limit, self.cache
        )

    def invalidate(self, node_ids: Iterable[int]) -> None:
        """No-op: there are no profiles to drop."""

    def audit_profiles(self) -> List[str]:
        """Always clean: there are no profiles to go stale."""
        return []


class ReferenceHistogramStepper(SummaryStepper):
    family = "hist_cmprs"

    def advance(self, amount: int) -> Optional[ValueSummary]:
        current = self.expected
        if not current.can_compress:
            return None
        compressed = HistogramSummary(current.histogram.compress(amount))
        self.expected = compressed
        return compressed


class ReferencePSTStepper(SummaryStepper):
    family = "st_cmprs"

    def advance(self, amount: int) -> Optional[ValueSummary]:
        current = self.expected
        clone = _copy_pst(current.pst)
        if prune_leaves_reference(clone, amount) == 0:
            return None
        compressed = StringSummary(clone)
        self.expected = compressed
        return compressed


class ReferenceEBTHStepper(SummaryStepper):
    family = "tv_cmprs"

    def advance(self, amount: int) -> Optional[ValueSummary]:
        current = self.expected
        if not current.can_compress:
            return None
        compressed = TextSummary(current.ebth.compress(amount))
        self.expected = compressed
        return compressed


def make_reference_stepper(summary: ValueSummary) -> SummaryStepper:
    """The oracle twin of :func:`~repro.values.kernels.queue.make_stepper`."""
    if isinstance(summary, HistogramSummary):
        return ReferenceHistogramStepper(summary)
    if isinstance(summary, StringSummary):
        return ReferencePSTStepper(summary)
    if isinstance(summary, TextSummary):
        return ReferenceEBTHStepper(summary)
    return GenericStepper(summary)


class ReferenceBuilder(XClusterBuilder):
    """XCLUSTERBUILD over the oracles.

    ``scalar_scoring`` swaps the scorer for :class:`ScalarScorer`;
    ``reference_values`` swaps the phase-2 steppers for the
    ``Reference*Stepper`` classes.  Both are on by default.
    """

    def __init__(
        self,
        config: Optional[BuildConfig] = None,
        scalar_scoring: bool = True,
        reference_values: bool = True,
    ) -> None:
        super().__init__(config)
        self.scalar_scoring = scalar_scoring
        self.reference_values = reference_values

    def _make_scorer(self, synopsis: XClusterSynopsis):
        if self.scalar_scoring:
            return ScalarScorer(synopsis, self.config.predicate_limit)
        return super()._make_scorer(synopsis)

    def _make_stepper(self, summary: ValueSummary) -> SummaryStepper:
        if self.reference_values:
            return make_reference_stepper(summary)
        return super()._make_stepper(summary)
