"""Per-node compression steppers for the builder's phase-2 queue.

Phase 2 of XCLUSTERBUILD repeatedly applies the cheapest
``hist_cmprs`` / ``st_cmprs`` / ``tv_cmprs`` step.  Ranking candidates
requires *materializing* each node's next compressed summary, and after
a step is applied the node needs a fresh follow-up candidate — which the
pre-kernel builder produced by re-running the whole compression from the
node's current summary (for PSTs: a full clone plus a from-scratch
re-rank of every prunable leaf, per step).

A :class:`SummaryStepper` owns the incremental kernel state for one
node's summary chain, so the follow-up candidate costs one incremental
advance (heap pops for PSTs and histograms, an order-slice for EBTHs)
plus a snapshot.  :func:`make_stepper` builds the kernel stepper for a
summary; the scalar oracles that re-run each step from scratch
(``Histogram.compress``, :func:`prune_leaves_reference`,
``EndBiasedTermHistogram.compress``) live in :mod:`repro.check.oracles`
behind the same interface.  :data:`COMPRESSION_STEPS` fixes how much
one step removes per stepper family, for the builder and the update
maintainer alike.

Every stepper records the summary object its state continues from in
``expected``; the builder recreates the stepper whenever the node's
summary was replaced by something else (lazy revalidation, the same
stamp-and-check pattern as the candidate pool and the synopsis
indexes).
"""

from __future__ import annotations

from typing import Optional

from repro.values.kernels.ebth import EBTHCompressionKernel
from repro.values.kernels.histogram import HistogramCompressionKernel
from repro.values.kernels.pst import PSTPruneKernel
from repro.values.summary import (
    HistogramSummary,
    StringSummary,
    TextSummary,
    ValueSummary,
    _copy_pst,
)

#: Units one ``advance`` removes, per stepper family: histogram buckets
#: merged, PST leaves pruned and EBTH terms demoted.  Other families
#: step by 1.
COMPRESSION_STEPS = {"hist_cmprs": 1, "st_cmprs": 8, "tv_cmprs": 4}


class SummaryStepper:
    """One node's compression chain: successive ``compress`` snapshots."""

    #: Timer family the builder attributes this stepper's work to.
    family = "value_cmprs"

    def __init__(self, summary: ValueSummary) -> None:
        #: The summary the next ``advance`` continues from.
        self.expected: ValueSummary = summary

    def advance(self, amount: int) -> Optional[ValueSummary]:
        """The next summary ``amount`` steps smaller, or ``None``."""
        raise NotImplementedError


class GenericStepper(SummaryStepper):
    """Fallback driving ``ValueSummary.compress`` (wavelets, extensions)."""

    def advance(self, amount: int) -> Optional[ValueSummary]:
        current = self.expected
        if not current.can_compress:
            return None
        compressed = current.compress(amount)
        if compressed is None:
            return None
        self.expected = compressed
        return compressed


class KernelHistogramStepper(SummaryStepper):
    family = "hist_cmprs"

    def __init__(self, summary: HistogramSummary) -> None:
        super().__init__(summary)
        self._kernel = HistogramCompressionKernel(summary.histogram)

    def advance(self, amount: int) -> Optional[ValueSummary]:
        if self._kernel.merge(amount) == 0:
            return None
        compressed = HistogramSummary(self._kernel.snapshot())
        self.expected = compressed
        return compressed


class KernelPSTStepper(SummaryStepper):
    family = "st_cmprs"

    def __init__(self, summary: StringSummary) -> None:
        super().__init__(summary)
        self._working = _copy_pst(summary.pst)
        self._kernel = PSTPruneKernel(self._working)

    def advance(self, amount: int) -> Optional[ValueSummary]:
        if self._kernel.prune(amount) == 0:
            return None
        compressed = StringSummary(_copy_pst(self._working))
        self.expected = compressed
        return compressed


class KernelEBTHStepper(SummaryStepper):
    family = "tv_cmprs"

    def __init__(self, summary: TextSummary) -> None:
        super().__init__(summary)
        self._kernel = EBTHCompressionKernel(summary.ebth)

    def advance(self, amount: int) -> Optional[ValueSummary]:
        if self._kernel.demote(amount) == 0:
            return None
        compressed = TextSummary(self._kernel.snapshot())
        self.expected = compressed
        return compressed


def make_stepper(summary: ValueSummary) -> SummaryStepper:
    """The kernel stepper for one summary."""
    if isinstance(summary, HistogramSummary):
        return KernelHistogramStepper(summary)
    if isinstance(summary, StringSummary):
        return KernelPSTStepper(summary)
    if isinstance(summary, TextSummary):
        return KernelEBTHStepper(summary)
    return GenericStepper(summary)
