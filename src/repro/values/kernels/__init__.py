"""Optimized execution kernels for the value-summary families.

The classes in :mod:`repro.values` stay the bit-exact reference oracles
(the same pattern as the scoring and estimation engines): every kernel
here produces *identical* results — same prune/merge decisions, same
counts, same float arithmetic — while replacing the scalar hot loops:

* :mod:`repro.values.kernels.pst` — an incremental pruning-error
  priority queue for ``st_cmprs`` (lazy invalidation keyed on the one
  suffix node each Markov estimate depends on) and single-pass
  run-merge PST fusion;
* :mod:`repro.values.kernels.histogram` — heap-driven ``hist_cmprs``
  that replays the exact greedy merge sequence without rescanning all
  adjacent pairs per step;
* :mod:`repro.values.kernels.ebth` — vocabulary-id array fusion over
  run cursors and incremental ``tv_cmprs`` demotion chains;
* :mod:`repro.values.kernels.queue` — the per-node compression steppers
  the builder's phase-2 priority queue drives (import them from that
  module: it depends on :mod:`repro.values.summary`, which imports this
  package).
"""

from repro.values.kernels.ebth import EBTHCompressionKernel, fuse_ebth
from repro.values.kernels.histogram import (
    HistogramCompressionKernel,
    compress_histogram,
)
from repro.values.kernels.pst import (
    PSTPruneKernel,
    fuse_psts,
    prune_leaves_reference,
)


__all__ = [
    "EBTHCompressionKernel",
    "HistogramCompressionKernel",
    "PSTPruneKernel",
    "compress_histogram",
    "fuse_ebth",
    "fuse_psts",
    "prune_leaves_reference",
]
