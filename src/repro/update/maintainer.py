"""Incremental reference-synopsis maintenance over an update stream.

:class:`IncrementalMaintainer` owns one :class:`ColumnarDocument` and
one live :class:`XClusterSynopsis` and keeps them consistent under
inserts, deletes, and value changes **without rebuilding from scratch**
— while staying bit-exact with a rebuild (``synopsis_to_dict`` equal),
which is what the differential harness's update round pins down.

The work is localized by two structural facts about the reference
partition (:mod:`repro.core.reference`):

* Classes are a refinement of the ``(label path, value kind)``
  partition and depend only on document *structure* plus those two
  per-element facts — never on the values themselves.  A value change
  that keeps its kind therefore cannot move any element between
  classes: the maintainer rebuilds exactly one cluster's summary (its
  dirty label-path region) and touches nothing else.  For NUMERIC and
  STRING that is the whole story; for TEXT the term-id vocabulary is
  interned across summaries in build order, so the maintainer re-encodes
  the TEXT summaries from cached per-cluster term centroids against a
  fresh vocabulary — centroid construction (the expensive scan) is
  reused, only the cheap id re-encode runs per cluster.
* Structural updates (and kind flips) can reshape the partition, so
  the maintainer re-runs refinement and assembly — the same code path,
  in the same order, as a rebuild, which is what keeps class numbering
  and node ids identical — but **value summaries are only rebuilt for
  clusters whose gathered values actually changed**: untouched clusters
  hit the keyed summary/centroid caches, skipping the dominant cost of
  a rebuild (summary construction is ~75% of build time at XMark scale
  0.35; see ``benchmarks/bench_updates.py``).

The maintained synopsis object never changes identity: recomputes graft
the fresh node table into the live object and every applied update
bumps ``XClusterSynopsis.version``, so the estimation caches keyed on
it (:class:`~repro.core.estimation.indexes.SynopsisIndex` via the
weak-registry, serving plan caches) invalidate through the existing
version protocol and the daemon keeps answering correctly mid-stream.

An optional ``max_summary_bytes`` budget recompresses **touched**
summaries through the existing :mod:`repro.values.kernels.queue`
steppers until they fit, so maintenance composes with the kernel
compression engine without re-running phase 2 globally.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, replace
from itertools import islice
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.reference import (
    _columnar_reference_classes,
    _refine_classes,
)
from repro.core.synopsis import XClusterSynopsis
from repro.update.columnar import apply_update
from repro.update.ops import UpdateOp
from repro.values.ebth import EndBiasedTermHistogram
from repro.values.kernels.queue import make_stepper
from repro.values.summary import (
    HistogramSummary,
    StringSummary,
    SummaryConfig,
    TextSummary,
    ValueSummary,
    build_summary,
)
from repro.values.termvector import TermCentroid, Vocabulary
from repro.xmltree.columnar import (
    KIND_NULL,
    KIND_TEXT,
    KIND_TO_TYPE,
    ColumnarDocument,
)
from repro.xmltree.parser import DEFAULT_TEXT_WORD_THRESHOLD
from repro.xmltree.paths import LabelPath, matches_any
from repro.xmltree.types import ValueType

#: Default bound on cached cluster summaries/centroids.  Entries are
#: keyed by the cluster's gathered value tuple, so the cache naturally
#: tracks the live cluster population; the bound only matters on
#: pathological streams that churn values without repetition.
DEFAULT_CACHE_ENTRIES = 16384

#: Per-advance compression amounts when enforcing a summary budget,
#: matching the builder's phase-2 defaults per summary family.
_BUDGET_STEPS = (
    (HistogramSummary, 1),
    (StringSummary, 8),
    (TextSummary, 4),
)


def enforce_summary_budget(
    summary: Optional[ValueSummary],
    max_bytes: Optional[int],
    engine: str = "kernel",
) -> Optional[ValueSummary]:
    """Compress ``summary`` through its stepper until it fits the budget.

    Deterministic in ``(summary, max_bytes, engine)``, so the rebuild
    oracle applies the same function to freshly built summaries and
    stays bit-exact with incrementally maintained ones.
    """
    if summary is None or max_bytes is None:
        return summary
    current = summary
    if current.size_bytes() <= max_bytes:
        return current
    stepper = make_stepper(current, engine)
    step = 1
    for family, amount in _BUDGET_STEPS:
        if isinstance(current, family):
            step = amount
            break
    while current.size_bytes() > max_bytes:
        compressed = stepper.advance(step)
        if compressed is None:
            break
        current = compressed
    return current


@dataclass
class MaintainerStats:
    """Counters describing how much work the update stream localized."""

    updates_applied: int = 0
    inserts: int = 0
    deletes: int = 0
    value_changes: int = 0
    #: Same-kind NUMERIC/STRING value changes: one cluster summary.
    fast_path_updates: int = 0
    #: Same-kind TEXT value changes: TEXT summaries re-encoded only.
    text_reencodes: int = 0
    #: Structural updates and kind flips: refinement + assembly re-ran.
    full_recomputes: int = 0
    summaries_built: int = 0
    summaries_reused: int = 0

    def snapshot(self) -> Dict[str, Any]:
        """Counters as a plain dict (the ``/stats`` maintenance section)."""
        return {
            "updates_applied": self.updates_applied,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "value_changes": self.value_changes,
            "fast_path_updates": self.fast_path_updates,
            "text_reencodes": self.text_reencodes,
            "full_recomputes": self.full_recomputes,
            "summaries_built": self.summaries_built,
            "summaries_reused": self.summaries_reused,
        }


class IncrementalMaintainer:
    """One document, one live synopsis, maintained under updates."""

    def __init__(
        self,
        doc: ColumnarDocument,
        value_paths: Optional[Sequence[LabelPath]] = None,
        config: Optional[SummaryConfig] = None,
        text_word_threshold: int = DEFAULT_TEXT_WORD_THRESHOLD,
        max_summary_bytes: Optional[int] = None,
        value_engine: str = "kernel",
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
    ) -> None:
        self.doc = doc
        self.value_paths = (
            None if value_paths is None else [tuple(p) for p in value_paths]
        )
        #: The caller's knobs; each full recompute derives a working
        #: config with a *fresh* vocabulary (never mutating this one),
        #: because term-id interning order must replay from scratch to
        #: match what a rebuild would produce.
        self.base_config = config if config is not None else SummaryConfig()
        self.text_word_threshold = text_word_threshold
        self.max_summary_bytes = max_summary_bytes
        self.value_engine = value_engine
        self.cache_entries = cache_entries
        self.stats = MaintainerStats()

        if self.value_paths is None:
            self._exact_paths = None
            self._wildcard_paths: List[LabelPath] = []
        else:
            self._exact_paths = {
                path for path in self.value_paths if "*" not in path
            }
            self._wildcard_paths = [
                path for path in self.value_paths if "*" in path
            ]
        #: Per-path-id wanted flags, extended lazily: the path table is
        #: append-only, so known flags never go stale.
        self._wanted_flags: List[bool] = []

        #: (value type, value tuple) -> built summary (NUMERIC/STRING;
        #: vocabulary-independent, safe to reuse as objects).
        self._summary_cache: "OrderedDict[Tuple, ValueSummary]" = OrderedDict()
        #: value tuple -> TermCentroid (TEXT; the re-encode against the
        #: current vocabulary is cheap, the centroid scan is not).
        self._centroid_cache: "OrderedDict[Tuple, TermCentroid]" = OrderedDict()

        self._classes: List[int] = []
        self._node_of: Dict[int, int] = {}
        self._config = self.base_config
        self.synopsis: XClusterSynopsis = self._recompute()

    # -- wanted paths ------------------------------------------------------

    def _wanted(self, path_id: int) -> bool:
        if self._exact_paths is None:
            return True
        flags = self._wanted_flags
        if path_id >= len(flags):
            doc = self.doc
            for pid in range(len(flags), len(doc.path_parent)):
                path = doc.path_tuple(pid)
                flags.append(
                    path in self._exact_paths
                    or matches_any(path, self._wildcard_paths)
                )
        return flags[path_id]

    # -- summary construction with caches ----------------------------------

    def _cache_put(self, cache: OrderedDict, key, value) -> None:
        cache[key] = value
        if len(cache) > self.cache_entries:
            cache.popitem(last=False)

    def _cluster_summary(
        self, vtype: ValueType, vals: list, config: SummaryConfig
    ) -> ValueSummary:
        """The summary a rebuild would attach to this cluster.

        NUMERIC/STRING summaries are cached as objects keyed by the
        gathered value tuple.  TEXT summaries cache the term centroid
        and always re-encode against ``config.vocabulary``, replaying
        the exact interning sequence (``centroid.weights`` insertion
        order) a fresh ``TextSummary.from_values`` would perform.
        """
        if vtype is ValueType.TEXT:
            key = tuple(vals)
            centroid = self._centroid_cache.get(key)
            if centroid is None:
                centroid = TermCentroid.from_term_sets(vals)
                self._cache_put(self._centroid_cache, key, centroid)
                self.stats.summaries_built += 1
            else:
                self._centroid_cache.move_to_end(key)
                self.stats.summaries_reused += 1
            summary: ValueSummary = TextSummary(
                EndBiasedTermHistogram.from_centroid(
                    centroid, config.vocabulary
                )
            )
            return enforce_summary_budget(
                summary, self.max_summary_bytes, self.value_engine
            )
        key = (vtype, tuple(vals))
        cached = self._summary_cache.get(key)
        if cached is not None:
            self._summary_cache.move_to_end(key)
            self.stats.summaries_reused += 1
            return cached
        summary = enforce_summary_budget(
            build_summary(vtype, vals, config),
            self.max_summary_bytes,
            self.value_engine,
        )
        self._cache_put(self._summary_cache, key, summary)
        self.stats.summaries_built += 1
        return summary

    # -- full localized recompute ------------------------------------------

    def _recompute(self) -> XClusterSynopsis:
        """Refinement + assembly, with summaries served from the caches.

        Mirrors ``build_reference_synopsis`` on the columnar substrate
        aggregate for aggregate (same first-occurrence orders, same
        edge math), so class numbering and node ids are bit-identical
        to a rebuild — only summary construction is skipped for
        clusters whose value tuples are already cached.
        """
        doc = self.doc
        initial = _columnar_reference_classes(doc)
        classes = _refine_classes(len(doc), doc.parent, initial)

        table = doc.label_table
        kinds = doc.value_kind
        counts = Counter(classes)
        node_labels = dict(zip(classes, map(table.__getitem__, doc.labels)))
        node_vtypes = dict(zip(classes, map(KIND_TO_TYPE.__getitem__, kinds)))
        edge_totals = Counter(
            zip(
                map(classes.__getitem__, islice(doc.parent, 1, None)),
                islice(classes, 1, None),
            )
        )
        values: Dict[int, list] = {}
        pids = doc.path_ids
        value_of = doc.value
        wanted = self._wanted
        for index, kind in enumerate(kinds):
            if kind and wanted(pids[index]):
                values.setdefault(classes[index], []).append(value_of(index))

        config = replace(self.base_config, vocabulary=Vocabulary())
        fresh = XClusterSynopsis()
        node_of: Dict[int, int] = {}
        for key, count in counts.items():
            vals = values.get(key)
            vsumm = (
                self._cluster_summary(node_vtypes[key], vals, config)
                if vals is not None
                else None
            )
            node = fresh.add_node(node_labels[key], node_vtypes[key], count, vsumm)
            node_of[key] = node.node_id
        nodes = fresh.nodes
        for (parent_key, child_key), total in edge_totals.items():
            fresh.add_edge(
                nodes[node_of[parent_key]],
                nodes[node_of[child_key]],
                total / counts[parent_key],
            )
        fresh.set_root(nodes[node_of[classes[0]]])

        self._classes = classes
        self._node_of = node_of
        self._config = config
        return fresh

    def _graft(self, fresh: XClusterSynopsis) -> None:
        """Install a recomputed node table into the live synopsis object.

        Identity is preserved on purpose: the serving tier's shared
        index registry and estimator reuse key on ``id(synopsis)``, so
        grafting (plus the version bump in :meth:`apply`) walks them
        through the normal invalidation protocol instead of silently
        handing estimates a different object.
        """
        live = self.synopsis
        live.nodes = fresh.nodes
        live.root_id = fresh.root_id
        live._next_id = fresh._next_id

    # -- localized value-change paths --------------------------------------

    def _refresh_cluster(self, index: int) -> None:
        """Rebuild the one summary of the cluster holding ``index``.

        Only reachable for same-kind NUMERIC/STRING changes: the
        partition cannot have moved (classes ignore values), so the
        dirty region is exactly this cluster's value list.
        """
        doc = self.doc
        classes = self._classes
        key = classes[index]
        # All class members share one label path and one kind (the
        # initial partition key), so wantedness is a class property.
        if not self._wanted(doc.path_ids[index]):
            return
        value_of = doc.value
        vals = [
            value_of(member)
            for member, cls in enumerate(classes)
            if cls == key
        ]
        vtype = KIND_TO_TYPE[doc.value_kind[index]]
        summary = self._cluster_summary(vtype, vals, self._config)
        self.synopsis.nodes[self._node_of[key]].vsumm = summary

    def _reencode_text(self) -> None:
        """Re-encode every TEXT summary against a fresh vocabulary.

        A same-kind TEXT change leaves the partition intact but moves
        the cluster's term centroid, and term ids are interned across
        summaries in build order — so all TEXT summaries re-encode (in
        the same first-occurrence cluster order a rebuild would use)
        while every untouched cluster reuses its cached centroid.  No
        refinement, no assembly, no NUMERIC/STRING work.
        """
        doc = self.doc
        classes = self._classes
        kinds = doc.value_kind
        pids = doc.path_ids
        wanted = self._wanted
        value_of = doc.value
        gathered: Dict[int, list] = {}
        for index, kind in enumerate(kinds):
            if kind == KIND_TEXT and wanted(pids[index]):
                gathered.setdefault(classes[index], []).append(value_of(index))
        config = replace(self.base_config, vocabulary=Vocabulary())
        nodes = self.synopsis.nodes
        for key, vals in gathered.items():
            nodes[self._node_of[key]].vsumm = self._cluster_summary(
                ValueType.TEXT, vals, config
            )
        self._config = config

    # -- the update entry point --------------------------------------------

    def apply(self, op: UpdateOp) -> Dict[str, Any]:
        """Apply one update to the document and the live synopsis.

        Returns a small result dict (op kind, path taken, document
        size) used by the serving route's response body.  Raises
        ``ValueError`` with a validation message when the op does not
        apply; the document and synopsis are untouched in that case.
        """
        structural, old_kind, new_kind = apply_update(
            self.doc, op, self.text_word_threshold
        )
        stats = self.stats
        stats.updates_applied += 1
        if structural:
            if op.op == "insert":
                stats.inserts += 1
            else:
                stats.deletes += 1
            path = "recompute"
            self._graft(self._recompute())
            stats.full_recomputes += 1
        else:
            stats.value_changes += 1
            if old_kind != new_kind:
                path = "recompute"
                self._graft(self._recompute())
                stats.full_recomputes += 1
            elif new_kind == KIND_TEXT:
                path = "text-reencode"
                self._reencode_text()
                stats.text_reencodes += 1
            elif new_kind == KIND_NULL:
                # NULL -> NULL: the document is untouched semantically.
                path = "noop"
            else:
                path = "summary-local"
                self._refresh_cluster(op.index)
                stats.fast_path_updates += 1
        # Every applied update bumps the version, so estimation caches
        # (SynopsisIndex tables, reach/selectivity caches) can never
        # serve a stale answer across an update boundary.
        self.synopsis.version += 1
        return {
            "op": op.op,
            "path": path,
            "elements": len(self.doc),
            "version": self.synopsis.version,
        }


__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "IncrementalMaintainer",
    "MaintainerStats",
    "enforce_summary_budget",
]
