"""The candidate-merge pool of XCLUSTERBUILD (paper Figure 6).

``build_pool`` collects candidate merge operations among merge-compatible
node pairs whose levels do not exceed the current level bound, scores
each with the localized Δ metric, and keeps at most ``Hm`` candidates
(evicting the worst marginal losses).  The pool is a priority queue on
*marginal loss* — Δ(S, S′) per byte of structural storage saved — with
lazy invalidation: a popped candidate is re-validated against the current
synopsis (both nodes alive, neighborhood unchanged) and re-scored when
stale.

Exhaustive pair enumeration is quadratic in the (large) reference
synopsis, so candidate *generation* pairs each node only with its ``K``
nearest neighbors in a cheap structural-similarity order, exactly in the
spirit of the paper's bottom-up level heuristic (nodes whose children
were merged sort together).  Small groups still enumerate all pairs.

Scoring goes through the vectorized :class:`~repro.core.scoring
.ScoringEngine` when one is supplied (the builder's default); without an
engine the pool falls back to the scalar Δ implementation, which is the
pre-optimization reference path.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.distance import SelectivityCache, merge_delta
from repro.core.scoring import ScoringEngine
from repro.core.sizing import merge_size_saving
from repro.core.synopsis import SynopsisNode, XClusterSynopsis
from repro.values.summary import (
    HistogramSummary,
    StringSummary,
    TextSummary,
)

#: Below this group size every pair is considered (quadratic is cheap).
EXHAUSTIVE_GROUP_SIZE = 24

#: The heap may overflow ``max_size`` by this factor before a trim; the
#: bounded overflow amortizes the ``nsmallest`` + re-heapify churn over
#: many insertions instead of paying it per batch.
POOL_SLACK = 1.5


@dataclass(order=True)
class MergeCandidate:
    """One candidate ``merge(u, v)`` with its cached score.

    Ordering is total — marginal loss with the node-id pair as a tie
    breaker — so heap pops and capacity trims are deterministic
    regardless of insertion order.
    """

    marginal_loss: float
    u_id: int
    v_id: int
    delta: float = field(compare=False)
    size_saving: int = field(compare=False)
    #: Sum of the neighborhood versions of u and v at scoring time.
    version: int = field(compare=False, default=0)


def _summary_key(node: SynopsisNode) -> Tuple:
    """A cheap value-distribution fingerprint for similarity sorting."""
    summary = node.vsumm
    if summary is None:
        return ()
    if isinstance(summary, HistogramSummary):
        histogram = summary.histogram
        if histogram.total == 0:
            return (0.0,)
        mean = sum(
            bucket.count * (bucket.lo + bucket.hi) / 2.0
            for bucket in histogram.buckets
        ) / histogram.total
        return (mean,)
    if isinstance(summary, StringSummary):
        top = summary.pst.top_substrings(1)
        return (top[0][0],) if top else ("",)
    if isinstance(summary, TextSummary):
        ranked = sorted(
            summary.ebth.exact.items(), key=lambda item: (-item[1], item[0])
        )
        return (ranked[0][0],) if ranked else (-1,)
    return ()


def similarity_key(
    synopsis: XClusterSynopsis,
    node: SynopsisNode,
    label_memo: Optional[Dict[int, Tuple[str, ...]]] = None,
) -> Tuple:
    """Sort key placing structurally-similar clusters next to each other.

    ``label_memo`` memoizes each node's sorted child-label tuple (keyed
    by node id — children do not change during one pool build), saving
    the per-comparison label lookups when a group is sorted.
    """
    if label_memo is None:
        child_labels = tuple(
            sorted(synopsis.node(child_id).label for child_id in node.children)
        )
    else:
        child_labels = label_memo.get(node.node_id)
        if child_labels is None:
            child_labels = tuple(
                sorted(synopsis.node(child_id).label for child_id in node.children)
            )
            label_memo[node.node_id] = child_labels
    total_children = sum(node.children.values())
    return (child_labels, round(total_children, 3), _summary_key(node), node.count)


def candidate_pairs(
    synopsis: XClusterSynopsis,
    nodes: List[SynopsisNode],
    neighbors: int,
    label_memo: Optional[Dict[int, Tuple[str, ...]]] = None,
) -> Iterable[Tuple[int, int]]:
    """Yield merge-candidate id pairs for one merge-compatible group."""
    if len(nodes) < 2:
        return
    if len(nodes) <= EXHAUSTIVE_GROUP_SIZE:
        for left, right in itertools.combinations(nodes, 2):
            yield (left.node_id, right.node_id)
        return
    # Decorate-sort-undecorate: each node's similarity key is computed
    # exactly once (it is itself a nontrivial aggregate) instead of
    # O(n log n) times inside the sort's comparator; node id breaks key
    # ties deterministically.
    decorated = sorted(
        (similarity_key(synopsis, node, label_memo), node.node_id)
        for node in nodes
    )
    ordered = [node_id for _, node_id in decorated]
    for index, node_id in enumerate(ordered):
        for offset in range(1, neighbors + 1):
            if index + offset >= len(ordered):
                break
            yield (node_id, ordered[index + offset])


class CandidatePool:
    """A marginal-loss priority queue with lazy staleness checks."""

    def __init__(
        self,
        synopsis: XClusterSynopsis,
        max_size: int,
        predicate_limit: int,
        cache: Optional[SelectivityCache] = None,
        engine: Optional[ScoringEngine] = None,
        slack: float = POOL_SLACK,
    ) -> None:
        self.synopsis = synopsis
        self.max_size = max_size
        self.predicate_limit = predicate_limit
        self.cache: SelectivityCache = cache if cache is not None else {}
        self.engine = engine
        self.slack = max(1.0, slack)
        self._heap: List[MergeCandidate] = []
        #: Bumped whenever a node's local neighborhood changes.
        self.node_versions: Dict[int, int] = {}
        #: Diagnostics: Δ evaluations and capacity-trim churn.
        self.scoring_calls = 0
        self.trims = 0
        self.candidates_trimmed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def _version_of(self, node_id: int) -> int:
        return self.node_versions.get(node_id, 0)

    def _pair_version(self, u_id: int, v_id: int) -> int:
        return self._version_of(u_id) + self._version_of(v_id)

    def score(self, u_id: int, v_id: int) -> Optional[MergeCandidate]:
        """Build a scored candidate for the pair, or ``None`` if invalid."""
        nodes = self.synopsis.nodes
        u = nodes.get(u_id)
        v = nodes.get(v_id)
        if u is None or v is None or u.merge_key() != v.merge_key():
            return None
        self.scoring_calls += 1
        if self.engine is not None:
            delta = self.engine.merge_delta(u, v)
        else:
            delta = merge_delta(
                self.synopsis, u, v, self.predicate_limit, self.cache
            )
        saving = max(1, merge_size_saving(self.synopsis, u_id, v_id))
        return MergeCandidate(
            marginal_loss=delta / saving,
            u_id=u_id,
            v_id=v_id,
            delta=delta,
            size_saving=saving,
            version=self._pair_version(u_id, v_id),
        )

    def add_scored(
        self, u_id: int, v_id: int, delta: float, size_saving: int
    ) -> None:
        """Enqueue an already scored candidate."""
        heapq.heappush(
            self._heap,
            MergeCandidate(
                marginal_loss=delta / size_saving,
                u_id=u_id,
                v_id=v_id,
                delta=delta,
                size_saving=size_saving,
                version=self._pair_version(u_id, v_id),
            ),
        )

    def push_pair(self, u_id: int, v_id: int) -> None:
        """Score and enqueue one candidate pair (ignored when invalid)."""
        candidate = self.score(u_id, v_id)
        if candidate is not None:
            heapq.heappush(self._heap, candidate)

    def extend(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Score and enqueue many pairs, then enforce the size cap."""
        for u_id, v_id in pairs:
            self.push_pair(u_id, v_id)
        self.enforce_capacity()

    def enforce_capacity(self, strict: bool = False) -> None:
        """Trim the worst-marginal-loss candidates down to ``max_size``.

        By default the trim only fires once the heap overflows
        ``max_size`` by the slack factor (bounded overflow — trimming is
        O(n log Hm), so paying it on every batch of insertions is pure
        churn).  ``strict=True`` restores the hard ``max_size`` bound;
        ``build_pool`` applies it once after all groups are enqueued.
        Incremental slack trims never evict a top-``max_size`` candidate,
        so the surviving set equals a single global trim.
        """
        threshold = self.max_size if strict else int(self.max_size * self.slack)
        if len(self._heap) > threshold:
            self.trims += 1
            self.candidates_trimmed += len(self._heap) - self.max_size
            self._heap = heapq.nsmallest(self.max_size, self._heap)
            heapq.heapify(self._heap)

    def bump_versions(self, node_ids: Iterable[int]) -> None:
        """Mark nodes' neighborhoods changed (stale candidates rescore).

        The scoring engine's profiles cover the same local state (the
        child-count moments), so the touched profiles are dropped too.
        """
        node_ids = list(node_ids)
        for node_id in node_ids:
            self.node_versions[node_id] = self.node_versions.get(node_id, 0) + 1
        if self.engine is not None:
            self.engine.invalidate(node_ids)

    def pop_best(self) -> Optional[MergeCandidate]:
        """Pop the lowest-marginal-loss *valid* candidate.

        Stale candidates (dead nodes) are discarded; candidates whose
        neighborhood changed since scoring are re-scored and re-queued.
        """
        nodes = self.synopsis.nodes
        while self._heap:
            candidate = heapq.heappop(self._heap)
            if candidate.u_id not in nodes or candidate.v_id not in nodes:
                continue
            if candidate.version != self._pair_version(candidate.u_id, candidate.v_id):
                rescored = self.score(candidate.u_id, candidate.v_id)
                if rescored is not None:
                    heapq.heappush(self._heap, rescored)
                continue
            return candidate
        return None


def build_pool(
    synopsis: XClusterSynopsis,
    max_size: int,
    level_limit: int,
    levels: Dict[int, int],
    predicate_limit: int = 48,
    neighbors: int = 8,
    cache: Optional[SelectivityCache] = None,
    engine: Optional[ScoringEngine] = None,
) -> CandidatePool:
    """Assemble the candidate pool for the current level bound.

    Mirrors the paper's ``build_pool(S, Hm, l)``: consider merges among
    merge-compatible nodes whose level is at most ``level_limit``, keep
    the best ``max_size`` by marginal loss.
    """
    pool = CandidatePool(
        synopsis, max_size, predicate_limit, cache, engine=engine
    )
    groups: Dict[Tuple, List[SynopsisNode]] = {}
    for node in synopsis:
        if levels.get(node.node_id, 0) > level_limit:
            continue
        if node.node_id == synopsis.root_id:
            continue  # the root cluster is never merged away
        groups.setdefault(node.merge_key(), []).append(node)

    label_memo: Dict[int, Tuple[str, ...]] = {}
    for members in groups.values():
        pool.extend(candidate_pairs(synopsis, members, neighbors, label_memo))
    pool.enforce_capacity(strict=True)
    return pool
