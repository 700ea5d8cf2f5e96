"""Exact twig-query evaluation — the production entry point and its oracle.

This module computes the true selectivity ``s(Q)`` of a twig query — the
number of binding tuples (paper Section 2).  It is the ground truth
against which all XCluster estimates are scored, and it shares the
paper's path-counting semantics: an element reachable from its context
through several distinct axis paths contributes once per path.

Two evaluators share those semantics bit-exactly:

* :class:`repro.query.interval.IntervalEvaluator` — the production
  engine.  Pre/post/level interval joins over sorted
  :class:`ColumnarDocument` columns.  :class:`ExactEvaluator` is the
  same engine, also accepting an ``XMLTree`` (frozen once up front).
* :class:`TreeWalkEvaluator` — the reference oracle the differential
  harness and the parity tests construct directly.  Dynamic
  programming over ``XMLElement`` objects with per-step weighted
  frontiers, exactly the paper's recurrence; its object walk caps
  accuracy experiments at toy document scales.

The query root ``q0`` binds the *virtual document root*, whose single
child is the document's root element.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple, Union

from repro.query.ast import AxisStep, EdgePath, QueryNode, TwigQuery
from repro.query.interval import IntervalEvaluator
from repro.xmltree.columnar import ColumnarDocument, freeze
from repro.xmltree.tree import XMLElement, XMLTree

#: Either document substrate; :class:`ExactEvaluator` serves both.
DocumentSource = Union[XMLTree, ColumnarDocument]


def _expand_step(
    frontier: Dict[int, Tuple[XMLElement, int]], step: AxisStep
) -> Dict[int, Tuple[XMLElement, int]]:
    """Advance a weighted element frontier through one axis step.

    The frontier maps ``id(element) -> (element, multiplicity)`` where the
    multiplicity is the number of distinct paths that reached the element.
    """
    result: Dict[int, Tuple[XMLElement, int]] = {}
    for element, multiplicity in frontier.values():
        if step.axis == "child":
            candidates: Iterable[XMLElement] = element.children
        else:
            candidates = element.descendants()
        for candidate in candidates:
            if step.matches_label(candidate.label):
                key = id(candidate)
                if key in result:
                    result[key] = (candidate, result[key][1] + multiplicity)
                else:
                    result[key] = (candidate, multiplicity)
    return result


def match_elements(
    context: XMLElement, edge: EdgePath
) -> List[Tuple[XMLElement, int]]:
    """Elements reached from ``context`` via ``edge``, with path multiplicity."""
    frontier = {id(context): (context, 1)}
    for step in edge.steps:
        frontier = _expand_step(frontier, step)
        if not frontier:
            return []
    return list(frontier.values())


class _VirtualRoot(XMLElement):
    """The document node sitting above the root element.

    Its only child is the document's root element, so a leading ``/site``
    step selects the root element and ``//item`` reaches any element.
    """

    def __init__(self, document_root: XMLElement) -> None:
        super().__init__("#document")
        # Bypass append_child: the document root keeps parent == None so
        # the tree itself remains valid and reusable.
        self.children = [document_root]


class TreeWalkEvaluator:
    """The reference oracle: counts binding tuples by walking objects.

    The evaluator memoizes per (query-variable, element) sub-results, so
    evaluating many queries against the same tree is efficient.
    """

    def __init__(self, tree: XMLTree) -> None:
        self.tree = tree
        self._virtual_root = _VirtualRoot(tree.root)

    def selectivity(self, query: TwigQuery) -> int:
        """The exact number of binding tuples of ``query``."""
        memo: Dict[Tuple[int, int], int] = {}
        return self._tuples(query.root, self._virtual_root, memo)

    def _tuples(
        self,
        variable: QueryNode,
        element: XMLElement,
        memo: Dict[Tuple[int, int], int],
    ) -> int:
        """Binding tuples of the subtree rooted at ``variable`` given that
        ``variable`` is bound to ``element``."""
        key = (id(variable), id(element))
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = 1
        for child in variable.children:
            branch_total = 0
            for matched, multiplicity in match_elements(element, child.edge):
                if not child.predicate.matches(matched.value):
                    continue
                branch_total += multiplicity * self._tuples(child, matched, memo)
            if branch_total == 0:
                total = 0
                break
            total *= branch_total
        memo[key] = total
        return total

    def matches(self, query: TwigQuery) -> bool:
        """Whether the query has at least one binding tuple."""
        return self.selectivity(query) > 0


class ExactEvaluator(IntervalEvaluator):
    """The interval-join evaluator over either substrate.

    An ``XMLTree`` source is frozen to columns once up front, so
    evaluating a whole workload amortizes the conversion.
    """

    def __init__(self, source: DocumentSource) -> None:
        if not isinstance(source, ColumnarDocument):
            source = freeze(source)
        super().__init__(source)


def evaluate_selectivity(source: DocumentSource, query: TwigQuery) -> int:
    """One-shot exact selectivity (see :class:`ExactEvaluator`)."""
    return ExactEvaluator(source).selectivity(query)
