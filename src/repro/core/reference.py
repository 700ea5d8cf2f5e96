"""Reference-synopsis construction (paper Section 4.3).

The reference synopsis is the detailed starting point of XCLUSTERBUILD:
a refinement of the lossless *count-stable* summary in which

* every cluster groups elements with the same number of children in every
  other cluster (count stability), and
* every cluster has exactly one incoming path — all member elements have
  their parents in a single cluster — capturing path-to-value
  correlations (the reference synopsis of a tree document is itself a
  tree).

The partition is the coarsest fixpoint of a both-ways refinement: an
element's class is refined by its label path, its parent's class, and
the multiset of its children's classes, iterated to stability.  Classes
only ever split, so the iteration converges in at most the document
diameter; stability is detected when the class count stops growing.

Value summaries are attached only to clusters reachable by the
caller-specified *value paths* (the paper provides 7 such paths for IMDB
and 9 for XMark); each summarized cluster gets a detailed summary built
from the values of its extent, so distinct structural contexts keep
distinct value distributions — the path-to-value correlations the paper
calls out.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.synopsis import SynopsisNode, XClusterSynopsis
from repro.values.summary import SummaryConfig, build_summary
from repro.xmltree.columnar import KIND_TO_TYPE, ColumnarDocument
from repro.xmltree.paths import LabelPath, matches_any
from repro.xmltree.tree import XMLElement, XMLTree
from repro.xmltree.types import ValueType

#: Either document substrate: the object tree or the columnar store.
#: Construction is substrate-generic — both feed the same class
#: refinement and assembly code through flat per-index columns, so the
#: resulting synopses are bit-identical (pinned by tests and the
#: differential harness's columnar round).
Document = Union[XMLTree, ColumnarDocument]

#: Safety cap on refinement iterations (convergence is far faster).
MAX_REFINEMENT_ROUNDS = 200


def _document_order(tree: XMLTree) -> Tuple[List[XMLElement], List[int], List[LabelPath]]:
    """Pre-order element list with parallel parent-index and path arrays."""
    elements: List[XMLElement] = []
    parents: List[int] = []
    paths: List[LabelPath] = []
    index_of: Dict[int, int] = {}
    stack: List[Tuple[XMLElement, int, LabelPath]] = [
        (tree.root, -1, (tree.root.label,))
    ]
    while stack:
        element, parent_index, path = stack.pop()
        index = len(elements)
        elements.append(element)
        parents.append(parent_index)
        paths.append(path)
        index_of[id(element)] = index
        for child in reversed(element.children):
            stack.append((child, index, path + (child.label,)))
    return elements, parents, paths


def _refine_classes(
    size: int,
    parents: Sequence[int],
    initial: List[int],
) -> List[int]:
    """Iterate both-ways refinement to the coarsest stable fixpoint.

    Substrate-neutral: only the element count and the preorder parent
    column are consulted (``parents`` may be a list or an ``array``).
    """
    classes = initial
    class_count = len(set(classes))
    children_of: List[List[int]] = [[] for _ in range(size)]
    for index, parent_index in enumerate(parents):
        if parent_index >= 0:
            children_of[parent_index].append(index)

    for _ in range(MAX_REFINEMENT_ROUNDS):
        # The sorted tuple of child classes is multiset-equivalent to the
        # sorted (class, count) items it replaces: two elements get equal
        # keys under one encoding exactly when they do under the other,
        # and keys are interned in the same first-occurrence order — so
        # the class numbering is unchanged, only cheaper to compute.
        parent_classes = list(map(classes.__getitem__, parents))
        if size:
            parent_classes[0] = -1  # the root's parent index is -1
        lookup = classes.__getitem__
        interned: Dict[Tuple, int] = {}
        setdefault = interned.setdefault
        refined = [
            setdefault(
                (own, parent_class, tuple(sorted(map(lookup, kids)))),
                len(interned),
            )
            for own, parent_class, kids in zip(
                classes, parent_classes, children_of
            )
        ]
        refined_count = len(interned)
        if refined_count == class_count:
            return classes  # refinement is a pure split: same count => stable
        classes = refined
        class_count = refined_count
    return classes


def _assemble_synopsis(
    size: int,
    parents: Sequence[int],
    labels: Sequence[str],
    vtypes: Sequence[ValueType],
    value_of: Callable[[int], object],
    path_of: Callable[[int], LabelPath],
    classes: List[int],
    value_paths: Optional[Sequence[LabelPath]],
    config: Optional[SummaryConfig] = None,
    with_summaries: bool = True,
) -> XClusterSynopsis:
    """Materialize a synopsis from per-index columns and a class column.

    The substrate-neutral core of every construction path: the object
    tree and the columnar store both flatten into (labels, vtypes,
    parents) columns plus value/path accessors, so class aggregation,
    node creation, and edge creation run in one shared order — making
    the two substrates' synopses bit-identical.
    """
    config = config if config is not None else SummaryConfig()
    summarize_all = value_paths is None
    exact_paths: Set[LabelPath] = {
        path for path in (value_paths or ()) if "*" not in path
    }
    wildcard_paths: List[LabelPath] = [
        path for path in (value_paths or ()) if "*" in path
    ]

    def path_wanted(path: LabelPath) -> bool:
        return (
            summarize_all
            or path in exact_paths
            or matches_any(path, wildcard_paths)
        )

    counts: Dict[int, int] = {}
    node_labels: Dict[int, str] = {}
    node_vtypes: Dict[int, ValueType] = {}
    values: Dict[int, list] = {}
    edge_totals: Dict[Tuple[int, int], int] = {}

    for index in range(size):
        key = classes[index]
        counts[key] = counts.get(key, 0) + 1
        node_labels[key] = labels[index]
        vtype = vtypes[index]
        node_vtypes[key] = vtype
        if (
            with_summaries
            and vtype is not ValueType.NULL
            and path_wanted(path_of(index))
        ):
            values.setdefault(key, []).append(value_of(index))
        parent_index = parents[index]
        if parent_index >= 0:
            edge = (classes[parent_index], key)
            edge_totals[edge] = edge_totals.get(edge, 0) + 1

    synopsis = XClusterSynopsis()
    node_of: Dict[int, SynopsisNode] = {}
    for key, count in counts.items():
        vsumm = None
        if key in values:
            vsumm = build_summary(node_vtypes[key], values[key], config)
        node_of[key] = synopsis.add_node(
            node_labels[key], node_vtypes[key], count, vsumm
        )
    for (parent_key, child_key), total in edge_totals.items():
        synopsis.add_edge(
            node_of[parent_key], node_of[child_key], total / counts[parent_key]
        )
    synopsis.set_root(node_of[classes[0]])
    return synopsis


def build_synopsis_from_classes(
    elements: List[XMLElement],
    parents: List[int],
    paths: List[LabelPath],
    classes: List[int],
    value_paths: Optional[Sequence[LabelPath]],
    config: Optional[SummaryConfig] = None,
    with_summaries: bool = True,
) -> XClusterSynopsis:
    """Materialize a synopsis from a per-element class assignment."""
    return _assemble_synopsis(
        len(elements),
        parents,
        [element.label for element in elements],
        [element.value_type for element in elements],
        lambda index: elements[index].value,
        paths.__getitem__,
        classes,
        value_paths,
        config,
        with_summaries,
    )


def _intern_column(keys: List[int]) -> List[int]:
    """Dense class ids for a key column, in first-occurrence order.

    Equivalent to a ``setdefault(key, len(interned))`` scan but runs as
    two C-level passes (``dict.fromkeys`` then a ``map`` lookup).
    """
    ids = {key: index for index, key in enumerate(dict.fromkeys(keys))}
    return list(map(ids.__getitem__, keys))


def _columnar_reference_classes(doc: ColumnarDocument) -> List[int]:
    """Initial partition over columnar arrays: (path id, value kind).

    Path ids biject with label-path tuples and kinds with value types,
    both assigned in first-occurrence preorder, so the produced class
    column is identical to the object path's ``(path, value_type)``
    interning.
    """
    return _intern_column(
        [(pid << 2) | kind for pid, kind in zip(doc.path_ids, doc.value_kind)]
    )


def _assemble_columnar(
    doc: ColumnarDocument,
    classes: List[int],
    value_paths: Optional[Sequence[LabelPath]],
    config: Optional[SummaryConfig] = None,
    with_summaries: bool = True,
) -> XClusterSynopsis:
    """Whole-column synopsis assembly over the columnar store.

    Produces exactly what :func:`_assemble_synopsis` produces for the
    same class column — ``Counter`` and ``dict(zip(...))`` preserve the
    per-index loop's first-occurrence insertion order (and its
    last-write-wins label/type values, which are class-constant anyway)
    — but every aggregate runs as a C-level column pass.  Value
    gathering consults a per-path-id wanted bitmap instead of building a
    label-path tuple per element.
    """
    config = config if config is not None else SummaryConfig()
    table = doc.label_table
    kinds = doc.value_kind
    counts = Counter(classes)
    node_labels = dict(zip(classes, map(table.__getitem__, doc.labels)))
    node_vtypes = dict(
        zip(classes, map(KIND_TO_TYPE.__getitem__, kinds))
    )
    edge_totals = Counter(
        zip(
            map(classes.__getitem__, islice(doc.parent, 1, None)),
            islice(classes, 1, None),
        )
    )

    values: Dict[int, list] = {}
    if with_summaries:
        path_total = len(doc.path_parent)
        if value_paths is None:
            wanted = [True] * path_total
        else:
            exact: Set[LabelPath] = {
                path for path in value_paths if "*" not in path
            }
            wildcard: List[LabelPath] = [
                path for path in value_paths if "*" in path
            ]
            wanted = [
                path in exact or matches_any(path, wildcard)
                for path in map(doc.path_tuple, range(path_total))
            ]
        pids = doc.path_ids
        value_of = doc.value
        for index, kind in enumerate(kinds):
            if kind and wanted[pids[index]]:  # kind 0 is KIND_NULL
                values.setdefault(classes[index], []).append(value_of(index))

    synopsis = XClusterSynopsis()
    node_of: Dict[int, SynopsisNode] = {}
    for key, count in counts.items():
        vals = values.get(key)
        vsumm = (
            build_summary(node_vtypes[key], vals, config)
            if vals is not None
            else None
        )
        node_of[key] = synopsis.add_node(
            node_labels[key], node_vtypes[key], count, vsumm
        )
    for (parent_key, child_key), total in edge_totals.items():
        synopsis.add_edge(
            node_of[parent_key], node_of[child_key], total / counts[parent_key]
        )
    synopsis.set_root(node_of[classes[0]])
    return synopsis


def build_reference_synopsis(
    document: Document,
    value_paths: Optional[Sequence[LabelPath]] = None,
    config: Optional[SummaryConfig] = None,
    with_summaries: bool = True,
) -> XClusterSynopsis:
    """The detailed reference synopsis: count-stable, one path per cluster.

    ``document`` may be an object :class:`XMLTree` or a
    :class:`~repro.xmltree.columnar.ColumnarDocument`; the columnar path
    partitions directly over the interned id columns (no per-element
    objects, no path tuples except for summarized nodes) and produces a
    bit-identical synopsis.
    """
    if isinstance(document, ColumnarDocument):
        initial = _columnar_reference_classes(document)
        classes = _refine_classes(len(document), document.parent, initial)
        return _assemble_columnar(
            document, classes, value_paths, config, with_summaries
        )
    elements, parents, paths = _document_order(document)
    interned: Dict[Tuple, int] = {}
    initial = [
        interned.setdefault((paths[i], elements[i].value_type), len(interned))
        for i in range(len(elements))
    ]
    classes = _refine_classes(len(elements), parents, initial)
    return build_synopsis_from_classes(
        elements, parents, paths, classes, value_paths, config, with_summaries
    )


def build_tag_synopsis(
    document: Document,
    value_paths: Optional[Sequence[LabelPath]] = None,
    config: Optional[SummaryConfig] = None,
    with_summaries: bool = True,
) -> XClusterSynopsis:
    """The smallest structural summary: one cluster per (tag, value type).

    This is the paper's "0 KB structural budget" point — the synopsis
    that clusters elements based solely on their tags.
    """
    if isinstance(document, ColumnarDocument):
        classes = _intern_column(
            [
                (label_id << 2) | kind
                for label_id, kind in zip(document.labels, document.value_kind)
            ]
        )
        return _assemble_columnar(
            document, classes, value_paths, config, with_summaries
        )
    elements, parents, paths = _document_order(document)
    interned: Dict[Tuple[str, ValueType], int] = {}
    classes = [
        interned.setdefault((element.label, element.value_type), len(interned))
        for element in elements
    ]
    return build_synopsis_from_classes(
        elements, parents, paths, classes, value_paths, config, with_summaries
    )
