"""Unit tests for reference / tag synopsis construction."""

import pytest

from repro.core.reference import build_reference_synopsis, build_tag_synopsis
from repro.xmltree import parse_string
from repro.xmltree.types import ValueType


def two_shape_tree():
    """Two <p> elements with different structure, two identical ones."""
    return parse_string(
        "<r>"
        "<p><x/><x/></p>"
        "<p><x/><x/></p>"
        "<p><x/></p>"
        "<q><p><x/></p></q>"
        "</r>"
    )


class TestReferenceSynopsis:
    def test_count_stability(self, imdb_small, imdb_reference):
        """Every cluster's elements must have identical per-cluster child
        counts — verified by exactness of the edge averages."""
        synopsis = imdb_reference
        for node in synopsis:
            for child_id, average in node.children.items():
                # Count-stable averages are integral.
                assert average == pytest.approx(round(average)), (
                    node.label,
                    synopsis.node(child_id).label,
                )

    def test_one_incoming_cluster_per_node(self, imdb_reference):
        """The reference synopsis of a tree document is a tree."""
        for node in imdb_reference:
            if node.node_id == imdb_reference.root_id:
                assert not node.parents
            else:
                assert len(node.parents) == 1

    def test_extents_partition_document(self, imdb_small, imdb_reference):
        assert imdb_reference.total_element_count() == imdb_small.element_count

    def test_same_structure_same_cluster(self):
        synopsis = build_reference_synopsis(two_shape_tree())
        p_nodes = synopsis.nodes_by_label("p")
        # Three distinct structural contexts: 2-child under r, 1-child
        # under r, and 1-child under q.
        assert len(p_nodes) == 3
        counts = sorted(node.count for node in p_nodes)
        assert counts == [1, 1, 2]

    def test_validates(self, imdb_reference, xmark_reference):
        imdb_reference.validate()
        xmark_reference.validate()

    def test_value_paths_respected(self, imdb_small, imdb_reference):
        summarized_labels = {
            node.label for node in imdb_reference.valued_nodes()
        }
        assert "title" in summarized_labels
        assert "year" in summarized_labels
        # "role" is valued in the document but not on a value path.
        assert "role" not in summarized_labels

    def test_wildcard_value_paths(self, xmark_reference):
        labels = {node.label for node in xmark_reference.valued_nodes()}
        assert "price" in labels and "description" in labels

    def test_summaries_match_node_type(self, imdb_reference):
        for node in imdb_reference.valued_nodes():
            assert node.vsumm.value_type is node.value_type

    def test_without_summaries(self, imdb_small):
        synopsis = build_reference_synopsis(
            imdb_small.tree, imdb_small.value_paths, with_summaries=False
        )
        assert not synopsis.valued_nodes()


class TestTagSynopsis:
    def test_one_cluster_per_tag_and_type(self, imdb_small):
        synopsis = build_tag_synopsis(imdb_small.tree, imdb_small.value_paths)
        keys = [(node.label, node.value_type) for node in synopsis]
        assert len(keys) == len(set(keys))

    def test_smaller_than_reference(self, imdb_small, imdb_reference):
        tag = build_tag_synopsis(imdb_small.tree, imdb_small.value_paths)
        assert len(tag) < len(imdb_reference)

    def test_extents_partition_document(self, imdb_small):
        tag = build_tag_synopsis(imdb_small.tree, imdb_small.value_paths)
        assert tag.total_element_count() == imdb_small.element_count
        tag.validate()

    def test_null_typed_nodes_have_no_summary(self, imdb_small):
        synopsis = build_tag_synopsis(imdb_small.tree, imdb_small.value_paths)
        for node in synopsis:
            if node.value_type is ValueType.NULL:
                assert node.vsumm is None

    def test_average_edge_counts(self):
        synopsis = build_tag_synopsis(two_shape_tree())
        p_cluster = synopsis.nodes_by_label("p")[0]
        x_cluster = synopsis.nodes_by_label("x")[0]
        # 6 x-children over 4 p elements.
        assert p_cluster.children[x_cluster.node_id] == pytest.approx(1.5)
