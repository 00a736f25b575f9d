"""Unit tests for the builder, visitor walker, comparison and path helpers."""

import numpy as np
import pytest

from repro.xdm import (
    ArrayElement,
    LeafElement,
    TreeBuilder,
    Visitor,
    XDMError,
    array,
    canonical_signature,
    children_named,
    comment,
    deep_equal,
    doc,
    element,
    explain_difference,
    find_all,
    find_first,
    leaf,
    select,
    text,
    walk,
)
from repro.xdm.path import select_one
from repro.xdm.visitor import count_nodes, tree_depth


def sample_tree():
    return doc(
        comment("prolog"),
        element(
            "Envelope",
            element(
                "Body",
                leaf("count", 3, "int"),
                array("values", np.arange(4, dtype="f8")),
                element("meta", text("hello"), attributes={"id": "m1"}),
            ),
            namespaces={"s": "urn:soap"},
        ),
    )


class TestBuilder:
    def test_functional_and_imperative_agree(self):
        functional = sample_tree()
        b = TreeBuilder()
        b.comment("prolog")
        with b.element("Envelope", namespaces={"s": "urn:soap"}):
            with b.element("Body"):
                b.leaf("count", 3, "int")
                b.array("values", np.arange(4, dtype="f8"))
                with b.element("meta", attributes={"id": "m1"}):
                    b.text("hello")
        assert deep_equal(functional, b.document)

    def test_unbalanced_detected(self):
        b = TreeBuilder()
        b.start_element("a")
        with pytest.raises(XDMError):
            _ = b.document

    def test_end_without_start(self):
        with pytest.raises(XDMError):
            TreeBuilder().end_element()

    def test_depth_tracking(self):
        b = TreeBuilder()
        assert b.depth == 0
        b.start_element("a")
        b.start_element("b")
        assert b.depth == 2


class TestWalker:
    def test_visit_order(self):
        events = []

        class Recorder(Visitor):
            def enter_document(self, node):
                events.append("enter-doc")

            def leave_document(self, node):
                events.append("leave-doc")

            def enter_element(self, node):
                events.append(f"enter-{node.name.local}")

            def leave_element(self, node):
                events.append(f"leave-{node.name.local}")

            def visit_leaf(self, node):
                events.append(f"leaf-{node.name.local}")

            def visit_array(self, node):
                events.append(f"array-{node.name.local}")

            def visit_text(self, node):
                events.append("text")

            def visit_comment(self, node):
                events.append("comment")

        walk(sample_tree(), Recorder())
        assert events == [
            "enter-doc",
            "comment",
            "enter-Envelope",
            "enter-Body",
            "leaf-count",
            "array-values",
            "enter-meta",
            "text",
            "leave-meta",
            "leave-Body",
            "leave-Envelope",
            "leave-doc",
        ]

    def test_deep_tree_no_recursion_error(self):
        b = TreeBuilder()
        for _ in range(5000):
            b.start_element("n")
        for _ in range(5000):
            b.end_element()
        walk(b.document, Visitor())  # must not raise RecursionError
        assert tree_depth(b.document) == 5000

    def test_count_nodes(self):
        # doc + comment + Envelope + Body + leaf + array + meta + text = 8
        assert count_nodes(sample_tree()) == 8


class TestCompare:
    def test_equal_trees(self):
        assert deep_equal(sample_tree(), sample_tree())

    def test_attribute_order_insignificant(self):
        a = element("e", attributes={"x": "1", "y": "2"})
        b = element("e")
        b.set_attribute("y", "2")
        b.set_attribute("x", "1")
        assert deep_equal(a, b)

    def test_leaf_value_difference_reported_with_path(self):
        a = sample_tree()
        b = sample_tree()
        select_one(b, "Envelope/Body/count").value = 4
        diff = explain_difference(a, b)
        assert diff is not None and "count" in diff

    def test_array_difference_reports_index(self):
        a = element("e", array("v", np.arange(10.0)))
        b = element("e", array("v", np.arange(10.0)))
        b.children[0].values[7] = 99.0
        diff = explain_difference(a, b)
        assert "index 7" in diff

    def test_nan_equal(self):
        a = element("e", leaf("x", float("nan")), array("v", np.array([np.nan])))
        b = element("e", leaf("x", float("nan")), array("v", np.array([np.nan])))
        assert deep_equal(a, b)

    def test_float_arrays_compare_nan_aware_and_signed_zero_equal(self):
        """Equal bits take the fast path; NaN equals NaN and -0.0 equals 0.0
        on the slow one; a real difference is still found, NaNs or not."""
        values = np.array([0.0, 1.5, np.nan, -2.0])
        same = values.copy()
        same[0] = -0.0
        assert deep_equal(element("e", array("v", values)), element("e", array("v", same)))
        different = same.copy()
        different[3] = 2.0
        diff = explain_difference(
            element("e", array("v", values)), element("e", array("v", different))
        )
        assert "index 3" in diff
        assert not deep_equal(
            element("e", array("n", np.arange(4))), element("e", array("n", np.arange(1, 5)))
        )

    @pytest.mark.parametrize("dtype", ["f8", "f4", "i8", "i4", "i2", "u2", "i1"])
    def test_signature_agrees_across_byte_orders(self, dtype):
        """Wherever ``deep_equal`` holds across byte orders, so does
        ``canonical_signature``: arrays are hashed little-endian, so a
        little-endian array's signature is its own bytes, unchanged."""
        little = np.arange(5).astype("<" + dtype)
        a, b = element("e", array("v", little)), element("e", array("v", little))
        # as a big-endian decode leaves it: the constructor would normalize
        b.children[0].values = little.astype(">" + dtype)
        assert deep_equal(a, b)
        assert canonical_signature(a) == canonical_signature(b)
        assert canonical_signature(a)[-1][0][-1] == little.tobytes()

    def test_kind_mismatch(self):
        a = leaf("x", 1)
        b = element("x", text("1"))
        assert not deep_equal(a, b)

    def test_signature_matches_equality(self):
        assert canonical_signature(sample_tree()) == canonical_signature(sample_tree())
        other = sample_tree()
        select_one(other, "Envelope/Body/count").value = 9
        assert canonical_signature(other) != canonical_signature(sample_tree())

    def test_namespace_declarations_compared_as_set(self):
        a = element("e", namespaces={"p": "urn:1", "q": "urn:2"})
        b = element("e", namespaces={"q": "urn:2", "p": "urn:1"})
        assert deep_equal(a, b)


class TestPath:
    def test_select_path(self):
        tree = sample_tree()
        found = select(tree, "Envelope/Body/values")
        assert len(found) == 1
        assert isinstance(found[0], ArrayElement)

    def test_select_wildcard(self):
        assert len(select(sample_tree(), "Envelope/Body/*")) == 3

    def test_select_clark_step(self):
        tree = doc(element("{urn:a}root", element("{urn:a}child")))
        assert len(select(tree, "{urn:a}root/{urn:a}child")) == 1
        assert select(tree, "{urn:b}root/{urn:a}child") == []

    def test_select_one_requires_unique(self):
        with pytest.raises(LookupError):
            select_one(sample_tree(), "Envelope/Body/*")

    def test_find_first_descendant(self):
        found = find_first(sample_tree(), "count")
        assert isinstance(found, LeafElement)
        assert find_first(sample_tree(), "absent") is None

    def test_find_all(self):
        tree = element("r", element("a"), element("b", element("a")))
        assert len(find_all(tree, "a")) == 2

    def test_children_named(self):
        tree = sample_tree().root
        assert [e.name.local for e in children_named(tree, "Body")] == ["Body"]
