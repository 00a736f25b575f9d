"""Unit tests for the XML serializer and serializer↔parser round-trips."""

import numpy as np
import pytest

from repro.xdm import (
    LeafElement,
    QName,
    array,
    comment,
    doc,
    element,
    explain_difference,
    leaf,
    pi,
    text,
)
from repro.xmlcodec import (
    XMLSerializeError,
    escape_attribute,
    escape_text,
    parse_document,
    serialize,
    unescape,
)
from repro.xmlcodec.serializer import XMLSerializer


class TestEscaping:
    def test_text_escapes(self):
        assert escape_text("a<b&c>d") == "a&lt;b&amp;c&gt;d"
        assert escape_text("plain") == "plain"

    def test_attr_escapes(self):
        assert escape_attribute('a"b\nc') == "a&quot;b&#10;c"

    def test_unescape_inverse(self):
        for s in ["a<b&c>d", 'q"uote', "mixed &<>'\" text"]:
            assert unescape(escape_text(s)) == s
            assert unescape(escape_attribute(s)) == s

    def test_text_carriage_return_escaped(self):
        """A bare \\r in character data is normalized to \\n by conforming
        parsers; it must ship as a character reference to round-trip."""
        assert escape_text("a\rb") == "a&#13;b"
        assert escape_text("a\r\nb") == "a&#13;\nb"
        for s in ["\r", "line1\rline2", "crlf\r\nend", "&\r<"]:
            assert unescape(escape_text(s)) == s


class TestSerializeBasics:
    def test_empty_element_self_closes(self):
        assert serialize(element("r")) == "<r/>"

    def test_text_child(self):
        assert serialize(element("r", text("hi"))) == "<r>hi</r>"

    def test_attributes(self):
        out = serialize(element("r", attributes={"a": "1"}))
        assert out == '<r a="1"/>'

    def test_comment_and_pi(self):
        out = serialize(doc(comment("c"), element("r", pi("t", "d"))))
        assert out == "<!--c--><r><?t d?></r>"

    def test_whitespace_only_pi_data_normalized(self):
        """Leading PI-data whitespace is the XML target/data separator —
        it cannot round-trip, so the model strips it at construction."""
        node = pi("t", "  ")
        assert node.data == ""
        assert serialize(element("r", node)) == "<r><?t?></r>"
        assert pi("t", "  d ").data == "d "

    def test_xml_declaration(self):
        out = serialize(doc(element("r")), xml_declaration=True)
        assert out.startswith('<?xml version="1.0" encoding="UTF-8"?>')

    def test_text_is_escaped(self):
        assert serialize(element("r", text("a<b"))) == "<r>a&lt;b</r>"

    def test_leaf_untyped_mode(self):
        out = serialize(leaf("n", 42, "int"), emit_types=False)
        assert out == "<n>42</n>"

    def test_leaf_typed_mode(self):
        out = serialize(leaf("n", 42, "int"))
        assert 'xsi:type="xsd:int"' in out
        assert ">42</n>" in out

    def test_array_untyped_short_tags(self):
        node = array("v", np.array([1, 2], dtype="i4"), item_name="i")
        out = serialize(node, emit_types=False)
        assert out == "<v><i>1</i><i>2</i></v>"

    def test_array_typed(self):
        node = array("v", np.array([1.5], dtype="f8"))
        out = serialize(node)
        assert 'xsi:type="bx:Array"' in out
        assert 'bx:itemType="xsd:double"' in out
        assert "<item>1.5</item>" in out

    def test_empty_array_self_closes(self):
        node = array("v", np.array([], dtype="f8"))
        out = serialize(node, emit_types=False)
        assert out == "<v/>"

    def test_boolean_array(self):
        node = array("v", np.array([True, False]))
        out = serialize(node, emit_types=False)
        assert out == "<v><item>true</item><item>false</item></v>"


class TestNamespaceSerialization:
    def test_explicit_declaration_used(self):
        node = element(QName("r", "urn:x", "p"), namespaces={"p": "urn:x"})
        assert serialize(node) == '<p:r xmlns:p="urn:x"/>'

    def test_auto_declaration(self):
        node = element(QName("r", "urn:x"))
        out = serialize(node)
        assert 'xmlns:ns1="urn:x"' in out
        assert out.startswith("<ns1:r")

    def test_prefix_hint_honoured(self):
        node = element(QName("r", "urn:x", "soap"))
        assert serialize(node) == '<soap:r xmlns:soap="urn:x"/>'

    def test_default_namespace(self):
        node = element(QName("r", "urn:d"), namespaces={"": "urn:d"})
        assert serialize(node) == '<r xmlns="urn:d"/>'

    def test_child_reuses_parent_declaration(self):
        inner = element(QName("c", "urn:x", "p"))
        node = element(QName("r", "urn:x", "p"), inner, namespaces={"p": "urn:x"})
        assert serialize(node) == '<p:r xmlns:p="urn:x"><p:c/></p:r>'

    def test_no_namespace_under_default_gets_undeclared(self):
        inner = element("c")
        node = element(QName("r", "urn:d"), inner, namespaces={"": "urn:d"})
        out = serialize(node)
        assert '<c xmlns=""/>' in out

    def test_qualified_attribute(self):
        node = element("r", attributes={"{urn:a}id": "7"})
        out = serialize(node)
        assert 'ns1:id="7"' in out
        assert 'xmlns:ns1="urn:a"' in out

    def test_duplicate_explicit_prefix_rejected(self):
        node = element("r")
        node.declare_namespace("p", "urn:1")
        node.declare_namespace("p", "urn:2")
        with pytest.raises(XMLSerializeError):
            serialize(node)

    def test_shadowed_prefix_close_tag_consistent(self):
        inner = element(QName("c", "urn:2", "p"), text("x"), namespaces={"p": "urn:2"})
        node = element(QName("r", "urn:1", "p"), inner, namespaces={"p": "urn:1"})
        out = serialize(node)
        assert out == '<p:r xmlns:p="urn:1"><p:c xmlns:p="urn:2">x</p:c></p:r>'


def roundtrip(node, **kwargs):
    xml = serialize(doc(node) if not hasattr(node, "root") else node, **kwargs)
    return parse_document(xml), xml


class TestRoundTrips:
    def assert_rt(self, node):
        parsed, xml = roundtrip(node)
        diff = explain_difference(doc(node), parsed, ignore_ns_decls=True)
        assert diff is None, f"{diff}\nXML: {xml}"

    def test_plain_tree(self):
        self.assert_rt(
            element(
                "r",
                element("a", text("one"), attributes={"k": "v"}),
                comment("note"),
                element("b"),
            )
        )

    def test_typed_leaves(self):
        self.assert_rt(
            element(
                "r",
                leaf("i", -5, "int"),
                leaf("d", 0.1 + 0.2, "double"),
                leaf("f", 1.5, "float"),
                leaf("b", True, "boolean"),
                leaf("s", "hello <world>", "string"),
                leaf("l", 2**60, "long"),
            )
        )

    def test_typed_arrays(self):
        self.assert_rt(
            element(
                "r",
                array("d", np.linspace(0, 1, 7)),
                array("i", np.arange(5, dtype="i4"), item_name="n"),
                array("u", np.array([0, 255], dtype="u1")),
            )
        )

    def test_float_specials(self):
        self.assert_rt(
            element(
                "r",
                leaf("nan", float("nan"), "double"),
                leaf("inf", float("inf"), "double"),
                array("mixed", np.array([np.nan, np.inf, -np.inf, 0.0])),
            )
        )

    def test_namespaced_tree(self):
        env = QName("Envelope", "urn:soap", "s")
        body = QName("Body", "urn:soap", "s")
        self.assert_rt(
            element(env, element(body, leaf("x", 1, "int")), namespaces={"s": "urn:soap"})
        )

    def test_custom_item_name_survives(self):
        node = array("v", np.arange(3, dtype="f8"), item_name="val")
        parsed, _ = roundtrip(node)
        assert parsed.root.item_name == "val"
        again = serialize(parsed.root, emit_types=False)
        assert "<val>" in again

    def test_whitespace_text_preserved_inside_elements(self):
        node = element("r", text("  keep  "))
        parsed, _ = roundtrip(node)
        assert parsed.root.children[0].text == "  keep  "

    def test_unicode_content(self):
        self.assert_rt(element("r", text("héllo ☃ δοκιμή"), attributes={"k": "ü"}))

    def test_untyped_roundtrip_loses_types_predictably(self):
        node = element("r", leaf("i", 5, "int"))
        xml = serialize(node, emit_types=False)
        parsed = parse_document(xml)
        child = next(parsed.root.elements())
        assert not isinstance(child, LeafElement)
        assert child.text_content() == "5"


class TestSerializerReuse:
    def test_run_resets_state(self):
        ser = XMLSerializer()
        a = ser.run(element(QName("r", "urn:x")))
        b = ser.run(element(QName("r", "urn:x")))
        assert a == b
        # a serializer held for reuse (one per pooled policy) holds no text
        assert ser._out is None

    def test_run_bytes(self):
        assert XMLSerializer().run_bytes(element("r")) == b"<r/>"
