"""bXDM → textual XML 1.0 serializer.

Implemented as a :class:`~repro.xdm.visitor.Visitor` over the data model,
exactly as §5.2 of the paper prescribes for encoders.  Namespace scoping is
handled with an explicit stack; prefixes are taken from QName hints when
possible and auto-generated (``ns1``, ``ns2``, …) otherwise, with
declarations emitted on the element that first needs them.

Typed nodes follow the convention in :mod:`repro.xmlcodec.typed`.  Note that
the per-value number→text conversion in :meth:`XMLSerializer.visit_array` is
*the* cost the paper's evaluation charges to textual XML — it is implemented
with a bulk idiom (``tolist()`` + ``repr``) so the comparison against BXSA is
fair, not a strawman.  It is **not** the fastest pure-Python codec available,
and must not be made so on its own: the speed of this codec is a calibration
constant.  :mod:`repro.harness.calibration` anchors the measured→2006 CPU
scale on what this serializer and the parser's ``_try_fast_array`` cost
today; a ``str.split``-based item scan (ISSUE 20's prototype, every check
kept) is 3.3x faster at decode and 1.3x at encode and, at the current scale,
fails the paper's Figure 5 shape and thins Figure 4's crossover to nothing.
The numbers are in that module's docstring and in ROADMAP "Parked".
"""

from __future__ import annotations

import io
import math

from repro.xdm.nodes import (
    ArrayElement,
    AttributeNode,
    CommentNode,
    ElementNode,
    LeafElement,
    Node,
    PINode,
    TextNode,
)
from repro.xdm.qname import QName, XML_URI, XSD_URI, XSI_URI
from repro.xdm.types import format_lexical
from repro.xdm.visitor import Visitor, walk
from repro.xmlcodec.errors import XMLSerializeError
from repro.xmlcodec.escape import escape_attribute, escape_text
from repro.xmlcodec.typed import BX_URI, DEFAULT_ITEM_NAME, WELL_KNOWN_PREFIXES


def serialize(
    node: Node,
    *,
    emit_types: bool = True,
    xml_declaration: bool = False,
    item_name: str = DEFAULT_ITEM_NAME,
) -> str:
    """Serialize a bXDM tree (document or element) to an XML string."""
    ser = XMLSerializer(
        emit_types=emit_types, xml_declaration=xml_declaration, item_name=item_name
    )
    return ser.run(node)


def _float_lexical(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "INF"
    if value == -math.inf:
        return "-INF"
    return repr(value)


class XMLSerializer(Visitor):
    """Stateful serializer; one instance handles one tree per :meth:`run`.

    Parameters
    ----------
    emit_types:
        Emit ``xsi:type`` / ``bx:itemType`` annotations so a schema-less
        parser can rebuild typed bXDM nodes.  Turn off for the paper's
        "schema assumed" measurements (plain, namespace-free XML).
    xml_declaration:
        Prepend ``<?xml version="1.0" encoding="UTF-8"?>``.
    item_name:
        Element name for array items when the array carries no
        ``item_name`` hint of its own.
    """

    def __init__(
        self,
        *,
        emit_types: bool = True,
        xml_declaration: bool = False,
        item_name: str = DEFAULT_ITEM_NAME,
    ) -> None:
        self.emit_types = emit_types
        self.xml_declaration = xml_declaration
        self.item_name = item_name
        #: The text of the run in progress; ``None`` between runs, so a
        #: serializer held for reuse holds no message.
        self._out: io.StringIO | None = None
        self._scopes: list[dict[str, str]] = [{"xml": XML_URI}]
        self._gen_counter = 0
        self._self_closed: set[int] = set()

    # ------------------------------------------------------------------

    def run(self, node: Node) -> str:
        """Serialize ``node`` and return the XML text."""
        self._out = io.StringIO()
        self._scopes = [{"xml": XML_URI}]
        self._gen_counter = 0
        self._self_closed = set()
        if self.xml_declaration:
            self._out.write('<?xml version="1.0" encoding="UTF-8"?>')
        walk(node, self)
        out, self._out = self._out, None
        return out.getvalue()

    def run_bytes(self, node: Node) -> bytes:
        """Serialize to UTF-8 bytes (what the transport layer carries)."""
        return self.run(node).encode("utf-8")

    # ------------------------------------------------------------------
    # namespace machinery

    def _scope(self) -> dict[str, str]:
        return self._scopes[-1]

    def _merged(self, pending: list[tuple[str, str]]) -> dict[str, str]:
        scope = dict(self._scope())
        for prefix, uri in pending:
            scope[prefix] = uri
        return scope

    def _fresh_prefix(self, bound: dict[str, str]) -> str:
        while True:
            self._gen_counter += 1
            prefix = f"ns{self._gen_counter}"
            if prefix not in bound:
                return prefix

    def _attr_prefix_for(
        self, uri: str, pending: list[tuple[str, str]], hint: str = ""
    ) -> str:
        """Find or declare a *non-empty* prefix binding for an attribute."""
        bound = self._merged(pending)
        candidates = [p for p, u in bound.items() if u == uri and p]
        if hint and hint in candidates:
            return hint
        if candidates:
            return candidates[0]
        if hint and bound.get(hint, uri) == uri:
            prefix = hint
        else:
            prefix = self._fresh_prefix(bound)
        pending.append((prefix, uri))
        return prefix

    def _well_known_prefix(self, uri: str, pending: list[tuple[str, str]]) -> str:
        hint = next((p for p, u in WELL_KNOWN_PREFIXES.items() if u == uri), "")
        return self._attr_prefix_for(uri, pending, hint)

    def _element_prefix(self, name: QName, pending: list[tuple[str, str]]) -> str:
        """Prefix for an element name (default namespace allowed)."""
        scope = self._merged(pending)
        if scope.get("", None) == name.uri:
            return ""
        if name.prefix and scope.get(name.prefix) == name.uri:
            return name.prefix
        for prefix, uri in scope.items():
            if uri == name.uri and prefix:
                return prefix
        hint = name.prefix
        if hint and bound_free(scope, hint, name.uri):
            pending.append((hint, name.uri))
            return hint
        prefix = self._fresh_prefix(scope)
        pending.append((prefix, name.uri))
        return prefix

    # ------------------------------------------------------------------
    # tag emission

    def _open_tag(
        self, node: ElementNode, extra_attrs: list[tuple[str, str]] | None = None
    ) -> str:
        """Emit ``<tag xmlns... attrs...`` (no closing ``>``), push scope.

        ``extra_attrs`` are pre-rendered (qualified-name, value) pairs used
        for type annotations; their prefixes must have been resolved against
        the same pending list, which callers achieve via
        :meth:`_open_tag_typed`.
        """
        pending: list[tuple[str, str]] = [(ns.prefix, ns.uri) for ns in node.namespaces]
        self._check_explicit_decls(node, pending)
        return self._emit_tag(node, pending, extra_attrs or [])

    def _open_tag_typed(self, node: ElementNode) -> str:
        """Open tag for leaf/array elements, adding xsi/bx annotations."""
        pending: list[tuple[str, str]] = [(ns.prefix, ns.uri) for ns in node.namespaces]
        self._check_explicit_decls(node, pending)
        extra: list[tuple[str, str]] = []
        if self.emit_types:
            xsi = self._well_known_prefix(XSI_URI, pending)
            xsd = self._well_known_prefix(XSD_URI, pending)
            if isinstance(node, ArrayElement):
                bx = self._well_known_prefix(BX_URI, pending)
                extra.append((f"{xsi}:type", f"{bx}:Array"))
                extra.append((f"{bx}:itemType", f"{xsd}:{node.atype.xsd_name}"))
            else:
                extra.append((f"{xsi}:type", f"{xsd}:{node.atype.xsd_name}"))
        return self._emit_tag(node, pending, extra)

    def _emit_tag(
        self,
        node: ElementNode,
        pending: list[tuple[str, str]],
        extra_attrs: list[tuple[str, str]],
    ) -> str:
        if node.name.uri:
            prefix = self._element_prefix(node.name, pending)
            tag = f"{prefix}:{node.name.local}" if prefix else node.name.local
        else:
            if self._merged(pending).get("", ""):
                pending.append(("", ""))  # cancel inherited default namespace
            tag = node.name.local

        attr_parts = [self._render_attribute(a, pending) for a in node.attributes]
        attr_parts.extend(
            f'{name}="{escape_attribute(value)}"' for name, value in extra_attrs
        )

        self._scopes.append(self._merged(pending))
        out = self._out
        out.write("<")
        out.write(tag)
        for prefix, uri in pending:
            if prefix:
                out.write(f' xmlns:{prefix}="{escape_attribute(uri)}"')
            else:
                out.write(f' xmlns="{escape_attribute(uri)}"')
        for part in attr_parts:
            out.write(" ")
            out.write(part)
        return tag

    def _check_explicit_decls(self, node: ElementNode, pending: list[tuple[str, str]]) -> None:
        seen: set[str] = set()
        for prefix, _uri in pending:
            if prefix in seen:
                raise XMLSerializeError(
                    f"element {node.name.clark()} declares prefix {prefix!r} twice"
                )
            seen.add(prefix)

    def _render_attribute(self, attr: AttributeNode, pending: list[tuple[str, str]]) -> str:
        value = format_lexical(attr.atype, attr.value)
        if attr.name.uri:
            prefix = self._attr_prefix_for(attr.name.uri, pending, attr.name.prefix)
            name = f"{prefix}:{attr.name.local}"
        else:
            name = attr.name.local
        return f'{name}="{escape_attribute(value)}"'

    def _close_tag(self, node: ElementNode) -> str:
        """Recompute the tag name at close time from the element's own scope.

        The scope pushed by ``_emit_tag`` is still on top of the stack and
        the resolution algorithm is deterministic, so this reproduces the
        exact tag the open used.
        """
        scope = self._scope()
        if not node.name.uri:
            return node.name.local
        if scope.get("", None) == node.name.uri:
            return node.name.local
        if node.name.prefix and scope.get(node.name.prefix) == node.name.uri:
            return f"{node.name.prefix}:{node.name.local}"
        for prefix, uri in scope.items():
            if uri == node.name.uri and prefix:
                return f"{prefix}:{node.name.local}"
        raise XMLSerializeError(  # pragma: no cover - open tag declared it
            f"no prefix in scope for {node.name.clark()} at close"
        )

    # ------------------------------------------------------------------
    # visitor hooks

    def enter_element(self, node: ElementNode) -> None:
        self._open_tag(node)
        if node.children:
            self._out.write(">")
        else:
            self._out.write("/>")
            self._scopes.pop()
            self._self_closed.add(id(node))

    def leave_element(self, node: ElementNode) -> None:
        if id(node) in self._self_closed:
            self._self_closed.discard(id(node))
            return
        self._out.write(f"</{self._close_tag(node)}>")
        self._scopes.pop()

    def visit_leaf(self, node: LeafElement) -> None:
        tag = self._open_tag_typed(node)
        self._out.write(">")
        self._out.write(escape_text(format_lexical(node.atype, node.value)))
        self._out.write(f"</{tag}>")
        self._scopes.pop()

    def visit_array(self, node: ArrayElement) -> None:
        tag = self._open_tag_typed(node)
        out = self._out
        items = self._array_item_strings(node)
        if not items:
            out.write("/>")
            self._scopes.pop()
            return
        out.write(">")
        item = node.item_name or self.item_name
        open_item = f"<{item}>"
        close_item = f"</{item}>"
        # single join: this is the hot loop behind Table 1 and Figures 4-6
        out.write("".join(f"{open_item}{t}{close_item}" for t in items))
        out.write(f"</{tag}>")
        self._scopes.pop()

    def visit_text(self, node: TextNode) -> None:
        self._out.write(escape_text(node.text))

    def visit_comment(self, node: CommentNode) -> None:
        self._out.write(f"<!--{node.text}-->")

    def visit_pi(self, node: PINode) -> None:
        if node.data:
            self._out.write(f"<?{node.target} {node.data}?>")
        else:
            self._out.write(f"<?{node.target}?>")

    # ------------------------------------------------------------------

    def _array_item_strings(self, node: ArrayElement) -> list[str]:
        """Lexical forms of every array item, bulk-converted."""
        values = node.values
        kind = values.dtype.kind
        if kind in "iu":
            return [str(v) for v in values.tolist()]
        if kind == "f":
            # tolist() yields Python floats; repr is the shortest round-trip
            # form.  This per-element conversion is the measured XML cost.
            return [_float_lexical(v) for v in values.tolist()]
        if kind == "b":
            return ["true" if v else "false" for v in values.tolist()]
        raise XMLSerializeError(f"cannot serialize array dtype {values.dtype}")


def bound_free(scope: dict[str, str], prefix: str, uri: str) -> bool:
    """True when ``prefix`` is unbound or already bound to ``uri``."""
    return scope.get(prefix, uri) == uri
