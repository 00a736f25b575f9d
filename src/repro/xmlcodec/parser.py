"""A from-scratch, namespace-aware XML 1.0 parser producing bXDM trees.

The parser is a hand-written scanner over a Python string — no external XML
library is used anywhere in this project.  It enforces the well-formedness
rules the reproduction needs (matched tags, single root, attribute
uniqueness, declared prefixes, legal references) and reconstructs *typed*
bXDM nodes from ``xsi:type`` annotations when ``typed=True`` (the default),
per the convention in :mod:`repro.xmlcodec.typed`.

DTDs are not processed: a ``<!DOCTYPE ...>`` without an internal subset is
skipped, one with an internal subset is rejected — the paper's stack never
relies on DTDs, and silently ignoring entity definitions would be wrong.
"""

from __future__ import annotations

import re

import numpy as np

from repro.xdm.nodes import (
    ArrayElement,
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    LeafElement,
    NamespaceNode,
    PINode,
    TextNode,
)
from repro.xdm.qname import QName, XML_URI, XSD_URI
from repro.xdm.types import atomic_type_for_xsd, parse_lexical
from repro.xdm.errors import XDMTypeError
from repro.xmlcodec.errors import XMLParseError
from repro.xmlcodec.escape import unescape
from repro.xmlcodec.typed import ARRAY_TYPE, BX_ITEM_TYPE, XSI_TYPE, split_qname_text

_NAME_RE = re.compile(r"[^\W\d][\w.\-]*", re.UNICODE)
_WS = " \t\r\n"

#: Fast-path pattern for one simple array item: ``<n>text</n>`` with no
#: prefix, attributes, entities or markup in the text.
_SIMPLE_ITEM_RE = re.compile(r"\s*<([^\W\d][\w.\-]*)>([^<&]*)</\1>", re.UNICODE)


def parse_document(data: str | bytes | memoryview, *, typed: bool = True) -> DocumentNode:
    """Parse a complete XML document into a :class:`DocumentNode`."""
    return XMLParser(_decode(data), typed=typed).parse_document()


def parse_fragment(data: str | bytes | memoryview, *, typed: bool = True) -> ElementNode:
    """Parse a single element (no prolog required) into an element node."""
    return XMLParser(_decode(data), typed=typed).parse_fragment()


#: The UTF-8 byte-order mark, dropped before a document is decoded.
_BOM = b"\xef\xbb\xbf"


def _decode(data: str | bytes | memoryview) -> str:
    """The document's text: a ``str`` as given; bytes, or a buffer such as
    a received body's ``memoryview``, decoded where they lie (no copy)."""
    if isinstance(data, str):
        return data
    if data[:3] == _BOM:
        data = memoryview(data)[3:]
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as exc:
        raise XMLParseError(f"document is not valid UTF-8: {exc}") from exc


class XMLParser:
    """One-shot parser over an in-memory document string."""

    def __init__(self, text: str, *, typed: bool = True) -> None:
        self._s = text
        self._p = 0
        self._typed = typed
        # namespace scopes: list of dicts, innermost last
        self._ns_stack: list[dict[str, str]] = [{"xml": XML_URI}]
        # QName interning: large documents repeat the same few names
        # millions of times; the cache turns each repeat into a dict hit.
        self._qname_cache: dict[tuple[str, str], QName] = {}

    # ------------------------------------------------------------------
    # entry points

    def parse_document(self) -> DocumentNode:
        doc = DocumentNode()
        self._skip_bom()
        self._maybe_xml_decl()
        root_seen = False
        while self._p < len(self._s):
            ch = self._s[self._p]
            if ch in _WS:
                self._p += 1
                continue
            if ch != "<":
                raise XMLParseError("text content outside the root element", self._p)
            node = self._parse_markup(allow_doctype=not root_seen)
            if node is None:
                continue  # skipped DOCTYPE
            if isinstance(node, ElementNode):
                if root_seen:
                    raise XMLParseError("more than one root element", self._p)
                root_seen = True
            doc.children.append(node)
        if not root_seen:
            raise XMLParseError("document has no root element", self._p)
        return doc

    def parse_fragment(self) -> ElementNode:
        self._skip_bom()
        self._skip_ws()
        if not self._s.startswith("<", self._p):
            raise XMLParseError("fragment must start with an element", self._p)
        node = self._parse_markup(allow_doctype=False)
        if not isinstance(node, ElementNode):
            raise XMLParseError("fragment must be a single element", self._p)
        self._skip_ws()
        if self._p != len(self._s):
            raise XMLParseError("trailing content after fragment", self._p)
        return node

    # ------------------------------------------------------------------
    # scanning helpers

    def _skip_bom(self) -> None:
        if self._s.startswith("﻿", self._p):
            self._p += 1

    def _skip_ws(self) -> None:
        while self._p < len(self._s) and self._s[self._p] in _WS:
            self._p += 1

    def _expect(self, literal: str) -> None:
        if not self._s.startswith(literal, self._p):
            raise XMLParseError(f"expected {literal!r}", self._p)
        self._p += len(literal)

    def _read_name(self) -> str:
        m = _NAME_RE.match(self._s, self._p)
        if not m:
            raise XMLParseError("expected a name", self._p)
        name = m.group(0)
        self._p = m.end()
        # allow one colon (prefix:local)
        if self._s.startswith(":", self._p):
            self._p += 1
            m2 = _NAME_RE.match(self._s, self._p)
            if not m2:
                raise XMLParseError("expected a local name after ':'", self._p)
            self._p = m2.end()
            return f"{name}:{m2.group(0)}"
        return name

    # ------------------------------------------------------------------
    # prolog

    def _maybe_xml_decl(self) -> None:
        if self._s.startswith("<?xml", self._p) and self._s[self._p + 5 : self._p + 6] in _WS:
            end = self._s.find("?>", self._p)
            if end < 0:
                raise XMLParseError("unterminated XML declaration", self._p)
            decl = self._s[self._p + 5 : end]
            if "encoding" in decl:
                m = re.search(r"encoding\s*=\s*[\"']([^\"']+)[\"']", decl)
                if m and m.group(1).lower().replace("_", "-") not in ("utf-8", "us-ascii"):
                    raise XMLParseError(f"unsupported encoding {m.group(1)!r}", self._p)
            self._p = end + 2

    # ------------------------------------------------------------------
    # markup dispatch (cursor is on '<')

    def _parse_markup(self, *, allow_doctype: bool):
        s, p = self._s, self._p
        if s.startswith("<!--", p):
            return self._parse_comment()
        if s.startswith("<![CDATA[", p):
            raise XMLParseError("CDATA section outside element content", p)
        if s.startswith("<!DOCTYPE", p):
            if not allow_doctype:
                raise XMLParseError("misplaced DOCTYPE", p)
            self._skip_doctype()
            return None
        if s.startswith("<?", p):
            return self._parse_pi()
        if s.startswith("</", p):
            raise XMLParseError("unexpected end tag", p)
        return self._parse_element()

    def _parse_comment(self) -> CommentNode:
        self._expect("<!--")
        end = self._s.find("--", self._p)
        if end < 0:
            raise XMLParseError("unterminated comment", self._p)
        if not self._s.startswith("-->", end):
            raise XMLParseError("'--' not allowed inside comments", end)
        node = CommentNode(self._s[self._p : end])
        self._p = end + 3
        return node

    def _parse_pi(self) -> PINode:
        start = self._p
        self._expect("<?")
        target = self._read_name()
        if target.lower() == "xml":
            raise XMLParseError("XML declaration not allowed here", start)
        end = self._s.find("?>", self._p)
        if end < 0:
            raise XMLParseError("unterminated processing instruction", start)
        data = self._s[self._p : end].lstrip(_WS)
        self._p = end + 2
        return PINode(target, data)

    def _skip_doctype(self) -> None:
        start = self._p
        end = self._s.find(">", self._p)
        if end < 0:
            raise XMLParseError("unterminated DOCTYPE", start)
        if "[" in self._s[start:end]:
            raise XMLParseError("DOCTYPE internal subsets are not supported", start)
        self._p = end + 1

    # ------------------------------------------------------------------
    # elements

    def _parse_element(self) -> ElementNode:
        start = self._p
        self._expect("<")
        raw_name = self._read_name()
        raw_attrs = self._parse_attributes()
        self._skip_ws()
        if self._s.startswith("/>", self._p):
            self._p += 2
            empty = True
        else:
            self._expect(">")
            empty = False

        ns_decls, plain_attrs = self._split_namespace_declarations(raw_attrs, start)
        if ns_decls:
            scope = dict(self._ns_stack[-1])
            for decl in ns_decls:
                scope[decl.prefix] = decl.uri
        else:
            scope = self._ns_stack[-1]  # scopes are never mutated: share it
        self._ns_stack.append(scope)
        try:
            name = self._resolve_element_name(raw_name, start)
            attributes = self._resolve_attributes(plain_attrs, start)
            if not empty and self._typed and attributes:
                fast = self._try_fast_array(raw_name, name, attributes, ns_decls, start)
                if fast is not None:
                    return fast
            children = [] if empty else self._parse_content(raw_name)
            return self._finish_element(name, attributes, ns_decls, children, start)
        finally:
            self._ns_stack.pop()

    # ------------------------------------------------------------------
    # typed-array fast path

    def _try_fast_array(self, raw_name, name, attributes, ns_decls, start):
        """Bulk-parse ``bx:Array`` content without building item nodes.

        The general path constructs an ElementNode + TextNode per item and
        then throws them away rebuilding the packed array; for the paper's
        million-element messages that dominates everything.  When the
        element is annotated as an array and its content is a plain run of
        ``<n>text</n>`` items, this path cuts the segment out with one
        ``str.find`` and converts the texts in bulk.  Any anomaly —
        entities, comments, nested markup, mixed item names — returns None
        and the general (fully-checking) path takes over.
        """
        xsi_attr = next((a for a in attributes if a.name == XSI_TYPE), None)
        if xsi_attr is None:
            return None
        type_qname = self._resolve_type_value(str(xsi_attr.value), start)
        if type_qname != ARRAY_TYPE:
            return None
        item_attr = next((a for a in attributes if a.name == BX_ITEM_TYPE), None)
        if item_attr is None:
            return None
        item_qname = self._resolve_type_value(str(item_attr.value), start)
        if item_qname is None or item_qname.uri != XSD_URI:
            return None
        try:
            atype = atomic_type_for_xsd(item_qname.local)
        except XDMTypeError:
            return None
        if atype.dtype is None:
            return None

        # Match items in place (the item name may equal the array element's
        # own name, so searching for the close tag first would be ambiguous).
        s = self._s
        pos = self._p
        item_name: str | None = None
        texts: list[str] = []
        match = _SIMPLE_ITEM_RE.match
        while True:
            m = match(s, pos)
            if m is None:
                break
            if item_name is None:
                item_name = m.group(1)
            elif m.group(1) != item_name:
                return None
            texts.append(m.group(2))
            pos = m.end()

        # the close tag must follow immediately (modulo whitespace)
        n = len(s)
        while pos < n and s[pos] in _WS:
            pos += 1
        close = f"</{raw_name}"
        if not s.startswith(close, pos):
            return None  # mixed/unclean content: general path takes over
        after = pos + len(close)
        while after < n and s[after] in _WS:
            after += 1
        if after >= n or s[after] != ">":
            return None

        values = self._bulk_convert(texts, atype, start)
        if values is None:
            return None
        self._p = after + 1
        kept = [a for a in attributes if a.name not in (XSI_TYPE, BX_ITEM_TYPE)]
        return ArrayElement(
            name, values, atype, attributes=kept, namespaces=ns_decls, item_name=item_name
        )

    @staticmethod
    def _bulk_convert(texts, atype, offset):
        """Convert lexical forms to a packed array, vectorized when clean."""
        import numpy as _np

        dtype = atype.dtype
        try:
            if dtype.kind == "f":
                return _np.array(texts, dtype=dtype)
            if dtype.kind in "iu":
                wide = _np.array(texts, dtype="i8" if dtype.kind == "i" else "u8")
                info = _np.iinfo(dtype)
                if wide.size and (wide.min() < info.min or wide.max() > info.max):
                    raise XMLParseError(
                        f"array item out of range for xsd:{atype.xsd_name}", offset
                    )
                return wide.astype(dtype)
            if dtype.kind == "b":
                out = _np.empty(len(texts), dtype="?")
                for i, t in enumerate(texts):
                    v = t.strip()
                    if v in ("true", "1"):
                        out[i] = True
                    elif v in ("false", "0"):
                        out[i] = False
                    else:
                        raise XMLParseError(f"invalid xsd:boolean item {t!r}", offset)
                return out
        except (ValueError, OverflowError):
            # numpy could not parse some lexical form (e.g. INF/NaN spelled
            # the XSD way, exotic whitespace): per-item fallback
            try:
                return _np.array(
                    [parse_lexical(atype, t) for t in texts], dtype=dtype
                )
            except XDMTypeError:
                return None
        return None

    def _parse_attributes(self) -> list[tuple[str, str, int]]:
        attrs: list[tuple[str, str, int]] = []
        seen: set[str] = set()
        while True:
            before = self._p
            self._skip_ws()
            if self._p < len(self._s) and self._s[self._p] in (">", "/"):
                return attrs
            if self._p == before:
                raise XMLParseError("expected whitespace before attribute", self._p)
            at = self._p
            name = self._read_name()
            if name in seen:
                raise XMLParseError(f"duplicate attribute {name!r}", at)
            seen.add(name)
            self._skip_ws()
            self._expect("=")
            self._skip_ws()
            if self._p >= len(self._s) or self._s[self._p] not in "\"'":
                raise XMLParseError("attribute value must be quoted", self._p)
            quote = self._s[self._p]
            self._p += 1
            end = self._s.find(quote, self._p)
            if end < 0:
                raise XMLParseError("unterminated attribute value", at)
            raw_value = self._s[self._p : end]
            if "<" in raw_value:
                raise XMLParseError("'<' not allowed in attribute values", self._p)
            value = unescape(raw_value, self._p)
            self._p = end + 1
            attrs.append((name, value, at))

    def _split_namespace_declarations(
        self, raw_attrs: list[tuple[str, str, int]], offset: int
    ) -> tuple[list[NamespaceNode], list[tuple[str, str, int]]]:
        decls: list[NamespaceNode] = []
        plain: list[tuple[str, str, int]] = []
        for name, value, at in raw_attrs:
            if name == "xmlns":
                decls.append(NamespaceNode("", value))
            elif name.startswith("xmlns:"):
                prefix = name[6:]
                if prefix == "xmlns" or (prefix == "xml" and value != XML_URI):
                    raise XMLParseError(f"illegal namespace declaration {name!r}", at)
                if not value:
                    raise XMLParseError("empty namespace URI for a prefix", at)
                decls.append(NamespaceNode(prefix, value))
            else:
                plain.append((name, value, at))
        return decls, plain

    def _resolve_prefix(self, prefix: str, offset: int) -> str:
        scope = self._ns_stack[-1]
        try:
            return scope[prefix]
        except KeyError:
            raise XMLParseError(f"undeclared namespace prefix {prefix!r}", offset) from None

    def _resolve_element_name(self, raw: str, offset: int) -> QName:
        prefix, _, local = raw.rpartition(":")
        if prefix:
            uri = self._resolve_prefix(prefix, offset)
        else:
            local = raw
            uri = self._ns_stack[-1].get("", "")
        key = (raw, uri)
        cached = self._qname_cache.get(key)
        if cached is None:
            cached = QName(local, uri, prefix)
            self._qname_cache[key] = cached
        return cached

    def _resolve_attributes(
        self, plain: list[tuple[str, str, int]], offset: int
    ) -> list[AttributeNode]:
        attributes: list[AttributeNode] = []
        seen: set[QName] = set()
        for name, value, at in plain:
            prefix, _, local = name.rpartition(":")
            if prefix:
                qname = QName(local, self._resolve_prefix(prefix, at), prefix)
            else:
                qname = QName(name)  # unprefixed attributes are in no namespace
            if qname in seen:
                raise XMLParseError(f"duplicate attribute {qname.clark()}", at)
            seen.add(qname)
            attributes.append(AttributeNode(qname, value))
        return attributes

    def _parse_content(self, raw_name: str) -> list:
        children: list = []
        s = self._s
        while True:
            lt = s.find("<", self._p)
            if lt < 0:
                raise XMLParseError(f"unterminated element <{raw_name}>", self._p)
            if lt > self._p:
                raw_text = s[self._p : lt]
                text = unescape(raw_text, self._p)
                if "]]>" in raw_text:
                    raise XMLParseError("']]>' not allowed in character data", self._p)
                children.append(TextNode(text))
                self._p = lt
            if s.startswith("</", self._p):
                self._p += 2
                end_name = self._read_name()
                if end_name != raw_name:
                    raise XMLParseError(
                        f"end tag </{end_name}> does not match <{raw_name}>", self._p
                    )
                self._skip_ws()
                self._expect(">")
                return _merge_text(children)
            if s.startswith("<![CDATA[", self._p):
                end = s.find("]]>", self._p + 9)
                if end < 0:
                    raise XMLParseError("unterminated CDATA section", self._p)
                children.append(TextNode(s[self._p + 9 : end]))
                self._p = end + 3
                continue
            if s.startswith("<!--", self._p):
                children.append(self._parse_comment())
                continue
            if s.startswith("<?", self._p):
                children.append(self._parse_pi())
                continue
            children.append(self._parse_element())

    # ------------------------------------------------------------------
    # typed reconstruction

    def _finish_element(
        self,
        name: QName,
        attributes: list[AttributeNode],
        ns_decls: list[NamespaceNode],
        children: list,
        offset: int,
    ) -> ElementNode:
        if self._typed:
            xsi_attr = next((a for a in attributes if a.name == XSI_TYPE), None)
            if xsi_attr is not None:
                type_qname = self._resolve_type_value(str(xsi_attr.value), offset)
                if type_qname is not None:
                    if type_qname == ARRAY_TYPE:
                        return self._build_array(name, attributes, ns_decls, children, offset)
                    if type_qname.uri == XSD_URI:
                        return self._build_leaf(
                            name, type_qname.local, attributes, ns_decls, children, offset
                        )
        return ElementNode(
            name, attributes=attributes, namespaces=ns_decls, children=children
        )

    def _resolve_type_value(self, value: str, offset: int) -> QName | None:
        prefix, local = split_qname_text(value.strip())
        scope = self._ns_stack[-1]
        uri = scope.get(prefix)
        if uri is None:
            if prefix:
                raise XMLParseError(
                    f"xsi:type uses undeclared prefix {prefix!r}", offset
                )
            return None
        return QName(local, uri)

    def _build_leaf(
        self, name, xsd_local, attributes, ns_decls, children, offset
    ) -> ElementNode:
        try:
            atype = atomic_type_for_xsd(xsd_local)
        except XDMTypeError:
            # Unknown schema type: keep the element untyped rather than fail.
            return ElementNode(name, attributes=attributes, namespaces=ns_decls, children=children)
        texts = []
        for child in children:
            if isinstance(child, TextNode):
                texts.append(child.text)
            elif isinstance(child, CommentNode):
                continue
            else:
                raise XMLParseError(
                    f"element typed xsd:{xsd_local} must have text-only content", offset
                )
        try:
            value = parse_lexical(atype, "".join(texts))
        except XDMTypeError as exc:
            raise XMLParseError(str(exc), offset) from exc
        kept = [a for a in attributes if a.name != XSI_TYPE]
        return LeafElement(name, value, atype, attributes=kept, namespaces=ns_decls)

    def _build_array(self, name, attributes, ns_decls, children, offset) -> ElementNode:
        item_attr = next((a for a in attributes if a.name == BX_ITEM_TYPE), None)
        if item_attr is None:
            raise XMLParseError("bx:Array element is missing bx:itemType", offset)
        type_qname = self._resolve_type_value(str(item_attr.value), offset)
        if type_qname is None or type_qname.uri != XSD_URI:
            raise XMLParseError(f"bx:itemType must name an xsd type, got {item_attr.value!r}", offset)
        try:
            atype = atomic_type_for_xsd(type_qname.local)
        except XDMTypeError as exc:
            raise XMLParseError(str(exc), offset) from exc
        if atype.dtype is None:
            raise XMLParseError("arrays of xsd:string are not supported", offset)
        values: list = []
        item_name: str | None = None
        for child in children:
            if isinstance(child, TextNode):
                if child.text.strip():
                    raise XMLParseError("stray text inside bx:Array content", offset)
                continue
            if isinstance(child, CommentNode):
                continue
            if not isinstance(child, ElementNode):
                raise XMLParseError("bx:Array content must be item elements", offset)
            if item_name is None:
                item_name = child.name.local
            elif child.name.local != item_name:
                raise XMLParseError(
                    f"bx:Array items must share one name ({item_name!r} vs {child.name.local!r})",
                    offset,
                )
            if isinstance(child, LeafElement):
                values.append(child.value)
            else:
                try:
                    values.append(parse_lexical(atype, child.text_content()))
                except XDMTypeError as exc:
                    raise XMLParseError(str(exc), offset) from exc
        kept = [a for a in attributes if a.name not in (XSI_TYPE, BX_ITEM_TYPE)]
        arr = np.asarray(values, dtype=atype.dtype) if values else np.empty(0, dtype=atype.dtype)
        return ArrayElement(
            name, arr, atype, attributes=kept, namespaces=ns_decls, item_name=item_name
        )


def _merge_text(children: list) -> list:
    """Coalesce adjacent text nodes (CDATA splits create them)."""
    out: list = []
    for child in children:
        if isinstance(child, TextNode) and out and isinstance(out[-1], TextNode):
            out[-1] = TextNode(out[-1].text + child.text)
        else:
            out.append(child)
    return out
