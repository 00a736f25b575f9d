"""Convenience constructors and a stack-based tree builder for bXDM.

Two styles are offered:

* functional — :func:`element`, :func:`leaf`, :func:`array`, :func:`text`,
  nested directly::

      env = element("Envelope",
                    element("Body",
                            leaf("count", 3, "int"),
                            array("values", np.arange(4.0))))

* imperative — :class:`TreeBuilder`, whose ``element`` context manager keeps
  the current insertion point, convenient when the tree shape is data-driven
  (an embedder's; the codecs' decoders keep insertion points of their own).
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

from repro.xdm.errors import XDMError
from repro.xdm.nodes import (
    ArrayElement,
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    LeafElement,
    NamespaceNode,
    Node,
    PINode,
    TextNode,
)
from repro.xdm.qname import QName


def _attrs(attributes: dict | None) -> list[AttributeNode]:
    if not attributes:
        return []
    return [AttributeNode(name, value) for name, value in attributes.items()]


def _nss(namespaces: dict | None) -> list[NamespaceNode]:
    if not namespaces:
        return []
    return [NamespaceNode(prefix, uri) for prefix, uri in namespaces.items()]


def element(
    name: QName | str,
    *children: Node,
    attributes: dict | None = None,
    namespaces: dict | None = None,
) -> ElementNode:
    """Build a component element with inline children."""
    return ElementNode(
        name,
        attributes=_attrs(attributes),
        namespaces=_nss(namespaces),
        children=children,
    )


def leaf(
    name: QName | str,
    value,
    atype=None,
    *,
    attributes: dict | None = None,
    namespaces: dict | None = None,
) -> LeafElement:
    """Build a typed leaf element (type inferred from the value if omitted)."""
    return LeafElement(
        name, value, atype, attributes=_attrs(attributes), namespaces=_nss(namespaces)
    )


def array(
    name: QName | str,
    values,
    atype=None,
    *,
    attributes: dict | None = None,
    namespaces: dict | None = None,
    item_name: str | None = None,
) -> ArrayElement:
    """Build a packed array element from any array-like."""
    return ArrayElement(
        name,
        values,
        atype,
        attributes=_attrs(attributes),
        namespaces=_nss(namespaces),
        item_name=item_name,
    )


def text(content: str) -> TextNode:
    return TextNode(content)


def comment(content: str) -> CommentNode:
    return CommentNode(content)


def pi(target: str, data: str = "") -> PINode:
    return PINode(target, data)


def doc(*children: Node) -> DocumentNode:
    """Build a document node around prolog nodes and the root element."""
    return DocumentNode(children)


class TreeBuilder:
    """Imperative builder maintaining a current-element stack."""

    def __init__(self) -> None:
        self._document = DocumentNode()
        self._stack: list[ElementNode | DocumentNode] = [self._document]

    @property
    def current(self) -> ElementNode | DocumentNode:
        return self._stack[-1]

    @property
    def document(self) -> DocumentNode:
        if len(self._stack) != 1:
            raise XDMError(f"{len(self._stack) - 1} element(s) still open")
        return self._document

    @property
    def depth(self) -> int:
        """Number of currently open elements."""
        return len(self._stack) - 1

    # -- structural operations -------------------------------------------

    def start_element(
        self,
        name: QName | str,
        *,
        attributes: dict | None = None,
        namespaces: dict | None = None,
    ) -> ElementNode:
        node = element(name, attributes=attributes, namespaces=namespaces)
        self.current.append(node)
        self._stack.append(node)
        return node

    def end_element(self) -> ElementNode:
        if len(self._stack) == 1:
            raise XDMError("end_element() with no element open")
        return self._stack.pop()  # type: ignore[return-value]

    @contextlib.contextmanager
    def element(
        self,
        name: QName | str,
        *,
        attributes: dict | None = None,
        namespaces: dict | None = None,
    ) -> Iterator[ElementNode]:
        node = self.start_element(name, attributes=attributes, namespaces=namespaces)
        try:
            yield node
        finally:
            popped = self.end_element()
            if popped is not node:  # pragma: no cover - builder misuse
                raise XDMError("unbalanced element nesting in TreeBuilder")

    # -- content operations ----------------------------------------------

    def add(self, node: Node) -> Node:
        return self.current.append(node)

    def leaf(self, name: QName | str, value, atype=None, **kwargs) -> LeafElement:
        node = leaf(name, value, atype, **kwargs)
        self.current.append(node)
        return node

    def array(self, name: QName | str, values, atype=None, **kwargs) -> ArrayElement:
        node = array(name, values, atype, **kwargs)
        self.current.append(node)
        return node

    def text(self, content: str) -> TextNode:
        node = TextNode(content)
        self.current.append(node)
        return node

    def comment(self, content: str) -> CommentNode:
        node = CommentNode(content)
        self.current.append(node)
        return node

    def pi(self, target: str, data: str = "") -> PINode:
        node = PINode(target, data)
        self.current.append(node)
        return node
