"""Structural comparison of bXDM trees.

Used pervasively by the test suite (round-trip and transcodability checks)
and by the paper's verification service.  Equality is *data-model* equality:
namespace prefixes do not participate in QName identity, attribute order is
insignificant, and NaN compares equal to NaN (a round-tripped NaN payload is
still the same payload).
"""

from __future__ import annotations

import math

import numpy as np

from repro.xdm.nodes import (
    ArrayElement,
    CommentNode,
    DocumentNode,
    ElementNode,
    LeafElement,
    Node,
    PINode,
    TextNode,
)


def deep_equal(a: Node, b: Node, *, ignore_ns_decls: bool = False) -> bool:
    """True when the two trees are equal under bXDM data-model equality.

    ``ignore_ns_decls=True`` skips comparison of namespace *declaration*
    nodes (element/attribute identity is URI-based regardless).  Textual XML
    round-trips need this: the serializer auto-declares prefixes for
    ``xsi:type`` annotations, so a parsed-back tree legitimately carries
    extra declarations.
    """
    return explain_difference(a, b, ignore_ns_decls=ignore_ns_decls) is None


def explain_difference(
    a: Node, b: Node, path: str = "/", *, ignore_ns_decls: bool = False
) -> str | None:
    """Return a human-readable description of the first difference, or None.

    The returned string names the path to the differing node — invaluable
    when a 64 MB round-trip test fails somewhere in the middle.  Iterative
    (explicit worklist), so arbitrarily deep trees compare without hitting
    the recursion limit.
    """
    work: list[tuple[Node, Node, str]] = [(a, b, path)]
    while work:
        a, b, path = work.pop()
        diff = _compare_one(a, b, path, work, ignore_ns_decls=ignore_ns_decls)
        if diff is not None:
            return diff
    return None


def _compare_one(
    a: Node,
    b: Node,
    path: str,
    work: list,
    *,
    ignore_ns_decls: bool = False,
) -> str | None:
    if type(a) is not type(b):
        return f"{path}: node kinds differ ({type(a).__name__} vs {type(b).__name__})"
    opts = {"ignore_ns_decls": ignore_ns_decls}

    if isinstance(a, DocumentNode):
        return _enqueue_children(a, b, path, work)

    if isinstance(a, LeafElement):
        assert isinstance(b, LeafElement)
        header = _compare_element_header(a, b, path, **opts)
        if header:
            return header
        if a.atype != b.atype:
            return f"{path}{a.name.local}: leaf types differ ({a.atype.xsd_name} vs {b.atype.xsd_name})"
        if not _scalar_equal(a.value, b.value):
            return f"{path}{a.name.local}: leaf values differ ({a.value!r} vs {b.value!r})"
        return None

    if isinstance(a, ArrayElement):
        assert isinstance(b, ArrayElement)
        header = _compare_element_header(a, b, path, **opts)
        if header:
            return header
        if a.atype != b.atype:
            return f"{path}{a.name.local}: array types differ ({a.atype.xsd_name} vs {b.atype.xsd_name})"
        if a.values.size != b.values.size:
            return f"{path}{a.name.local}: array lengths differ ({a.values.size} vs {b.values.size})"
        if not _arrays_equal(a.values, b.values):
            idx = _first_mismatch(a.values, b.values)
            return (
                f"{path}{a.name.local}: array values differ at index {idx} "
                f"({a.values[idx]!r} vs {b.values[idx]!r})"
            )
        return None

    if isinstance(a, ElementNode):
        assert isinstance(b, ElementNode)
        header = _compare_element_header(a, b, path, **opts)
        if header:
            return header
        return _enqueue_children(a, b, f"{path}{a.name.local}/", work)

    if isinstance(a, TextNode):
        assert isinstance(b, TextNode)
        if a.text != b.text:
            return f"{path}: text differs ({a.text[:40]!r} vs {b.text[:40]!r})"
        return None

    if isinstance(a, CommentNode):
        assert isinstance(b, CommentNode)
        if a.text != b.text:
            return f"{path}: comment differs"
        return None

    if isinstance(a, PINode):
        assert isinstance(b, PINode)
        if (a.target, a.data) != (b.target, b.data):
            return f"{path}: processing instruction differs"
        return None

    return f"{path}: unsupported node type {type(a).__name__}"  # pragma: no cover


def _compare_element_header(
    a: ElementNode, b: ElementNode, path: str, *, ignore_ns_decls: bool = False
) -> str | None:
    if a.name != b.name:
        return f"{path}: element names differ ({a.name.clark()} vs {b.name.clark()})"
    if not ignore_ns_decls and set(a.namespaces) != set(b.namespaces):
        return f"{path}{a.name.local}: namespace declarations differ"
    a_attrs = {attr.name: attr for attr in a.attributes}
    b_attrs = {attr.name: attr for attr in b.attributes}
    if a_attrs.keys() != b_attrs.keys():
        only_a = sorted(q.clark() for q in a_attrs.keys() - b_attrs.keys())
        only_b = sorted(q.clark() for q in b_attrs.keys() - a_attrs.keys())
        return f"{path}{a.name.local}: attribute sets differ (only-left={only_a}, only-right={only_b})"
    for qname, attr in a_attrs.items():
        other = b_attrs[qname]
        if attr.atype != other.atype or not _scalar_equal(attr.value, other.value):
            return (
                f"{path}{a.name.local}/@{qname.local}: attribute values differ "
                f"({attr.value!r} vs {other.value!r})"
            )
    return None


def _enqueue_children(a, b, path: str, work: list) -> str | None:
    if len(a.children) != len(b.children):
        return f"{path}: child counts differ ({len(a.children)} vs {len(b.children)})"
    for i in range(len(a.children) - 1, -1, -1):
        work.append((a.children[i], b.children[i], f"{path}[{i}]"))
    return None


def _scalar_equal(x, y) -> bool:
    if isinstance(x, float) and isinstance(y, float):
        if math.isnan(x) and math.isnan(y):
            return True
        return x == y
    return x == y


def _arrays_equal(x: np.ndarray, y: np.ndarray) -> bool:
    # one pass at memory speed; the NaN-aware compare (~30x slower on large
    # float arrays) only settles what the plain one calls unequal
    if (x == y).all():
        return True
    return x.dtype.kind == "f" and bool(np.array_equal(x, y, equal_nan=True))


def _first_mismatch(x: np.ndarray, y: np.ndarray) -> int:
    if x.dtype.kind == "f":
        neq = ~((x == y) | (np.isnan(x) & np.isnan(y)))
    else:
        neq = x != y
    return int(np.argmax(neq))


def canonical_signature(node: Node, *, include_ns_decls: bool = True):
    """A hashable, order-normalized summary of a tree.

    Two trees have the same signature iff :func:`deep_equal` holds (modulo
    float bit-patterns of NaN).  Handy as a dict key in caching layers and
    for quick test assertions.

    ``include_ns_decls=False`` drops namespace *declaration* nodes from the
    summary (QName identity is URI-based regardless) — the form message
    signatures are computed over, since re-encoding through textual XML
    legitimately adds declarations (see :func:`deep_equal`).
    """
    opts = {"include_ns_decls": include_ns_decls}
    if isinstance(node, DocumentNode):
        return ("doc", tuple([canonical_signature(c, **opts) for c in node.children]))
    if isinstance(node, LeafElement):
        return (
            "leaf",
            node.name.clark(),
            _header_sig(node, **opts),
            node.atype.xsd_name,
            _scalar_sig(node.value),
        )
    if isinstance(node, ArrayElement):
        return (
            "array",
            node.name.clark(),
            _header_sig(node, **opts),
            node.atype.xsd_name,
            # one fixed byte order: a big-endian decode of the same values
            # signs alike, and a little-endian array is not copied
            node.values.astype(node.values.dtype.newbyteorder("<"), copy=False).tobytes(),
        )
    if isinstance(node, ElementNode):
        return (
            "elem",
            node.name.clark(),
            _header_sig(node, **opts),
            tuple([canonical_signature(c, **opts) for c in node.children]),
        )
    if isinstance(node, TextNode):
        return ("text", node.text)
    if isinstance(node, CommentNode):
        return ("comment", node.text)
    if isinstance(node, PINode):
        return ("pi", node.target, node.data)
    raise TypeError(f"cannot summarize {type(node).__name__}")  # pragma: no cover


def _header_sig(node: ElementNode, *, include_ns_decls: bool = True):
    attrs = tuple(
        sorted(
            (a.name.clark(), a.atype.xsd_name, _scalar_sig(a.value)) for a in node.attributes
        )
    )
    if not include_ns_decls:
        return (attrs,)
    nss = tuple(sorted((ns.prefix, ns.uri) for ns in node.namespaces))
    return (attrs, nss)


def _scalar_sig(value):
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return value
