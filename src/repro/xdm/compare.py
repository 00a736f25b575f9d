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


#: Elements per block of a value compare, and per piece of an array that
#: ``digest.canonical_digest`` swaps or gathers.  What one block builds —
#: bool masks of a few KiB, and numpy's cast buffer when the two dtypes
#: differ (byte order included), at most a block of the widest item,
#: 32 KiB — stays under 64 KiB however long the arrays are.
_BLOCK = 4096


def _same_memory(x: np.ndarray, y: np.ndarray) -> bool:
    """True when both arrays read the same bytes the same way: one data
    address, one dtype (byte order included), one shape, one stride.

    Identical memory read alike is equal values — a replayed decode and
    its stateless reference are two ``copy=False`` views of one landing —
    so no element needs reading to say so.
    """
    return (
        x.dtype == y.dtype
        and x.shape == y.shape
        and x.strides == y.strides
        and x.__array_interface__["data"][0] == y.__array_interface__["data"][0]
    )


def _arrays_equal(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal values, NaN equal to NaN, of two 1-D arrays of one length.

    Block by block: a plain compare at memory speed, and the NaN-aware one
    (several masks) only for a block the plain one calls unequal.
    """
    if _same_memory(x, y):
        return True
    nan_aware = x.dtype.kind == "f"
    for start in range(0, x.size, _BLOCK):
        a = x[start : start + _BLOCK]
        b = y[start : start + _BLOCK]
        if not (a == b).all() and (not nan_aware or _unequal(a, b, True).any()):
            return False
    return True


def _first_mismatch(x: np.ndarray, y: np.ndarray) -> int:
    """Index of the first element :func:`_arrays_equal` calls unequal."""
    nan_aware = x.dtype.kind == "f"
    for start in range(0, x.size, _BLOCK):
        neq = _unequal(x[start : start + _BLOCK], y[start : start + _BLOCK], nan_aware)
        if neq.any():
            return start + int(np.argmax(neq))
    return 0


def _unequal(a: np.ndarray, b: np.ndarray, nan_aware: bool) -> np.ndarray:
    """Mask of the elements that differ; with ``nan_aware``, NaN against
    NaN does not."""
    neq = a != b
    if nan_aware:
        neq &= ~(np.isnan(a) & np.isnan(b))
    return neq

