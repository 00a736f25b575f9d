"""Canonical forms of a bXDM tree: a hashable tuple, or bytes fed to a
hasher.

``canonical_signature`` is the form equality is stated in (two trees
with equal signatures are data-model equal); ``canonical_digest`` writes
the same normalisation, field by field, into an incremental hasher as
the tree is walked, so no payload-sized byte string is built.  What a
signature over the *data model* hashes (``core/security.py``
``HmacSigningPolicy``).  Kept apart from ``compare.py``: a serving
process loads that module for its decode-plan check, and only a process
that signs needs this one.
"""

from __future__ import annotations

import math

import numpy as np

from repro.xdm.compare import _BLOCK
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


def canonical_signature(node: Node, *, include_ns_decls: bool = True):
    """A hashable, order-normalized summary of a tree.

    Two trees have the same signature iff
    :func:`~repro.xdm.compare.deep_equal` holds (modulo
    float bit-patterns of NaN).  Handy as a dict key in caching layers and
    for quick test assertions.

    ``include_ns_decls=False`` drops namespace *declaration* nodes from the
    summary (QName identity is URI-based regardless) — the form message
    signatures are computed over, since re-encoding through textual XML
    legitimately adds declarations (see :func:`~repro.xdm.compare.deep_equal`).
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


def canonical_digest(node: Node, hasher) -> None:
    """Feed ``node``'s canonical form into ``hasher`` (anything with
    ``update``), one length-prefixed field at a time.

    The normalisation is :func:`canonical_signature`'s with
    ``include_ns_decls=False``: Clark names, attributes sorted, namespace
    declarations left out, NaN canonical, each value with its atomic type.
    Two trees feed the same bytes exactly when those signatures are equal.
    Nothing is built whole: an array goes in as a view of its own buffer
    when it is little-endian and contiguous, otherwise swapped or gathered
    ``_BLOCK`` elements at a time.  The format (DESIGN.md §5, *The body
    digest*)::

        field  := u64le(len(bytes)) bytes
        doc    := field("doc") field(u64le(n)) node{n}
        elem   := field("elem") head field(u64le(n)) node{n}
        leaf   := field("leaf") head field(xsd) scalar
        array  := field("array") head field(xsd) field(values, little-endian)
        text   := field("text") field(utf-8)      (comment: "comment")
        pi     := field("pi") field(target) field(data)
        head   := field(clark name) field(u64le(m)) {field(clark) field(xsd) scalar}{m}
        scalar := field("s" utf-8 | "n" number)   (NaN is "sNaN")

    The hash is the caller's: this module imports no ``hashlib``.
    """
    update = hasher.update
    work = [node]
    while work:
        node = work.pop()
        if isinstance(node, LeafElement):
            _digest_head(update, b"leaf", node)
            _field(update, node.atype.xsd_name.encode())
            _field(update, _scalar_bytes(node.value))
        elif isinstance(node, ArrayElement):
            _digest_head(update, b"array", node)
            _field(update, node.atype.xsd_name.encode())
            _digest_values(update, node.values)
        elif isinstance(node, (ElementNode, DocumentNode)):
            if isinstance(node, ElementNode):
                _digest_head(update, b"elem", node)
            else:
                _field(update, b"doc")
            _field(update, len(node.children).to_bytes(8, "little"))
            work.extend(reversed(node.children))
        elif isinstance(node, TextNode):
            _field(update, b"text")
            _field(update, node.text.encode("utf-8", "surrogatepass"))
        elif isinstance(node, CommentNode):
            _field(update, b"comment")
            _field(update, node.text.encode("utf-8", "surrogatepass"))
        elif isinstance(node, PINode):
            _field(update, b"pi")
            _field(update, node.target.encode("utf-8", "surrogatepass"))
            _field(update, node.data.encode("utf-8", "surrogatepass"))
        else:
            raise TypeError(f"cannot digest {type(node).__name__}")  # pragma: no cover


def _field(update, data: bytes) -> None:
    update(len(data).to_bytes(8, "little"))
    update(data)


def _digest_head(update, kind: bytes, node: ElementNode) -> None:
    _field(update, kind)
    _field(update, node.name.clark().encode("utf-8", "surrogatepass"))
    attrs = sorted([
        (
            a.name.clark().encode("utf-8", "surrogatepass"),
            a.atype.xsd_name.encode(),
            _scalar_bytes(a.value),
        )
        for a in node.attributes
    ])
    _field(update, len(attrs).to_bytes(8, "little"))
    for fields in attrs:
        for data in fields:
            _field(update, data)


def _scalar_bytes(value) -> bytes:
    """One byte string per :func:`_scalar_sig` equality class: a number is
    its exact value (``1 == 1.0 == True``, ``0.0 == -0.0``), NaN is the
    string ``"NaN"``."""
    if isinstance(value, str):
        return b"s" + value.encode("utf-8", "surrogatepass")
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return b"sNaN"
        if not float(value).is_integer():
            return b"n" + repr(float(value)).encode()
    return b"n" + str(int(value)).encode()


def _digest_values(update, values: np.ndarray) -> None:
    """An array's bytes in little-endian order, length first; one swapped
    or gathered is copied a value compare's block at a time (32 KiB)."""
    update(values.nbytes.to_bytes(8, "little"))
    little = values.dtype.newbyteorder("<")
    if values.dtype == little and values.flags.c_contiguous:
        update(memoryview(values))
        return
    for start in range(0, values.size, _BLOCK):
        update(memoryview(values[start : start + _BLOCK].astype(little)))
