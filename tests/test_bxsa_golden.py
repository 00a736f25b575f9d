"""Golden wire bytes for BXSA, and every encode entry point held to them.

``tests/golden/bxsa/wire.json`` pins the format itself, not one encoder
against another: raw bytes (hex) for the hand-built documents below — which
together cover every frame type, typed and string attributes, explicit,
auto-declared and colliding-prefix namespaces, an empty element, an empty
array, bare top-level frames, every scalar type — and SHA-256 digests for
the ``tests/test_bxsa_differential.py`` corpus trees, each in both byte
orders and in both container profiles (standard, and the streamed profile
as the concatenation of a sink-mode writer's pieces).

The fixtures were written by the tree encoder and sink-mode writer of the
commit *before* the encode paths were merged into ``repro.bxsa.emitter``::

    PYTHONPATH=<checkout of that commit>/src python -m tests.test_bxsa_golden

Regenerating them is a wire-format change and needs that said out loud.
"""

import hashlib
import json
import pathlib
import random

import numpy as np
import pytest

from repro.bxsa import (
    BXSAEncoder,
    BXSAStreamReader,
    BXSAStreamWriter,
    CodecSession,
    encode,
    write_document,
)
from repro.xbs import BIG_ENDIAN, LITTLE_ENDIAN
from repro.xdm import DocumentNode, QName, array, comment, doc, element, leaf, pi, text
from repro.xdm.nodes import AttributeNode

from tests.test_bxsa_differential import SEED, _random_documents, _workload_documents
from tests.test_bxsa_stream import replay_events

FIXTURE = pathlib.Path(__file__).parent / "golden" / "bxsa" / "wire.json"
ORDERS = {"le": LITTLE_ENDIAN, "be": BIG_ENDIAN}
SINK_CHUNK_SIZES = (16, 256, 64 * 1024)


# ---------------------------------------------------------------------------
# the documents


def _envelope():
    return doc(
        comment("prolog"),
        pi("target", "data"),
        element(
            QName("Envelope", "urn:soap", "s"),
            element(
                QName("Body", "urn:soap", "s"),
                leaf("count", 3, "int", attributes={"unit": "items"}),
                leaf("label", "héllo √ 𝄞"),
                array("values", np.arange(5, dtype="f8"), item_name="v"),
                array("none", np.zeros(0, dtype="i4")),
                element("meta", text("hello"), attributes={"id": "m1"}),
                element("empty"),
            ),
            namespaces={"s": "urn:soap"},
        ),
    )


def _namespaces():
    # "p" is taken by urn:b, so urn:a (hinted "p") auto-declares as "p2" —
    # and again in the child, which must not see its parent's auto-declaration
    root = element(
        QName("r", "urn:a", "p"),
        element(QName("c", "urn:a", "p"), leaf(QName("x", "urn:d"), 1.5)),
        leaf(QName("y", "urn:b", "ignored"), True),
        element(QName("dflt", "urn:e"), namespaces={"": "urn:e"}),
        namespaces={"p": "urn:b"},
    )
    root.attributes.append(AttributeNode(QName("at", "urn:c", "q"), 7, "short"))
    root.attributes.append(AttributeNode(QName("plain"), "text"))
    return doc(root)


def _scalars():
    values = {
        "byte": -7, "short": -300, "int": 70000, "long": -(2**40),
        "unsignedByte": 200, "unsignedShort": 60000, "unsignedInt": 2**31,
        "unsignedLong": 2**63, "float": 1.5, "double": -2.25,
        "boolean": True, "string": "",
    }  # fmt: skip
    leaves = [leaf(f"l-{xsd}", value, xsd) for xsd, value in values.items()]
    arrays = [
        # name lengths vary so the payload alignment pad takes several values
        array("a" * n, np.arange(3, dtype=dtype), attributes={"n": n})
        for n, dtype in enumerate(("i1", "i2", "u4", "f4", "f8", "u8"), start=1)
    ]
    return doc(element("scalars", *leaves, *arrays, array("flags", np.array([True, False]))))


HAND_BUILT = {
    "envelope": _envelope,
    "namespaces": _namespaces,
    "scalars": _scalars,
    "bare_leaf": lambda: leaf("x", 2.5, attributes={"k": "v"}),
    "bare_array": lambda: array("v", np.arange(4, dtype="i2")),
    "bare_empty_element": lambda: element("solo"),
}


def _corpus_trees():
    return _random_documents(random.Random(SEED), 24) + _workload_documents()


# ---------------------------------------------------------------------------
# the entry points: (tree, byte order) -> bytes


def _session_warm(tree, order):
    session = CodecSession(order)
    session.encode(tree)
    out = session.encode(tree)
    assert session.stats.plan_hits == 1
    assert session.stats.poisoned_shapes == 0
    return out


def _session_poisoned(tree, order):
    session = CodecSession(order)

    def blind_spot(root):
        raise RuntimeError("compiler blind spot")

    session._compile = blind_spot
    first = session.encode(tree)  # the compile path's reference bytes
    assert session.encode(tree) == first  # the poisoned shape's permanent path
    assert session.stats.poisoned_shapes == 1
    assert session.stats.stateless_encodes == 2
    return first


def _writer_from_reader_events(tree, order):
    """The public writer API driven by the pull reader's events."""
    return replay_events(BXSAStreamReader(encode(tree, order)), BXSAStreamWriter(order))


ENTRY_POINTS = {
    "encode": encode,
    "BXSAEncoder.encode": lambda tree, order: BXSAEncoder(order).encode(tree),
    "session-cold": lambda tree, order: CodecSession(order).encode(tree),
    "session-warm": _session_warm,
    "session-poisoned": _session_poisoned,
}
#: The writer's public surface takes documents only.
DOCUMENT_ENTRY_POINTS = {
    "write_document": lambda tree, order: write_document(BXSAStreamWriter(order), tree),
    "writer<-reader": _writer_from_reader_events,
}


def _streamed(tree, order, chunk_size):
    pieces = []
    writer = BXSAStreamWriter(order, sink=lambda p: pieces.append(bytes(p)), chunk_size=chunk_size)
    assert write_document(writer, tree) == b""
    assert all(len(piece) <= chunk_size for piece in pieces)
    return b"".join(pieces)


def _outputs(tree, order):
    """``{entry point: bytes}`` for the standard profile, ``{chunk size:
    bytes}`` for the streamed one (empty for a bare top-level frame)."""
    standard = {name: fn(tree, order) for name, fn in ENTRY_POINTS.items()}
    streamed = {}
    if isinstance(tree, DocumentNode):
        standard.update((name, fn(tree, order)) for name, fn in DOCUMENT_ENTRY_POINTS.items())
        streamed = {size: _streamed(tree, order, size) for size in SINK_CHUNK_SIZES}
    return standard, streamed


def _sha(blob) -> str:
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# the tests


GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else None


def test_fixture_covers_exactly_these_documents():
    assert GOLDEN is not None, f"{FIXTURE} is missing"
    assert sorted(GOLDEN["hand_built"]) == sorted(HAND_BUILT)
    assert len(GOLDEN["corpus"]) == len(_corpus_trees())


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_documents_reproduce_golden_bytes(name):
    for order_name, order in ORDERS.items():
        golden = GOLDEN["hand_built"][name]
        standard, streamed = _outputs(HAND_BUILT[name](), order)
        for entry, blob in standard.items():
            assert blob.hex() == golden["standard"][order_name], (entry, order_name)
        for chunk_size, blob in streamed.items():
            assert blob.hex() == golden["streamed"][order_name], (chunk_size, order_name)


def test_corpus_reproduces_golden_digests():
    for index, (tree, golden) in enumerate(zip(_corpus_trees(), GOLDEN["corpus"])):
        for order_name, order in ORDERS.items():
            standard, streamed = _outputs(tree, order)
            for entry, blob in standard.items():
                assert _sha(blob) == golden["standard"][order_name], (index, entry, order_name)
            for chunk_size, blob in streamed.items():
                assert _sha(blob) == golden["streamed"][order_name], (index, chunk_size)


def test_no_corpus_shape_poisons_a_shared_session():
    for order in ORDERS.values():
        session = CodecSession(order)
        for tree in _corpus_trees():
            session.encode(tree)
        assert session.stats.poisoned_shapes == 0


# ---------------------------------------------------------------------------
# fixture generation (see the module docstring)


def _golden_entry(tree, render) -> dict:
    entry = {"standard": {name: render(encode(tree, order)) for name, order in ORDERS.items()}}
    if isinstance(tree, DocumentNode):
        entry["streamed"] = {
            name: render(_streamed(tree, order, 256)) for name, order in ORDERS.items()
        }
    return entry


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "hand_built": {name: _golden_entry(build(), bytes.hex) for name, build in HAND_BUILT.items()},
        "corpus": [_golden_entry(tree, _sha) for tree in _corpus_trees()],
    }
    FIXTURE.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
