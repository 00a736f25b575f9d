"""Seeded differential mutation suite over every BXSA decode entry point.

One frame grammar, several ways in: ``decode``, cold and warm
``CodecSession.decode`` and ``FrameScanner.decode_frame`` build trees;
``BXSAStreamReader`` and ``StreamDecoder`` (fed whole, in two pieces,
byte-at-a-time) emit events.  All of them parse through
``repro.bxsa.walker.FrameWalker`` (plan replay excepted), so on *any* input —
valid or hostile — they must agree on accept/reject and on what they decoded.

The corpus is encoder output, both byte orders, of seeded random trees with
the node mix of ``tests/strategies.py`` plus the ledger's ``sensor_stream`` /
``lead_dataset(1365)`` workload documents; the mutations are truncation, bit
flips, Size ±k, child-count ±1 and spliced frames, drawn from one fixed seed
(about 500 cases, under 3 s).  The trees come from ``random.Random(SEED)``
and not from hypothesis: hypothesis seeds its draws with constants harvested
from whatever modules are loaded, so even ``@seed``/``derandomize`` give a
different corpus when this file runs alone and with the full suite.
Everything is judged as a *whole message* (trailing bytes reject), the one
semantics all entry points can be held to.

The pinned cases at the bottom are the divergences of the pre-walker code:
slack bytes inside an atom frame's Size, a ``--`` comment escaping the tree
decoder as a bare ``XDMError``, and the three this suite found on top — an
empty element or an empty document whose Size disagrees with its content
(accepted by the event paths only), and a chunked array whose pad bytes
arrive in a later piece than its pad-length byte (a valid stream rejected).
"""

import random

import numpy as np
import pytest

from repro.bxsa import (
    BXSADecodeError,
    BXSAStreamReader,
    CodecSession,
    EventKind,
    FrameScanner,
    FrameType,
    StreamDecoder,
    decode,
    encode,
)
from repro.bxsa.frames import skip_element_header
from repro.core.envelope import SoapEnvelope
from repro.workloads.lead import lead_dataset
from repro.workloads.sensors import sensor_stream
from repro.xbs import BIG_ENDIAN, LITTLE_ENDIAN
from repro.xbs.varint import encode_vls
from repro.xdm import (
    ArrayElement,
    CommentNode,
    DocumentNode,
    ElementNode,
    LeafElement,
    PINode,
    QName,
    TextNode,
    atomic_type_for_xsd,
    deep_equal,
    element,
)
from repro.xdm.errors import XDMError
from repro.xdm.nodes import AttributeNode, NamespaceNode

from tests.test_bxsa_stream import _event_key

SEED = 20060619
MUTATIONS_PER_BLOB = 9
#: Byte-at-a-time feeding re-attempts the open frame on every byte; above
#: this size the "tiny pieces" run uses 61-byte pieces instead.
BYTEWISE_LIMIT = 2048


# ---------------------------------------------------------------------------
# corpus and mutations


_URIS = ("urn:a", "urn:b", "http://example.org/x")
_NUMERIC_XSD = (
    "byte", "short", "int", "long", "unsignedByte", "unsignedShort",
    "unsignedInt", "unsignedLong", "float", "double",
)  # fmt: skip


def _name(rng) -> str:
    return rng.choice("abcxyz_") + "".join(
        rng.choice("abcxyz09-_") for _ in range(rng.randrange(6))
    )


def _qname(rng) -> QName:
    if rng.random() < 0.5:
        return QName(_name(rng), rng.choice(_URIS), rng.choice(("p", "q", "ns")))
    return QName(_name(rng))


def _text(rng) -> str:
    # one-, two-, three- and four-byte UTF-8, plus XML's special characters
    return "".join(rng.choice("ab z<&é√𝄞") for _ in range(rng.randint(1, 12)))


def _number(rng, atype):
    if atype.dtype.kind == "f":
        return rng.uniform(-1e6, 1e6)
    info = np.iinfo(atype.dtype)
    return rng.randint(int(info.min), int(info.max))


def _attributes(rng) -> list:
    attrs = {}
    for _ in range(rng.randrange(3)):
        name = _qname(rng)
        if rng.random() < 0.5:
            attrs[name] = AttributeNode(name, _text(rng))
        else:
            atype = atomic_type_for_xsd(rng.choice(_NUMERIC_XSD))
            attrs[name] = AttributeNode(name, _number(rng, atype), atype)
    return list(attrs.values())


def _leaf(rng) -> LeafElement:
    xsd = rng.choice(_NUMERIC_XSD + ("boolean", "string"))
    atype = atomic_type_for_xsd(xsd)
    if xsd == "string":
        value = _text(rng)
    elif xsd == "boolean":
        value = rng.random() < 0.5
    else:
        value = _number(rng, atype)
    return LeafElement(_qname(rng), value, atype, attributes=_attributes(rng))


def _array(rng) -> ArrayElement:
    atype = atomic_type_for_xsd(rng.choice(_NUMERIC_XSD))
    values = np.array([_number(rng, atype) for _ in range(rng.randrange(13))], dtype=atype.dtype)
    item_name = rng.choice((None, "item"))
    return ArrayElement(
        _qname(rng), values, atype, item_name=item_name, attributes=_attributes(rng)
    )


def _element(rng, depth: int) -> ElementNode:
    children: list = []
    for _ in range(rng.randrange(5)):
        kind = rng.randrange(6 if depth else 5)
        if kind == 0 and not (children and isinstance(children[-1], TextNode)):
            children.append(TextNode(_text(rng)))
        elif kind == 1:
            children.append(CommentNode(_text(rng)))
        elif kind == 2:
            children.append(PINode(_name(rng), _text(rng)))
        elif kind == 3:
            children.append(_array(rng))
        elif kind == 5:
            children.append(_element(rng, depth - 1))
        else:
            children.append(_leaf(rng))
    node = ElementNode(_qname(rng), attributes=_attributes(rng), children=children)
    if rng.random() < 0.5:
        node.namespaces.append(NamespaceNode(rng.choice(("p", "d", "")), rng.choice(_URIS)))
    return node


def _random_documents(rng, count: int) -> list:
    documents = []
    for _ in range(count):
        prolog = [CommentNode(_text(rng)) for _ in range(rng.randrange(2))]
        documents.append(DocumentNode(prolog + [_element(rng, depth=3)]))
    return documents


def _workload_documents() -> list:
    records = [next(iter(sensor_stream(1, seed=7))), lead_dataset(1365, seed=7)]
    return [
        SoapEnvelope.wrap(element("Echo", record.to_bxdm())).to_document()
        for record in records
    ]


def _truncate(rng, blob, frames, donors):
    return blob[: rng.randrange(len(blob))]


def _bit_flip(rng, blob, frames, donors):
    out = bytearray(blob)
    out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    return bytes(out)


def _nudge_vls(rng, blob, pos, deltas):
    """``blob`` with the one-byte VLS at ``pos`` moved by one of ``deltas``."""
    if blob[pos] >= 0x80:
        return None
    value = blob[pos] + rng.choice(deltas)
    if not 0 <= value < 0x80:
        return None
    return blob[:pos] + bytes([value]) + blob[pos + 1 :]


def _size_nudge(rng, blob, frames, donors):
    return _nudge_vls(rng, blob, rng.choice(frames).start + 1, (-3, -2, -1, 1, 2, 3))


def _child_count_nudge(rng, blob, frames, donors):
    containers = [info for info in frames if info.is_container]
    if not containers:
        return None
    info = rng.choice(containers)
    pos = info.body_start
    if info.frame_type is FrameType.COMPONENT_ELEMENT:
        pos = skip_element_header(blob, pos)
    return _nudge_vls(rng, blob, pos, (-1, 1))


def _splice(rng, blob, frames, donors):
    """Replace one frame with a frame lifted from another document."""
    donor = rng.choice(donors)
    victim = rng.choice(frames)
    return blob[: victim.start] + donor + blob[victim.end :]


MUTATORS = (_truncate, _bit_flip, _size_nudge, _child_count_nudge, _splice)


def _cases():
    """``(label, base blob, mutated blob)`` triples, deterministic."""
    rng = random.Random(SEED)
    blobs = [
        encode(tree, order)
        for tree in _random_documents(rng, 24) + _workload_documents()
        for order in (LITTLE_ENDIAN, BIG_ENDIAN)
    ]
    scans = [list(FrameScanner(blob).iter_frames()) for blob in blobs]
    donors = [
        blob[info.start : info.end]
        for blob, frames in zip(blobs, scans)
        for info in frames[1:]
        if info.total_size <= 64
    ]
    cases = []
    for index, (blob, frames) in enumerate(zip(blobs, scans)):
        cases.append((f"{index}:valid", blob, blob))
        for round_ in range(MUTATIONS_PER_BLOB):
            mutate = MUTATORS[round_ % len(MUTATORS)]
            mutated = mutate(rng, blob, frames, donors)
            if mutated is not None and mutated != blob:
                cases.append((f"{index}:{mutate.__name__[1:]}#{round_}", blob, mutated))
    return cases


CASES = _cases()


# ---------------------------------------------------------------------------
# the entry points, each reduced to ("accept", result) / ("reject", None)


def _outcome(fn):
    """Run one entry point.  A clean rejection is ``BXSADecodeError``; any
    other exception type is reported as its own outcome (and so disagrees
    with every path that rejected cleanly)."""
    try:
        return "accept", fn()
    except BXSADecodeError:
        return "reject", None
    except Exception as exc:  # noqa: BLE001 - the escape *is* the finding
        return f"escape:{type(exc).__name__}", None


def _scanner_decode(blob):
    scanner = FrameScanner(blob)
    node = scanner.decode_frame(0)
    if scanner.frame_at(0).end != len(blob):
        raise BXSADecodeError("trailing bytes after frame")
    return node


def _tree_outcomes(base, blob):
    warm = CodecSession()
    warm.decode(base)  # a plan for the unmutated shape is cached
    return {
        "decode": _outcome(lambda: decode(blob)),
        "session-cold": _outcome(lambda: CodecSession().decode(blob)),
        "session-warm": _outcome(lambda: warm.decode(blob)),
        "session-warm-again": _outcome(lambda: warm.decode(blob)),
        "scanner": _outcome(lambda: _scanner_decode(blob)),
    }


def _reader_events(blob):
    events = list(BXSAStreamReader(blob))
    if FrameScanner(blob).frame_at(0).end != len(blob):
        raise BXSADecodeError("trailing bytes after frame")
    return events


def _fed_events(pieces):
    decoder = StreamDecoder()
    events = []
    for piece in pieces:
        # arrays alias the piece only until the next feed; key them now
        events.extend(_event_key(event) for event in decoder.feed(piece))
    decoder.close()
    return events


def _pieces(blob, size):
    return [blob[i : i + size] for i in range(0, len(blob), size)]


def _event_outcomes(rng, blob):
    outcomes = {
        "reader": _outcome(lambda: [_event_key(e) for e in _reader_events(blob)]),
        "fed-whole": _outcome(lambda: _fed_events([blob])),
        "fed-tiny": _outcome(
            lambda: _fed_events(_pieces(blob, 1 if len(blob) <= BYTEWISE_LIMIT else 61))
        ),
    }
    for cut in rng.sample(range(1, len(blob)), min(4, len(blob) - 1)):
        outcomes[f"fed-split@{cut}"] = _outcome(lambda: _fed_events([blob[:cut], blob[cut:]]))
    return outcomes


def _disagreement(outcomes, same):
    """A description of how ``outcomes`` disagree, or None."""
    verdicts = {name: verdict for name, (verdict, _) in outcomes.items()}
    if len(set(verdicts.values())) > 1 or any(v.startswith("escape") for v in verdicts.values()):
        return f"verdicts differ: {verdicts}"
    results = [result for _, result in outcomes.values()]
    if results[0] is not None and not all(same(results[0], other) for other in results[1:]):
        return "all accept, but with different results"
    return None


def _tree_from_events(events):
    """Rebuild the bXDM tree from the pull reader's events, through the real
    node constructors (so node-validity errors surface as ``XDMError``)."""
    root = None
    open_nodes = []
    for event in events:
        kind = event.kind
        header = {"attributes": event.attributes, "namespaces": event.namespaces}
        if kind is EventKind.START_DOCUMENT:
            open_nodes.append(DocumentNode())
            continue
        if kind is EventKind.START_ELEMENT:
            open_nodes.append(ElementNode(event.name, **header))
            continue
        if kind in (EventKind.END_DOCUMENT, EventKind.END_ELEMENT):
            node = open_nodes.pop()
        elif kind is EventKind.LEAF:
            node = LeafElement(event.name, event.value, event.atype, **header)
        elif kind is EventKind.ARRAY:
            node = ArrayElement(
                event.name, event.values, event.atype, item_name=event.item_name, **header
            )
        elif kind is EventKind.TEXT:
            node = TextNode(event.text)
        elif kind is EventKind.COMMENT:
            node = CommentNode(event.text)
        else:
            node = PINode(event.target, event.text)
        if open_nodes:
            open_nodes[-1].children.append(node)
        else:
            root = node
    return root


# ---------------------------------------------------------------------------
# the three properties


def test_corpus_is_the_promised_size():
    assert 400 <= len(CASES) <= 600
    assert sum(1 for label, _, _ in CASES if label.endswith(":valid")) == 52


def test_tree_entry_points_agree():
    """(a) decode, cold and warm CodecSession.decode and FrameScanner.decode_frame
    agree on accept/reject and on ``deep_equal`` trees."""
    findings = []
    for label, base, blob in CASES:
        problem = _disagreement(_tree_outcomes(base, blob), deep_equal)
        if problem:
            findings.append(f"{label}: {problem}")
    assert not findings, "\n".join(findings)


def test_event_entry_points_agree():
    """(b) BXSAStreamReader and StreamDecoder — whole, sampled 2-piece splits,
    byte-at-a-time — agree on accept/reject and on the event list."""
    rng = random.Random(SEED)
    findings = []
    for label, _base, blob in CASES:
        if len(blob) < 2:
            continue
        problem = _disagreement(_event_outcomes(rng, blob), lambda a, b: a == b)
        if problem:
            findings.append(f"{label}: {problem}")
    assert not findings, "\n".join(findings)


def test_trees_and_events_agree():
    """(c) tree accepts ⇒ events accept and rebuild the same tree; events
    accept while the tree rejects only for node-validity errors."""
    findings = []
    for label, _base, blob in CASES:
        tree_verdict, tree = _outcome(lambda: decode(blob))
        event_verdict, events = _outcome(lambda: _reader_events(blob))
        if event_verdict != "accept":
            if tree_verdict == "accept":
                findings.append(f"{label}: tree accepts, events {event_verdict}")
            continue
        try:
            rebuilt = _tree_from_events(events)
        except XDMError:
            if tree_verdict != "reject":
                findings.append(f"{label}: invalid node content, yet tree {tree_verdict}")
            continue
        if tree_verdict != "accept":
            findings.append(f"{label}: events accept a valid tree, tree {tree_verdict}")
        elif not deep_equal(tree, rebuilt):
            findings.append(f"{label}: events rebuild a different tree")
    assert not findings, "\n".join(findings)


# ---------------------------------------------------------------------------
# pinned regressions (both fail on the pre-walker code)


def _frame(frame_type, body: bytes) -> bytes:
    return bytes([int(frame_type)]) + encode_vls(len(body)) + body


def _atom_frames() -> dict:
    """One valid bare atom frame per atom frame type."""
    atoms = {
        "leaf": LeafElement("x", 7, "int"),
        "array": ArrayElement("v", np.arange(3, dtype="f8")),
        "text": TextNode("hello"),
        "comment": CommentNode("note"),
        "pi": PINode("target", "data"),
    }
    return {name: encode(node, LITTLE_ENDIAN) for name, node in atoms.items()}


def _with_slack(atom: bytes, slack: int, nested: bool) -> bytes:
    """``atom`` with its Size inflated by ``slack`` zero bytes it does not
    use; optionally wrapped in a (correctly sized) document frame."""
    assert atom[1] < 0x80 - slack, "fixture assumes a single-byte Size"
    bad = atom[:1] + bytes([atom[1] + slack]) + atom[2:] + b"\x00" * slack
    return _frame(FrameType.DOCUMENT, encode_vls(1) + bad) if nested else bad


ENTRY_POINTS = {
    "decode": decode,
    "session": lambda blob: CodecSession().decode(blob),
    "reader": lambda blob: list(BXSAStreamReader(blob)),
    "fed-whole": lambda blob: _fed_events([blob]),
    "fed-bytewise": lambda blob: _fed_events(_pieces(blob, 1)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("nested", [False, True], ids=["bare", "nested"])
@pytest.mark.parametrize("slack", [1, 3])
@pytest.mark.parametrize("atom", ["leaf", "array", "text", "comment", "pi"])
def test_slack_bytes_inside_an_atom_frame_are_rejected(atom, slack, nested, entry):
    good = _atom_frames()[atom]
    ENTRY_POINTS[entry](_with_slack(good, 0, nested))  # the fixture itself decodes
    with pytest.raises(BXSADecodeError):
        ENTRY_POINTS[entry](_with_slack(good, slack, nested))


@pytest.mark.parametrize("nested", [False, True], ids=["bare", "nested"])
def test_double_hyphen_comment_is_a_decode_error_for_trees_only(nested):
    text = "a--b".encode()
    blob = _frame(FrameType.COMMENT, encode_vls(len(text)) + text)
    if nested:
        blob = _frame(FrameType.DOCUMENT, encode_vls(1) + blob)
    for entry in ("decode", "session"):
        with pytest.raises(BXSADecodeError, match="--"):
            ENTRY_POINTS[entry](blob)
    # the event paths build no nodes: the bytes are a well-formed frame
    for entry in ("reader", "fed-whole", "fed-bytewise"):
        ENTRY_POINTS[entry](blob)
    assert [e.text for e in BXSAStreamReader(blob) if e.kind is EventKind.COMMENT] == ["a--b"]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("delta", [-1, 2])
def test_empty_element_must_end_where_its_size_says(delta, entry):
    good = encode(ElementNode("e"), LITTLE_ENDIAN)
    ENTRY_POINTS[entry](good)
    bad = good[:1] + bytes([good[1] + delta]) + good[2:] + b"\x00" * max(delta, 0)
    with pytest.raises(BXSADecodeError):
        ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_empty_document_must_end_where_its_size_says(entry):
    stowaway = encode(TextNode("hidden"), LITTLE_ENDIAN)
    bad = _frame(FrameType.DOCUMENT, encode_vls(0) + stowaway)
    with pytest.raises(BXSADecodeError):
        ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("name", ["v", "vv", "vvv", "abcde"])  # pad lengths 0..7 vary with it
def test_chunked_array_survives_a_split_inside_its_pad(name):
    values = np.arange(1, 9, dtype="f8")
    blob = encode(ArrayElement(name, values), LITTLE_ENDIAN)
    decoder = StreamDecoder(array_chunk_threshold=8)
    got = []
    for piece in _pieces(blob, 1):
        for event in decoder.feed(piece):
            if event.kind is EventKind.ARRAY_CHUNK:
                got.extend(event.values.tolist())
    decoder.close()
    assert got == values.tolist()
