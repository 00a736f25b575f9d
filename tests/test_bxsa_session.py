"""Tests for :class:`repro.bxsa.session.CodecSession`.

The load-bearing property is byte compatibility: a warm session must put
exactly the stateless encoder's bytes on the wire, for every tree, and its
output must decode with a completely stateless decoder.  The property test
additionally asserts ``poisoned_shapes == 0`` so any compiler blind spot a
generated tree exposes fails loudly instead of silently costing performance.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.bxsa import (
    BXSADecodeError,
    BXSAEncodeError,
    BXSAStreamWriter,
    CodecSession,
    decode,
    encode,
    write_document,
)
from repro.core.policies import BXSAEncoding
from repro.bxsa.decodeplan import _D_ELEM, _D_LEAF
from repro.bxsa.session import _OP_CONST, EncodePlan
from repro.xdm.qname import QName
from repro.xbs import BIG_ENDIAN, TypeCode
from repro.xbs.constants import NATIVE_ENDIAN
from repro.xdm import (
    ArrayElement,
    CommentNode,
    DocumentNode,
    ElementNode,
    LeafElement,
    PINode,
    TextNode,
    array,
    deep_equal,
    doc,
    element,
    explain_difference,
    find_first,
    leaf,
    text,
)
from repro.xdm.nodes import AttributeNode, NamespaceNode

from tests.strategies import documents

_settings = settings(
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)


# ---------------------------------------------------------------------------
# structure-preserving value perturbation: same shape key, different payload


def _perturb_scalar(atype, value):
    code = atype.code
    if code is TypeCode.STRING:
        return value + "x"
    if code is TypeCode.BOOL:
        return not value
    return 1 if value != 1 else 0


def _perturb_attrs(attrs):
    return [
        AttributeNode(a.name, _perturb_scalar(a.atype, a.value), a.atype) for a in attrs
    ]


def _copy_ns(node):
    return [NamespaceNode(ns.prefix, ns.uri) for ns in node.namespaces]


def perturbed(node):
    """A deep copy of ``node`` with every *value* changed and every
    structural property (names, namespaces, attribute names/types, child
    counts, array dtypes, PI targets) preserved — by construction it has
    the same shape key, so a session reuses the original's plan.  Array
    lengths change too: length is payload, not shape.
    """
    if isinstance(node, LeafElement):
        return LeafElement(
            node.name,
            _perturb_scalar(node.atype, node.value),
            node.atype,
            attributes=_perturb_attrs(node.attributes),
            namespaces=_copy_ns(node),
        )
    if isinstance(node, ArrayElement):
        return ArrayElement(
            node.name,
            np.ones(node.values.size + 1, dtype=node.atype.dtype),
            node.atype,
            attributes=_perturb_attrs(node.attributes),
            namespaces=_copy_ns(node),
            item_name=node.item_name,
        )
    if isinstance(node, DocumentNode):
        return DocumentNode([perturbed(child) for child in node.children])
    if isinstance(node, ElementNode):
        return ElementNode(
            node.name,
            attributes=_perturb_attrs(node.attributes),
            namespaces=_copy_ns(node),
            children=[perturbed(child) for child in node.children],
        )
    if isinstance(node, TextNode):
        return TextNode(node.text + "y")
    if isinstance(node, CommentNode):
        return CommentNode(node.text + "y")
    if isinstance(node, PINode):
        return PINode(node.target, node.data + "y")
    raise AssertionError(f"unexpected node {type(node).__name__}")


# ---------------------------------------------------------------------------
# the core property (ISSUE satellite: N-message byte-identity)


@pytest.mark.slow
@given(documents())
@_settings
def test_session_byte_identical_to_independent_encoders(tree):
    """Encoding N structurally-identical messages through one session is
    byte-identical to N independent stateless encoders, the warm output
    decodes with the stateless decoder, and no generated shape poisons."""
    session = CodecSession()
    messages = [tree, perturbed(tree), perturbed(perturbed(tree))]
    for message in messages:
        warm = session.encode(message)
        assert warm == encode(message)
        out = decode(warm)
        diff = explain_difference(message, out, ignore_ns_decls=True)
        assert diff is None, diff
    assert session.stats.poisoned_shapes == 0
    assert session.stats.plans_compiled == 1
    assert session.stats.plan_hits == len(messages) - 1


@pytest.mark.slow
@given(documents())
@_settings
def test_session_decode_agrees_with_stateless_decoder(tree):
    session = CodecSession()
    blob = encode(tree)
    for _ in range(2):  # second pass hits the intern tables
        out = session.decode(blob)
        diff = explain_difference(decode(blob), out)
        assert diff is None, diff


@pytest.mark.slow
@given(documents())
@_settings
def test_session_decode_stream_node_equal_to_stateless(tree):
    """ISSUE acceptance property: an N-message same-shape stream decoded
    through one session (stateless first decode, verified plan replay after)
    is node-equal to the stateless decoder's output — with and without
    ``copy=False`` — and no generated shape poisons its fingerprint."""
    session = CodecSession()
    blobs = [encode(m) for m in (tree, perturbed(tree), perturbed(perturbed(tree)))]
    for i, blob in enumerate(blobs):
        for copy in (False, True):
            out = session.decode(blob, copy=copy)
            diff = explain_difference(decode(blob, copy=copy), out)
            assert diff is None, f"message {i} copy={copy}: {diff}"
    assert session.stats.decode_poisoned == 0
    assert session.stats.decode_plan_hits > 0


@pytest.mark.slow
@given(documents())
@_settings
def test_session_big_endian_matches_stateless(tree):
    session = CodecSession(BIG_ENDIAN)
    assert session.encode(tree) == encode(tree, BIG_ENDIAN)
    assert session.encode(perturbed(tree)) == encode(perturbed(tree), BIG_ENDIAN)


# ---------------------------------------------------------------------------
# unit tests


def _sample_doc(seed: int = 0) -> DocumentNode:
    env = element(
        "env:Envelope",
        element(
            "env:Body",
            array("data", np.arange(seed, seed + 16, dtype=np.float64), item_name="d"),
            leaf("count", seed + 3, "int", attributes={"id": f"v{seed}"}),
            leaf("tag", f"value-{seed}"),
            text(f"t{seed}"),
        ),
        namespaces={"env": "urn:envelope"},
    )
    return doc(env)


class TestPlanLifecycle:
    def test_same_shape_replays_one_plan(self):
        session = CodecSession()
        for seed in range(4):
            assert session.encode(_sample_doc(seed)) == encode(_sample_doc(seed))
        assert session.stats.plans_compiled == 1
        assert session.stats.plan_hits == 3
        assert session.stats.poisoned_shapes == 0

    def test_distinct_shapes_compile_distinct_plans(self):
        session = CodecSession()
        session.encode(doc(element("a", leaf("x", 1, "int"))))
        session.encode(doc(element("b", leaf("x", 1, "int"))))
        assert session.stats.plans_compiled == 2

    def test_array_length_is_payload_not_shape(self):
        session = CodecSession()
        for n in (0, 1, 7, 1365):
            d = doc(array("a", np.arange(n, dtype=np.float64)))
            assert session.encode(d) == encode(d)
        assert session.stats.plans_compiled == 1
        assert session.stats.plan_hits == 3

    def test_plan_cache_is_bounded(self):
        session = CodecSession(max_plans=2)
        for name in ("a", "b", "c", "d"):
            d = doc(element(name, leaf("x", 1, "int")))
            assert session.encode(d) == encode(d)
        assert len(session._plans) <= 2
        # evicted shapes still encode correctly (they just recompile)
        d = doc(element("a", leaf("x", 9, "int")))
        assert session.encode(d) == encode(d)

    def test_reset_returns_to_cold_state(self):
        session = CodecSession()
        session.encode(_sample_doc())
        session.decode(encode(_sample_doc()))
        session.reset()
        assert session._plans == {}
        assert session.stats.plans_compiled == 0
        assert session.encode(_sample_doc()) == encode(_sample_doc())
        assert session.stats.plans_compiled == 1


class TestSelfVerification:
    def test_divergent_plan_poisons_shape(self, monkeypatch):
        session = CodecSession()
        monkeypatch.setattr(
            session, "_compile", lambda root: EncodePlan([(_OP_CONST, b"bad")], 1)
        )
        d = _sample_doc()
        # the divergent plan never reaches the wire
        assert session.encode(d) == encode(d)
        assert session.stats.poisoned_shapes == 1
        monkeypatch.undo()
        # the shape stays on the stateless path even with a good compiler
        assert session.encode(d) == encode(d)
        assert session.stats.plan_hits == 0
        assert session.stats.stateless_encodes == 2

    def test_compiler_crash_poisons_shape(self, monkeypatch):
        session = CodecSession()

        def boom(root):
            raise RuntimeError("compiler blind spot")

        monkeypatch.setattr(session, "_compile", boom)
        d = _sample_doc()
        assert session.encode(d) == encode(d)
        assert session.stats.poisoned_shapes == 1

    def test_invalid_tree_raises_like_stateless(self):
        duplicate = doc(
            ElementNode(
                "r",
                attributes=[AttributeNode("a", "1"), AttributeNode("a", "2")],
            )
        )
        # values that stopped fitting their declared type after construction
        out_of_range = doc(element("r", leaf("x", 1, "int")))
        out_of_range.root.children[0].value = 2**40
        surrogate = doc(element("r", text("ok")))
        surrogate.root.children[0].text = "\ud800"
        for bad in (duplicate, out_of_range, surrogate):
            with pytest.raises(BXSAEncodeError):
                encode(bad)
            session = CodecSession()
            with pytest.raises(BXSAEncodeError):
                session.encode(bad)
            # the failed shape must not leave a cached plan behind
            assert session.stats.plans_compiled == 0
            assert session._plans == {}


class TestSessionDecode:
    def test_interns_names_across_messages(self):
        session = CodecSession()
        blob = encode(_sample_doc(1))
        first = session.decode(blob)
        second = session.decode(bytes(encode(_sample_doc(2))))
        root1 = first.children[0]
        root2 = second.children[0]
        assert root1.name is root2.name  # QName interned across decodes
        leaf1 = root1.children[0].children[1]
        leaf2 = root2.children[0].children[1]
        assert leaf1.name is leaf2.name

    def test_value_strings_are_not_interned(self):
        session = CodecSession()
        d = doc(element("r", leaf("s", "shared-value-string")))
        one = session.decode(encode(d))
        two = session.decode(encode(d))
        v1 = one.children[0].children[0].value
        v2 = two.children[0].children[0].value
        assert v1 == v2 == "shared-value-string"
        assert v1 is not v2

    def test_rejects_trailing_bytes(self):
        session = CodecSession()
        blob = encode(_sample_doc())
        with pytest.raises(BXSADecodeError):
            session.decode(bytes(blob) + b"\x00")

    def test_rejects_trailing_bytes_on_warm_plan(self):
        # the trailing check must hold on the replay path, not just the
        # stateless first decode
        session = CodecSession()
        blob = bytes(encode(_sample_doc()))
        session.decode(blob)
        session.decode(blob)
        assert session.stats.decode_plan_hits > 0
        with pytest.raises(BXSADecodeError):
            session.decode(blob + b"\x00")

    def test_honours_copy_flag(self):
        session = CodecSession()
        buf = bytearray(encode(doc(array("a", np.arange(4, dtype=np.float64)))))
        aliased = session.decode(buf).children[0]
        independent = session.decode(buf, copy=True).children[0]
        buf[-4 * 8 :] = b"\x00" * (4 * 8)
        assert aliased.values[1] == 0.0  # view over the (zeroed) buffer
        assert independent.values[1] == 1.0

    def test_copy_contract_holds_across_plan_replay_and_reset(self):
        # ISSUE satellite: the documented copy=False aliasing contract must
        # hold through the *session* decode path — on the stateless first
        # decode, on warm plan replay, and again after reset()
        session = CodecSession()
        template = doc(array("a", np.arange(4, dtype=np.float64)))

        def roundtrip(copy):
            buf = bytearray(encode(template))
            values = session.decode(buf, copy=copy).children[0].values
            buf[-4 * 8 :] = b"\x00" * (4 * 8)
            return values

        assert roundtrip(copy=False)[1] == 0.0  # cold: view aliases buffer
        assert roundtrip(copy=False)[1] == 0.0  # warm replay: still a view
        assert session.stats.decode_plan_hits > 0
        assert roundtrip(copy=True)[1] == 1.0  # warm replay: independent
        session.reset()
        assert session.stats.decode_plan_hits == 0
        assert roundtrip(copy=False)[1] == 0.0  # recompiled: still a view
        assert roundtrip(copy=True)[1] == 1.0

    def test_intern_eviction_is_bounded_not_wholesale(self):
        # ISSUE satellite regression: crossing max_cached_strings used to
        # clear() the intern tables outright, resetting warm-decode state
        # mid-stream; bounded eviction must keep the newer half
        session = CodecSession(max_cached_strings=16)
        low_water = None
        for i in range(120):
            blob = encode(doc(element(f"name{i}", leaf("x", i, "int"))))
            session.decode(blob)
            strings = len(session._decode_strings)
            assert strings <= session.max_cached_strings + 4
            if i > 32:  # past warm-up the table must never drop to cold
                low_water = strings if low_water is None else min(low_water, strings)
        assert low_water is not None and low_water >= session.max_cached_strings // 2

    def test_encode_string_cache_eviction_is_bounded(self):
        session = CodecSession(max_cached_strings=16)
        for i in range(120):
            # string *values* are what the session interns: header names are
            # pre-rendered into the plan by the emitter's one serializer
            session.encode(doc(element("r", leaf("x", f"value{i}"))))
            assert 0 < len(session._string_bytes) <= session.max_cached_strings + 4
        assert len(session._string_bytes) >= session.max_cached_strings // 2


# ---------------------------------------------------------------------------
# offset / trailing-byte semantics (shared across stateless and session paths)


def _stateless_decode(data, offset=0, **kw):
    return decode(data, offset, **kw)


def _session_decode(data, offset=0, **kw):
    return CodecSession().decode(data, offset, **kw)


def _warm_session_decode(data, offset=0, **kw):
    session = CodecSession()
    session.decode(data, offset, **kw)  # compile
    out = session.decode(data, offset, **kw)  # replay
    assert session.stats.decode_plan_hits >= 1
    return out


@pytest.mark.parametrize(
    "decoder",
    [_stateless_decode, _session_decode, _warm_session_decode],
    ids=["stateless", "session-cold", "session-warm"],
)
class TestOffsetSemantics:
    """ISSUE satellite: the session decode must accept the same embedded
    frame / offset / trailing-byte inputs as the stateless decoder —
    trailing bytes are only an error for whole-message decodes."""

    def test_whole_message_rejects_trailing(self, decoder):
        blob = bytes(encode(_sample_doc()))
        with pytest.raises(BXSADecodeError):
            decoder(blob + b"\x00\x00")

    def test_embedded_frame_ignores_trailing(self, decoder):
        blob = bytes(encode(_sample_doc()))
        framed = b"\xaa\xbb" + blob + b"\xcc\xdd"
        out = decoder(framed, 2)
        assert explain_difference(decode(blob), out) is None

    def test_explicit_whole_true_rejects_trailing_at_offset(self, decoder):
        blob = bytes(encode(_sample_doc()))
        with pytest.raises(BXSADecodeError):
            decoder(b"\xaa" + blob + b"\x00", 1, whole=True)

    def test_explicit_whole_false_allows_trailing_at_zero(self, decoder):
        blob = bytes(encode(_sample_doc()))
        out = decoder(blob + b"\x00\x00", whole=False)
        assert explain_difference(decode(blob), out) is None

    def test_exact_frame_at_offset_decodes(self, decoder):
        blob = bytes(encode(_sample_doc()))
        out = decoder(b"\xee" + blob, 1)
        assert explain_difference(decode(blob), out) is None


# ---------------------------------------------------------------------------
# decode-plan lifecycle


class TestDecodePlans:
    def test_same_shape_replays_one_plan(self):
        session = CodecSession()
        for seed in range(4):
            blob = encode(_sample_doc(seed))
            out = session.decode(blob)
            assert explain_difference(decode(blob), out) is None
        assert session.stats.decode_plans_compiled == 1
        assert session.stats.stateless_decodes == 1
        assert session.stats.decode_plan_hits == 3
        assert session.stats.decode_poisoned == 0

    def test_distinct_shapes_compile_distinct_plans(self):
        session = CodecSession()
        session.decode(encode(doc(element("a", leaf("x", 1, "int")))))
        session.decode(encode(doc(element("b", leaf("x", 1, "int")))))
        assert session.stats.decode_plans_compiled == 2

    def test_array_length_is_payload_not_shape(self):
        session = CodecSession()
        for n in (0, 1, 7, 1365):
            blob = encode(doc(array("a", np.arange(n, dtype=np.float64))))
            out = session.decode(blob)
            np.testing.assert_array_equal(
                out.children[0].values, np.arange(n, dtype=np.float64)
            )
        assert session.stats.decode_plans_compiled == 1
        assert session.stats.decode_plan_hits == 3

    def test_plan_cache_is_bounded(self):
        session = CodecSession(max_plans=2)
        for name in ("a", "b", "c", "d"):
            blob = encode(doc(element(name, leaf("x", 1, "int"))))
            assert explain_difference(decode(blob), session.decode(blob)) is None
        assert len(session._decode_plans) <= 2
        # evicted shapes still decode correctly (they just recompile)
        blob = encode(doc(element("a", leaf("x", 9, "int"))))
        assert explain_difference(decode(blob), session.decode(blob)) is None

    def test_shared_fingerprint_shapes_coexist(self):
        # same root element name, different bodies: the structural
        # fingerprint may collide, and the bucket must serve both shapes
        session = CodecSession()
        shapes = [
            doc(element("env", leaf("a", 1, "int"))),
            doc(element("env", leaf("b", "s"))),
        ]
        for _ in range(3):
            for shape in shapes:
                blob = encode(shape)
                assert explain_difference(decode(blob), session.decode(blob)) is None
        assert session.stats.decode_poisoned == 0
        assert session.stats.decode_plan_hits >= 2

    def test_reset_returns_decode_plans_to_cold_state(self):
        session = CodecSession()
        blob = encode(_sample_doc())
        session.decode(blob)
        session.decode(blob)
        assert session._decode_plans
        session.reset()
        assert session._decode_plans == {}
        assert session.stats.decode_plans_compiled == 0
        out = session.decode(blob)
        assert explain_difference(decode(blob), out) is None
        assert session.stats.decode_plans_compiled == 1

    def test_interns_qnames_on_replay_path(self):
        session = CodecSession()
        first = session.decode(encode(_sample_doc(1)))
        second = session.decode(encode(_sample_doc(2)))  # plan replay
        assert session.stats.decode_plan_hits == 1
        assert first.children[0].name is second.children[0].name


class TestDecodeSelfVerification:
    def test_divergent_plan_poisons_fingerprint(self):
        session = CodecSession()
        blob = encode(_sample_doc())
        session.decode(blob)
        # sabotage the freshly compiled plan: swap the root element's QName
        (bucket,) = session._decode_plans.values()
        ops = bucket[0].ops
        for i, op in enumerate(ops):
            if op[0] == _D_ELEM:
                ops[i] = (op[0], QName("wrong"), op[2], op[3])
                break
        else:
            pytest.fail("no element op in the compiled plan")
        # first reuse: replay succeeds mechanically but the structure check
        # against the stateless decoder catches the divergence
        out = session.decode(blob)
        assert explain_difference(decode(blob), out) is None
        assert session.stats.decode_poisoned == 1
        assert session.stats.decode_plan_hits == 0
        # the fingerprint stays on the stateless path from here on
        out = session.decode(blob)
        assert explain_difference(decode(blob), out) is None
        assert session.stats.decode_poisoned == 1

    def test_a_replay_one_element_off_is_poisoned(self, monkeypatch):
        """The check says "equal" without reading only for arrays that read
        the same bytes the same way; a replay whose array view starts one
        element early in the same buffer — same dtype, shape and strides —
        is still compared by value, and poisoned."""
        import repro.bxsa.session as session_module

        real_replay = session_module.replay_decode_plan

        def one_element_off(plan, view, offset, copy):
            out = real_replay(plan, view, offset, copy)
            if out is not None:
                node, _ = out
                arr = find_first(node, "data")
                whole = np.frombuffer(view, np.uint8)
                start = (
                    arr.values.__array_interface__["data"][0]
                    - whole.__array_interface__["data"][0]
                )
                arr.values = np.frombuffer(
                    view, arr.values.dtype, arr.values.size, start - arr.values.itemsize
                )
            return out

        monkeypatch.setattr(session_module, "replay_decode_plan", one_element_off)
        session = CodecSession()
        blob = encode(_sample_doc())
        session.decode(blob)  # compiles the plan
        out = session.decode(blob)  # first reuse: checked, and caught
        assert session.stats.decode_poisoned == 1
        assert session.stats.decode_plan_hits == 0
        assert explain_difference(decode(blob), out) is None

    def test_compiler_crash_poisons_fingerprint(self, monkeypatch):
        import repro.bxsa.session as session_module

        def boom(data, offset=0, *, qname_cache=None):
            raise RuntimeError("compiler blind spot")

        monkeypatch.setattr(session_module, "compile_decode_plan", boom)
        session = CodecSession()
        blob = encode(_sample_doc())
        out = session.decode(blob)  # stateless result, poisoned fingerprint
        assert explain_difference(decode(blob), out) is None
        assert session.stats.decode_poisoned == 1
        monkeypatch.undo()
        # still stateless: a poisoned fingerprint never recompiles
        session.decode(blob)
        assert session.stats.decode_plans_compiled == 0
        assert session.stats.stateless_decodes == 2

    def test_malformed_input_raises_like_stateless(self):
        session = CodecSession()
        blob = bytes(encode(_sample_doc()))
        session.decode(blob)
        session.decode(blob)  # warm plan in place
        truncated = blob[:-3]
        with pytest.raises(BXSADecodeError):
            decode(truncated)
        with pytest.raises(BXSADecodeError):
            session.decode(truncated)

    def test_value_mutation_replays_not_poisons(self):
        # flipping payload bytes (same shape) must ride the plan, and
        # flipping structural bytes must fall back, never mis-decode
        session = CodecSession()
        blob = bytearray(encode(doc(element("root", leaf("x", 7, "int")))))
        session.decode(bytes(blob))
        session.decode(bytes(blob))
        hits = session.stats.decode_plan_hits
        blob[-1] ^= 0xFF  # last payload byte of the int leaf
        out = session.decode(bytes(blob))
        assert session.stats.decode_plan_hits == hits + 1
        assert explain_difference(decode(bytes(blob)), out) is None
        assert session.stats.decode_poisoned == 0


class TestBufferPooling:
    def test_scratch_list_is_reused(self):
        session = CodecSession()
        session.encode(_sample_doc(0))
        scratch = session._scratch
        assert scratch == []
        session.encode(_sample_doc(1))
        assert session._scratch is scratch

    def test_concurrent_takers_never_share_scratch(self):
        # simulate a second thread holding the pooled list mid-replay
        session = CodecSession()
        session.encode(_sample_doc(0))
        taken = session.__dict__.pop("_scratch")
        assert session.encode(_sample_doc(1)) == encode(_sample_doc(1))
        assert session._scratch is not taken


def _bulk_doc(seed: int = 0, n: int = 20_000) -> DocumentNode:
    """Two arrays past the gather threshold around small frames."""
    return doc(
        element(
            "d",
            leaf("run", seed, "int"),
            array("i", np.arange(seed, seed + n, dtype=np.int32), item_name="i"),
            leaf("tag", f"value-{seed}"),
            array("v", np.arange(seed, seed + n, dtype=np.float64), item_name="v"),
            array("tiny", np.arange(4, dtype=np.float64)),
        )
    )


class TestEncodePieces:
    """``encode_pieces`` is ``encode`` without the join: same wire bytes."""

    def test_pieces_concatenate_to_the_stateless_bytes_cold_and_warm(self):
        session = CodecSession()
        for seed in range(3):  # cold (compiles), then two replays
            pieces = session.encode_pieces(_bulk_doc(seed))
            assert b"".join(pieces) == encode(_bulk_doc(seed))
        assert session.stats.plans_compiled == 1 and session.stats.plan_hits == 2
        assert session.stats.poisoned_shapes == 0

    def test_cold_large_payloads_are_views_and_small_messages_one_bytes_piece(self):
        session = CodecSession()
        tree = _bulk_doc()
        cold = session.encode_pieces(tree)  # compiles and checks the plan
        assert session.stats.plans_compiled == 1 and session.stats.plan_hits == 0
        # the warm layout: small run, i payload, small run, v payload, small run
        assert [type(p) for p in cold] == [bytes, memoryview, bytes, memoryview, bytes]
        root = tree.children[0]
        for view, node in zip(cold[1::2], (root.children[1], root.children[3])):
            assert view.readonly and np.shares_memory(np.frombuffer(view, dtype=np.uint8), node.values)
        assert b"".join(cold) == encode(tree) == CodecSession().encode(tree)
        (small,) = CodecSession().encode_pieces(_sample_doc(1))  # cold, nothing large
        assert small == encode(_sample_doc(1)) and type(small) is bytes
        session.encode(_sample_doc(0))
        (small,) = session.encode_pieces(_sample_doc(1))  # warm, nothing large
        assert small == encode(_sample_doc(1)) and type(small) is bytes

    def test_a_cold_bulk_message_is_checked_in_place(self):
        """The first message of a shape is compared with the stateless
        encoder's frames without joining either: a 1.2 MB document's cold
        ``encode_pieces`` allocates almost nothing (it read 2.0 payloads at
        its peak, 1.0 kept, when both sides were joined)."""
        tree = _bulk_doc(n=100_000)
        payload = len(encode(tree))
        session = CodecSession()
        tracemalloc.start()
        try:
            floor = tracemalloc.get_traced_memory()[0]
            pieces = session.encode_pieces(tree)
            peak = tracemalloc.get_traced_memory()[1] - floor
        finally:
            tracemalloc.stop()
        assert session.stats.plans_compiled == 1
        assert peak < 0.3 * payload, peak / payload
        assert b"".join(pieces) == encode(tree)

    def test_a_cold_check_at_the_other_byte_order_holds_one_swapped_copy(self):
        """At the non-native byte order the stateless encoder and the replay
        each byteswap every array; the check proves the replay's conversion
        against the stateless one block by block and sends the latter, so a
        cold 1.2 MB ``encode_pieces`` peaks near one payload (2.0 when the
        replay swapped each array whole)."""
        other = 1 - NATIVE_ENDIAN
        tree = _bulk_doc(n=100_000)
        payload = len(encode(tree, other))
        session = CodecSession(other)
        tracemalloc.start()
        try:
            floor = tracemalloc.get_traced_memory()[0]
            pieces = session.encode_pieces(tree)
            peak = tracemalloc.get_traced_memory()[1] - floor
        finally:
            tracemalloc.stop()
        assert session.stats.plans_compiled == 1 and session.stats.poisoned_shapes == 0
        assert peak <= 1.3 * payload, peak / payload
        assert b"".join(pieces) == encode(tree, other)
        assert b"".join(session.encode_pieces(_bulk_doc(1, n=100_000))) == encode(
            _bulk_doc(1, n=100_000), other
        )  # the checked plan converts its own arrays once it serves
        assert session.stats.plan_hits == 1

    @pytest.mark.parametrize("where", ["head", "first-payload", "second-payload-end", "tail"])
    def test_a_replay_diverging_inside_a_gathered_message_poisons_its_shape(
        self, monkeypatch, where
    ):
        """One flipped byte anywhere — a small run, inside a payload, a
        payload's last word, the end — poisons the shape: compared in
        place, the check is as strict as comparing the joins."""
        tree = _bulk_doc()
        good = encode(tree)
        root = tree.children[0]
        first, second = (good.find(root.children[k].values.tobytes()) for k in (1, 3))
        at = {
            "head": 3,
            "first-payload": first + 41,
            "second-payload-end": second + root.children[3].values.nbytes - 1,
            "tail": len(good) - 1,
        }
        bad = bytearray(good)
        bad[at[where]] ^= 0x10
        session = CodecSession()
        monkeypatch.setattr(
            session, "_replay", lambda plan, nodes, gather=False: [bytes(bad[:9]), memoryview(bad)[9:]]
        )
        (only,) = session.encode_pieces(tree)
        assert only == good and type(only) is bytes
        assert session.stats.poisoned_shapes == 1 and session.stats.plans_compiled == 0
        monkeypatch.undo()
        assert b"".join(session.encode_pieces(_bulk_doc(1))) == encode(_bulk_doc(1))
        assert session.stats.plan_hits == 0 and session.stats.stateless_encodes == 2

    def test_warm_large_payloads_are_read_only_views_of_the_trees_arrays(self):
        session = CodecSession()
        session.encode(_bulk_doc(0))
        tree = _bulk_doc(1)
        pieces = session.encode_pieces(tree)
        # small run, i payload, small run, v payload, small run (tiny array + tail)
        assert [type(p) for p in pieces] == [bytes, memoryview, bytes, memoryview, bytes]
        root = tree.children[0]
        for view, node in zip(pieces[1::2], (root.children[1], root.children[3])):
            assert view.readonly and view.nbytes == node.values.nbytes
            assert np.shares_memory(np.frombuffer(view, dtype=np.uint8), node.values)
        # the aliasing contract: the view is read when it is written
        root.children[3].values[0] = -1.0
        assert b"".join(pieces) == encode(tree)

    def test_encode_is_untouched_by_a_gathering_neighbour(self):
        session = CodecSession()
        session.encode_pieces(_bulk_doc(0))
        session.encode_pieces(_bulk_doc(1))
        assert session.encode(_bulk_doc(2)) == encode(_bulk_doc(2))
        assert session._scratch == []  # views released before pooling the list

    def test_policy_exposes_it_and_cold_mode_stays_one_piece(self):
        warm = BXSAEncoding()
        warm.encode(_bulk_doc(0))
        assert len(warm.encode_pieces(_bulk_doc(1))) == 5
        assert b"".join(warm.encode_pieces(_bulk_doc(2))) == encode(_bulk_doc(2))
        (only,) = BXSAEncoding(session=False).encode_pieces(_bulk_doc(3))
        assert only == encode(_bulk_doc(3))


# ---------------------------------------------------------------------------
# encode errors are typed, on every entry point


def _encode_entry_points():
    """``(label, encode callable)`` pairs; the warm session has replayed the
    probe's shape once, so the bad value meets the replay loop."""
    warm = CodecSession()
    warm.encode(_typed_error_probe())
    return [
        ("encode", encode),
        ("session-cold", lambda tree: CodecSession().encode(tree)),
        ("session-warm", warm.encode),
        ("writer", lambda tree: write_document(BXSAStreamWriter(), tree)),
    ]


def _typed_error_probe():
    return doc(
        element(
            "r",
            leaf("n", 7, "int", attributes={"k": "v"}),
            leaf("s", "value"),
            text("t"),
            attributes={"count": 3},
        )
    )


class TestTypedEncodeErrors:
    """A value reassigned after construction skips the node's own checks;
    every encode entry point must still fail as ``BXSAEncodeError``."""

    @pytest.mark.parametrize("where", ["leaf", "attribute"])
    def test_out_of_range_value_raises_encode_error(self, where):
        for label, entry in _encode_entry_points():
            tree = _typed_error_probe()
            if where == "leaf":
                tree.root.children[0].value = 2**40
            else:
                tree.root.attributes[0].value = 2**40
            with pytest.raises(BXSAEncodeError) as caught:
                entry(tree)
            assert caught.value.__cause__ is not None, label

    @pytest.mark.parametrize("where", ["text", "string-value", "attribute-value"])
    def test_lone_surrogate_raises_encode_error(self, where):
        for label, entry in _encode_entry_points():
            tree = _typed_error_probe()
            if where == "text":
                tree.root.children[2].text = "\udc00"
            elif where == "string-value":
                tree.root.children[1].value = "a\ud800"
            else:
                tree.root.children[0].attributes[0].value = "\ud800"
            with pytest.raises(BXSAEncodeError) as caught:
                entry(tree)
            assert isinstance(caught.value.__cause__, UnicodeEncodeError), label

    def test_lone_surrogate_in_a_name_raises_encode_error(self):
        # names are shape, so there is no warm variant: the shape is new
        tree = doc(element("r", leaf(QName("x\ud800"), 1)))
        for _label, entry in _encode_entry_points():
            with pytest.raises(BXSAEncodeError):
                entry(tree)


# ---------------------------------------------------------------------------
# one encoder / one session under several threads


def _churn_documents():
    """Five shapes — more than ``max_plans=2`` holds, so a shared session
    keeps recompiling — each with an array payload and attribute holes."""
    return [
        doc(
            element(
                f"batch{k}",
                leaf("id", k, "int", attributes={"unit": f"u{k}"}),
                array("values", np.arange(64, dtype="f8") + k, item_name="v"),
                *[leaf(f"extra{j}", float(j)) for j in range(k)],
                element("meta", text(f"run {k}"), attributes={"seq": k}),
            )
        )
        for k in range(5)
    ]


class TestReentrancy:
    def test_shared_encoder_and_session_are_reentrant(self):
        """One ``BXSAEncoding(session=False)`` (one stateless encoder) and one
        ``CodecSession`` (whose compile and poisoned paths use a stateless
        encoder too) shared by four threads: every blob is the
        single-threaded one and no shape poisons."""
        documents = _churn_documents()
        expected = [encode(d) for d in documents]
        policy = BXSAEncoding(session=False)
        session = CodecSession(max_plans=2)
        wrong: list = []

        def work(offset: int) -> None:
            try:
                for i in range(150):
                    k = (i + offset) % len(documents)
                    for encoder in (policy.encode, session.encode):
                        if encoder(documents[k]) != expected[k]:
                            wrong.append((encoder.__self__.__class__.__name__, k))
            except Exception as exc:  # noqa: BLE001 - reported below
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not wrong, wrong[:5]
        assert session.stats.poisoned_shapes == 0

    @pytest.mark.parametrize("side", ["encode", "decode"])
    def test_shared_session_churn_evicts_in_one_step(self, side):
        """Five shapes through ``max_plans=2`` (and eight interned strings)
        on four threads: every call compiles and evicts.  Evicting used to be
        ``plans.pop(next(iter(plans)))`` — two threads picked the same oldest
        key (``KeyError``), or one resized the table under the other's
        iterator (``RuntimeError``), or both passed the bound check."""
        documents = _churn_documents()
        blobs = [encode(d) for d in documents]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(6):
                session = CodecSession(max_plans=2, max_cached_strings=8)
                wrong: list = []
                together = threading.Barrier(4)

                def work(offset: int) -> None:
                    try:
                        together.wait(timeout=10)
                        for i in range(100):
                            k = (i + offset) % len(documents)
                            if side == "encode":
                                same = session.encode(documents[k]) == blobs[k]
                            else:
                                same = deep_equal(session.decode(blobs[k]), documents[k])
                            if not same:
                                wrong.append(k)
                    except Exception as exc:  # noqa: BLE001 - reported below
                        wrong.append(exc)

                threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert not wrong, wrong[:5]
                assert session.stats.poisoned_shapes == session.stats.decode_poisoned == 0
                assert len(session._plans) <= 2 and len(session._decode_plans) <= 2
        finally:
            sys.setswitchinterval(interval)
