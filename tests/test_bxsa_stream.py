"""Tests for streaming BXSA (event writer + pull reader)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bxsa import decode, encode
from repro.bxsa.errors import BXSADecodeError, BXSAEncodeError
from repro.bxsa.stream import (
    BXSAStreamReader,
    BXSAStreamWriter,
    EventKind,
    StreamDecoder,
    write_document,
)
from repro.xdm import QName, array, comment, deep_equal, doc, element, leaf, pi, text

from tests.strategies import documents


def sample_document():
    return doc(
        comment("prolog"),
        element(
            "Envelope",
            element(
                "Body",
                leaf("count", 3, "int"),
                array("values", np.arange(5, dtype="f8"), item_name="v"),
                element("meta", text("hello"), attributes={"id": "m1"}),
            ),
            namespaces={"s": "urn:soap"},
        ),
    )


def replay_events(events, writer) -> bytes:
    """Drive the writer's public API from a document's event stream."""
    for event in events:
        kind = event.kind
        header = {"attributes": event.attributes, "namespaces": event.namespaces}
        if kind is EventKind.START_DOCUMENT:
            writer.start_document()
        elif kind is EventKind.END_DOCUMENT:
            return writer.end_document()
        elif kind is EventKind.START_ELEMENT:
            writer.start_element(event.name, **header)
        elif kind is EventKind.END_ELEMENT:
            writer.end_element()
        elif kind is EventKind.LEAF:
            writer.leaf(event.name, event.value, event.atype, **header)
        elif kind is EventKind.ARRAY:
            writer.array(
                event.name, event.values, event.atype, item_name=event.item_name, **header
            )
        elif kind is EventKind.TEXT:
            writer.text(event.text)
        elif kind is EventKind.COMMENT:
            writer.comment(event.text)
        else:
            assert kind is EventKind.PI
            writer.pi(event.target, event.text)
    raise AssertionError("no END_DOCUMENT event")


class TestWriter:
    def test_stream_matches_tree_encoder(self):
        """The stream writer must produce bytes the tree decoder accepts
        and that reproduce the same data model."""
        w = BXSAStreamWriter()
        w.start_document()
        w.comment("prolog")
        w.start_element("Envelope", namespaces={"s": "urn:soap"})
        w.start_element("Body")
        w.leaf("count", 3, "int")
        w.array("values", np.arange(5, dtype="f8"), item_name="v")
        w.start_element("meta", attributes={"id": "m1"})
        w.text("hello")
        w.end_element()
        w.end_element()
        w.end_element()
        blob = w.end_document()
        assert deep_equal(decode(blob), sample_document())

    def test_byte_identical_to_tree_encoder(self):
        """For the same logical document the two encoders agree bytewise."""
        tree = sample_document()
        w = BXSAStreamWriter()
        w.start_document()
        w.comment("prolog")
        w.start_element("Envelope", namespaces={"s": "urn:soap"})
        w.start_element("Body")
        w.leaf("count", 3, "int")
        w.array("values", np.arange(5, dtype="f8"), item_name="v")
        w.start_element("meta", attributes={"id": "m1"})
        w.text("hello")
        w.end_element()
        w.end_element()
        w.end_element()
        assert w.end_document() == encode(tree)

    def test_unbalanced_rejected(self):
        w = BXSAStreamWriter().start_document()
        w.start_element("a")
        with pytest.raises(BXSAEncodeError, match="open"):
            w.end_document()

    def test_end_without_start(self):
        w = BXSAStreamWriter().start_document()
        with pytest.raises(BXSAEncodeError):
            w.end_element()

    def test_content_before_document_rejected(self):
        with pytest.raises(BXSAEncodeError):
            BXSAStreamWriter().leaf("x", 1)

    def test_double_start_document(self):
        w = BXSAStreamWriter().start_document()
        with pytest.raises(BXSAEncodeError):
            w.start_document()

    def test_incremental_large_arrays_bounded_buffering(self):
        """Chunks accumulate; payload views are not copied per level."""
        w = BXSAStreamWriter().start_document()
        w.start_element("batches")
        blocks = [np.full(10_000, i, dtype="f8") for i in range(5)]
        for i, block in enumerate(blocks):
            w.array(f"b{i}", block)
        w.end_element()
        out = decode(w.end_document())
        for i, child in enumerate(out.root.elements()):
            np.testing.assert_array_equal(np.asarray(child.values), blocks[i])


class TestWriterPoisoning:
    """A production that raises poisons the writer: whatever it already
    counted, pushed or flushed, no later call can finish the document."""

    def assert_poisoned(self, writer):
        for call in (
            lambda: writer.leaf("later", 1),
            lambda: writer.end_element(),
            lambda: writer.end_document(),
        ):
            with pytest.raises(BXSAEncodeError):
                call()

    @pytest.mark.parametrize("items", [3, 5], ids=["short", "long"])
    def test_array_blocks_payload_mismatch_poisons(self, items):
        # the frame's Size already promised four items
        w = BXSAStreamWriter().start_document()
        w.start_element("r")
        with pytest.raises(BXSAEncodeError, match="promised 4 items"):
            w.array_blocks("v", 4, [np.zeros(items)], "double")
        self.assert_poisoned(w)

    def test_rejected_leaf_value_poisons(self):
        # the parent's child count may already include the failed frame
        w = BXSAStreamWriter().start_document()
        w.start_element("r")
        with pytest.raises(Exception, match="out of range"):
            w.leaf("x", 2**40, "int")
        self.assert_poisoned(w)

    def test_unencodable_attribute_poisons(self):
        # the header's scope was pushed before the attribute failed to
        # encode; a sibling's namespace reference would be one depth off
        w = BXSAStreamWriter().start_document()
        w.start_element(QName("r", "urn:x", "p"), namespaces={"p": "urn:x"})
        with pytest.raises(BXSAEncodeError):
            w.start_element("bad", attributes={"a": "\ud800"}, namespaces={"q": "urn:y"})
        self.assert_poisoned(w)


class TestArrayBlocks:
    @pytest.mark.parametrize("sink", [False, True], ids=["buffered", "sink"])
    def test_producer_may_refill_one_buffer(self, sink):
        """The normal way to feed blocks: one buffer, refilled per block."""
        pieces = []
        w = BXSAStreamWriter(sink=(lambda p: pieces.append(bytes(p))) if sink else None)

        def blocks():
            buffer = np.empty(4)
            for fill in (1.0, 2.0, 3.0):
                buffer[:] = fill
                yield buffer

        w.start_document().start_element("r")
        w.array_blocks("v", 12, blocks(), "double")
        blob = w.end_element().end_document() or b"".join(pieces)
        events = StreamDecoder().feed(blob)
        values = next(e.values for e in events if e.kind is EventKind.ARRAY)
        np.testing.assert_array_equal(values, np.repeat([1.0, 2.0, 3.0], 4))


class TestReader:
    def test_event_sequence(self):
        blob = encode(sample_document())
        kinds = [e.kind for e in BXSAStreamReader(blob)]
        assert kinds == [
            EventKind.START_DOCUMENT,
            EventKind.COMMENT,
            EventKind.START_ELEMENT,  # Envelope
            EventKind.START_ELEMENT,  # Body
            EventKind.LEAF,
            EventKind.ARRAY,
            EventKind.START_ELEMENT,  # meta
            EventKind.TEXT,
            EventKind.END_ELEMENT,
            EventKind.END_ELEMENT,
            EventKind.END_ELEMENT,
            EventKind.END_DOCUMENT,
        ]

    def test_event_payloads(self):
        blob = encode(sample_document())
        events = list(BXSAStreamReader(blob))
        leaf_event = next(e for e in events if e.kind is EventKind.LEAF)
        assert leaf_event.name.local == "count"
        assert leaf_event.value == 3
        assert leaf_event.atype.xsd_name == "int"
        array_event = next(e for e in events if e.kind is EventKind.ARRAY)
        np.testing.assert_array_equal(np.asarray(array_event.values), np.arange(5.0))
        assert array_event.item_name == "v"
        start_meta = [e for e in events if e.kind is EventKind.START_ELEMENT][-1]
        assert start_meta.attributes[0].value == "m1"

    def test_depths(self):
        blob = encode(sample_document())
        events = list(BXSAStreamReader(blob))
        leaf_event = next(e for e in events if e.kind is EventKind.LEAF)
        assert leaf_event.depth == 2  # under Envelope/Body

    def test_namespace_resolution_through_scopes(self):
        inner = element(QName("c", "urn:x", "p"))
        tree = element(QName("r", "urn:x", "p"), inner, namespaces={"p": "urn:x"})
        events = list(BXSAStreamReader(encode(tree)))
        starts = [e for e in events if e.kind is EventKind.START_ELEMENT]
        assert [s.name.uri for s in starts] == ["urn:x", "urn:x"]

    def test_empty_element_events(self):
        blob = encode(element("solo"))
        kinds = [e.kind for e in BXSAStreamReader(blob)]
        assert kinds == [EventKind.START_ELEMENT, EventKind.END_ELEMENT]

    def test_bare_leaf_frame(self):
        blob = encode(leaf("x", 2.5))
        events = list(BXSAStreamReader(blob))
        assert len(events) == 1
        assert events[0].value == 2.5

    def test_pi_event(self):
        blob = encode(element("r", pi("tgt", "data")))
        pi_event = [e for e in BXSAStreamReader(blob)][1]
        assert pi_event.kind is EventKind.PI
        assert pi_event.target == "tgt"
        assert pi_event.text == "data"

    def test_truncated_stream_detected(self):
        blob = encode(sample_document())
        with pytest.raises(BXSADecodeError):
            list(BXSAStreamReader(blob[: len(blob) - 3]))

    def test_arrays_are_zero_copy(self):
        blob = encode(element("r", array("v", np.arange(1000, dtype="f8"))))
        array_event = next(
            e for e in BXSAStreamReader(blob) if e.kind is EventKind.ARRAY
        )
        assert array_event.values.base is not None


class TestStreamingUseCases:
    def test_bounded_memory_aggregation(self):
        """Sum a multi-megabyte message array-by-array, never building the
        tree — the streaming consumption pattern the paper's scanner and
        XBS heritage enable."""
        w = BXSAStreamWriter().start_document()
        w.start_element("readings")
        expected = 0.0
        for i in range(20):
            block = np.arange(i, i + 5000, dtype="f8")
            expected += float(block.sum())
            w.array(f"r{i}", block)
        w.end_element()
        blob = w.end_document()

        total = sum(
            float(e.values.sum())
            for e in BXSAStreamReader(blob)
            if e.kind is EventKind.ARRAY
        )
        assert total == expected

    def test_writer_reader_round_trip_via_events(self):
        """Replaying a reader's events through a writer reproduces the
        document (event-level transcoding)."""
        original = encode(sample_document())
        replayed = replay_events(BXSAStreamReader(original), BXSAStreamWriter())
        assert deep_equal(decode(replayed), decode(original))


class TestAdversarialTruncation:
    """Frames whose Size field lies must fail loudly, never read beyond
    their own end (the seed validated the array pad byte against the whole
    buffer, so a truncated Size silently consumed the next frame's bytes)."""

    def bare_array_blob(self) -> bytes:
        return bytes(encode(array("v", np.arange(2, dtype="f8"))))

    def truncate_size(self, blob: bytes, new_size: int) -> bytes:
        # single-byte VLS Size sits right after the one prefix byte
        assert blob[1] < 0x80, "fixture assumes a single-byte Size"
        return blob[:1] + bytes([new_size]) + blob[2:]

    def test_stream_reader_rejects_pad_byte_outside_frame(self):
        blob = self.bare_array_blob()
        # shrink Size so the frame ends exactly where the pad byte sits;
        # the pad position is still inside the *buffer* (trailing bytes
        # remain), which is what fooled the len(data) check
        bad = self.truncate_size(blob, 8)
        with pytest.raises(BXSADecodeError, match="truncated array frame"):
            list(BXSAStreamReader(bad))

    def test_tree_decoder_rejects_pad_byte_outside_frame(self):
        from repro.bxsa import decode

        bad = self.truncate_size(self.bare_array_blob(), 8)
        with pytest.raises(BXSADecodeError, match="truncated array frame"):
            decode(bad)

    def test_array_payload_must_stay_inside_frame(self):
        blob = self.bare_array_blob()
        # leave room for the pad byte but not the 16-byte payload
        bad = self.truncate_size(blob, 12)
        with pytest.raises(BXSADecodeError, match="overruns its frame"):
            list(BXSAStreamReader(bad))

    def test_child_overrunning_container_fails_before_yielding(self):
        """A child frame whose Size spills past its enclosing frame's end
        must raise *before* the event is handed to the consumer — a pull
        parser that has already yielded cannot take the event back."""
        blob = bytearray(encode(doc(element("r", leaf("x", 1, "int")))))
        # find the leaf frame: document prefix+size+count, element
        # prefix+size+header+count, then the leaf's prefix and Size bytes
        from repro.bxsa.frames import (
            read_frame_prefix,
            read_name_ref,
            read_string,
            read_vls,
        )

        _, _, body, _ = read_frame_prefix(blob, 0)
        _, p = read_vls(blob, body)  # document child count
        _, _, ebody, _ = read_frame_prefix(blob, p)
        _, q = read_vls(blob, ebody)  # element: n namespaces
        _, _, q = read_name_ref(blob, q)
        _, q = read_string(blob, q)
        _, q = read_vls(blob, q)  # n attributes
        _, q = read_vls(blob, q)  # element child count
        assert blob[q + 1] < 0x7F
        blob[q + 1] += 1  # inflate the leaf's Size past its container
        bad = bytes(blob) + b"\x00" * 8  # keep the lie inside the buffer

        events = []
        with pytest.raises(BXSADecodeError, match="overrunning its enclosing"):
            for event in BXSAStreamReader(bad):
                events.append(event.kind)
        assert EventKind.LEAF not in events

    def test_honest_truncation_still_detected(self):
        blob = self.bare_array_blob()
        with pytest.raises(BXSADecodeError):
            list(BXSAStreamReader(blob[:-3]))


def _event_key(event):
    """An event as comparable values (AttributeNode has no __eq__)."""
    values = None
    if event.values is not None:
        values = (event.values.dtype.str, event.values.tobytes())
    return (
        event.kind,
        event.name,
        tuple((a.name, getattr(a.atype, "code", None), a.value) for a in event.attributes),
        tuple((n.prefix, n.uri) for n in event.namespaces),
        event.value,
        values,
        getattr(event.atype, "code", event.atype),
        event.item_name,
        event.text,
        event.target,
        event.depth,
        event.count,
        event.item_offset,
    )


def _decode_events(blob, pieces=None):
    decoder = StreamDecoder()
    events = []
    for piece in pieces if pieces is not None else (blob,):
        events.extend(decoder.feed(piece))
    decoder.close()
    return [_event_key(e) for e in events]


class TestStreamedProfileProperties:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(document=documents())
    def test_buffered_write_document_byte_identical(self, document):
        """Driving the buffered writer from any bXDM tree reproduces the
        tree encoder's bytes exactly — not just an equivalent document."""
        assert write_document(BXSAStreamWriter(), document) == encode(document)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(document=documents(), chunk=st.integers(min_value=16, max_value=4096))
    def test_sink_pieces_decode_to_identical_events(self, document, chunk):
        """The sink-driven writer's pieces, rejoined, yield the *same
        event stream* as the tree encoder's bytes — the streamed container
        profile changes framing, never content — at any flush chunk size."""
        pieces = []
        writer = BXSAStreamWriter(sink=lambda p: pieces.append(bytes(p)), chunk_size=chunk)
        assert write_document(writer, document) == b""
        streamed = b"".join(pieces)
        assert _decode_events(streamed) == _decode_events(encode(document))

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(document=documents(), chunk=st.integers(min_value=1, max_value=64), profile=st.booleans())
    def test_incremental_feed_chunking_is_invisible(self, document, chunk, profile):
        """Feeding either profile's bytes in arbitrary small pieces yields
        exactly the single-shot event stream."""
        if profile:
            pieces = []
            writer = BXSAStreamWriter(sink=pieces.append, chunk_size=512)
            write_document(writer, document)
            blob = b"".join(bytes(p) for p in pieces)
        else:
            blob = encode(document)
        split = [blob[i : i + chunk] for i in range(0, len(blob), chunk)]
        assert _decode_events(blob, split) == _decode_events(blob)


class TestChunkBoundaryFuzz:
    def test_every_split_offset_yields_identical_events(self):
        """Exhaustive two-piece boundary fuzz of the incremental decoder,
        in both container profiles: no offset may change the events."""
        document = sample_document()
        pieces = []
        writer = BXSAStreamWriter(sink=pieces.append, chunk_size=64)
        write_document(writer, document)
        for blob in (encode(document), b"".join(bytes(p) for p in pieces)):
            expected = _decode_events(blob)
            for offset in range(len(blob) + 1):
                got = _decode_events(blob, (blob[:offset], blob[offset:]))
                assert got == expected, f"events diverged splitting at {offset}"


class TestZeroCopyAliasing:
    def test_reader_array_views_alias_the_input_buffer(self):
        """BXSAStreamReader array payloads are memoryview-backed views of
        the caller's buffer — same memory, not a copy."""
        payload = np.arange(4096, dtype="f8")
        blob = encode(element("r", array("v", payload)))
        raw = np.frombuffer(blob, dtype=np.uint8)
        event = next(e for e in BXSAStreamReader(blob) if e.kind is EventKind.ARRAY)
        assert np.shares_memory(event.values, raw)
        assert event.values.dtype == payload.dtype
        np.testing.assert_array_equal(event.values, payload)

    def test_reader_accepts_memoryview_input_zero_copy(self):
        payload = np.arange(1024, dtype="i4")
        backing = bytearray(encode(element("r", array("v", payload))))
        view = memoryview(backing)
        event = next(e for e in BXSAStreamReader(view) if e.kind is EventKind.ARRAY)
        assert np.shares_memory(event.values, np.frombuffer(backing, dtype=np.uint8))
        np.testing.assert_array_equal(event.values, payload)
