"""Cross-message codec sessions: compiled encode plans and name caches.

The stateless :class:`~repro.bxsa.encoder.BXSAEncoder` re-walks the whole
dispatch machinery for every message: per-node ``isinstance`` chains, scope
pushes and pops, namespace lookups, UTF-8 encoding of the same element names,
and VLS encoding of the same header fields.  In the repeated-message regime
the paper's Figures 4-6 measure — thousands of envelopes with the same
structure and different payloads — all of that work is identical from one
message to the next.

A :class:`CodecSession` eliminates it.  On the first encounter of a document
*shape* (the tree structure with values stripped: node kinds, names,
namespace tables, attribute names and type codes, child counts) the session
compiles a flat **encode plan**: a list of instructions in which everything
value-independent is pre-rendered to constant byte strings and only the
value-dependent holes (leaf payloads, attribute values, text runs, array
bodies, frame sizes that depend on variable-length content) remain live.
Compiling is the encoder's own tree walk (:mod:`repro.bxsa.emitter`) over a
handler that records the productions instead of writing them.  Re-encoding
a structurally identical message replays the instruction list — no tree
dispatch, no scope stack, no name encoding.

**Wire compatibility is absolute.**  A plan never changes what lands on the
wire: each message still carries its complete namespace tables (there is no
cross-message delta state on the wire), so warm output is byte-identical to
the stateless encoder's and decodes with a stateless decoder.  The session
enforces this itself: every freshly compiled plan is replayed once against
the stateless encoder's output for the same tree, and a shape whose replay
diverges is poisoned — it falls back to the stateless path forever (replay
shares no frame-assembly code with the emitter; the check rests on that
independence).  The two outputs are compared in place, chunk against piece,
so the first message of a shape holds no more payload copies than a warm
one.  The cache is therefore an execution strategy, not a format
change, which is why warm sessions do not alter any Figure 4-6 measured
semantics (the harness still opts out to keep its *cold-start* CPU segments
honest; see ``repro.harness.runners``).

Decode-side, the session mirrors the same idea with compiled **decode
plans** (:mod:`repro.bxsa.decodeplan`): the first decode of a shape runs
stateless and records the frame sequence — header layout, pre-resolved
QNames, scalar/array value slots — keyed by a cheap structural fingerprint
of the byte stream.  Subsequent same-shape messages replay that plan:
no frame dispatch, no scope stack, no header-string decoding, array
payloads pulled out as the same zero-copy views the stateless decoder
produces.  Replay memcmps every structural byte and re-validates every
``Size`` field, the first reuse of each plan is structure-checked against
a full stateless decode, and divergent shapes are poisoned to the slow
path — correctness is unconditional, exactly as on the encode side.  The
session also interns repeated header strings (prefixes, URIs, local names)
and :class:`~repro.xdm.qname.QName` objects across messages, so a stream
of same-shape envelopes allocates each name once.
"""

from __future__ import annotations

import struct
import threading

import numpy as np

from repro.bxsa.constants import FrameType
from repro.bxsa.decodeplan import (
    DecodePlan,
    compile_decode_plan,
    decode_fingerprint,
    replay_decode_plan,
)
from repro.bxsa.decoder import BXSADecoder
from repro.bxsa.emitter import FrameHandler, string_bytes, walk_tree
from repro.bxsa.encoder import BXSAEncoder
from repro.bxsa.errors import BXSADecodeError, BXSAEncodeError
from repro.xbs.constants import NATIVE_ENDIAN, TypeCode, dtype_for
from repro.xbs.structcache import struct_for
from repro.xbs.varint import encode_vls
from repro.xdm.compare import explain_difference
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

# Plan instruction tags.  Each op is a tuple whose first element is one of
# these; the replay loop dispatches on it with a flat if/elif chain.
_OP_CONST = 0  # (tag, bytes)                           pre-rendered bytes
_OP_ENTER = 1  # (tag,)                                 open container frame
_OP_EXIT = 2  # (tag, prefix, header, count_vls, tail)  close container frame
_OP_LEAF_FIXED = 3  # (tag, head_bytes, struct, node_idx)
_OP_LEAF_BOOL = 4  # (tag, head_bytes, node_idx)
_OP_LEAF_VAR = 5  # (tag, prefix, header, code, node_idx)
_OP_TEXT = 6  # (tag, prefix, node_idx)                 CHARACTER_DATA
_OP_COMMENT = 7  # (tag, prefix, node_idx)
_OP_PI = 8  # (tag, prefix, target_bytes, node_idx)
_OP_ARRAY = 9  # (tag, prefix, header, meta, head_const, dtype, item_size, node_idx)

# pad-length byte + that many zero bytes, for every pad an item size ≤ 8
# can require (array payload alignment; see emitter.array_frame_head)
_PAD_BYTES = tuple(bytes((p,)) + b"\x00" * p for p in range(8))

#: Decode plans cached per fingerprint.  Distinct shapes can share a
#: fingerprint (e.g. SOAP envelopes whose root headers match but whose
#: bodies differ); replay bails on the byte mismatch and the next plan in
#: the bucket is tried, so a small bucket absorbs benign collisions.
_MAX_BUCKET_PLANS = 4

#: :meth:`CodecSession.encode_pieces` hands an array payload of at least
#: this many bytes over by reference; smaller chunks are joined into the
#: runs between them (a piece costs its consumer a queue slot or a write).
_GATHER_BYTES = 64 << 10


class EncodePlan:
    """A compiled per-shape instruction list (internal to the session).

    ``reference`` is set only while the session checks a fresh plan: an
    iterator over the stateless encoder's array payloads for the tree the
    plan was compiled from (see :func:`_proven_payload`)."""

    __slots__ = ("ops", "node_count", "reference")

    def __init__(self, ops: list[tuple], node_count: int) -> None:
        self.ops = ops
        self.node_count = node_count
        self.reference = None


class SessionStats:
    """Counters exposed for benchmarks and tests."""

    __slots__ = (
        "plans_compiled",
        "plan_hits",
        "stateless_encodes",
        "poisoned_shapes",
        "decode_plans_compiled",
        "decode_plan_hits",
        "stateless_decodes",
        "decode_poisoned",
    )

    def __init__(self) -> None:
        self.plans_compiled = 0
        self.plan_hits = 0
        self.stateless_encodes = 0
        self.poisoned_shapes = 0
        self.decode_plans_compiled = 0
        self.decode_plan_hits = 0
        self.stateless_decodes = 0
        self.decode_poisoned = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SessionStats(compiled={self.plans_compiled}, hits={self.plan_hits}, "
            f"stateless={self.stateless_encodes}, poisoned={self.poisoned_shapes}, "
            f"dec_compiled={self.decode_plans_compiled}, "
            f"dec_hits={self.decode_plan_hits}, "
            f"dec_stateless={self.stateless_decodes}, "
            f"dec_poisoned={self.decode_poisoned})"
        )


class CodecSession:
    """Persistent BXSA codec state, reused across messages.

    Parameters
    ----------
    byte_order:
        Wire byte order for encodes (decodes honour each frame's own order).
    max_plans:
        Bound on cached encode plans and on cached decode-plan fingerprints;
        the oldest entry is evicted beyond it.
    max_cached_strings:
        Bound on each intern table (encode-side string bytes, decode-side
        names/QNames); when a table crosses the bound its oldest half (by
        insertion order) is evicted, which keeps adversarial name churn from
        growing memory without limit while the newer — still warm — half
        survives.  A long-lived worker never falls back to fully cold
        interning mid-stream.

    A session is cheap to construct but meant to be long-lived: the engine
    and clients hold one per encoding policy so that repeated exchanges hit
    warm plans.  Encoding through a session is byte-identical to
    :func:`repro.bxsa.encoder.encode` — see the module docstring.
    """

    def __init__(
        self,
        byte_order: int = NATIVE_ENDIAN,
        *,
        max_plans: int = 128,
        max_cached_strings: int = 4096,
    ) -> None:
        self.byte_order = byte_order
        self.max_plans = max_plans
        self.max_cached_strings = max_cached_strings
        self.stats = SessionStats()
        self._plans: dict[tuple, EncodePlan | None] = {}
        # decode-plan cache: structural fingerprint -> list of plans (MRU
        # first, at most _MAX_BUCKET_PLANS: distinct shapes may share a
        # fingerprint) or None for a poisoned fingerprint
        self._decode_plans: dict[tuple, list[DecodePlan] | None] = {}
        self._encoder = BXSAEncoder(byte_order)
        # encode-side intern table: str -> VLS-length-prefixed UTF-8 bytes
        self._string_bytes: dict[str, bytes] = {}
        # decode-side intern tables, shared across all decodes of the session
        self._decode_strings: dict[bytes, str] = {}
        self._decode_qnames: dict[tuple, object] = {}
        # pooled replay scratch; taken atomically (dict.pop) so two threads
        # racing on one session degrade to a fresh list, never share one
        self._scratch: list | None = []
        # every mutation of the two plan tables (and of a decode bucket)
        # holds this; a plan *hit* only reads them and never takes it
        self._mutating = threading.RLock()

    # ------------------------------------------------------------------
    # public API

    def encode(self, node: Node) -> bytes:
        """Encode ``node``, compiling/replaying a plan for its shape."""
        return self._encode(node, gather=False)

    def encode_pieces(self, node: Node) -> list:
        """:meth:`encode` for a consumer that can write pieces: the byte
        strings and read-only views whose concatenation is the message.

        Large array payloads (:data:`_GATHER_BYTES` and up) come back as
        views of the tree's own arrays instead of being copied into one
        buffer — for a bulk message that join is the codec's only copy —
        cold or warm.  Everything else is a single piece, exactly
        :meth:`encode`'s bytes; so is a poisoned shape's message.

        Aliasing contract: a view is read when the consumer writes it, so
        the tree's arrays must not be modified until then — the send-side
        mirror of ``decode(copy=False)``, whose arrays alias the received
        buffer (and which, echoed, these views keep alive).
        """
        out = self._encode(node, gather=True)
        return out if isinstance(out, list) else [out]

    def _encode(self, node: Node, gather: bool):
        """The message as ``bytes`` — or, with ``gather``, as a list of
        pieces when a plan's message is large enough to hold a gatherable
        payload."""
        shape, nodes = _shape_and_nodes(node)
        plan = self._plans.get(shape)
        if plan is not None:
            self.stats.plan_hits += 1
            try:
                return self._replay(plan, nodes, gather)
            except (struct.error, OverflowError, UnicodeEncodeError) as exc:
                # a value reassigned past what its declared type can hold
                raise BXSAEncodeError(f"value does not fit its wire type: {exc}") from exc
        if shape in self._plans:  # poisoned shape: permanent stateless path
            self.stats.stateless_encodes += 1
            return self._encoder.encode(node)
        return self._compile_and_check(shape, node, nodes, gather)

    def decode(
        self, data, offset: int = 0, *, copy: bool = False, whole: bool | None = None
    ) -> Node:
        """Decode one frame, compiling/replaying a decode plan for its shape.

        Identical semantics (including the zero-copy aliasing contract and
        the ``whole``/trailing-byte rules) to
        :func:`repro.bxsa.decoder.decode`; repeated names across messages
        come back as the same ``str``/``QName`` objects.

        The first decode of a shape runs the stateless decoder and compiles
        a plan keyed by a structural fingerprint of the bytes; later
        same-shape messages replay it.  Replay memcmps every structural
        byte, the first reuse of each plan is structure-checked against a
        stateless decode, and a diverging fingerprint is poisoned to the
        stateless path — warm decodes are an execution strategy, never a
        semantics change.
        """
        view = data if isinstance(data, memoryview) else memoryview(data)
        if whole is None:
            whole = offset == 0
        try:
            key = decode_fingerprint(view, offset)
        except BXSADecodeError:
            key = None  # malformed frame head: the stateless path raises
        if key is not None:
            bucket = self._decode_plans.get(key)
            if bucket is None and key in self._decode_plans:
                # poisoned fingerprint: permanent stateless path
                self.stats.stateless_decodes += 1
                return self._decode_stateless(view, offset, copy, whole)
            if bucket:
                node = self._try_replay(bucket, key, view, offset, copy, whole)
                if node is not None:
                    return node
        self.stats.stateless_decodes += 1
        node = self._decode_stateless(view, offset, copy, whole)
        if key is not None and self._decode_plans.get(key, ()) is not None:
            self._compile_decode_plan(key, view, offset)
        return node

    def reset(self) -> None:
        """Drop all cached plans and intern tables (cold-start state)."""
        with self._mutating:
            self._plans.clear()
            self._decode_plans.clear()
        self._string_bytes.clear()
        self._decode_strings.clear()
        self._decode_qnames.clear()
        self.stats = SessionStats()

    # ------------------------------------------------------------------
    # decode plans

    def _decode_stateless(self, view, offset: int, copy: bool, whole: bool) -> Node:
        """One full stateless decode through the session's intern tables."""
        self._evict_interned()
        decoder = BXSADecoder(
            view,
            offset,
            copy=copy,
            string_cache=self._decode_strings,
            qname_cache=self._decode_qnames,
        )
        node = decoder.read_node()
        if whole and decoder.pos != len(decoder.data):
            raise BXSADecodeError(
                f"{len(decoder.data) - decoder.pos} trailing bytes after frame"
            )
        return node

    def _try_replay(self, bucket, key, view, offset: int, copy: bool, whole: bool):
        """Replay the first plan in ``bucket`` that matches the bytes.

        Returns the decoded node, or ``None`` when every plan bailed (the
        caller decodes statelessly and compiles a plan for the new shape).
        A plan's first reuse is verified against the stateless decoder; a
        divergence poisons the fingerprint and the stateless result is
        returned instead.
        """
        for i, plan in enumerate(bucket):
            try:
                out = replay_decode_plan(plan, view, offset, copy)
            except Exception:
                out = None  # node-validity error: the slow path re-raises it
            if out is None:
                continue
            node, end = out
            if not plan.verified and not self._verify_decode_plan(
                node, end, view, offset, copy
            ):
                # a compiler blind spot must never reach the caller: poison
                # the fingerprint and serve the stateless tree
                self._remember(self._decode_plans, key, None)
                self.stats.decode_poisoned += 1
                self.stats.stateless_decodes += 1
                return self._decode_stateless(view, offset, copy, whole)
            plan.verified = True
            if whole and end != len(view):
                raise BXSADecodeError(
                    f"{len(view) - end} trailing bytes after frame"
                )
            if i:
                with self._mutating:  # keep the bucket MRU-first
                    if i < len(bucket) and bucket[i] is plan:
                        bucket.insert(0, bucket.pop(i))
            self.stats.decode_plan_hits += 1
            return node
        return None

    def _verify_decode_plan(self, node, end: int, view, offset: int, copy: bool) -> bool:
        """Structure-check a replay output against the stateless decoder."""
        decoder = BXSADecoder(
            view,
            offset,
            copy=copy,
            string_cache=self._decode_strings,
            qname_cache=self._decode_qnames,
        )
        try:
            reference = decoder.read_node()
        except Exception:
            return False
        if decoder.pos != end:
            return False
        return explain_difference(reference, node) is None

    def _compile_decode_plan(self, key, view, offset: int) -> None:
        """Compile a plan for the frame just decoded statelessly at
        ``offset``; a compiler crash poisons the fingerprint."""
        try:
            plan = compile_decode_plan(view, offset, qname_cache=self._decode_qnames)
        except Exception:
            self._remember(self._decode_plans, key, None)
            self.stats.decode_poisoned += 1
            return
        with self._mutating:
            bucket = self._decode_plans.get(key)
            if bucket is None:  # the caller guarantees the key is not poisoned
                bucket = []
                self._remember(self._decode_plans, key, bucket)
            bucket.insert(0, plan)
            del bucket[_MAX_BUCKET_PLANS:]
        self.stats.decode_plans_compiled += 1

    def _remember(self, table: dict, key, entry) -> None:
        """``table[key] = entry``, the oldest entry evicted first when the
        table is at ``max_plans`` — as one step.  Unlocked, two threads of a
        shared session pick the same oldest key (the second ``KeyError``s),
        or one resizes the table under the other's ``next(iter(...))``, or
        both pass the bound check and the table outgrows it."""
        with self._mutating:
            if key not in table and len(table) >= self.max_plans:
                del table[next(iter(table))]
            table[key] = entry

    def _evict_interned(self) -> None:
        """Bounded intern-table eviction past ``max_cached_strings``."""
        bound = self.max_cached_strings
        for cache in (self._decode_strings, self._decode_qnames):
            if len(cache) > bound:
                _drop_oldest_half(cache)

    # ------------------------------------------------------------------
    # compilation

    def _compile_and_check(self, shape: tuple, node: Node, nodes: list, gather: bool):
        """Compile a plan for ``shape``; poison the shape if replay diverges.

        What is returned always comes from a path proven equal to the
        stateless encoder *for this very tree*: either the verified replay
        output (joined or gathered, as :meth:`_replay` makes it) or the
        stateless output itself.  The stateless frames are compared with
        the replay's in place, so neither is joined for the check, and the
        replay converts no array whole for it: each of its payloads is
        proven equal to the stateless one block by block and the stateless
        one is sent (at a non-native byte order that is one byteswapped copy
        of every array held, not two).
        """
        reference = self._encoder.encode_chunks(node)
        try:
            plan = self._compile(node)
            # the emitter's chunks that are not bytes are its array payloads
            plan.reference = iter([c for c in reference if type(c) is memoryview])
            out = self._replay(plan, nodes, gather)
            plan.reference = None  # checked or discarded: no replay sees it again
        except Exception:
            plan = out = None
        if out is None or not _same_bytes(reference, out if isinstance(out, list) else (out,)):
            # a compiler blind spot must never reach the wire: remember the
            # shape as uncacheable and serve the stateless bytes
            self._remember(self._plans, shape, None)
            self.stats.poisoned_shapes += 1
            self.stats.stateless_encodes += 1
            return b"".join(reference)
        self._remember(self._plans, shape, plan)
        self.stats.plans_compiled += 1
        return out

    def _compile(self, root: Node) -> EncodePlan:
        """Walk the tree once, recording instructions instead of bytes."""
        recorder = _PlanRecorder(self.byte_order)
        walk_tree(root, recorder)
        return EncodePlan(recorder.ops, recorder.node_count)

    # ------------------------------------------------------------------
    # replay

    def _replay(self, plan: EncodePlan, nodes: list, gather: bool = False):
        """Execute a plan against the value-bearing ``nodes`` flat list.

        Returns the joined bytes; with ``gather``, a message large enough
        to carry a gatherable payload comes back as :func:`_gather`'s
        piece list."""
        chunks = self.__dict__.pop("_scratch", None)
        if chunks is None:
            chunks = []
        reference = plan.reference
        try:
            nbytes = 0
            open_frames: list[tuple[int, int]] = []  # (placeholder idx, mark)
            order = self.byte_order
            for op in plan.ops:
                tag = op[0]
                if tag == _OP_CONST:
                    chunk = op[1]
                    chunks.append(chunk)
                    nbytes += len(chunk)
                elif tag == _OP_LEAF_FIXED:
                    chunk = op[1] + op[2].pack(nodes[op[3]].value)
                    chunks.append(chunk)
                    nbytes += len(chunk)
                elif tag == _OP_ENTER:
                    open_frames.append((len(chunks), nbytes))
                    chunks.append(b"")
                elif tag == _OP_EXIT:
                    placeholder, mark = open_frames.pop()
                    tail = op[4]
                    if tail is None:
                        header = self._assemble_header(op[2], nodes)
                        tail = header + op[3]
                    body_len = len(tail) + (nbytes - mark)
                    patch = op[1] + encode_vls(body_len) + tail
                    chunks[placeholder] = patch
                    nbytes += len(patch)
                elif tag == _OP_ARRAY:
                    _, prefix, header, meta, head_const, target, item_size, idx = op
                    node = nodes[idx]
                    if head_const is None:
                        head_const = self._assemble_header(header, nodes) + meta
                    count = encode_vls(int(node.values.size))
                    pad = (-(len(head_const) + len(count) + 1)) % item_size
                    if reference is None:
                        normalized = np.ascontiguousarray(node.values, dtype=target)
                        payload = memoryview(normalized).cast("B") if normalized.size else b""
                    else:
                        payload = _proven_payload(node.values, target, reference)
                    head = head_const + count + _PAD_BYTES[pad]
                    size_field = encode_vls(len(head) + len(payload))
                    chunks.append(prefix + size_field)
                    chunks.append(head)
                    chunks.append(payload)
                    nbytes += len(prefix) + len(size_field) + len(head) + len(payload)
                elif tag == _OP_LEAF_BOOL:
                    chunk = op[1] + (b"\x01" if nodes[op[2]].value else b"\x00")
                    chunks.append(chunk)
                    nbytes += len(chunk)
                elif tag == _OP_LEAF_VAR:
                    _, prefix, header, code, idx = op
                    node = nodes[idx]
                    if not isinstance(header, bytes):
                        header = self._assemble_header(header, nodes)
                    typed = self._typed_value(code, node.value)
                    body_len = len(header) + len(typed)
                    chunk = prefix + encode_vls(body_len) + header + typed
                    chunks.append(chunk)
                    nbytes += len(chunk)
                elif tag == _OP_TEXT or tag == _OP_COMMENT:
                    body = self._cached_string_bytes(nodes[op[2]].text)
                    chunk = op[1] + encode_vls(len(body)) + body
                    chunks.append(chunk)
                    nbytes += len(chunk)
                elif tag == _OP_PI:
                    body = op[2] + self._cached_string_bytes(nodes[op[3]].data)
                    chunk = op[1] + encode_vls(len(body)) + body
                    chunks.append(chunk)
                    nbytes += len(chunk)
                else:  # pragma: no cover - compiler/replayer must stay in sync
                    raise AssertionError(f"unknown plan op {tag}")
            # a message shorter than one gatherable payload has none
            if gather and nbytes >= _GATHER_BYTES:
                out = _gather(chunks)
            else:
                out = b"".join(chunks)
        finally:
            chunks.clear()  # release payload views before pooling the list
            self._scratch = chunks
        return out

    def _assemble_header(self, segments: list, nodes: list) -> bytes:
        """Fill a variable header's attribute-value holes for one message.

        Each hole carries the owning node's pre-order index, so container
        EXIT ops (where the replay loop has no node at hand) resolve the
        same way leaf and array frames do.
        """
        parts: list[bytes] = []
        for seg in segments:
            if isinstance(seg, bytes):
                parts.append(seg)
            else:
                node_idx, attr_index, code = seg
                attr = nodes[node_idx].attributes[attr_index]
                parts.append(self._typed_value(code, attr.value))
        return b"".join(parts)

    def _typed_value(self, code: TypeCode, value) -> bytes:
        out = bytes((int(code),))
        if code is TypeCode.STRING:
            return out + self._cached_string_bytes(value)
        if code is TypeCode.BOOL:
            return out + (b"\x01" if value else b"\x00")
        return out + struct_for(self.byte_order, code).pack(value)

    def _cached_string_bytes(self, text: str) -> bytes:
        """VLS-length-prefixed UTF-8 bytes, interned across messages."""
        cache = self._string_bytes
        cached = cache.get(text)
        if cached is not None:
            return cached
        raw = text.encode("utf-8")
        rendered = encode_vls(len(raw)) + raw
        if len(text) <= 128:
            if len(cache) > self.max_cached_strings:
                _drop_oldest_half(cache)
            cache[text] = rendered
        return rendered


def _drop_oldest_half(cache: dict) -> None:
    """Evict the oldest half (insertion order) of an intern table — never the
    lot, so a warm stream keeps its recently used names across the boundary.

    The tables are written on every decode and replay, so this takes no
    lock: ``list(cache)`` snapshots the keys in one step (an iterator held
    across bytecodes dies of another thread's insert), and ``pop`` shrugs at
    a key a concurrent eviction already took."""
    for stale in list(cache)[: len(cache) // 2]:
        cache.pop(stale, None)


def _same_bytes(xs, ys) -> bool:
    """Whether two chunk sequences concatenate to the same bytes, compared
    in place: each run both sides cover is a pair of views, never a copy."""
    xs = [memoryview(x) for x in xs]
    ys = [memoryview(y) for y in ys]
    if sum(map(len, xs)) != sum(map(len, ys)):
        return False
    x = y = memoryview(b"")
    i = j = 0
    while True:
        if not x:
            if i == len(xs):
                return True  # equal totals: ``ys`` is spent too
            x, i = xs[i], i + 1
        elif not y:
            y, j = ys[j], j + 1
        else:
            n = min(len(x), len(y))
            # compared as 8-byte words: the byte format compares item by
            # item through the struct machinery, ~10x slower
            words = n & ~7
            if x[words:n] != y[words:n] or x[:words].cast("Q") != y[:words].cast("Q"):
                return False
            x, y = x[n:], y[n:]


#: How much of an array :func:`_proven_payload` converts at a time.
_PROOF_BLOCK_BYTES = 64 << 10


def _proven_payload(values, target, reference):
    """The payload a replay converts ``values`` to, taken from ``reference``
    (the stateless encoder's payloads, in document order) once the replay's
    own conversion has been compared equal with it, block by block.

    So checking a plan holds the reference's converted copy of an array and
    a block of the replay's, not two whole copies.  Raises ``ValueError``
    where the two differ.  An array already in the target type costs no
    copy either way; its payload is the replay's own view, compared with
    the rest of the message.
    """
    flat = values.reshape(-1)
    if not flat.size:
        return b""  # the emitter emits no payload for an empty array
    expected = next(reference, b"")
    if flat.dtype == target:  # nothing to convert: the replay's own is a view
        return memoryview(flat).cast("B")
    itemsize = target.itemsize
    if len(expected) != flat.size * itemsize:
        raise ValueError("replayed payload differs in length from the stateless one")
    step = max(1, _PROOF_BLOCK_BYTES // itemsize)
    for start in range(0, flat.size, step):
        block = memoryview(np.ascontiguousarray(flat[start : start + step], dtype=target))
        at = start * itemsize
        if not _same_bytes((block.cast("B"),), (expected[at : at + block.nbytes],)):
            raise ValueError("replayed payload differs from the stateless one")
    return expected


def _gather(chunks: list) -> list:
    """A replayed chunk list as few pieces: large payload views by
    reference, the runs of small chunks between them joined."""
    pieces: list = []
    run_start = 0
    for i, chunk in enumerate(chunks):
        if len(chunk) >= _GATHER_BYTES:
            if i > run_start:
                pieces.append(b"".join(chunks[run_start:i]))
            pieces.append(chunk.toreadonly() if isinstance(chunk, memoryview) else chunk)
            run_start = i + 1
    if run_start < len(chunks):
        pieces.append(b"".join(chunks[run_start:]))
    return pieces


# ---------------------------------------------------------------------------
# plan compilation


class _PlanRecorder(FrameHandler):
    """Tree-walk handler that turns each production into a plan op.

    Prefixes, header segments and scope rules are the emitter module's, so
    a plan pre-renders what the emitter would have written; only the op
    layout — constant per shape, or a hole — is decided here.  Ops index
    nodes by pre-order position, as :func:`_shape_and_nodes` lists them.
    """

    def __init__(self, byte_order: int) -> None:
        super().__init__(byte_order)
        self.ops: list[tuple] = []
        self.node_count = 0

    def _node(self) -> int:
        self._child()
        self.node_count += 1
        return self.node_count - 1

    def _header(self, idx: int, name, namespaces, attributes, container: bool = False):
        """Header segments whose holes also name the owning node: container
        EXIT ops are replayed with no node at hand.  Plain ``bytes`` when
        there are no holes, which lets a leaf fold its whole frame head into
        one constant."""
        header = self._header_segments(name, namespaces, attributes, container)
        if isinstance(header, bytes):
            return header
        return [seg if isinstance(seg, bytes) else (idx, *seg) for seg in header]

    def _enter(self, frame_type: FrameType, header) -> None:
        self.ops.append((_OP_ENTER,))
        self._open.append([0, frame_type, header])

    def _exit(self) -> None:
        count, frame_type, header = self._open.pop()
        count_vls = encode_vls(count)
        tail = header + count_vls if isinstance(header, bytes) else None
        self.ops.append((_OP_EXIT, self._prefixes[frame_type], header, count_vls, tail))

    def start_document(self) -> None:
        self._node()
        self._enter(FrameType.DOCUMENT, b"")

    def start_element(self, name, namespaces, attributes) -> None:
        header = self._header(self._node(), name, namespaces, attributes, container=True)
        self._enter(FrameType.COMPONENT_ELEMENT, header)

    def leaf(self, name, namespaces, attributes, code, value) -> None:
        idx = self._node()
        header = self._header(idx, name, namespaces, attributes)
        prefix = self._prefixes[FrameType.LEAF_ELEMENT]
        if not (isinstance(header, bytes) and code.is_numeric):
            self.ops.append((_OP_LEAF_VAR, prefix, header, code, idx))
            return
        # fully constant frame head: prefix + Size + header + type code,
        # followed only by the fixed-width value
        head = prefix + encode_vls(len(header) + 1 + code.size) + header + bytes((int(code),))
        if code is TypeCode.BOOL:
            self.ops.append((_OP_LEAF_BOOL, head, idx))
        else:
            self.ops.append((_OP_LEAF_FIXED, head, struct_for(self.byte_order, code), idx))

    def array(self, name, namespaces, attributes, code, item_name, values) -> None:
        idx = self._node()
        header = self._header(idx, name, namespaces, attributes)
        meta = bytes((int(code),)) + string_bytes(item_name or "")
        head_const = header + meta if isinstance(header, bytes) else None
        prefix = self._prefixes[FrameType.ARRAY_ELEMENT]
        target = dtype_for(code, self.byte_order)
        self.ops.append((_OP_ARRAY, prefix, header, meta, head_const, target, code.size, idx))

    def text(self, content) -> None:
        self.ops.append((_OP_TEXT, self._prefixes[FrameType.CHARACTER_DATA], self._node()))

    def comment(self, content) -> None:
        self.ops.append((_OP_COMMENT, self._prefixes[FrameType.COMMENT], self._node()))

    def pi(self, target, data) -> None:
        self.ops.append((_OP_PI, self._prefixes[FrameType.PI], string_bytes(target), self._node()))


# ---------------------------------------------------------------------------
# shape signatures


def _shape_and_nodes(root: Node) -> tuple[tuple, list]:
    """One pre-order walk producing (hashable shape key, flat node list).

    The key captures *everything* a compiled plan's constant bytes depend
    on — node kinds, QNames (prefix included: it feeds auto-declaration),
    namespace declaration tables, attribute names and type codes, leaf and
    array type codes, array item-name hints, PI targets, child counts —
    and nothing value-dependent, so two messages with equal keys are
    encodable by one plan.  Plan instructions index into the node list.
    """
    key: list = []
    nodes: list = []
    append_key = key.append
    append_node = nodes.append
    stack: list[Node] = [root]
    while stack:
        node = stack.pop()
        append_node(node)
        if isinstance(node, LeafElement):
            name = node.name
            append_key(
                (
                    "L",
                    name.prefix,
                    name.uri,
                    name.local,
                    _ns_key(node.namespaces),
                    _attr_key(node.attributes),
                    int(node.atype.code),
                )
            )
        elif isinstance(node, ArrayElement):
            name = node.name
            append_key(
                (
                    "A",
                    name.prefix,
                    name.uri,
                    name.local,
                    _ns_key(node.namespaces),
                    _attr_key(node.attributes),
                    int(node.atype.code),
                    node.item_name or "",
                )
            )
        elif isinstance(node, DocumentNode):
            append_key(("D", len(node.children)))
            stack.extend(reversed(node.children))
        elif isinstance(node, ElementNode):
            name = node.name
            append_key(
                (
                    "E",
                    name.prefix,
                    name.uri,
                    name.local,
                    _ns_key(node.namespaces),
                    _attr_key(node.attributes),
                    len(node.children),
                )
            )
            stack.extend(reversed(node.children))
        elif isinstance(node, TextNode):
            append_key("T")
        elif isinstance(node, CommentNode):
            append_key("C")
        elif isinstance(node, PINode):
            append_key(("P", node.target))
        else:
            # foreign node kind: per-instance key => never shared, and the
            # stateless fallback raises the encoder's own error for it
            append_key(("X", id(node)))
    return tuple(key), nodes


def _ns_key(namespaces: list) -> tuple:
    if not namespaces:
        return ()
    return tuple((ns.prefix, ns.uri) for ns in namespaces)


def _attr_key(attributes: list) -> tuple:
    if not attributes:
        return ()
    return tuple(
        (a.name.prefix, a.name.uri, a.name.local, int(a.atype.code))
        for a in attributes
    )
