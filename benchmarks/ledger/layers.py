"""The traced pass: every layer's public functions, timed from outside.

Three parts, all on the workload's own payload and encoded bytes:

* **probes** — each layer metric is the median over up to
  :data:`MAX_CALLS` timed calls of one public function (as many as fit the
  metric's share of the time budget, never fewer than :data:`FLOOR_CALLS`;
  the count is reported beside the metric), a span around every call;
* **live loops** — a one-connection closed loop against the real server
  child, alternating untraced slices (the plain ``SoapHttpClient``) with
  traced slices (the same client handed a span-taking encoding policy
  and channel): their rate ratio is what the spans cost;
* **floors** — a bare ``HttpClient.post`` of the same body to each HTTP
  core with a handler that returns it, and a raw TCP echo of the same
  byte count, all in a second child;
* **demoted live metrics** — a short untraced window of the live pass
  itself (same load shape), for the end-to-end metrics that could not hold
  a bound and live on as ``ledger.<name>`` (see ``catalog.DEMOTED``).

The reconciliation sums the fourteen probe medians one exchange is made
of and reads the rest of the live latency as the residual.  The server's
half is probed in this process on the same bytes: spans inside the
program are a later issue.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time

from repro import obs
from repro.bxsa import (
    BXSAStreamWriter,
    CodecSession,
    FrameScanner,
    StreamDecoder,
    decode as bxsa_decode,
    encode as bxsa_encode,
    write_document,
)
from repro.core.client import SoapHttpClient
from repro.core.envelope import SoapEnvelope
from repro.core.security import HmacSigningPolicy, SecretKey
from repro.fed import Balancer, Replica, ResponseCache, envelope_key
from repro.obs import TraceContext, propagation
from repro.serve import AdmissionQueueFull, ServeConfig, SoapServeService, WorkerPool
from repro.services.echo import echo_dispatcher
from repro.transport.base import BufferedChannel, recv_exactly
from repro.transport.http.client import HttpClient
from repro.transport.http.messages import (
    ChunkedDecoder,
    HttpRequest,
    HttpResponse,
    encode_chunk,
    last_chunk,
    read_request,
    read_response,
)
from repro.transport.memory import MemoryNetwork
from repro.xbs import XBSReader, XBSWriter, type_code_for_dtype
from repro.xdm import ArrayElement, ElementNode
from repro.xmlcodec import XMLSerializer, parse_document

from benchmarks.ledger import catalog, stats
from benchmarks.ledger.live import (
    WARMUP_EXCHANGES,
    ServerChild,
    Tally,
    exchange,
    live_pass,
)
from benchmarks.ledger.paths import OUT
from benchmarks.ledger.server import QUEUE_DEPTH, RAW_LENGTH, WORKERS
from benchmarks.ledger.spans import SpanLog
from benchmarks.ledger.workloads import (
    FULL_CHECK_EVERY,
    Workload,
    build_envelope,
    build_pool,
    make_policy,
    pool_digest,
    quick_check,
)

MAX_CALLS = 2000
FLOOR_CALLS = 5
#: Calls shorter than this are timed in batches, one span per batch.
BATCH_BELOW_NS = 20_000
#: Streaming probes move the body in pieces of this size.
PIECE = 64 * 1024
#: Distinct documents a probe rotates through: values change between calls
#: as they do live, so nothing is timed on a value it has already seen.
ROTATE = 8

#: Shares of ``--seconds``: the demoted metrics' window, the one-connection
#: live loops, each of the three floors, and all probes together.
WINDOW_SHARE = 0.25
LIVE_SHARE = 0.20
FLOOR_SHARE = 0.04
PROBE_SHARE = 0.40
#: ``Prober.time`` calls in :func:`probe_layers`; each gets an equal budget.
PROBES = 32
#: Untraced/traced slices alternate so drift lands on both sides alike.
LIVE_SLICES = 4


class _Replay:
    """The read side of a channel: fixed bytes, a socket read's worth at a time."""

    def __init__(self, data: bytes) -> None:
        self._view = memoryview(data)
        self._pos = 0

    def recv(self, max_bytes: int = 65536) -> bytes:
        out = bytes(self._view[self._pos : self._pos + max_bytes])
        self._pos += len(out)
        return out


def _pieces(data: bytes) -> list[memoryview]:
    view = memoryview(data)
    return [view[i : i + PIECE] for i in range(0, len(view), PIECE)]


class Prober:
    """Times one callable per metric, logging a span per call (or batch)."""

    def __init__(self, log: SpanLog, budget_ns: int) -> None:
        self.log = log
        self.budget_ns = budget_ns
        self.metrics: dict[str, dict] = {}
        self.calls: dict[str, int] = {}

    def value(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def time(self, name: str, fn, *, parent: int, kind: str = "cpu",
             budget_ns: int | None = None) -> None:
        """Record median microseconds per call of ``fn``; ``name`` ends in ``_us``."""
        # "probe." keeps these apart from the live loops' in-situ spans of the
        # same calls when `analyze aggregate` pools a trace by span name
        span_name = "probe." + name[: -len("_us")]
        fn()  # first call fills plans and caches; steady state is what is timed
        start = time.perf_counter_ns()
        fn()
        first = max(1, time.perf_counter_ns() - start)
        batch = 1 if first >= BATCH_BELOW_NS else min(1000, BATCH_BELOW_NS // first + 1)
        deadline = time.perf_counter_ns() + (budget_ns or self.budget_ns)
        per_call: list[float] = []
        log_add = self.log.add
        clock = time.perf_counter_ns
        while len(per_call) < MAX_CALLS:
            if len(per_call) >= FLOOR_CALLS and clock() >= deadline:
                break
            start = clock()
            for _ in itertools.repeat(None, batch):
                fn()
            end = clock()
            log_add(span_name, start, end, parent, len(per_call), kind,
                    segment=True, calls=batch)
            per_call.append((end - start) / batch)
        self.value(name, statistics.median(per_call) / 1e3, "us")
        self.calls[name] = len(per_call) * batch


def _largest_array(envelope: SoapEnvelope):
    """The values of the biggest ``ArrayElement`` in the payload."""
    arrays = []
    stack = [envelope.body_root]
    while stack:
        node = stack.pop()
        if isinstance(node, ArrayElement):
            arrays.append(node.values)
        elif isinstance(node, ElementNode):
            stack.extend(node.children)
    return max(arrays, key=lambda values: values.nbytes)


class _Fixture:
    """The workload's payload in every form a probe needs."""

    def __init__(self, workload: Workload, pool: list) -> None:
        self.workload = workload
        self.records = pool[:ROTATE]
        self.policy = make_policy(workload)
        self.envelopes = [build_envelope(r) for r in self.records]
        self.documents = [e.to_document() for e in self.envelopes]
        self.bodies = [self.policy.encode(d) for d in self.documents]
        self.dispatcher = echo_dispatcher()
        self.replies = [self.dispatcher.dispatch(e) for e in self.envelopes]
        self.reply_body = self.policy.encode(self.replies[0].to_document())
        self.bxsa_bodies = [bxsa_encode(d) for d in self.documents]
        self.xml_body = XMLSerializer().run_bytes(self.documents[0])
        self.request_wire = self.frame_request(self.bodies[0])
        self.response_wire = self.frame_response(self.reply_body)

    def frame_request(self, body: bytes) -> bytes:
        """What ``HttpClient.request`` does before it touches the socket."""
        request = HttpRequest("POST", "/soap")
        request.headers.set("Host", "localhost")
        request.headers.set("Content-Type", self.policy.content_type)
        request.headers.set("SOAPAction", '""')
        request.body = body
        return request.to_bytes()

    def frame_response(self, body: bytes) -> bytes:
        """What a serving core does with ``run_soap_http_exchange``'s result."""
        response = HttpResponse(200, body=body)
        response.headers.set("Content-Type", self.policy.content_type)
        return response.to_bytes()


def _rotating(fn, items):
    """``fn`` applied to the next of ``items`` on every call."""
    nxt = itertools.cycle(items).__next__
    return lambda: fn(nxt())


def _probe_xdm(p: Prober, fx: _Fixture, group: int) -> None:
    p.time("xdm.build_us", _rotating(build_envelope, fx.records), parent=group)


def _probe_xbs(p: Prober, fx: _Fixture, group: int) -> None:
    values = _largest_array(fx.envelopes[0])
    code = type_code_for_dtype(values.dtype)

    def write_array():
        writer = XBSWriter()
        writer.write_array(values)
        return writer

    packed = write_array().getvalue()
    p.time("xbs.write_array_us", write_array, parent=group)
    p.time("xbs.read_array_us", lambda: XBSReader(packed).read_array(code), parent=group)


def _probe_bxsa(p: Prober, fx: _Fixture, group: int) -> None:
    documents, bodies = fx.documents, fx.bxsa_bodies
    session = CodecSession()
    p.time("bxsa.encode_warm_us", _rotating(session.encode, documents), parent=group)
    p.time("bxsa.decode_warm_us", _rotating(session.decode, bodies), parent=group)
    s = session.stats
    p.value(
        "bxsa.encode_plan_hit_ratio",
        s.plan_hits / (s.plan_hits + s.plans_compiled + s.stateless_encodes),
        "ratio",
    )
    p.value(
        "bxsa.decode_plan_hit_ratio",
        s.decode_plan_hits / (s.decode_plan_hits + s.stateless_decodes),
        "ratio",
    )
    p.value("bxsa.wire_bytes", float(len(bodies[0])), "bytes")
    p.time("bxsa.encode_cold_us", _rotating(bxsa_encode, documents), parent=group)
    p.time("bxsa.decode_cold_us", _rotating(bxsa_decode, bodies), parent=group)

    def stream_write(document):
        written = 0

        def sink(piece) -> None:
            nonlocal written
            written += len(piece)

        write_document(BXSAStreamWriter(sink=sink, chunk_size=PIECE), document)
        return written

    p.time("bxsa.stream_write_us", _rotating(stream_write, documents), parent=group)
    body_pieces = _pieces(bodies[0])

    def stream_decode():
        decoder = StreamDecoder()
        for piece in body_pieces:
            decoder.feed(piece)
        decoder.close()

    p.time("bxsa.stream_decode_us", stream_decode, parent=group)

    def scan():
        for _frame in FrameScanner(bodies[0]).iter_frames():
            pass

    p.time("bxsa.scan_us", scan, parent=group)


def _probe_xmlcodec(p: Prober, fx: _Fixture, group: int) -> None:
    serializer = XMLSerializer()
    p.time("xmlcodec.serialize_us", _rotating(serializer.run_bytes, fx.documents), parent=group)
    p.time("xmlcodec.parse_us", lambda: parse_document(fx.xml_body, typed=True), parent=group)
    p.value("xmlcodec.wire_bytes", float(len(fx.xml_body)), "bytes")


def _probe_core(p: Prober, fx: _Fixture, group: int) -> None:
    documents, envelopes = fx.documents, fx.envelopes
    p.time("core.envelope.to_document_us",
           _rotating(SoapEnvelope.to_document, envelopes), parent=group)
    p.time("core.envelope.from_document_us",
           _rotating(SoapEnvelope.from_document, documents), parent=group)
    p.time("core.policies.encode_us", _rotating(fx.policy.encode, documents), parent=group)
    p.time("core.policies.decode_us", _rotating(fx.policy.decode, fx.bodies), parent=group)
    p.time("core.dispatcher.dispatch_us",
           _rotating(fx.dispatcher.dispatch, envelopes), parent=group)
    signer = HmacSigningPolicy(SecretKey(b"ledger-signing-key-0123456789abcdef"))
    signed = build_envelope(fx.records[0])  # sign() rewrites header blocks: own copy

    def sign_verify():
        signer.sign(signed)
        signer.verify(signed)

    p.time("core.security.sign_verify_us", sign_verify, parent=group)


def _probe_http_messages(p: Prober, fx: _Fixture, group: int) -> None:
    prefix = "transport.http.messages."
    p.time(prefix + "request_frame_us", _rotating(fx.frame_request, fx.bodies), parent=group)
    p.time(prefix + "request_parse_us",
           lambda: read_request(BufferedChannel(_Replay(fx.request_wire))), parent=group)
    p.time(prefix + "response_frame_us",
           lambda: fx.frame_response(fx.reply_body), parent=group)
    p.time(prefix + "response_parse_us",
           lambda: read_response(BufferedChannel(_Replay(fx.response_wire))), parent=group)
    chunk_source = _pieces(fx.bodies[0])

    def chunked_roundtrip():
        decoder = ChunkedDecoder()
        for piece in chunk_source:
            decoder.feed(encode_chunk(piece))
        decoder.feed(last_chunk())
        if not decoder.done:
            raise AssertionError("chunked body did not terminate")

    p.time(prefix + "chunked_roundtrip_us", chunked_roundtrip, parent=group)


def _probe_serve(p: Prober, fx: _Fixture, group: int) -> None:
    with WorkerPool(workers=1, queue_depth=4) as pool:
        p.time("serve.pool.roundtrip_us",
               lambda: pool.submit(lambda _state: None).result(5.0), parent=group)

    wedged, release = threading.Event(), threading.Event()
    with WorkerPool(workers=1, queue_depth=1) as pool:
        pool.submit(lambda _state: (wedged.set(), release.wait()))  # holds the only worker
        wedged.wait(5.0)
        pool.submit(lambda _state: None)  # fills the only queue slot

        def shed():
            try:
                pool.submit(lambda _state: None)
            except AdmissionQueueFull:
                return
            raise AssertionError("a full admission queue admitted a task")

        try:
            p.time("serve.pool.shed_decision_us", shed, parent=group)
        finally:
            release.set()

    network = MemoryNetwork()
    service = SoapServeService(
        network.listen("ledger"),
        fx.dispatcher,
        config=ServeConfig(workers=WORKERS, queue_depth=QUEUE_DEPTH),
    )
    client = SoapHttpClient(
        lambda: network.connect("ledger"), encoding=make_policy(fx.workload)
    )
    with service:
        try:
            p.time("serve.service.memory_exchange_us",
                   _rotating(client.call, fx.envelopes), parent=group)
        finally:
            client.close()


def _probe_fed(p: Prober, fx: _Fixture, group: int) -> None:
    p.time("fed.cache.key_us",
           _rotating(lambda e: envelope_key(e, fx.policy), fx.envelopes), parent=group)
    cache = ResponseCache(ttl_seconds=None, max_bytes=64 << 20)
    key = envelope_key(fx.envelopes[0], fx.policy)
    cache.put(key, fx.replies[0], len(fx.reply_body))

    def cache_hit():
        if cache.get(key) is None:
            raise AssertionError("warm key missed the cache")

    p.time("fed.cache.hit_us", cache_hit, parent=group)
    # selection and outcome bookkeeping only: the replica is never connected to
    balancer = Balancer([Replica("ledger", connect=lambda: None)])

    def acquire_release():
        balancer.release(balancer.acquire(), ok=True, seconds=0.001)

    p.time("fed.balancer.acquire_release_us", acquire_release, parent=group)


def _probe_obs(p: Prober, fx: _Fixture, group: int) -> None:
    if obs.get_recorder().enabled:
        raise AssertionError("the program's recorder must stay the NullRecorder")

    def null_span():
        with obs.span("ledger.null"):
            pass

    p.time("obs.trace.null_span_us", null_span, parent=group)
    headers = HttpRequest("POST", "/soap").headers
    context = TraceContext(0x1ED6E2, 7, True, "ab12")

    def inject_extract():
        propagation.inject_headers(headers, context)
        if propagation.extract_headers(headers) != context:
            raise AssertionError("trace context did not survive the header round trip")

    p.time("obs.propagation.inject_extract_us", inject_extract, parent=group)


def _probe_ledger(p: Prober, fx: _Fixture, group: int) -> None:
    tally = Tally()

    def iteration(pair):
        record, reply = pair
        exchange(lambda _request: reply, record, tally, full=False)

    p.time("ledger.loadgen_overhead_us",
           _rotating(iteration, list(zip(fx.records, fx.replies))), parent=group)
    if tally.failed:
        raise AssertionError(f"the generator rejected its own canned replies: {tally.errors}")


#: One span group per module, in the order an exchange meets them.
LAYER_PROBES = (
    ("xdm", _probe_xdm),
    ("xbs", _probe_xbs),
    ("bxsa", _probe_bxsa),
    ("xmlcodec", _probe_xmlcodec),
    ("core", _probe_core),
    ("transport.http.messages", _probe_http_messages),
    ("serve", _probe_serve),
    ("fed", _probe_fed),
    ("obs", _probe_obs),
    ("ledger", _probe_ledger),
)


def probe_layers(p: Prober, fx: _Fixture) -> None:
    """Every in-process layer metric, grouped under one span per module."""
    for name, probe in LAYER_PROBES:
        with p.log.group(name) as group:
            probe(p, fx, group)


# ---------------------------------------------------------------------------
# live loops: the same client, with and without spans around its policies


class _Cursor:
    """Where the traced client's wrappers hang their spans right now."""

    __slots__ = ("span", "exchange")

    def __init__(self) -> None:
        self.span: int | None = None
        self.exchange: int | None = None


class _Spanning:
    """Base of the traced client's wrappers: a leaf span around one call."""

    def __init__(self, inner, log: SpanLog, cursor: _Cursor) -> None:
        self._inner = inner
        self._log = log
        self._cursor = cursor

    def _spanned(self, name: str, kind: str, fn, argument):
        start = time.perf_counter_ns()
        result = fn(argument)
        self._log.add(name, start, time.perf_counter_ns(),
                      self._cursor.span, self._cursor.exchange, kind, segment=True)
        return result


class TracedEncoding(_Spanning):
    """An encoding policy (the engine's concept) that spans its inner one."""

    def __init__(self, inner, log: SpanLog, cursor: _Cursor) -> None:
        super().__init__(inner, log, cursor)
        self.content_type = inner.content_type

    def encode(self, document):
        return self._spanned("core.policies.encode", "cpu", self._inner.encode, document)

    def decode(self, payload):
        return self._spanned("core.policies.decode", "cpu", self._inner.decode, payload)


class TracedChannel(_Spanning):
    """A channel that spans every socket call (kind ``wire``: mostly waiting)."""

    def send_all(self, data) -> None:
        self._spanned("transport.sockets.send_all", "wire", self._inner.send_all, data)

    def recv(self, max_bytes: int = 65536) -> bytes:
        return self._spanned("transport.sockets.recv", "wire", self._inner.recv, max_bytes)

    def close(self) -> None:
        self._inner.close()


def _traced_exchange(client, log, cursor, parent, record, tally: Tally) -> None:
    """:func:`benchmarks.ledger.live.exchange`, with the span tree around it."""
    tally.attempted += 1
    index = tally.attempted
    root = log.open("ledger.exchange", parent, index)
    start = time.perf_counter_ns()
    request = build_envelope(record)
    built = time.perf_counter_ns()
    log.add("xdm.build", start, built, root, index, segment=True)
    cursor.span = log.open("core.client.call", root, index)
    cursor.exchange = index
    try:
        reply = client.call(request)
    except Exception as exc:  # noqa: BLE001 - any failure is a failed exchange
        tally.fail(f"{type(exc).__name__}: {exc}")
        return
    finally:
        end = log.close(cursor.span)
        log.close(root)
    if not quick_check(request, reply):
        tally.fail("reply does not match the request")
        return
    tally.completed += 1
    tally.samples.append((end, end - start))


def live_loops(workload: Workload, pool: list, log: SpanLog, seconds: float) -> dict:
    """Alternate untraced and traced one-connection slices on one server."""
    cursor = _Cursor()
    untraced, traced = Tally(), Tally()
    busy_ns = {"untraced": 0, "traced": 0}
    with ServerChild("soap", "--core", workload.core) as server:
        connect = server.connector("soap")
        plain = SoapHttpClient(connect, encoding=make_policy(workload))
        spanned = SoapHttpClient(
            lambda: TracedChannel(connect(), log, cursor),
            encoding=TracedEncoding(make_policy(workload), log, cursor),
        )
        try:
            warmup = Tally()
            for k in range(WARMUP_EXCHANGES):
                exchange(plain.call, pool[k % len(pool)], warmup, full=True)
                exchange(spanned.call, pool[k % len(pool)], warmup, full=True)
            if warmup.failed:
                raise RuntimeError(f"traced warm-up failed on {workload.name}: {warmup.errors}")
            log.clear()  # the spanned client's warm-up is not part of the trace
            group = log.open("live.traced")
            position = 0
            slice_ns = int(seconds * 1e9 / LIVE_SLICES)
            for k in range(LIVE_SLICES):
                side = "untraced" if k % 2 == 0 else "traced"
                begin = time.perf_counter_ns()
                deadline = begin + slice_ns
                while time.perf_counter_ns() < deadline:
                    record = pool[position % len(pool)]
                    position += 1
                    if side == "untraced":
                        exchange(plain.call, record, untraced,
                                 full=untraced.attempted % FULL_CHECK_EVERY == 0)
                    else:
                        _traced_exchange(spanned, log, cursor, group, record, traced)
                busy_ns[side] += time.perf_counter_ns() - begin
            log.close(group)
        finally:
            plain.close()
            spanned.close()
    if not untraced.samples or not traced.samples:
        raise RuntimeError(
            f"live loops completed nothing on {workload.name}: "
            f"{untraced.errors + traced.errors}"
        )
    untraced_rate = untraced.completed / (busy_ns["untraced"] / 1e9)
    traced_rate = traced.completed / (busy_ns["traced"] / 1e9)
    return {
        "live_p50_us": statistics.median(lat for _end, lat in untraced.samples) / 1e3,
        "traced_p50_us": statistics.median(lat for _end, lat in traced.samples) / 1e3,
        "untraced_rate": untraced_rate,
        "traced_rate": traced_rate,
        "overhead_ratio": traced_rate / untraced_rate,
        "attempted": untraced.attempted + traced.attempted + warmup.attempted,
        "completed": untraced.completed + traced.completed + warmup.completed,
        "failed": untraced.failed + traced.failed,
        "errors": (untraced.errors + traced.errors)[:5],
    }


def probe_floors(p: Prober, fx: _Fixture, budget_ns: int) -> None:
    """Bare HTTP exchanges on both cores and the raw socket floor."""
    body = fx.bodies[0]
    headers = {"Content-Type": fx.policy.content_type}
    with p.log.group("transport") as group, ServerChild("transport", listeners=3) as server:
        for core, name in (
            ("aio", "transport.aio.exchange_us"),
            ("threaded", "transport.http.server.exchange_us"),
        ):
            client = HttpClient(server.connector(core))
            try:
                first = client.post("/echo", body, headers=headers)
                if first.status != 200 or first.body != body:
                    raise AssertionError(f"bare {core} exchange did not return the body")

                def post(client=client):
                    response = client.post("/echo", body, headers=headers)
                    if response.status != 200 or len(response.body) != len(body):
                        raise AssertionError("bare exchange failed")

                p.time(name, post, parent=group, kind="wire", budget_ns=budget_ns)
            finally:
                client.close()
        # the kernel floor: the same byte count each way, nothing parsed
        payload = fx.request_wire
        prefix = RAW_LENGTH.pack(len(payload))
        channel = server.connector("raw")()
        try:
            def raw():
                channel.send_all(prefix)
                channel.send_all(payload)
                recv_exactly(channel, len(payload))

            p.time("transport.sockets.roundtrip_us", raw, parent=group, kind="wire",
                   budget_ns=budget_ns)
        finally:
            channel.close()


#: The fourteen steps of one exchange, as the reconciliation sums them:
#: client build/to_document/encode/frame, server parse/decode/from_document/
#: dispatch/to_document/encode/frame, client parse/decode/from_document.
EXCHANGE_STEPS = (
    "xdm.build_us",
    "core.envelope.to_document_us",
    "core.policies.encode_us",
    "transport.http.messages.request_frame_us",
    "transport.http.messages.request_parse_us",
    "core.policies.decode_us",
    "core.envelope.from_document_us",
    "core.dispatcher.dispatch_us",
    "core.envelope.to_document_us",
    "core.policies.encode_us",
    "transport.http.messages.response_frame_us",
    "transport.http.messages.response_parse_us",
    "core.policies.decode_us",
    "core.envelope.from_document_us",
)


def traced_pass(workload: Workload, seed: int, seconds: float) -> dict:
    """Probes, live loops and floors; writes the trace; returns the metrics."""
    spin_before = stats.spin_us()
    pool = build_pool(workload, seed)
    log = SpanLog()

    window = live_pass(workload, seed, seconds * WINDOW_SHARE, setup_repeats=1)
    live = live_loops(workload, pool, log, seconds * LIVE_SHARE)
    fx = _Fixture(workload, pool)
    prober = Prober(log, int(seconds * PROBE_SHARE * 1e9 / PROBES))
    probe_layers(prober, fx)
    probe_floors(prober, fx, int(seconds * FLOOR_SHARE * 1e9))

    metrics = prober.metrics
    for name in catalog.DEMOTED:
        metrics["ledger." + name] = window["metrics"][name]
    layer_sum = sum(metrics[name]["value"] for name in EXCHANGE_STEPS)
    metrics["ledger.trace_sum_layers_us"] = {"value": layer_sum, "unit": "us"}
    metrics["ledger.trace_live_p50_us"] = {"value": live["live_p50_us"], "unit": "us"}
    metrics["ledger.trace_residual_us"] = {
        "value": live["live_p50_us"] - layer_sum, "unit": "us"
    }
    metrics["ledger.trace_overhead_ratio"] = {"value": live["overhead_ratio"], "unit": "ratio"}

    spin_after = stats.spin_us()
    metrics["ledger.spin_us"] = {"value": (spin_before + spin_after) / 2, "unit": "us"}

    digest = pool_digest(pool)
    trace_path = OUT / f"trace_{workload.name}.json"
    log.write(trace_path, {"scheme": workload.name, "seed": seed, "pool_digest": digest})
    return {
        "workload": workload.name,
        "pass": "traced",
        "metrics": metrics,
        "calls": prober.calls,
        "attempted": live["attempted"] + window["attempted"],
        "completed": live["completed"] + window["completed"],
        "failed": live["failed"] + window["failed"],
        "errors": (live["errors"] + window["errors"])[:5],
        "live": live,
        "core_floor": "transport.aio.exchange_us" if workload.core == "aio"
        else "transport.http.server.exchange_us",
        "pool_digest": digest,
        "spans": len(log),
        "trace_file": str(trace_path),
        "drift": stats.drift(spin_before, spin_after),
    }
