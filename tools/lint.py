#!/usr/bin/env python
"""Repo lint step for the verify flow.

Prefers ``ruff check`` (configured in ``pyproject.toml``) when the tool is
installed.  The container image does not ship ruff, so the default path is
a stdlib AST checker covering the failure mode growth PRs actually
introduce: dead imports left behind by refactors.  Usage::

    python tools/lint.py [paths...]     # default: src tests benchmarks tools

Repo-specific rules always run (even when ruff handles the generic
lint) — they confine the concurrency machinery to its designated homes:

* inside ``src/repro/serve`` only ``pool.py`` may spawn threads.  The
  serving runtime's whole design is that every unit of work flows
  through the bounded :class:`WorkerPool`; a stray ``threading.Thread``
  anywhere else in the package would reintroduce exactly the unbounded
  concurrency the subsystem exists to prevent.
* inside ``src/repro`` only ``transport/aio.py`` and the client that
  measures it (``loadgen/ladder.py``) may import ``selectors``.  The
  event loop is a singleton discipline: a second selector loop hiding
  elsewhere would split readiness handling across owners and defeat the
  one-loop invariant the aio module documents.
* inside ``src/repro/transport`` only ``aio.py`` (its loop thread) and
  ``host.py`` (the connection host's accept and connection threads) may
  reference ``threading.Thread`` — transport code must not grow ad-hoc
  threads.
* inside ``src/repro`` only ``transport/host.py`` may call ``.accept()``
  on a listener, the aio loop, the socket listener's own implementation
  and GridFTP's one-shot data rendezvous aside — a server is a
  ``ConnectionHost`` plus a ``serve_connection``, never a private accept
  loop with its own idea of ``stop()``.
* inside ``src/repro`` only ``transport/http/pipeline.py`` (and the
  message codec) may name an admin target, open the ``http.serve`` span,
  write the generic 500 body or call ``busy_response`` — serving
  semantics are defined once, in the request pipeline, and an I/O driver
  or a host that spells any of them is growing a second copy.
* inside ``src/repro`` only ``bxsa/frames.py`` (which defines them)
  and ``bxsa/walker.py`` may call ``read_name_ref``, ``read_type_code``
  or ``read_scalar_value`` — the BXSA element header and the typed
  frame bodies are parsed once, by the frame walker; a call anywhere
  else is a second header walk growing back.
* inside ``src/repro`` only ``bxsa/constants.py`` and
  ``bxsa/emitter.py`` may call ``pack_prefix_byte``,
  ``array_frame_head`` or ``element_header`` — BXSA frames are
  assembled once, by the frame emitter; the tree encoder, the stream
  writer and the encode-plan recorder are handlers of its productions.
* inside ``transport/aio.py`` and ``transport/http/server.py``
  ``.to_bytes()`` may be called only directly on
  ``connection_limit_response()`` / ``error_response(...)`` — the
  refusals written before a request exists.  A response leaves through
  ``iter_wire()``, piece by piece: joining head and body first is a
  payload-sized copy the bulk path's copy budget (DESIGN.md §10) has no
  room for.  The request writers (``transport/http/client.py``,
  ``transport/tcp_binding.py``) may not spell ``.to_bytes()`` at all, nor
  hand a send a ``head + payload`` concatenation: a message leaves as its
  pieces, gathered (``send_pieces``).
* inside ``src/repro/transport`` a declared-length body is received in
  one place, ``base.py``'s ``Landing``: ``recv_into`` is called only there
  and by a channel's own ``recv_into`` forwarding to what it wraps, the
  uninitialised allocation (``np.empty``) appears only there, and a
  ``b"".join(`` survives only where a listed function needs one — the two
  consumers of ``ChunkedDecoder`` (a chunked body declares no length to
  land into), ``recv_exactly`` (protocol fields) and the send side's
  explicit joins.
* inside ``src/repro`` only ``transport/base.py`` may import ``ctypes``
  or name ``mallopt`` or ``malloc_trim`` — a process has one allocator, so
  it gets one policy, set in one place (``prime_allocator``, DESIGN.md
  §10); a second module tuning ``malloc`` would be tuning the first one's
  numbers away.
* inside ``src/repro`` no ``bytearray(<argument>)``: a received object
  lands uninitialised and is handed on as a view, never zero-filled or copied.
* inside ``src/repro`` only ``fed/balancer.py`` may define
  ``choose_replica`` — replica-selection policy is one pluggable
  surface; a routing brain elsewhere would bypass the balancer's
  failover, circuit breaking and metrics.
* a package ``__init__.py`` under ``src/repro`` imports nothing of
  ``repro`` at module level except the export helper
  (``repro._exports``) and ``repro.obs``'s one eager edge to
  ``obs.trace``, and ``hashlib`` / ``hmac`` are imported at module level
  only by the modules outside the serving closure that digest for a
  living — ``import repro.<x>`` costs the closure of ``<x>``, and a
  process maps OpenSSL when it first signs (DESIGN.md §10 "process
  floor"; ``tests/test_import_budget.py`` holds the resulting closure).

Run with no paths, it also checks DESIGN.md against the tree: every
``test_*`` name and every "`path.py` `symbol`" it cites must exist
(``design_citation_findings``), so the specification cannot go on naming a
test that was renamed or a function that moved.

Exit status 0 = clean, 1 = findings, matching ruff's convention so the
verify flow can chain it after the tier-1 pytest run.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys

DEFAULT_PATHS = ("src", "tests", "benchmarks", "tools")

#: Imports that exist for their side effects or for re-export and are
#: legitimately never referenced by name.
IGNORED_MODULES = {"__future__"}


def try_ruff(paths: list[str]) -> int | None:
    """Run ruff if importable; None means unavailable (fall back)."""
    try:
        import ruff  # noqa: F401 - probe only
    except ImportError:
        return None
    proc = subprocess.run(
        [sys.executable, "-m", "ruff", "check", *paths], check=False
    )
    return proc.returncode


def _bound_names(node: ast.Import | ast.ImportFrom):
    """(bound name, reported module) pairs one import statement binds."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, alias.name
    else:
        if node.module in IGNORED_MODULES:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            yield alias.asname or alias.name, f"{node.module}.{alias.name}"


def dead_imports(path: str) -> list[tuple[int, str]]:
    """``(line, message)`` findings for one python file."""
    parsed = _parsed(path)
    if parsed is None:
        exc = _PARSED[path]
        return [(exc.lineno or 0, f"syntax error: {exc.msg}")]
    tree = parsed[1]

    exported: set[str] = set()
    used: set[str] = set()
    strings: list[str] = []
    imports: list[tuple[int, str, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for bound, module in _bound_names(node):
                imports.append((node.lineno, bound, module))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.append(node.value)
        elif isinstance(node, ast.Attribute):
            pass  # the base is an ast.Name, already collected
        elif (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            exported.update(
                c.value for c in node.value.elts if isinstance(c, ast.Constant)
            )
    findings = []
    for lineno, bound, module in imports:
        if bound.startswith("_"):
            continue
        if bound in used or bound in exported:
            continue
        if os.path.basename(path) == "__init__.py":
            # facades re-export by importing; only flag when an __all__
            # exists and omits the name
            if not exported:
                continue
        # names referenced inside string constants count as used: string
        # annotations ("Iterable[Node] | None"), doctest/docstring examples
        # (np.arange(...)), and Sphinx roles all bind textually
        pattern = re.compile(rf"\b{re.escape(bound)}\b")
        if any(pattern.search(s) for s in strings):
            continue
        findings.append((lineno, f"unused import: {module} (bound as {bound!r})"))
    return findings


def serve_thread_findings(path: str) -> list[tuple[int, str]]:
    """Flag thread spawning in ``repro.serve`` outside the pool module.

    Catches both spellings — ``threading.Thread(...)`` and
    ``from threading import Thread`` — at any position (call, alias,
    attribute), since holding a reference is as suspect as calling it.
    """
    rel, tree = _parsed(path) or (None, None)
    if rel is None or not rel.startswith("serve/") or rel == "serve/pool.py":
        return []
    findings = []
    message = (
        "thread spawning in repro.serve is reserved to pool.py "
        "(route work through WorkerPool instead)"
    )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "Thread"
            and isinstance(node.value, ast.Name)
            and node.value.id == "threading"
        ):
            findings.append((node.lineno, message))
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            if any(alias.name == "Thread" for alias in node.names):
                findings.append((node.lineno, message))
    return findings


def _repro_relative(path: str) -> str | None:
    """Path relative to the ``repro`` package root, or None if outside it."""
    parts = os.path.normpath(path).split(os.sep)
    if "repro" not in parts:
        return None
    return "/".join(parts[parts.index("repro") + 1 :])


#: path -> ``(rel, tree)``, or the SyntaxError that ``dead_imports`` reports.
_PARSED: dict = {}


def _parsed(path: str) -> tuple[str | None, ast.AST] | None:
    """``(path relative to src/repro or None, tree)`` of one file, read and
    parsed once for every rule; None for a file that does not parse."""
    if path not in _PARSED:
        with open(path, "rb") as fh:
            source = fh.read()
        try:
            _PARSED[path] = (_repro_relative(path), ast.parse(source, filename=path))
        except SyntaxError as exc:
            _PARSED[path] = exc
    entry = _PARSED[path]
    return None if isinstance(entry, SyntaxError) else entry


#: Modules allowed to import ``selectors`` (relative to src/repro).
SELECTOR_HOMES = {"transport/aio.py", "loadgen/ladder.py"}

#: Transport modules allowed to reference ``threading.Thread``: the aio
#: loop thread, and the one threaded connection host.
TRANSPORT_THREAD_HOMES = {"transport/aio.py", "transport/host.py"}


def concurrency_findings(path: str) -> list[tuple[int, str]]:
    """Confine ``selectors`` imports and transport thread spawning.

    Same spirit as :func:`serve_thread_findings`: the event loop and the
    per-connection threads are deliberate, documented singletons; this
    rule keeps future code from quietly growing parallel ones.
    """
    rel, tree = _parsed(path) or (None, None)
    if rel is None:
        return []
    findings = []
    selectors_ok = rel in SELECTOR_HOMES
    thread_rule_applies = rel.startswith("transport/") and rel not in TRANSPORT_THREAD_HOMES
    selector_message = (
        "selectors usage in repro is reserved to transport/aio.py and its ladder "
        "client (the one event loop; register with it instead of starting another)"
    )
    thread_message = (
        "thread spawning in repro.transport is reserved to aio.py and "
        "host.py (the loop and the connection host are the only transport threads)"
    )
    for node in ast.walk(tree):
        if not selectors_ok and isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "selectors" for alias in node.names):
                findings.append((node.lineno, selector_message))
        elif not selectors_ok and isinstance(node, ast.ImportFrom):
            if node.module is not None and node.module.split(".")[0] == "selectors":
                findings.append((node.lineno, selector_message))
        if thread_rule_applies:
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "Thread"
                and isinstance(node.value, ast.Name)
                and node.value.id == "threading"
            ):
                findings.append((node.lineno, thread_message))
            elif isinstance(node, ast.ImportFrom) and node.module == "threading":
                if any(alias.name == "Thread" for alias in node.names):
                    findings.append((node.lineno, thread_message))
    return findings


#: The one module allowed to speak chunked Transfer-Encoding on the wire.
CHUNKED_FRAMING_HOME = "transport/http/messages.py"


def chunked_framing_findings(path: str) -> list[tuple[int, str]]:
    """Confine chunked-transfer framing to the HTTP message codec.

    Chunked encoding has sharp edges (request smuggling via TE+CL, hex
    size lines, trailer sections); every one of them is handled once in
    ``transport/http/messages.py``.  Code elsewhere that touches the
    ``Transfer-Encoding`` header by name, or parses hex the way a chunk
    size line is parsed, is growing a second framing implementation —
    route it through ``body_framing``/``ChunkedDecoder`` instead.
    """
    rel, tree = _parsed(path) or (None, None)
    if rel is None or rel == CHUNKED_FRAMING_HOME:
        return []
    findings = []
    header_message = (
        "chunked transfer framing is reserved to transport/http/messages.py; "
        "use body_framing()/ChunkedDecoder/iter_wire() instead of touching "
        "the Transfer-Encoding header directly"
    )
    hex_message = (
        "hex chunk-size parsing is reserved to transport/http/messages.py "
        "(ChunkedDecoder owns the chunk-line grammar)"
    )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.lower() == "transfer-encoding"
        ):
            findings.append((node.lineno, header_message))
        elif (
            rel.startswith("transport/")
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "int"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == 16
        ):
            findings.append((node.lineno, hex_message))
    return findings


#: The one module allowed to name the trace-propagation HTTP header.
TRACE_HEADER_HOME = "obs/propagation.py"


def trace_header_findings(path: str) -> list[tuple[int, str]]:
    """Confine the ``X-Repro-Trace`` header name to ``obs/propagation.py``.

    Every on-the-wire representation of a trace context lives in one
    module — its strict parser (length caps, duplicate rejection, hex
    validation) is the only defence against hostile header values.  Code
    elsewhere naming the header is growing a second inject/extract path;
    route it through ``propagation.inject_headers``/``extract_headers``.
    """
    rel, tree = _parsed(path) or (None, None)
    if rel is None or rel == TRACE_HEADER_HOME:
        return []
    message = (
        "the trace-propagation header is reserved to obs/propagation.py; "
        "use propagation.inject_headers()/extract_headers() instead of "
        "naming X-Repro-Trace directly"
    )
    return [
        (node.lineno, message)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.lower() == "x-repro-trace"
    ]


#: The modules allowed to spell serving semantics (relative to src/repro).
SERVING_SEMANTICS_HOMES = {"transport/http/pipeline.py", "transport/http/messages.py"}

#: Literals that *are* a serving decision: the admin targets, the
#: server-side root span, the generic handler-failure body.
SERVING_LITERALS = {
    "/metrics", "/healthz", "/readyz", "/varz", "http.serve", b"internal server error",
}


def serving_semantics_findings(path: str) -> list[tuple[int, str]]:
    """Confine serving semantics to the request pipeline.

    What a request *means* — the admin router, the ``http.serve`` span
    site, the exception→500 mapping, the shed/drain/cap 503s — lives in
    ``transport/http/pipeline.py``; the drivers own I/O and the hosts own
    SOAP.  One of these literals, or a ``busy_response(...)`` call,
    anywhere else in ``src/repro`` is a stage being re-implemented where
    the next cross-cutting change will miss it; import the pipeline's
    name (``ADMIN_TARGETS``, ``READINESS_TARGET``,
    ``connection_limit_response``) instead.
    """
    rel, tree = _parsed(path) or (None, None)
    if rel is None or rel in SERVING_SEMANTICS_HOMES:
        return []
    message = (
        "serving semantics are reserved to transport/http/pipeline.py; "
        "{what} here is a second copy of a pipeline stage"
    )
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes)):
            if node.value in SERVING_LITERALS:
                findings.append((node.lineno, message.format(what=repr(node.value))))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "busy_response":
                findings.append((node.lineno, message.format(what="busy_response()")))
    return findings


#: The one module allowed to define replica-selection policy logic.
POLICY_HOME = "fed/balancer.py"


def replica_policy_findings(path: str) -> list[tuple[int, str]]:
    """Confine replica-selection policy logic to ``fed/balancer.py``.

    The balancer's contract is that *every* routing decision flows
    through one pluggable policy surface — ``choose_replica`` on a
    policy object — so failover, circuit breaking and metrics stay
    consistent no matter which policy runs.  A ``choose_replica``
    defined elsewhere in ``src/repro`` is a second routing brain the
    balancer cannot see; implement it as a policy class in
    ``fed/balancer.py`` instead.
    """
    rel, tree = _parsed(path) or (None, None)
    if rel is None or rel == POLICY_HOME:
        return []
    message = (
        "replica-selection policy logic is reserved to fed/balancer.py; "
        "implement choose_replica as a policy class there and pass it to "
        "Balancer(policy=...)"
    )
    return [
        (node.lineno, message)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "choose_replica"
    ]


#: The modules allowed to read BXSA element headers and typed values.
FRAME_GRAMMAR_HOMES = {"bxsa/frames.py", "bxsa/walker.py"}

#: The readers only an element-header / frame-body parser has a use for.
FRAME_GRAMMAR_READERS = {"read_name_ref", "read_type_code", "read_scalar_value"}


def _called_name(node: ast.Call) -> str | None:
    """``f`` of a call ``f(...)`` or ``x.f(...)``."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls_outside(path: str, homes: set, names: set, message: str) -> list[tuple[int, str]]:
    """Calls to any of ``names`` in a ``src/repro`` module not in ``homes``."""
    rel, tree = _parsed(path) or (None, None)
    if rel is None or rel in homes:
        return []
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _called_name(node)
            if name in names:
                findings.append((node.lineno, message.format(name=name)))
    return findings


def frame_grammar_findings(path: str) -> list[tuple[int, str]]:
    """Confine BXSA frame parsing to the one frame walker.

    Tree decode, the pull reader, the incremental decoder and the plan
    compiler are handlers over ``bxsa/walker.py``; none of them reads a
    header.  The three readers below are what a header walk or a typed
    frame body cannot be written without, so a call to one of them outside
    ``bxsa/frames.py`` and the walker — no exceptions — is a fifth decode
    path reappearing.  (The scanner *skips* with the ``skip_*`` helpers.)
    """
    return _calls_outside(
        path, FRAME_GRAMMAR_HOMES, FRAME_GRAMMAR_READERS,
        "BXSA frame parsing is reserved to bxsa/walker.py; {name}() here is a "
        "second element-header/frame-body reader — write a FrameWalker handler",
    )  # fmt: skip


#: The modules allowed to assemble BXSA frames.
FRAME_EMIT_HOMES = {"bxsa/constants.py", "bxsa/emitter.py"}

#: What a frame cannot be assembled without: the prefix byte, the array
#: frame head, the element-header serializer.
FRAME_EMIT_WRITERS = {"pack_prefix_byte", "array_frame_head", "element_header"}


def frame_emit_findings(path: str) -> list[tuple[int, str]]:
    """Confine BXSA frame assembly to the one frame emitter.

    The encode mirror of :func:`frame_grammar_findings`.  The tree encoder,
    the stream writer and the encode-plan recorder are handlers of the
    productions in ``bxsa/emitter.py`` (the recorder takes its prefixes and
    header segments from ``FrameHandler``); a call to one of the three
    functions below anywhere else — no exceptions — is a fourth encode path
    reappearing.  (Plan *replay* assembles from a plan's pre-rendered
    constants and calls none of them.)
    """
    return _calls_outside(
        path, FRAME_EMIT_HOMES, FRAME_EMIT_WRITERS,
        "BXSA frame assembly is reserved to bxsa/emitter.py; {name}() here is a "
        "second frame emitter — write a handler of its productions",
    )  # fmt: skip


#: The modules allowed to call ``.accept()`` (relative to src/repro), each
#: with its reason.
ACCEPT_HOMES = {
    "transport/host.py",  # the one accept thread: ConnectionHost._accept_loop
    "transport/aio.py",  # the selector loop accepts non-blockingly, no thread
    "transport/sockets.py",  # TcpListener.accept is socket.accept wrapped
    # one-shot data rendezvous: a listener opened for one stream of one
    # transfer, accepted once by that stream's sender and closed — not a
    # server; GridFTPServer.stop() closes the ones nobody has dialled
    "gridftp/server.py",
}


def accept_loop_findings(path: str) -> list[tuple[int, str]]:
    """Confine ``.accept()`` calls to the connection host.

    Five hosts once hand-wrote "accept thread + thread per connection +
    start/stop/with", and only one of them implemented the stop rule
    (DESIGN.md §10).  A server is now ``ConnectionHost`` plus a
    ``serve_connection(channel)``; an ``.accept(`` call anywhere else under
    ``src/repro`` — :data:`ACCEPT_HOMES` aside — is a sixth accept loop
    with a lifecycle of its own.
    """
    return _calls_outside(
        path, ACCEPT_HOMES, {"accept"},
        "accepting connections is reserved to transport/host.py; .{name}() here is "
        "a private accept loop — derive from (or own) a ConnectionHost and supply "
        "serve_connection(channel)",
    )  # fmt: skip


#: The one module allowed to tune the C allocator (relative to src/repro),
#: and the C library calls that tune it.
ALLOCATOR_HOME = "transport/base.py"
ALLOCATOR_CALLS = {"mallopt", "malloc_trim"}


def allocator_findings(path: str) -> list[tuple[int, str]]:
    """Confine allocator tuning to ``transport/base.py``.

    ``prime_allocator`` there is the process's one allocator policy: one
    arena, two thresholds and a pad, measured as a set (DESIGN.md §10,
    ``tools/copy_budget.py --matrix``), then one trim of what start-up
    freed.  ``mallopt`` is process-wide, so a second caller does not add a
    policy, it overwrites this one; a second ``malloc_trim`` is a second
    policy too (one between exchanges returns pages the next exchange
    faults back in); and ``ctypes`` is the only way to reach either, so an
    import of it anywhere else under ``src/repro`` is where that second
    caller would start.
    """
    rel, tree = _parsed(path) or (None, None)
    if rel is None or rel == ALLOCATOR_HOME:
        return []
    message = (
        "allocator tuning is reserved to transport/base.py; {what} here is a "
        "second allocator policy — change prime_allocator() instead"
    )
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ALLOCATOR_CALLS:
                findings.append((node.lineno, message.format(what=name)))
            continue
        if any(module.split(".")[0] == "ctypes" for module in modules):
            findings.append((node.lineno, message.format(what="importing ctypes")))
    return findings


def generator_tuple_findings(path: str) -> list[tuple[int, str]]:
    """Flag ``tuple(<generator expression>)`` under ``src/repro``.

    A generator has no length, so CPython allocates its tuple at ten slots
    and shrinks it: the tuple is freed onto the free list of its final
    size, never taken from it, and each call parks one more there, up to
    2000 per size (DESIGN.md §10, "Free lists").  On a per-message path
    (a label key, a plan key) that is a heap that grows for thousands of
    exchanges.  A list comprehension is sized as it goes and its tuple is
    exact: ``tuple([...])``.
    """
    rel, tree = _parsed(path) or (None, None)
    if rel is None:
        return []
    return [
        (
            node.lineno,
            "tuple(<generator>) parks a tuple on a free list per call; "
            "build it from a list: tuple([...])",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.GeneratorExp)
    ]


def zero_filled_buffer_findings(path: str) -> list[tuple[int, str]]:
    """Flag ``bytearray(<argument>)`` under ``src/repro``: ``bytearray(n)``
    zero-fills every page before a byte arrives (resident at a peer's claim),
    ``bytearray(data)`` is a copy.  An empty one that grows is fine."""
    rel, tree = _parsed(path) or (None, None)
    if rel is None:
        return []
    return [
        (
            node.lineno,
            "bytearray(<argument>) zero-fills or copies a buffer; land what is "
            "received uninitialised (transport/base.py Landing) and hand on a view",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "bytearray"
        and (node.args or node.keywords)
    ]


#: The standard library's object serialisers.
PICKLE_MODULES = {"pickle", "_pickle"}


def pickle_findings(path: str) -> list[tuple[int, str]]:
    """Flag an import of ``pickle`` anywhere under ``src/repro``.

    The byte form of a data model is the codecs' job, or
    ``xdm.digest.canonical_digest``'s when it is hashed: ``pickle.dumps``
    copies every array it is handed (a 1.2 MB body signed at 2.5 payloads
    of traced peak), its bytes depend on the protocol, and a loaded pickle
    runs code.
    """
    rel, tree = _parsed(path) or (None, None)
    if rel is None:
        return []
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(module.split(".")[0] in PICKLE_MODULES for module in modules):
            findings.append((
                node.lineno,
                "pickle is not a byte form of the data model; encode it with a "
                "codec, or feed xdm.digest.canonical_digest a hasher",
            ))
    return findings


#: ``repro`` modules a package ``__init__`` may import at module level
#: (relative to src/repro): the export helper anywhere, and the one eager
#: edge — ``repro.obs``'s ``span``/``counter`` helpers call ``get_recorder``
#: on every instrumented call.
EXPORT_HELPER = "repro._exports"
EAGER_PACKAGE_EDGES = {"obs/__init__.py": {"repro.obs.trace"}}

#: The modules allowed to import OpenSSL's front ends at module level: the
#: signing and digesting models, none of them in an echo host's closure.
DIGEST_MODULES = {"hashlib", "hmac"}
DIGEST_HOMES = {
    "core/security.py",
    "gridftp/auth.py",
    "fed/cache.py",
    "fed/node.py",
    "fed/striping.py",
    "obs/sampling.py",
}


def package_surface_findings(path: str) -> list[tuple[int, str]]:
    """Keep package imports lazy and OpenSSL out of the serving closure.

    Every package re-exports through ``repro._exports.lazy_exports``; one
    eager ``from repro.x import y`` in an ``__init__`` puts ``x`` (and what
    it imports) back into every process that touches the package.  And
    ``import hashlib`` maps libcrypto — 3.6 MiB resident — so outside
    :data:`DIGEST_HOMES` it is imported where it is called.  Only
    module-level statements count: a function-level import is the remedy.
    """
    rel, tree = _parsed(path) or (None, None)
    if rel is None:
        return []
    is_package = os.path.basename(path) == "__init__.py"
    eager_ok = {EXPORT_HELPER} | EAGER_PACKAGE_EDGES.get(rel, set())
    findings = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is an import of this package
            modules = [("repro." if node.level else "") + (node.module or "")]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            if is_package and top == "repro" and module not in eager_ok:
                findings.append((
                    node.lineno,
                    f"a package __init__ re-exports lazily: add {module} to the "
                    "lazy_exports table instead of importing it here",
                ))  # fmt: skip
            elif top in DIGEST_MODULES and rel not in DIGEST_HOMES:
                findings.append((
                    node.lineno,
                    f"module-level import of {top} maps OpenSSL into every process "
                    "that loads this module; import it in the function that digests",
                ))  # fmt: skip
    return findings


#: The modules that write responses to sockets (relative to src/repro).
RESPONSE_WRITERS = {"transport/aio.py", "transport/http/server.py"}

#: The modules that write requests (and the TCP binding's replies).
REQUEST_WRITERS = {"transport/http/client.py", "transport/tcp_binding.py"}

#: The pre-request refusals: tiny, built and written in one expression.
REFUSAL_BUILDERS = {"connection_limit_response", "error_response"}

SEND_CALLS = {"send_all", "send_pieces"}


def response_join_findings(path: str) -> list[tuple[int, str]]:
    """Keep the head+body join off every writer's send path.

    ``message.to_bytes()`` concatenates the whole message: for a bulk
    message that is one more copy of the payload, made and thrown away
    between the codec and the socket.  The drivers queue or send the
    pieces ``iter_wire()`` yields instead.  The only ``.to_bytes()`` a
    driver may spell is the one applied directly to a refusal it has just
    built (``connection_limit_response().to_bytes()``,
    ``error_response(...).to_bytes()``) — a few dozen bytes, no request.
    A request writer builds no refusals, so it may spell none; and it may
    not hand a send ``header + payload`` either, which is the same join
    written with ``+`` — the pieces leave gathered, through
    ``send_pieces``.
    """
    rel, tree = _parsed(path) or (None, None)
    if rel not in RESPONSE_WRITERS and rel not in REQUEST_WRITERS:
        return []
    joined = (
        "a writer must not join a message: .to_bytes() here copies the whole "
        "payload once more — queue or send the pieces of iter_wire() (only a driver's "
        "just-built connection_limit_response()/error_response(...) may be joined)"
    )
    added = (
        "a writer must not join a message: head + payload handed to a send is a "
        "payload-sized copy — send the pieces gathered (send_pieces)"
    )
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        if name == "to_bytes" and isinstance(node.func, ast.Attribute):
            built = node.func.value
            builder = _called_name(built) if isinstance(built, ast.Call) else None
            if rel in REQUEST_WRITERS or builder not in REFUSAL_BUILDERS:
                findings.append((node.lineno, joined))
        elif name in SEND_CALLS and rel in REQUEST_WRITERS:
            findings += [
                (arg.lineno, added)
                for arg in node.args
                if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add)
            ]
    return findings


#: Where a declared-length body is received (relative to src/repro).
LANDING_HOME = "transport/base.py"

#: ``module -> functions`` that may spell ``b"".join(`` under
#: ``src/repro/transport``: the consumers of ``ChunkedDecoder`` (a chunked
#: body has no declared length to land into), the reader of protocol
#: fields, and the send side's explicit joins.
JOIN_HOMES = {
    "transport/http/messages.py": {"read", "__bytes__", "to_bytes", "encode_chunk"},
    "transport/aio.py": {"_advance_chunked"},
    "transport/base.py": {"recv_exactly", "send_pieces"},
    "transport/attachments.py": {"to_bytes"},
}


def body_landing_findings(path: str) -> list[tuple[int, str]]:
    """One receive path for a body whose length was declared.

    ``transport/base.py``'s ``Landing`` allocates the buffer (uninitialised:
    resident memory tracks bytes received), fills it with ``recv_into`` and
    hands on a read-only view.  Under ``src/repro/transport`` a
    ``recv_into`` call anywhere else — a channel's own ``recv_into``
    forwarding to what it wraps aside — an ``np.empty`` anywhere else, or a
    ``b"".join(`` in a function not listed in ``JOIN_HOMES`` is a second
    receive path (pieces and a join, or a private landing) growing back.
    """
    rel, tree = _parsed(path) or (None, None)
    if rel is None or not rel.startswith("transport/"):
        return []
    findings = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call):
            name = _called_name(node)
            if name == "recv_into" and rel != LANDING_HOME and function != "recv_into":
                findings.append((
                    node.lineno,
                    "a declared body is received by transport/base.py's Landing; "
                    "recv_into() here is a second landing — call Landing.fill / land()",
                ))  # fmt: skip
            elif name == "empty" and rel != LANDING_HOME:
                findings.append((
                    node.lineno,
                    "the uninitialised receive buffer is allocated in transport/base.py "
                    "only; empty() here is a second landing buffer",
                ))  # fmt: skip
            elif (
                name == "join"
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Constant)
                and node.func.value.value == b""
                and function not in JOIN_HOMES.get(rel, ())
            ):
                findings.append((
                    node.lineno,
                    'b"".join() of received pieces: a declared body lands in place '
                    "(transport/base.py land()); only the functions in JOIN_HOMES join",
                ))  # fmt: skip
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return findings


#: A test cited in the docs: a test module (``test_x.py``) or a test function.
DOC_TEST = re.compile(r"\btest_\w+(?:\.py)?")

#: A symbol cited in the docs as "`path.py` `symbol`": a dotted name at the
#: start of the second code span (``serve_exchange(payload, ...`` counts).
DOC_PAIR = re.compile(r"`([\w./-]+\.py)`\s+`([A-Za-z_][\w.]*)")


def _defines(body: list, name: str) -> ast.AST | None:
    """The def, class or assignment of ``name`` among ``body``'s statements."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                return node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return node
    return None


def _resolves(root: str, path: str, symbol: str) -> bool:
    """Whether ``symbol`` (``name`` or ``Class.member``) is defined in the
    module ``path`` names (relative to the root, ``src/`` or ``src/repro/``)."""
    for base in ("", "src", os.path.join("src", "repro")):
        candidate = os.path.join(root, base, path)
        if os.path.isfile(candidate):
            break
    else:
        return False
    parsed = _parsed(candidate)
    if parsed is None:
        return False
    tree = parsed[1]
    first, *rest = symbol.split(".")
    node = _defines(tree.body, first)
    if node is None and not rest:
        # a bare name may be a method: ``session.py`` ``_verify_decode_plan``
        classes = (n for n in tree.body if isinstance(n, ast.ClassDef))
        node = next(filter(None, (_defines(c.body, first) for c in classes)), None)
    for part in rest:
        node = _defines(getattr(node, "body", []), part)
    return node is not None


def design_citation_findings(design: str, root: str) -> list[tuple[int, str]]:
    """Every test and every "`path.py` `symbol`" that ``design`` cites exists.

    A test module must be a file under ``tests/`` or ``benchmarks/``, a test
    function a ``def`` in one; a symbol must be defined at the top of its
    module or in one of its classes.  A renamed test or a moved
    function otherwise leaves the specification pointing at nothing.
    ROADMAP.md is not checked: it cites code that is planned.
    """
    with open(design, encoding="utf-8") as fh:
        text = fh.read()
    modules, functions = set(), set()
    for top in ("tests", "benchmarks"):
        for path in iter_python_files([os.path.join(root, top)]):
            modules.add(os.path.basename(path))
            with open(path, encoding="utf-8") as fh:
                functions.update(re.findall(r"^\s*def (test_\w+)", fh.read(), re.M))
    findings = []
    for match in DOC_TEST.finditer(text):
        name = match.group()
        if name not in (modules if name.endswith(".py") else functions):
            findings.append((match.start(), f"cites {name}, which no test defines"))
    for match in DOC_PAIR.finditer(text):
        path, symbol = match.groups()
        if not _resolves(root, path, symbol):
            findings.append((match.start(), f"cites `{path}` `{symbol}`, which is not defined there"))
    return sorted((text.count("\n", 0, at) + 1, message) for at, message in findings)


#: Every repo-specific rule: ``path -> [(line, message)]``.
REPO_RULES = (
    serve_thread_findings,
    concurrency_findings,
    chunked_framing_findings,
    trace_header_findings,
    serving_semantics_findings,
    replica_policy_findings,
    frame_grammar_findings,
    frame_emit_findings,
    accept_loop_findings,
    allocator_findings,
    generator_tuple_findings,
    zero_filled_buffer_findings,
    pickle_findings,
    response_join_findings,
    body_landing_findings,
    package_surface_findings,
)


def iter_python_files(paths: list[str]):
    for root in paths:
        if os.path.isfile(root):
            yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if not d.startswith((".", "__pycache__"))]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def main(argv: list[str]) -> int:
    paths = argv or [p for p in DEFAULT_PATHS if os.path.exists(p)]

    # the repo-specific rules run unconditionally — ruff has no analogue
    serve_total = 0
    for path in iter_python_files(paths):
        for rule in REPO_RULES:
            for lineno, message in rule(path):
                print(f"{path}:{lineno}: {message}")
                serve_total += 1

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    design = os.path.join(root, "DESIGN.md")
    if not argv and os.path.isfile(design):
        for lineno, message in design_citation_findings(design, root):
            print(f"{design}:{lineno}: {message}")
            serve_total += 1

    ruff_status = try_ruff(paths)
    if ruff_status is not None:
        return 1 if serve_total else ruff_status

    total = serve_total
    for path in iter_python_files(paths):
        for lineno, message in dead_imports(path):
            print(f"{path}:{lineno}: {message}")
            total += 1
    if total:
        print(f"{total} finding(s)", file=sys.stderr)
        return 1
    print(f"lint clean (ast dead-import checker; ruff not installed)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
