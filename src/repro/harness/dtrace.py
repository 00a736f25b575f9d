"""Distributed-tracing demo: one process, two observed roles, one trace.

The smallest end-to-end proof of the cross-process tracing subsystem:
a live :class:`~repro.serve.SoapServeService` (either serving core) and a
SOAP client run in one interpreter but record into *separate*
:class:`~repro.obs.TraceRecorder`\\ s with distinct service/origin
identities — the server's threads report to the process-global recorder,
the client thread to a thread-pinned one — so the two trace files look
exactly like two processes' files.  The client's context crosses the
wire in the ``X-Repro-Trace`` header, the server's root span joins it,
and :func:`repro.obs.analyze.join_traces` must reassemble one tree:

* one trace id across every linked span;
* the server's serve span parented under the client's wire span;
* ``wire_seconds`` (client span − server span) non-negative;
* the client's segment charges summing to its reported total;
* the server's RED histogram carrying an exemplar naming that trace id.

``tools/smoke.py dtrace`` runs this for both cores inside ``verify.sh``;
``figure_load --distributed-trace`` / ``figure_stream
--distributed-trace`` expose the same demo from the figure CLIs.
"""

from __future__ import annotations

import os

from repro import obs
from repro.core.client import SoapHttpClient
from repro.core.dispatcher import Dispatcher
from repro.core.envelope import SoapEnvelope
from repro.obs.analyze import join_traces, load_documents, reconcile
from repro.serve import ServeConfig, SoapServeService
from repro.transport.sockets import TcpListener, connect_tcp
from repro.xdm import element, leaf

#: Fixed identities so demo trace files (and their ids) are reproducible.
CLIENT_ORIGIN = "c11e0001"
SERVER_ORIGIN = "5e20e002"


def _echo_dispatcher() -> Dispatcher:
    d = Dispatcher()

    @d.operation("Echo")
    def echo(request: SoapEnvelope):
        return element("EchoResponse", *request.body_root.children)

    return d


def _stream_marker_events() -> None:
    """A small sink-driven streamed encode: stamps first/last chunk events
    on the current span (the streamed pipeline's trace markers)."""
    from repro.bxsa.stream import BXSAStreamWriter

    pieces: list[bytes] = []
    writer = BXSAStreamWriter(sink=pieces.append, chunk_size=256)
    writer.start_document()
    writer.start_element("payload")
    writer.array("values", list(range(512)), "int")
    writer.end_element()
    writer.end_document()


def run_distributed_trace_demo(
    core: str = "threaded",
    trace_dir: str | None = None,
    repeats: int = 3,
    streamed_markers: bool = False,
) -> dict:
    """Run the demo against a live server; returns the verdict dict.

    Keys: ``ok`` (bool), ``problems`` (list of strings), ``trace_id``,
    ``wire_seconds``, ``client_trace``/``server_trace`` (paths, when
    ``trace_dir`` given), ``join`` (the raw :func:`join_traces` result).
    """
    problems: list[str] = []

    client_rec = obs.TraceRecorder(service="client", origin=CLIENT_ORIGIN)
    server_rec = obs.TraceRecorder(service="serve", origin=SERVER_ORIGIN)

    previous = obs.set_recorder(server_rec)
    try:
        listener = TcpListener()
        host, port = listener.address
        service = SoapServeService(
            listener,
            _echo_dispatcher(),
            config=ServeConfig(core=core, workers=2, queue_depth=8),
            metrics=server_rec.metrics,
        ).start()
        try:
            with obs.thread_recorder(client_rec):
                client = SoapHttpClient(lambda: connect_tcp(host, port))
                try:
                    with obs.span(
                        "exchange", kind="logical", scheme=f"dtrace-{core}"
                    ) as root:
                        for n in range(repeats):
                            response = client.call(
                                SoapEnvelope.wrap(element("Echo", leaf("n", n, "int")))
                            )
                            if response.body_root.name.local != "EchoResponse":
                                problems.append(
                                    f"unexpected response {response.body_root.name.local!r}"
                                )
                        if streamed_markers:
                            with obs.span("stream.encode", kind="cpu"):
                                _stream_marker_events()
                finally:
                    client.close()

                # segment accounting: the measured total decomposes into
                # the wire round trips and everything around them, so the
                # trace still *explains* the reported latency exactly
                total = root.seconds
                wire_trips = sum(
                    sp.seconds for sp in client_rec.spans if sp.name == "http.request"
                )
                client_rec.charge(
                    "client: prepare+decode",
                    total - wire_trips,
                    kind="cpu",
                    parent=root,
                    segment=True,
                )
                client_rec.charge(
                    "wire+server round trips",
                    wire_trips,
                    kind="wire",
                    parent=root,
                    segment=True,
                )
                root.attributes["reported_total_seconds"] = total
        finally:
            service.stop()
    finally:
        obs.set_recorder(previous)

    # ---------------------------------------------------------------
    # assemble and check

    client_doc = obs.trace_dict(client_rec, meta={"demo": f"dtrace-{core}"})
    server_doc = obs.trace_dict(server_rec, meta={"demo": f"dtrace-{core}"})

    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        client_path = os.path.join(trace_dir, f"dtrace-{core}-client.json")
        server_path = os.path.join(trace_dir, f"dtrace-{core}-server.json")
        obs.write_trace(client_path, client_rec, meta={"demo": f"dtrace-{core}"})
        obs.write_trace(server_path, server_rec, meta={"demo": f"dtrace-{core}"})
        client_doc = load_documents(client_path)[0]
        server_doc = load_documents(server_path)[0]
    else:
        client_path = server_path = None

    joined = join_traces([client_doc, server_doc])
    problems.extend(joined["problems"])

    if len(joined["links"]) != repeats:
        problems.append(
            f"expected {repeats} cross-process links, found {len(joined['links'])}"
        )
    if len(joined["trace_ids"]) != 1:
        problems.append(f"expected one trace id, saw {joined['trace_ids']}")

    segment_sum, reported, ok = reconcile(client_doc)
    if not ok:
        problems.append(
            f"client segments sum {segment_sum:.9f}s != reported {reported}"
        )

    trace_id = joined["trace_ids"][0] if joined["trace_ids"] else None
    wire_seconds = sum(link["wire_seconds"] for link in joined["links"])

    # the server's RED histogram must carry an exemplar naming this trace
    exemplar_hit = False
    for key, snap in server_rec.metrics.snapshot()["histograms"].items():
        if key.startswith("soap_request_seconds") and "exemplar" in snap:
            if snap["exemplar"]["trace_id"] == trace_id:
                exemplar_hit = True
    if not exemplar_hit:
        problems.append(
            f"no soap_request_seconds exemplar references trace {trace_id}"
        )

    if streamed_markers:
        event_names = [
            e.name for sp in client_rec.spans for e in sp.events
        ]
        if "stream.first_chunk" not in event_names or "stream.last_chunk" not in event_names:
            problems.append(
                f"streamed markers missing (events seen: {sorted(set(event_names))})"
            )

    return {
        "ok": not problems,
        "problems": problems,
        "trace_id": trace_id,
        "wire_seconds": wire_seconds,
        "client_trace": client_path,
        "server_trace": server_path,
        "join": joined,
    }


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - CLI shim
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--core", choices=("threaded", "aio"), default="threaded")
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    result = run_distributed_trace_demo(
        core=args.core, trace_dir=args.trace_dir, repeats=args.repeats
    )
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}")
    print(
        f"dtrace[{args.core}]: trace {result['trace_id']} "
        f"wire {result['wire_seconds'] * 1e3:.3f}ms "
        f"[{'OK' if result['ok'] else 'FAIL'}]"
    )
    return 0 if result["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(None))
