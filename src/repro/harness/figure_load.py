"""Figure L: throughput–latency under open-loop load, per encoding scheme.

The paper evaluates one client against one server (Figures 4–6); the
companion question for a *production* engine is what happens when many
clients arrive at once and offered load crosses capacity.  This
experiment drives the :class:`~repro.serve.SoapServeService` worker-pool
runtime with the open-loop generator from :mod:`repro.loadgen` and draws
the classic throughput–latency curve for each encoding over HTTP:

* x axis — offered load, as multiples of the *measured* XML/HTTP
  capacity (estimated with a short closed-loop run, so both encodings
  are offered the identical rate ladder);
* y — goodput (completed/s), tail latency (p50/p95/p99 of completed
  requests) and shed rate (503s past the admission queue).

Expected shapes, encoded as checks below:

* accounting is exact at every point: offered = completed + shed + failed;
* past capacity the runtime **degrades instead of collapsing** — the
  XML scheme sheds (503 + ``Retry-After``) rather than queueing without
  bound, and the sweep terminates (no deadlock);
* at saturation BXSA sustains **higher goodput** than XML 1.0 — the
  binary codec spends less CPU per exchange, so the same worker pool
  completes more of the offered load (the serving-side companion to the
  paper's Figures 4–6 response-time results);
* overload is answered cleanly: every non-completed request is a 503
  shed, none errors or hangs.

Determinism: the arrival schedule, think-time jitter and payload derive
from ``seed`` alone — a rerun offers the same requests in the same
pattern.  The rate ladder is anchored to this machine's measured XML
capacity (pass ``rates`` to pin absolute rates instead); goodput and
latency are measured, so their absolute values belong to the machine,
while the shape checks encode the machine-independent claims.
"""

from __future__ import annotations

import json
import os
import resource

from repro.core.dispatcher import Dispatcher
from repro.core.envelope import SoapEnvelope
from repro.core.policies import (
    BXSA_CONTENT_TYPE,
    XML_CONTENT_TYPE,
    encoding_for_content_type,
)
from repro.harness.measure import add_observability_args, observability_from_args
from repro.harness.report import ExperimentResult, ShapeCheck
from repro.loadgen import closed_loop, drive_connections, open_loop
from repro.serve import ServeConfig, SoapServeService
from repro.transport.memory import MemoryNetwork
from repro.workloads.lead import lead_dataset
from repro.xdm import element, leaf

#: Offered-load rungs, as multiples of measured XML/HTTP capacity.
DEFAULT_MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)

#: The two schemes the serving runtime hosts (binding is HTTP for both;
#: the pool sheds identically — only codec cost differs).
SCHEMES = {
    "bxsa/http": BXSA_CONTENT_TYPE,
    "xml/http": XML_CONTENT_TYPE,
}


def _make_dispatcher() -> Dispatcher:
    """One operation: accept a LEAD model, acknowledge with its size.

    The request carries the (large) model — so the server-side *decode*
    dominates, exactly the cost the encodings differ on — and the reply
    is a small ack, keeping response encoding off the critical path.
    """
    dispatcher = Dispatcher()

    @dispatcher.operation("PutModel")
    def put_model(request: SoapEnvelope):
        atoms = len(request.body_root.children[0].children)
        return element("PutModelResponse", leaf("atoms", atoms, "int"))

    return dispatcher


def _call_factory(network: MemoryNetwork, address: str, content_type: str, payload: SoapEnvelope):
    """A per-sender-thread SOAP call over its own persistent connection."""
    from repro.core.client import SoapHttpClient

    def factory():
        client = SoapHttpClient(
            lambda: network.connect(address),
            encoding=encoding_for_content_type(content_type),
        )

        def call(_index: int):
            return client.call(payload)

        call.close = client.close
        return call

    return factory


def _serve_stack(content_label: str, dispatcher: Dispatcher, config: ServeConfig):
    network = MemoryNetwork()
    address = f"figure-load-{content_label}"
    service = SoapServeService(network.listen(address), dispatcher, config=config)
    return network, address, service


def sweep(
    *,
    workers: int = 2,
    queue_depth: int = 4,
    multipliers: tuple[float, ...] = DEFAULT_MULTIPLIERS,
    rates: tuple[float, ...] | None = None,
    requests_per_point: int = 200,
    model_size: int = 100,
    seed: int = 0,
    senders: int = 32,
    metrics=None,
) -> dict:
    """Run the full load sweep; returns the JSON-ready curve document.

    ``rates`` pins absolute arrival rates (requests/s) and skips capacity
    estimation; otherwise the ladder is ``multipliers`` × the measured
    closed-loop XML/HTTP capacity.
    """
    dispatcher = _make_dispatcher()
    payload = SoapEnvelope.wrap(
        element("PutModel", lead_dataset(model_size, seed).to_bxdm())
    )
    config = ServeConfig(workers=workers, queue_depth=queue_depth, retry_after=0.01)

    if rates is None:
        capacity = _estimate_xml_capacity(
            dispatcher, payload, config, seed=seed, samples=max(40, workers * 10)
        )
        ladder = [m * capacity for m in multipliers]
    else:
        capacity = None
        multipliers = tuple([float("nan") for _ in rates])
        ladder = list(rates)

    schemes: dict[str, list[dict]] = {}
    for label, content_type in SCHEMES.items():
        network, address, service = _serve_stack(
            label.replace("/", "-"), dispatcher, config
        )
        points = []
        with service:
            factory = _call_factory(network, address, content_type, payload)
            for rung, rate in enumerate(ladder):
                result = open_loop(
                    factory,
                    rate=rate,
                    total=requests_per_point,
                    seed=seed * 1000 + rung,
                    senders=senders,
                    metrics=metrics,
                )
                point = result.as_dict()
                point["target_rate_rps"] = rate
                points.append(point)
        schemes[label] = points

    return {
        "experiment": "figure_load",
        "seed": seed,
        "config": {
            "workers": workers,
            "queue_depth": queue_depth,
            "requests_per_point": requests_per_point,
            "model_size": model_size,
            "senders": senders,
        },
        "xml_capacity_rps": capacity,
        "multipliers": list(multipliers),
        "rates_rps": list(ladder),
        "schemes": schemes,
    }


#: Keep-alive connection counts for the event-driven rungs of the ladder.
DEFAULT_LADDER_RUNGS = (256, 1024, 4096, 10000)

#: Connection counts probed to find the threaded server's best point
#: (it peaks at modest concurrency; past it, thread overhead eats goodput).
DEFAULT_THREADED_PROBE = (16, 64)

#: The ladder's two bounds, stated here only (the bench asserts
#: :func:`run_ladder`'s checks): keep-alive connections the event-driven
#: core must hold, and its top-rung goodput over the threaded core's best
#: point.  Measured 1.08-1.22x, but the same code reads 0.92-1.85x run to
#: run on this VM, so the floor catches the loop losing to threads, not noise.
LADDER_CONNECTIONS_FLOOR = 4096
LADDER_GOODPUT_FLOOR = 0.9


def _clamp_rung_to_fd_budget(rung: int) -> int:
    """Bound a rung by the process fd limit (2 fds per in-process
    connection: client end + server end, plus headroom for everything
    else the interpreter holds open)."""
    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    return min(rung, max(256, (soft - 1000) // 2))


def _ladder_request_bytes(payload: SoapEnvelope, content_type: str) -> bytes:
    """The exact POST the SOAP HTTP client would send, pre-serialized
    once — the ladder measures serving, not client-side encode."""
    from repro.transport.http.messages import HttpRequest

    policy = encoding_for_content_type(content_type)
    request = HttpRequest("POST", "/soap", body=policy.encode(payload.to_document()))
    request.headers.set("Host", "localhost")
    request.headers.set("Content-Type", content_type)
    request.headers.set("SOAPAction", '""')
    return request.to_bytes()


def connection_ladder(
    *,
    workers: int = 2,
    queue_depth: int = 64,
    rungs: tuple[int, ...] = DEFAULT_LADDER_RUNGS,
    threaded_probe: tuple[int, ...] = DEFAULT_THREADED_PROBE,
    requests_per_connection: int = 4,
    model_size: int = 20,
    seed: int = 0,
) -> dict:
    """Figure L's connection ladder: threaded vs event-driven serving core.

    Both cores run the identical :class:`SoapServeService` stack (same
    dispatcher, same worker pool discipline, same BXSA payload) over real
    loopback TCP, driven closed-loop by the selector-based
    :func:`~repro.loadgen.ladder.drive_connections` client.  The threaded
    core is probed at the modest connection counts where it is at its
    best; the event-driven core climbs the ladder to thousands of
    keep-alive connections.  Returns the JSON-ready document with one
    point per rung (goodput, p50/p99, exact accounting).
    """
    from repro.transport.sockets import TcpListener

    dispatcher = _make_dispatcher()
    payload = SoapEnvelope.wrap(
        element("PutModel", lead_dataset(model_size, seed).to_bxdm())
    )
    request_bytes = _ladder_request_bytes(payload, BXSA_CONTENT_TYPE)

    def _run_rung(core: str, connections: int) -> dict:
        config = ServeConfig(
            workers=workers,
            queue_depth=queue_depth,
            retry_after=0.01,
            max_connections=connections + 64,
            core=core,
        )
        listener = TcpListener(backlog=4096)
        address = listener.address
        service = SoapServeService(listener, dispatcher, config=config)
        with service:
            result = drive_connections(
                address,
                request_bytes,
                connections=connections,
                requests_per_connection=requests_per_connection,
                timeout=120.0,
            )
        point = result.summary()
        point["core"] = core
        return point

    threaded_points = [_run_rung("threaded", c) for c in threaded_probe]
    aio_points = [_run_rung("aio", _clamp_rung_to_fd_budget(r)) for r in rungs]

    threaded_best = max(threaded_points, key=lambda p: p["goodput_rps"])
    aio_top = aio_points[-1]
    return {
        "experiment": "figure_load_ladder",
        "seed": seed,
        "config": {
            "workers": workers,
            "queue_depth": queue_depth,
            "requests_per_connection": requests_per_connection,
            "model_size": model_size,
        },
        "threaded": threaded_points,
        "aio": aio_points,
        "threaded_best_goodput_rps": threaded_best["goodput_rps"],
        "threaded_best_connections": threaded_best["connections"],
        "aio_top_connections": aio_top["connections"],
        "aio_top_goodput_rps": aio_top["goodput_rps"],
    }


def run_ladder(
    *,
    workers: int = 2,
    queue_depth: int = 64,
    rungs: tuple[int, ...] = DEFAULT_LADDER_RUNGS,
    threaded_probe: tuple[int, ...] = DEFAULT_THREADED_PROBE,
    requests_per_connection: int = 4,
    model_size: int = 20,
    seed: int = 0,
    json_out: str | None = None,
) -> ExperimentResult:
    """Run the connection ladder and evaluate its shape checks."""
    document = connection_ladder(
        workers=workers,
        queue_depth=queue_depth,
        rungs=rungs,
        threaded_probe=threaded_probe,
        requests_per_connection=requests_per_connection,
        model_size=model_size,
        seed=seed,
    )
    if json_out:
        directory = os.path.dirname(json_out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(json_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")

    columns = ["core", "connections", "goodput rps", "p50 ms", "p99 ms", "shed", "failed"]
    rows = [
        [
            point["core"],
            str(point["connections"]),
            f"{point['goodput_rps']:.0f}",
            f"{point['p50_ms']:.1f}",
            f"{point['p99_ms']:.1f}",
            str(point["shed"]),
            str(point["failed"]),
        ]
        for point in document["threaded"] + document["aio"]
    ]
    every_point = document["threaded"] + document["aio"]
    aio_top = document["aio"][-1]
    threaded_best = document["threaded_best_goodput_rps"]
    checks = [
        ShapeCheck(
            "accounting exact at every rung (offered = completed + shed + failed)",
            all(
                p["offered"] == p["completed"] + p["shed"] + p["failed"]
                for p in every_point
            ),
        ),
        ShapeCheck(
            "every connection establishes at every rung (no accept drops)",
            all(p["established"] == p["connections"] for p in every_point),
        ),
        ShapeCheck(
            f"event-driven core holds >= {LADDER_CONNECTIONS_FLOOR} keep-alive connections",
            aio_top["connections"] >= LADDER_CONNECTIONS_FLOOR,
            f"top rung {aio_top['connections']} connections",
        ),
        ShapeCheck(
            f"at the top rung, goodput >= {LADDER_GOODPUT_FLOOR:g}x the threaded "
            "core's best point",
            aio_top["goodput_rps"] >= LADDER_GOODPUT_FLOOR * threaded_best,
            f"{aio_top['goodput_rps']:.0f} vs {threaded_best:.0f} completed/s",
        ),
        ShapeCheck(
            "overload is answered cleanly at every rung (failed == 0)",
            all(p["failed"] == 0 for p in every_point),
        ),
    ]
    notes = [
        f"workers={workers} queue_depth={queue_depth} "
        f"requests/connection={requests_per_connection} model_size={model_size} seed={seed}",
        "closed-loop over real loopback TCP; both cores share the identical "
        "SOAP stack and worker-pool discipline — only the I/O core differs",
    ]
    return ExperimentResult(
        experiment_id="Figure L (ladder)",
        title="Keep-alive connection ladder: threaded vs event-driven serving core",
        columns=columns,
        rows=rows,
        checks=checks,
        notes=notes,
    )


def _estimate_xml_capacity(
    dispatcher: Dispatcher,
    payload: SoapEnvelope,
    config: ServeConfig,
    *,
    seed: int,
    samples: int,
) -> float:
    """Best-case XML/HTTP throughput: a short closed-loop run at
    concurrency = workers (each worker always busy, nothing queued)."""
    network, address, service = _serve_stack("capacity", dispatcher, config)
    with service:
        result = closed_loop(
            _call_factory(network, address, XML_CONTENT_TYPE, payload),
            clients=config.workers,
            requests_per_client=max(1, samples // config.workers),
            seed=seed,
        )
    return max(result.goodput, 1.0)


def run(
    *,
    workers: int = 2,
    queue_depth: int = 4,
    multipliers: tuple[float, ...] = DEFAULT_MULTIPLIERS,
    rates: tuple[float, ...] | None = None,
    requests_per_point: int = 200,
    model_size: int = 100,
    seed: int = 0,
    senders: int = 32,
    metrics=None,
    json_out: str | None = None,
) -> ExperimentResult:
    """Run the sweep, evaluate the shape checks, render the curve table.

    ``json_out`` writes the full curve document (every point's goodput,
    p50/p95/p99, shed rate and exact accounting) as JSON.
    """
    document = sweep(
        workers=workers,
        queue_depth=queue_depth,
        multipliers=multipliers,
        rates=rates,
        requests_per_point=requests_per_point,
        model_size=model_size,
        seed=seed,
        senders=senders,
        metrics=metrics,
    )
    if json_out:
        directory = os.path.dirname(json_out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(json_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")

    schemes = document["schemes"]
    ladder = document["rates_rps"]
    columns = ["offered rps"]
    for label in schemes:
        columns += [f"{label} goodput", f"{label} p95 ms", f"{label} shed%"]
    rows = []
    for i, rate in enumerate(ladder):
        row = [f"{rate:.0f}"]
        for label in schemes:
            point = schemes[label][i]
            row += [
                f"{point['goodput_rps']:.0f}",
                "-" if point["p95_ms"] is None else f"{point['p95_ms']:.2f}",
                f"{100 * point['shed_rate']:.0f}",
            ]
        rows.append(row)

    bxsa_top = schemes["bxsa/http"][-1]
    xml_top = schemes["xml/http"][-1]
    accounting_ok = all(
        point["offered"] == point["completed"] + point["shed"] + point["failed"]
        for points in schemes.values()
        for point in points
    )
    checks = [
        ShapeCheck(
            "accounting exact at every point (offered = completed + shed + failed)",
            accounting_ok,
        ),
        ShapeCheck(
            "past capacity the runtime sheds instead of collapsing (XML sheds at the top rung)",
            xml_top["shed"] > 0,
            f"XML shed {xml_top['shed']}/{xml_top['offered']} at {ladder[-1]:.0f} rps offered",
        ),
        ShapeCheck(
            "BXSA sustains higher goodput at saturation than XML 1.0",
            bxsa_top["goodput_rps"] >= xml_top["goodput_rps"],
            f"{bxsa_top['goodput_rps']:.0f} vs {xml_top['goodput_rps']:.0f} completed/s",
        ),
        ShapeCheck(
            "overload is answered cleanly: every non-completed request is a "
            "503 shed, none errors or hangs",
            all(
                point["failed"] == 0
                for points in schemes.values()
                for point in points
            ),
        ),
    ]
    capacity = document["xml_capacity_rps"]
    notes = [
        f"workers={workers} queue_depth={queue_depth} "
        f"requests/point={requests_per_point} model_size={model_size} seed={seed}",
    ]
    if capacity is not None:
        notes.append(
            f"rate ladder = {', '.join(f'{m:g}x' for m in document['multipliers'])} "
            f"of measured XML/HTTP closed-loop capacity ({capacity:.0f} rps)"
        )
    return ExperimentResult(
        experiment_id="Figure L",
        title="Goodput and tail latency under open-loop load (SOAP over HTTP)",
        columns=columns,
        rows=rows,
        checks=checks,
        notes=notes,
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Regenerate the serving-under-load throughput-latency curve."
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-depth", type=int, default=4)
    parser.add_argument("--requests", type=int, default=200, help="requests per rung")
    parser.add_argument("--model-size", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=None,
        help="pin absolute arrival rates (rps) instead of the capacity ladder",
    )
    parser.add_argument("--json-out", default=None, help="write the curve JSON here")
    parser.add_argument(
        "--ladder",
        action="store_true",
        help="run the keep-alive connection ladder (threaded vs event-driven "
        "core over real TCP) instead of the rate sweep",
    )
    parser.add_argument(
        "--rungs",
        type=int,
        nargs="+",
        default=None,
        help="connection counts for the ladder's event-driven rungs",
    )
    parser.add_argument(
        "--distributed-trace",
        action="store_true",
        help="run the cross-process tracing demo (live client + server, "
        "both serving cores) and verify the assembled trace instead of "
        "the load sweep",
    )
    add_observability_args(parser)
    args = parser.parse_args()
    if args.distributed_trace:
        from repro.harness.dtrace import run_distributed_trace_demo

        failed = False
        for core in ("threaded", "aio"):
            demo = run_distributed_trace_demo(core=core)
            for problem in demo["problems"]:
                print(f"PROBLEM[{core}]: {problem}")
            print(
                f"distributed-trace[{core}]: trace {demo['trace_id']} "
                f"wire {demo['wire_seconds'] * 1e3:.3f}ms "
                f"[{'OK' if demo['ok'] else 'FAIL'}]"
            )
            failed = failed or not demo["ok"]
        raise SystemExit(1 if failed else 0)
    if args.ladder:
        result = run_ladder(
            workers=args.workers,
            queue_depth=max(args.queue_depth, 64),
            rungs=tuple(args.rungs) if args.rungs else DEFAULT_LADDER_RUNGS,
            model_size=args.model_size,
            seed=args.seed,
            json_out=args.json_out,
        )
        print(result.render())
        raise SystemExit(0)
    _trace_dir, metrics, _sampler = observability_from_args(args)
    result = run(
        workers=args.workers,
        queue_depth=args.queue_depth,
        requests_per_point=args.requests,
        model_size=args.model_size,
        seed=args.seed,
        rates=tuple(args.rates) if args.rates else None,
        metrics=metrics,
        json_out=args.json_out,
    )
    print(result.render())
    if args.metrics_out and metrics is not None:
        from repro.harness.measure import write_metrics_out

        write_metrics_out(metrics, args.metrics_out, figure="figure_load")
