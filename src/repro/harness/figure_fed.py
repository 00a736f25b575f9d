"""Figure F: the federated data plane — balancing, caching, failover.

The paper's evaluation ends at one SOAP endpoint per host; this figure
measures what :mod:`repro.fed` buys past that, following the OSDF/XRootD
benchmarking ground rules (replica selection + near-client caching,
reported as a concurrency × cache-hit matrix):

* **concurrency × cache-hit-ratio matrix** — closed-loop clients drive a
  3-replica federation through the content-addressed
  :class:`~repro.fed.cache.ResponseCache`; each cell reports goodput,
  p95 latency, the measured hit rate and the number of upstream
  exchanges that actually reached a replica.  A warm hit must cost
  **zero** upstream exchanges (checked against the balancer's upstream
  request counter, not inferred from timing).
* **aggregate goodput one node sheds** — the same open-loop offered rate
  is driven at a single node and at a 3-node federation *in separate
  processes* (`repro.fed.node`): the single node saturates its worker
  pool and sheds, the federation completes the full offered load.  The
  federation must sustain ≥ 1.5x the saturated single-node goodput.
  Work here is backend-bound (``Work(io_ms=…)`` holds a worker for a
  fixed service time with the GIL released), so capacity is set by
  worker pools — the regime where adding nodes adds capacity even on a
  single-core host, and the regime in which a production SOAP service
  (database/disk/upstream behind each call) actually operates.
* **node-kill failover** — a replica dies abruptly mid-load: zero
  exchanges may be lost (offered = completed + shed + failed holds
  exactly and nothing fails), and in a traced run the failover is
  visible as per-replica ``fed.attempt`` spans inside one joined trace,
  with the dead replica's circuit re-closing after it returns.
* **striped fetch** — one blob pulled as byte-range stripes from all
  three replicas at once and reassembled under per-stripe digest
  verification.

Determinism: payload choice per request derives from ``seed``; the
latency/goodput numbers belong to the machine, the shape checks encode
the machine-independent claims.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import asdict

from repro import obs
from repro.core.envelope import SoapEnvelope
from repro.fed import (
    Balancer,
    CachingClient,
    FederatedClient,
    LeastOutstandingPolicy,
    Replica,
    ResponseCache,
    RoundRobinPolicy,
    striped_fetch,
)
from repro.fed.node import decode_chunk, fed_blob, fed_dispatcher, spawn_nodes
from repro.fed.striping import stripe_digests
from repro.harness.report import ExperimentResult, ShapeCheck
from repro.loadgen import closed_loop, open_loop
from repro.obs.analyze import join_traces
from repro.serve import ServeConfig, SoapServeService
from repro.transport.memory import MemoryNetwork
from repro.xdm import element, leaf

#: Fixed identities so trace files (and their ids) are reproducible.
CLIENT_ORIGIN = "c1fed001"
SERVER_ORIGIN = "5edfed02"

DEFAULT_CONCURRENCY = (4, 16)
DEFAULT_HIT_RATIOS = (0.0, 0.5, 0.9)
#: Distinct hot payloads shared across clients at a given hit ratio.
HOT_KEYS = 8
#: What a 3-node federation must sustain over one saturated node at the
#: same offered rate (measured ~2.3x, ~2.0x at bench size; the floor leaves
#: noise room).  Stated here only: the bench asserts :func:`goodput_check`.
FED_GOODPUT_FLOOR = 1.5


def _work_envelope(key: int, *, size: int = 2048, rounds: int = 1, io_ms: int = 5):
    return SoapEnvelope.wrap(
        element(
            "Work",
            leaf("size", size, "int"),
            leaf("rounds", rounds, "int"),
            leaf("io_ms", io_ms, "int"),
            leaf("key", key, "int"),
        )
    )


def _memory_cluster(
    count: int = 3, *, workers: int = 2, queue_depth: int = 8, blob_size: int = 1 << 16
):
    """``count`` in-process replicas on a memory network; (network, services, replicas)."""
    network = MemoryNetwork()
    services, replicas = [], []
    for index in range(count):
        name = f"fed-node-{index}"
        service = SoapServeService(
            network.listen(name),
            fed_dispatcher(blob_size=blob_size),
            config=ServeConfig(workers=workers, queue_depth=queue_depth),
            name=name,
        ).start()
        services.append(service)
        replicas.append(
            Replica(name, (lambda nm: (lambda: network.connect(nm)))(name))
        )
    return network, services, replicas


# ---------------------------------------------------------------------------
# concurrency × cache-hit-ratio matrix


def cache_matrix(
    *,
    concurrency=DEFAULT_CONCURRENCY,
    hit_ratios=DEFAULT_HIT_RATIOS,
    requests_per_client: int = 25,
    seed: int = 0,
) -> list[dict]:
    """One cell per (clients, target hit ratio); shared cache per cell."""
    network, services, replicas = _memory_cluster()
    cells: list[dict] = []
    try:
        for clients in concurrency:
            for ratio in hit_ratios:
                total = clients * requests_per_client
                rng = random.Random((seed << 8) ^ int(ratio * 100) ^ clients)
                keys = [
                    rng.randrange(HOT_KEYS) if rng.random() < ratio else HOT_KEYS + i
                    for i in range(total)
                ]
                balancer = Balancer(replicas, policy=LeastOutstandingPolicy())
                cache = ResponseCache(max_bytes=4 << 20, ttl_seconds=None)

                def call_factory():
                    client = CachingClient(FederatedClient(balancer), cache)

                    def call(index: int):
                        client.call(_work_envelope(keys[index]))

                    call.close = client.close
                    return call

                result = closed_loop(
                    call_factory,
                    clients=clients,
                    requests_per_client=requests_per_client,
                    seed=seed,
                )
                p95 = result.quantile_seconds(0.95)
                cells.append(
                    {
                        "clients": clients,
                        "target_hit_ratio": ratio,
                        "offered": result.offered,
                        "completed": result.completed,
                        "shed": result.shed,
                        "failed": result.failed,
                        "goodput_rps": result.goodput,
                        "p95_ms": None if p95 is None else p95 * 1e3,
                        "cache_hits": cache.hits,
                        "cache_misses": cache.misses,
                        "cache_coalesced": cache.coalesced,
                        "hit_rate": cache.hits / max(1, result.offered),
                        "upstream_requests": balancer.upstream_requests,
                    }
                )
    finally:
        for service in services:
            service.stop()
    return cells


def warm_hit_upstream_check() -> dict:
    """Two identical calls: the second must reach no replica at all."""
    network, services, replicas = _memory_cluster()
    try:
        balancer = Balancer(replicas)
        client = CachingClient(
            FederatedClient(balancer), ResponseCache(ttl_seconds=None)
        )
        envelope = _work_envelope(0, io_ms=0)
        client.call(envelope)
        upstream_after_miss = balancer.upstream_requests
        response = client.call(envelope)
        upstream_after_hit = balancer.upstream_requests
        client.close()
        return {
            "upstream_after_miss": upstream_after_miss,
            "upstream_after_hit": upstream_after_hit,
            "hit_served_without_upstream": upstream_after_hit == upstream_after_miss,
            "response_operation": response.body_root.name.local,
        }
    finally:
        for service in services:
            service.stop()


def warm_hit_check(warm: dict) -> ShapeCheck:
    return ShapeCheck(
        "warm cache hit served without any upstream exchange",
        warm["hit_served_without_upstream"],
        f"upstream requests {warm['upstream_after_miss']} -> "
        f"{warm['upstream_after_hit']} across the hit",
    )


# ---------------------------------------------------------------------------
# aggregate goodput a single node sheds (separate processes)


def federation_goodput(
    *,
    nodes: int = 3,
    workers: int = 2,
    queue_depth: int = 8,
    rate: float = 220.0,
    total: int = 440,
    io_ms: int = 20,
    seed: int = 0,
) -> dict:
    """Offer one rate to 1 node and to ``nodes`` nodes, in subprocesses.

    Per-node capacity is ``workers / (io_ms/1000)`` exchanges/s; the
    offered rate sits between one node's capacity and the federation's,
    so the single node must shed while the federation completes.
    """

    def drive(node_count: int) -> dict:
        spawned = spawn_nodes(node_count, workers=workers, queue_depth=queue_depth)
        try:
            balancer = Balancer(
                [node.replica() for node in spawned],
                policy=LeastOutstandingPolicy(),
            )

            def call_factory():
                fed = FederatedClient(balancer)

                def call(index: int):
                    fed.call(
                        _work_envelope(index, size=4096, rounds=1, io_ms=io_ms)
                    )

                call.close = fed.close
                return call

            result = open_loop(
                call_factory, rate=rate, total=total, senders=24, seed=seed
            )
            return {
                "nodes": node_count,
                "offered": result.offered,
                "completed": result.completed,
                "shed": result.shed,
                "failed": result.failed,
                "goodput_rps": result.goodput,
                "accounting_exact": result.offered
                == result.completed + result.shed + result.failed,
            }
        finally:
            for node in spawned:
                node.stop()

    single = drive(1)
    federation = drive(nodes)
    ratio = federation["goodput_rps"] / max(1e-9, single["goodput_rps"])
    return {
        "rate": rate,
        "io_ms": io_ms,
        "single": single,
        "federation": federation,
        "fed_vs_single_goodput": ratio,
    }


def goodput_check(goodput: dict) -> ShapeCheck:
    """The scaling claim over one :func:`federation_goodput` document; it
    holds only if the single node saturated and both runs account exactly."""
    single, federation = goodput["single"], goodput["federation"]
    return ShapeCheck(
        f"3-node federation sustains >= {FED_GOODPUT_FLOOR:g}x saturated single-node goodput",
        goodput["fed_vs_single_goodput"] >= FED_GOODPUT_FLOOR
        and single["shed"] > 0
        and federation["failed"] == 0
        and single["accounting_exact"]
        and federation["accounting_exact"],
        f"ratio {goodput['fed_vs_single_goodput']:.2f} "
        f"(single sheds {single['shed']}, federation sheds {federation['shed']})",
    )


# ---------------------------------------------------------------------------
# node-kill failover


def kill_under_load(
    *, rate: float = 300.0, total: int = 300, kill_after: int = 60, seed: int = 0
) -> dict:
    """Open-loop load over 3 in-process replicas; one dies mid-run.

    Accounting must stay exact with zero failures: every exchange routed
    at the dead replica is replayed on a survivor by the balancer.
    """
    network, services, replicas = _memory_cluster(queue_depth=16)
    balancer = Balancer(
        replicas,
        policy=RoundRobinPolicy(),
        breaker_threshold=1,
        breaker_cooldown=0.2,
    )
    calls_made = [0]
    kill_trigger = threading.Event()
    count_lock = threading.Lock()

    def killer():
        kill_trigger.wait(timeout=30)
        services[1].stop()

    killer_thread = threading.Thread(target=killer, daemon=True)
    killer_thread.start()
    try:

        def call_factory():
            fed = FederatedClient(balancer)

            def call(index: int):
                with count_lock:
                    calls_made[0] += 1
                    if calls_made[0] == kill_after:
                        kill_trigger.set()
                fed.call(_work_envelope(index, io_ms=2))

            call.close = fed.close
            return call

        result = open_loop(call_factory, rate=rate, total=total, senders=16, seed=seed)
    finally:
        kill_trigger.set()
        killer_thread.join(timeout=30)
        for service in (services[0], services[2]):
            service.stop()
    failovers = balancer.metrics.counter("fed_failovers_total").snapshot()
    return {
        "offered": result.offered,
        "completed": result.completed,
        "shed": result.shed,
        "failed": result.failed,
        "accounting_exact": result.offered
        == result.completed + result.shed + result.failed,
        "failovers": failovers,
        "snapshot": balancer.snapshot(),
    }


def failover_trace_demo(*, requests: int = 12, seed: int = 0) -> dict:
    """Sequential traced run: kill a replica, fail over, recover, re-close.

    Server threads record to the process-global recorder, the client
    thread to a pinned one — two "processes", one joined trace per the
    dtrace demo.  Verifies: every request completes, the failed-over
    request shows ``fed.attempt`` spans on ≥ 2 distinct replicas, the
    joined forest has no problems and exactly one trace id (one logical
    run), and the dead replica's circuit re-closes once it returns.
    """
    problems: list[str] = []
    client_rec = obs.TraceRecorder(service="fed-client", origin=CLIENT_ORIGIN)
    server_rec = obs.TraceRecorder(service="fed-serve", origin=SERVER_ORIGIN)
    previous = obs.set_recorder(server_rec)
    kill_at, revive_at = requests // 3, 2 * requests // 3
    try:
        network, services, replicas = _memory_cluster()
        try:
            balancer = Balancer(
                replicas,
                policy=RoundRobinPolicy(),
                breaker_threshold=1,
                breaker_cooldown=0.05,
            )
            with obs.thread_recorder(client_rec):
                fed = FederatedClient(balancer, rng=random.Random(seed))
                # one logical run = one trace: join_traces asserts all
                # linked spans share a single trace id, per the dtrace demo
                try:
                    with obs.span("fed.run", kind="logical", requests=requests):
                        for index in range(requests):
                            if index == kill_at:
                                services[1].stop()
                            if index == revive_at:
                                services[1] = SoapServeService(
                                    network.listen("fed-node-1"),
                                    fed_dispatcher(blob_size=1 << 16),
                                    config=ServeConfig(workers=2, queue_depth=8),
                                    name="fed-node-1b",
                                ).start()
                                time.sleep(0.06)  # breaker cooldown lapses
                            with obs.span(
                                "fed.exchange", kind="logical", request=index
                            ):
                                response = fed.call(
                                    SoapEnvelope.wrap(
                                        element("Echo", leaf("n", index, "int"))
                                    )
                                )
                                if response.body_root.name.local != "EchoResponse":
                                    problems.append(f"request {index}: bad response")
                finally:
                    fed.close()
        finally:
            for service in services:
                try:
                    service.stop()
                except Exception:
                    pass
    finally:
        obs.set_recorder(previous)

    # -- assemble the two "processes" and check the joined forest
    client_doc = obs.trace_dict(client_rec, meta={"demo": "figure-fed-failover"})
    server_doc = obs.trace_dict(server_rec, meta={"demo": "figure-fed-failover"})
    joined = join_traces([client_doc, server_doc])
    problems.extend(joined["problems"])
    if len(joined["trace_ids"]) != 1:
        problems.append(
            f"expected one joined trace, saw {len(joined['trace_ids'])}"
        )

    # per-request fed.attempt replicas: walk each attempt up to its
    # fed.exchange ancestor (which carries the request number)
    by_id = {span.span_id: span for span in client_rec.spans}
    attempts_by_request: dict[int, list[str]] = {}
    for span in client_rec.spans:
        if span.name != "fed.attempt":
            continue
        node = span
        while node is not None and node.name != "fed.exchange":
            node = by_id.get(node.parent_id)
        if node is not None:
            attempts_by_request.setdefault(node.attributes["request"], []).append(
                span.attributes.get("replica")
            )
    multi = {
        request: replicas_hit
        for request, replicas_hit in attempts_by_request.items()
        if len(set(replicas_hit)) >= 2
    }
    if not multi:
        problems.append("no request failed over across >= 2 replicas")
    if len(attempts_by_request) != requests:
        problems.append(
            f"fed.attempt spans cover {len(attempts_by_request)} of {requests} requests"
        )

    snapshot = balancer.snapshot()
    recovered = snapshot["fed-node-1"]
    if recovered["circuit"] != "closed":
        problems.append(f"fed-node-1 circuit did not re-close: {recovered['circuit']}")
    if not (recovered["failures"] >= 1):
        problems.append("fed-node-1 never failed — kill not observed")

    return {
        "ok": not problems,
        "problems": problems,
        "requests": requests,
        "traces": len(joined["trace_ids"]),
        "links": len(joined["links"]),
        "failed_over_requests": {k: sorted(set(v)) for k, v in multi.items()},
        "circuit_after_recovery": recovered["circuit"],
        "snapshot": snapshot,
    }


# ---------------------------------------------------------------------------
# striped fetch


def striping_demo(*, blob_size: int = 1 << 16, stripe_size: int = 8192) -> dict:
    """Fetch one blob as stripes from all three replicas, digest-verified."""
    network, services, replicas = _memory_cluster(blob_size=blob_size)
    try:
        blob = fed_blob(size=blob_size)

        def make_fetch(replica: Replica):
            fed = FederatedClient(Balancer([replica]))

            def fetch(offset: int, length: int) -> bytes:
                return decode_chunk(
                    fed.call(
                        SoapEnvelope.wrap(
                            element(
                                "GetChunk",
                                leaf("offset", offset, "int"),
                                leaf("length", length, "int"),
                            )
                        )
                    )
                )

            return fetch

        sources = [(replica.name, make_fetch(replica)) for replica in replicas]
        data, stats = striped_fetch(
            sources,
            blob_size,
            stripe_size=stripe_size,
            digests=stripe_digests(blob, stripe_size),
        )
        return {
            "bytes_correct": data == blob,
            "sources_used": len(stats.stripes_by_source),
            "stats": asdict(stats),
        }
    finally:
        for service in services:
            service.stop()


# ---------------------------------------------------------------------------
# the figure


def run(
    *,
    seed: int = 0,
    quick: bool = False,
    skip_subprocess: bool = False,
) -> ExperimentResult:
    requests_per_client = 10 if quick else 25
    matrix = cache_matrix(seed=seed, requests_per_client=requests_per_client)
    warm = warm_hit_upstream_check()
    if skip_subprocess:
        goodput = None
    else:
        goodput = federation_goodput(
            seed=seed,
            rate=150.0 if quick else 220.0,
            total=150 if quick else 440,
        )
    killed = kill_under_load(seed=seed, total=150 if quick else 300, kill_after=40)
    traced = failover_trace_demo(seed=seed)
    striped = striping_demo()

    columns = [
        "section",
        "clients/nodes",
        "hit ratio",
        "offered",
        "completed",
        "shed",
        "failed",
        "goodput rps",
        "p95 ms",
        "hit rate",
        "upstream",
    ]
    rows = []
    for cell in matrix:
        rows.append(
            [
                "matrix",
                cell["clients"],
                f"{cell['target_hit_ratio']:.1f}",
                cell["offered"],
                cell["completed"],
                cell["shed"],
                cell["failed"],
                f"{cell['goodput_rps']:.0f}",
                "-" if cell["p95_ms"] is None else f"{cell['p95_ms']:.1f}",
                f"{cell['hit_rate']:.2f}",
                cell["upstream_requests"],
            ]
        )
    if goodput is not None:
        for label, side in (("1-node", goodput["single"]), ("3-node", goodput["federation"])):
            rows.append(
                [
                    "goodput",
                    label,
                    "-",
                    side["offered"],
                    side["completed"],
                    side["shed"],
                    side["failed"],
                    f"{side['goodput_rps']:.0f}",
                    "-",
                    "-",
                    "-",
                ]
            )
    rows.append(
        [
            "node-kill",
            "3 (1 dies)",
            "-",
            killed["offered"],
            killed["completed"],
            killed["shed"],
            killed["failed"],
            "-",
            "-",
            "-",
            "-",
        ]
    )

    checks = [
        ShapeCheck(
            "matrix accounting exact at every cell",
            all(
                cell["offered"] == cell["completed"] + cell["shed"] + cell["failed"]
                for cell in matrix
            ),
            f"{len(matrix)} cells",
        ),
        warm_hit_check(warm),
        ShapeCheck(
            "higher hit ratio means fewer upstream exchanges",
            all(
                _upstream_at(matrix, clients, 0.9) < _upstream_at(matrix, clients, 0.0)
                for clients in sorted({cell["clients"] for cell in matrix})
            ),
            ", ".join(
                f"{clients} clients: {_upstream_at(matrix, clients, 0.0)} -> "
                f"{_upstream_at(matrix, clients, 0.9)}"
                for clients in sorted({cell["clients"] for cell in matrix})
            ),
        ),
        *([] if goodput is None else [goodput_check(goodput)]),
        ShapeCheck(
            "node-kill loses zero exchanges (exact accounting, none failed)",
            killed["accounting_exact"]
            and killed["failed"] == 0
            and killed["failovers"] >= 1,
            f"offered {killed['offered']} = completed {killed['completed']} + "
            f"shed {killed['shed']} + failed {killed['failed']}; "
            f"{killed['failovers']} failovers",
        ),
        ShapeCheck(
            "failover visible as fed.attempt spans in one joined trace, "
            "circuit re-closes after recovery",
            traced["ok"],
            "; ".join(traced["problems"])
            if traced["problems"]
            else f"{traced['traces']} traces, failed-over requests "
            f"{traced['failed_over_requests']}, circuit {traced['circuit_after_recovery']}",
        ),
        ShapeCheck(
            "striped fetch from 3 replicas reassembles byte-exact "
            "under per-stripe digests",
            striped["bytes_correct"] and striped["sources_used"] >= 2,
            f"sources {striped['stats']['stripes_by_source']}",
        ),
    ]
    notes = [
        "matrix/failover/striping run 3 in-process replicas over the memory "
        "transport; the goodput section runs real node processes "
        "(repro.fed.node) over TCP",
        "goodput exchanges are backend-bound (Work io_ms holds a worker with "
        "the GIL released), so capacity scales with worker pools across "
        "nodes — the regime a federation exists for",
    ]
    result = ExperimentResult(
        experiment_id="Figure F",
        title="Federated data plane: cache-hit matrix, shed goodput, failover",
        columns=columns,
        rows=rows,
        checks=checks,
        notes=notes,
    )
    result.raw = {
        "matrix": matrix,
        "warm_hit": warm,
        "goodput": goodput,
        "kill_under_load": {k: v for k, v in killed.items() if k != "snapshot"},
        "failover_trace": {
            k: v for k, v in traced.items() if k not in ("snapshot",)
        },
        "striping": striped,
    }
    return result


def _upstream_at(matrix: list[dict], clients: int, ratio: float) -> int:
    for cell in matrix:
        if cell["clients"] == clients and cell["target_hit_ratio"] == ratio:
            return cell["upstream_requests"]
    raise KeyError((clients, ratio))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Figure F: federated data plane")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="smaller runs")
    parser.add_argument(
        "--skip-subprocess",
        action="store_true",
        help="skip the multi-process goodput section",
    )
    parser.add_argument("--json-out", default=None)
    args = parser.parse_args(argv)

    result = run(
        seed=args.seed, quick=args.quick, skip_subprocess=args.skip_subprocess
    )
    print(result.render())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "experiment_id": result.experiment_id,
                    "columns": result.columns,
                    "rows": result.rows,
                    "checks": [
                        {"description": c.description, "passed": c.passed, "detail": c.detail}
                        for c in result.checks
                    ],
                    "raw": result.raw,
                },
                handle,
                indent=2,
                default=str,
            )
            handle.write("\n")
    return 0 if result.all_checks_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
