"""Tests for the federated data plane (``repro.fed``).

Covers the balancer's replica-selection policies and circuit breaker
(with injectable clocks — no wall-clock sleeps in the breaker tests),
the liveness/readiness split on the admin surface, the content-addressed
response cache (TTL, LRU-bytes, single-flight), multi-source striping,
and the replica-failover acceptance scenarios: a replica killed
mid-load loses zero exchanges, failover is deterministic under a seeded
fault schedule, and the dead replica's circuit re-closes once it
recovers.
"""

import threading
import time

import pytest

from repro.core import Dispatcher, SoapEnvelope, SoapHttpClient
from repro.core.policies import XMLEncoding
from repro.fed import (
    Balancer,
    CachingClient,
    EwmaLatencyPolicy,
    FederatedClient,
    LeastOutstandingPolicy,
    NoReplicaAvailable,
    Replica,
    ResponseCache,
    RoundRobinPolicy,
    StripeVerificationError,
    envelope_key,
    request_key,
    striped_fetch,
)
from repro.fed.balancer import CIRCUIT_CLOSED, CIRCUIT_HALF_OPEN, CIRCUIT_OPEN
from repro.fed.node import decode_chunk, fed_blob, fed_dispatcher, spawn_nodes
from repro.fed.striping import plan_stripes, stripe_digests
from repro.gridftp.errors import GridFTPError, StripeTimeout
from repro.loadgen import closed_loop
from repro.netsim.faults import FaultProfile, FaultSchedule, faulty_connect
from repro.serve import ServeConfig, SoapServeService
from repro.transport import MemoryNetwork
from repro.transport.base import TransportError
from repro.transport.http import HttpClient
from repro.transport.resilience import RetryBudgetExhausted, RetryPolicy
from repro.xdm import element, leaf
from tests.conftest import traced_peak


def echo_envelope(n: int) -> SoapEnvelope:
    return SoapEnvelope.wrap(element("Echo", leaf("n", n, "int")))


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.005) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached in time")


def memory_cluster(count=3, *, workers=2, queue_depth=8, blob_size=1 << 14):
    network = MemoryNetwork()
    services, replicas = [], []
    for index in range(count):
        name = f"node-{index}"
        service = SoapServeService(
            network.listen(name),
            fed_dispatcher(blob_size=blob_size),
            config=ServeConfig(workers=workers, queue_depth=queue_depth),
            name=name,
        ).start()
        services.append(service)
        replicas.append(Replica(name, (lambda nm: (lambda: network.connect(nm)))(name)))
    return network, services, replicas


class FakeState:
    """Minimal stand-in for policy unit tests."""

    def __init__(self, name, outstanding=0, ewma=None):
        self.name = name
        self.outstanding = outstanding
        self.ewma_seconds = ewma


class TestPolicies:
    def test_round_robin_cycles(self):
        policy = RoundRobinPolicy()
        states = [FakeState("a"), FakeState("b"), FakeState("c")]
        picks = [policy.choose_replica(states).name for _ in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_least_outstanding_picks_min_and_rotates_ties(self):
        policy = LeastOutstandingPolicy()
        states = [FakeState("a", 2), FakeState("b", 0), FakeState("c", 1)]
        assert policy.choose_replica(states).name == "b"
        tied = [FakeState("a"), FakeState("b"), FakeState("c")]
        picks = {policy.choose_replica(tied).name for _ in range(6)}
        assert picks == {"a", "b", "c"}

    def test_ewma_weights_latency_by_queue_depth(self):
        policy = EwmaLatencyPolicy()
        states = [
            FakeState("slow", 0, ewma=0.100),
            FakeState("fast-but-busy", 3, ewma=0.010),
            FakeState("fast", 0, ewma=0.010),
        ]
        assert policy.choose_replica(states).name == "fast"
        # an unmeasured replica costs nothing: it gets probed first
        states.append(FakeState("new", 0, ewma=None))
        assert policy.choose_replica(states).name == "new"


class TestCircuitBreaker:
    def make(self, **kwargs):
        self.now = [0.0]
        kwargs.setdefault("breaker_threshold", 2)
        kwargs.setdefault("breaker_cooldown", 10.0)
        replicas = [
            Replica("a", lambda: None),
            Replica("b", lambda: None),
        ]
        return Balancer(replicas, clock=lambda: self.now[0], **kwargs)

    def fail_once(self, balancer, name):
        state = balancer.state(name)
        while True:
            chosen = balancer.acquire()
            if chosen is state:
                balancer.release(chosen)
                return
            balancer.release(chosen, ok=True)

    def test_opens_after_threshold_and_half_opens_after_cooldown(self):
        balancer = self.make()
        self.fail_once(balancer, "a")
        assert balancer.state("a").circuit == CIRCUIT_CLOSED
        self.fail_once(balancer, "a")
        assert balancer.state("a").circuit == CIRCUIT_OPEN

        # while open, only b is admissible
        for _ in range(4):
            chosen = balancer.acquire()
            assert chosen.name == "b"
            balancer.release(chosen, ok=True)

        # past the cooldown one half-open trial is admitted; success closes
        self.now[0] = 11.0
        names = set()
        trial_pending = True
        for _ in range(4):
            chosen = balancer.acquire()
            names.add(chosen.name)
            if chosen.name == "a" and trial_pending:
                assert chosen.circuit == CIRCUIT_HALF_OPEN
                trial_pending = False
            balancer.release(chosen, ok=True)
        assert "a" in names
        assert balancer.state("a").circuit == CIRCUIT_CLOSED

    def test_failed_half_open_trial_reopens(self):
        balancer = self.make()
        self.fail_once(balancer, "a")
        self.fail_once(balancer, "a")
        self.now[0] = 11.0
        self.fail_once(balancer, "a")  # the trial fails
        state = balancer.state("a")
        assert state.circuit == CIRCUIT_OPEN
        assert state.open_until == pytest.approx(21.0)

    def test_busy_does_not_trip_breaker_but_proves_liveness(self):
        balancer = self.make(breaker_threshold=1)
        self.fail_once(balancer, "a")
        assert balancer.state("a").circuit == CIRCUIT_OPEN
        self.now[0] = 11.0
        # half-open trial answered 503: live server, circuit re-closes
        while True:
            chosen = balancer.acquire()
            if chosen.name == "a":
                balancer.release(chosen, busy=True)
                break
            balancer.release(chosen, ok=True)
        assert balancer.state("a").circuit == CIRCUIT_CLOSED
        # and repeated 503s never open it
        for _ in range(6):
            chosen = balancer.acquire()
            balancer.release(chosen, busy=True)
        assert balancer.state("a").circuit == CIRCUIT_CLOSED

    def test_no_replica_available_lists_reasons(self):
        balancer = self.make(breaker_threshold=1)
        self.fail_once(balancer, "a")
        self.fail_once(balancer, "b")
        with pytest.raises(NoReplicaAvailable) as excinfo:
            balancer.acquire()
        message = str(excinfo.value)
        assert "a=open" in message and "b=open" in message


class TestReadinessSplit:
    """Satellite: /healthz stays liveness, /readyz reflects saturation."""

    def setup_method(self):
        self.net = MemoryNetwork()
        self.release = threading.Event()
        d = Dispatcher()

        @d.operation("Block")
        def block(request):
            self.release.wait(timeout=10)
            return element("BlockResponse")

        self.service = SoapServeService(
            self.net.listen("serve"),
            d,
            config=ServeConfig(workers=1, queue_depth=4, ready_queue_fraction=0.75),
        ).start()

    def teardown_method(self):
        self.release.set()
        self.service.stop()

    def get(self, target):
        client = HttpClient(lambda: self.net.connect("serve"))
        try:
            return client.get(target)
        finally:
            client.close()

    def occupy(self, count):
        threads = []
        for _ in range(count):
            client = SoapHttpClient(
                lambda: self.net.connect("serve"), encoding=XMLEncoding()
            )

            def call(c=client):
                try:
                    c.call(SoapEnvelope.wrap(element("Block")))
                finally:
                    c.close()

            thread = threading.Thread(target=call, daemon=True)
            thread.start()
            threads.append(thread)
        return threads

    def test_readyz_saturates_while_healthz_stays_live(self):
        assert self.get("/healthz").status == 200
        ready = self.get("/readyz")
        assert ready.status == 200
        assert b'"status": "ready"' in bytes(ready.body)

        # 1 executing + 3 queued >= ceil(0.75 * 4): readiness flips
        threads = self.occupy(4)
        wait_until(lambda: self.service.pool.queue_size >= 3)
        saturated = self.get("/readyz")
        assert saturated.status == 503
        assert b'"status": "saturated"' in bytes(saturated.body)
        assert saturated.headers.get("Retry-After") is not None
        # liveness is unaffected: the process is healthy, just busy
        assert self.get("/healthz").status == 200

        self.release.set()
        for thread in threads:
            thread.join(timeout=10)
        wait_until(lambda: self.get("/readyz").status == 200)

    def test_probe_gates_saturated_replica_out_of_selection(self):
        network, services, replicas = memory_cluster(2, workers=1, queue_depth=4)
        try:
            balancer = Balancer(
                [
                    Replica("blocked", lambda: self.net.connect("serve")),
                    replicas[0],
                ]
            )
            self.occupy(4)
            wait_until(lambda: self.service.pool.queue_size >= 3)
            verdicts = balancer.probe_all(timeout=2.0)
            assert verdicts == {"blocked": "saturated", "node-0": "ready"}
            # the preferred pass skips the saturated replica entirely
            for _ in range(4):
                chosen = balancer.acquire()
                assert chosen.name == "node-0"
                balancer.release(chosen, ok=True)
        finally:
            self.release.set()
            for service in services:
                service.stop()

    def test_probe_marks_dead_replica_down(self):
        network, services, replicas = memory_cluster(2)
        balancer = Balancer(replicas)
        services[1].stop()
        try:
            verdicts = balancer.probe_all(timeout=2.0)
            assert verdicts == {"node-0": "ready", "node-1": "down"}
            assert not balancer.state("node-1").live
            for _ in range(4):
                chosen = balancer.acquire()
                assert chosen.name == "node-0"
                balancer.release(chosen, ok=True)
        finally:
            services[0].stop()


class TestResponseCache:
    def make(self, **kwargs):
        self.now = [0.0]
        kwargs.setdefault("clock", lambda: self.now[0])
        return ResponseCache(**kwargs)

    def test_ttl_expires_on_read(self):
        cache = self.make(ttl_seconds=5.0)
        cache.put("k", "v", 10)
        assert cache.get("k") == "v"
        self.now[0] = 4.9
        assert cache.get("k") == "v"
        self.now[0] = 5.1
        assert cache.get("k") is None
        assert cache.hits == 2 and cache.misses == 1 and cache.evictions == 1

    def test_lru_bytes_eviction(self):
        cache = self.make(max_bytes=100, ttl_seconds=None)
        cache.put("a", "A", 40)
        cache.put("b", "B", 40)
        assert cache.get("a") == "A"  # refresh a: b becomes LRU
        cache.put("c", "C", 40)
        assert cache.get("b") is None
        assert cache.get("a") == "A" and cache.get("c") == "C"
        assert cache.bytes_used == 80

    def test_replace_is_not_an_eviction_and_oversized_not_stored(self):
        cache = self.make(max_bytes=100, ttl_seconds=None)
        cache.put("k", "v1", 10)
        cache.put("k", "v2", 20)
        assert cache.get("k") == "v2"
        assert cache.evictions == 0 and cache.bytes_used == 20
        cache.put("huge", "x", 101)
        assert cache.get("huge") is None
        assert cache.bytes_used == 20

    def test_single_flight_coalesces_concurrent_misses(self):
        cache = self.make(ttl_seconds=None)
        loads = [0]
        gate = threading.Event()
        outcomes = []

        def loader():
            loads[0] += 1
            gate.wait(timeout=5)
            return "value"

        def worker():
            value, outcome = cache.get_or_load("k", loader, size_of=lambda v: 5)
            outcomes.append((value, outcome))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        wait_until(lambda: cache.coalesced == 3)
        gate.set()
        for thread in threads:
            thread.join(timeout=5)
        assert loads[0] == 1
        assert sorted(o for _, o in outcomes) == ["coalesced"] * 3 + ["miss"]
        assert all(v == "value" for v, _ in outcomes)
        value, outcome = cache.get_or_load("k", loader)
        assert (value, outcome) == ("value", "hit")

    def test_leader_error_propagates_to_followers_and_caches_nothing(self):
        cache = self.make(ttl_seconds=None)
        gate = threading.Event()
        errors = []

        def loader():
            gate.wait(timeout=5)
            raise RuntimeError("backend down")

        def worker():
            try:
                cache.get_or_load("k", loader)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        wait_until(lambda: cache.coalesced == 2)
        gate.set()
        for thread in threads:
            thread.join(timeout=5)
        assert errors == ["backend down"] * 3
        assert len(cache) == 0

    def test_request_key_covers_operation_and_body(self):
        assert request_key("Op", b"x") == request_key("Op", b"x")
        assert request_key("Op", b"x") != request_key("Op", b"y")
        assert request_key("Op", b"x") != request_key("Other", b"x")
        policy = XMLEncoding()
        assert envelope_key(echo_envelope(1), policy) == envelope_key(
            echo_envelope(1), policy
        )
        assert envelope_key(echo_envelope(1), policy) != envelope_key(
            echo_envelope(2), policy
        )

    def test_warm_hit_makes_zero_upstream_exchanges(self):
        network, services, replicas = memory_cluster(2)
        try:
            balancer = Balancer(replicas)
            client = CachingClient(
                FederatedClient(balancer), ResponseCache(ttl_seconds=None)
            )
            first = client.call(echo_envelope(7))
            upstream = balancer.upstream_requests
            second = client.call(echo_envelope(7))
            assert balancer.upstream_requests == upstream
            assert second is first  # the cached object itself
            client.close()
        finally:
            for service in services:
                service.stop()


class TestFailover:
    def test_kill_one_replica_mid_closed_loop_loses_nothing(self):
        network, services, replicas = memory_cluster(3)
        balancer = Balancer(
            replicas, policy=RoundRobinPolicy(), breaker_threshold=1
        )
        calls = [0]
        lock = threading.Lock()
        kill = threading.Event()

        def killer():
            kill.wait(timeout=10)
            services[1].stop()

        killer_thread = threading.Thread(target=killer, daemon=True)
        killer_thread.start()
        try:

            def call_factory():
                fed = FederatedClient(balancer)

                def call(index: int):
                    with lock:
                        calls[0] += 1
                        if calls[0] == 20:
                            kill.set()
                    fed.call(echo_envelope(index))

                call.close = fed.close
                return call

            result = closed_loop(
                call_factory, clients=8, requests_per_client=10, seed=3
            )
        finally:
            kill.set()
            killer_thread.join(timeout=10)
            for service in (services[0], services[2]):
                service.stop()
        assert result.failed == 0
        assert result.offered == result.completed + result.shed + result.failed
        assert result.completed == 80
        failovers = balancer.metrics.counter("fed_failovers_total").snapshot()
        assert failovers >= 1
        # The breaker must have tripped on the dead replica.  Its *final*
        # state is racy: an exchange that connected before the kill can
        # complete after the breaker opened and re-close the circuit.
        opened = balancer.metrics.counter(
            "fed_circuit_open_total", labels={"replica": "node-1"}
        ).snapshot()
        assert opened >= 1

    def test_circuit_recloses_after_replica_recovers(self):
        network, services, replicas = memory_cluster(2)
        balancer = Balancer(
            replicas,
            policy=RoundRobinPolicy(),
            breaker_threshold=1,
            breaker_cooldown=0.05,
        )
        fed = FederatedClient(balancer)
        try:
            for index in range(4):
                fed.call(echo_envelope(index))
            services[1].stop()
            for index in range(4):
                fed.call(echo_envelope(index))
            assert balancer.state("node-1").circuit == CIRCUIT_OPEN

            # respawn on the same address (the old listener unregistered)
            services[1] = SoapServeService(
                network.listen("node-1"),
                fed_dispatcher(blob_size=1 << 14),
                config=ServeConfig(workers=2, queue_depth=8),
                name="node-1b",
            ).start()
            time.sleep(0.06)  # breaker cooldown lapses
            for index in range(8):
                fed.call(echo_envelope(index))
            assert balancer.state("node-1").circuit == CIRCUIT_CLOSED
            assert balancer.state("node-1").completed >= 1
        finally:
            fed.close()
            for service in services:
                service.stop()

    def test_failover_under_seeded_fault_schedule_is_deterministic(self):
        """Satellite: replica failover under repro.netsim.faults."""
        profile = FaultProfile(name="flaky", reset_rate=0.35, truncate_rate=0.15)

        def run(seed):
            network, services, replicas = memory_cluster(3)
            schedule = FaultSchedule(profile, seed=seed)
            # node-0's link is lossy; the other two are clean
            flaky = Replica(
                "node-0", faulty_connect(replicas[0].connect, schedule)
            )
            # cooldown longer than the run: once the flaky link's circuit
            # opens it stays open, so routing (and hence the number of
            # operations drawn from the fault stream) is deterministic
            balancer = Balancer(
                [flaky, replicas[1], replicas[2]],
                policy=RoundRobinPolicy(),
                breaker_threshold=2,
                breaker_cooldown=1000.0,
            )
            fed = FederatedClient(balancer, retry=RetryPolicy(max_attempts=5))
            completed = 0
            try:
                for index in range(30):
                    response = fed.call(echo_envelope(index))
                    assert response.body_root.name.local == "EchoResponse"
                    completed += 1
            finally:
                fed.close()
                for service in services:
                    service.stop()
            return completed, schedule.faults_injected, schedule.injected

        completed_a, faults_a, log_a = run(seed=11)
        completed_b, faults_b, log_b = run(seed=11)
        assert completed_a == completed_b == 30
        assert faults_a == faults_b >= 1
        assert log_a == log_b  # the fault stream itself replays exactly

    def test_replay_false_makes_exactly_one_attempt(self):
        network, services, replicas = memory_cluster(2)
        services[0].stop()
        services[1].stop()
        balancer = Balancer(replicas)
        fed = FederatedClient(balancer, replay=False)
        try:
            with pytest.raises(TransportError):
                fed.call(echo_envelope(1))
        except RetryBudgetExhausted:  # pragma: no cover
            pytest.fail("replay=False must not retry")
        finally:
            fed.close()
        assert balancer.upstream_requests == 1


class TestStriping:
    def sources_for(self, blob, names=("s0", "s1", "s2"), delay=0.0):
        def make(name):
            def fetch(offset, length):
                if delay:
                    time.sleep(delay)  # model wire time so pullers interleave
                return blob[offset : offset + length]

            return (name, fetch)

        return [make(name) for name in names]

    def test_plan_covers_the_size_exactly(self):
        stripes = plan_stripes(100, 32)
        assert [(i, o, n) for i, o, n in stripes] == [
            (0, 0, 32),
            (1, 32, 32),
            (2, 64, 32),
            (3, 96, 4),
        ]

    def test_reassembles_from_multiple_sources_with_digests(self):
        blob = fed_blob(size=1 << 15)
        data, stats = striped_fetch(
            self.sources_for(blob, delay=0.005),
            len(blob),
            stripe_size=4096,
            digests=stripe_digests(blob, 4096),
        )
        assert data == blob
        assert stats.total_bytes == len(blob)
        assert sum(stats.stripes_by_source.values()) == stats.stripes_total == 8
        assert len(stats.stripes_by_source) >= 2

    def test_failing_source_requeues_to_survivors(self):
        blob = fed_blob(size=1 << 14)
        sources = self.sources_for(blob, names=("good-0", "good-1"), delay=0.003)

        def bad_fetch(offset, length):
            raise IOError("link down")

        data, stats = striped_fetch(
            sources + [("bad", bad_fetch)], len(blob), stripe_size=2048
        )
        assert data == blob
        assert "bad" in stats.failed_sources
        assert "bad" not in stats.stripes_by_source

    def test_corrupt_stripe_fails_verification_and_reroutes(self):
        blob = fed_blob(size=1 << 14)
        corrupt = bytearray(blob)
        corrupt[5000] ^= 0xFF

        def corrupt_fetch(offset, length):
            return bytes(corrupt[offset : offset + length])

        data, stats = striped_fetch(
            [("corrupt", corrupt_fetch)]
            + self.sources_for(blob, names=("clean",), delay=0.003),
            len(blob),
            stripe_size=2048,
            digests=stripe_digests(blob, 2048),
        )
        assert data == blob
        assert "corrupt" in stats.failed_sources
        assert stats.requeued_stripes >= 1

    def test_all_sources_corrupt_raises(self):
        blob = fed_blob(size=1 << 12)
        wrong = bytes(len(blob))

        def liar(offset, length):
            return wrong[offset : offset + length]

        with pytest.raises((StripeVerificationError, GridFTPError)):
            striped_fetch(
                [("liar", liar)],
                len(blob),
                stripe_size=1024,
                stripe_timeout=2.0,
                digests=stripe_digests(blob, 1024),
            )

    def test_stalled_sources_raise_stripe_timeout(self):
        released = threading.Event()
        def hang(offset, length):
            released.wait(30)
            return b""

        try:
            with pytest.raises(StripeTimeout):
                striped_fetch([("stuck", hang)], 4096, stripe_size=1024, stripe_timeout=0.2)
        finally:
            released.set()

    def test_a_stall_times_out_with_the_fetchs_stats(self):
        blob, released = fed_blob(size=4096), threading.Event()

        def stuck(offset, length):
            released.wait(5)
            return blob[offset : offset + length]

        try:
            with pytest.raises(StripeTimeout, match="1/2 stripe workers.*3072/4096 bytes landed") as info:
                sources = [("stuck", stuck)] + self.sources_for(blob, names=("good",))
                striped_fetch(sources, len(blob), stripe_size=1024, stripe_timeout=0.2)
        finally:
            released.set()
        assert info.value.stats.stripes_by_source == {"good": 3}

    def test_a_fetch_from_three_sources_holds_one_copy(self):
        """2.00 payloads with a zero-filled buffer and a ``bytes`` copy."""
        blob = fed_blob(size=8 << 20)
        peak = traced_peak(striped_fetch, self.sources_for(blob), len(blob))
        assert peak / len(blob) <= 1.2

    def test_an_idle_puller_parks_on_the_queue_and_leaves_with_the_fetch(self, monkeypatch):
        """Regression: pullers polled ``work.get(timeout=0.02)`` until
        ``done`` — an idle one woke fifty times a second and outlived the
        fetch by up to 20 ms.  It blocks, and the end of the fetch wakes it."""
        import queue

        gets = []
        real_get = queue.Queue.get

        def spying_get(self, block=True, timeout=None):
            if threading.current_thread().name.startswith("fed-stripe-"):
                gets.append(timeout)
            return real_get(self, block, timeout)

        monkeypatch.setattr(queue.Queue, "get", spying_get)
        blob = fed_blob(size=1024)
        taken, finish = threading.Event(), threading.Event()

        def held(offset, length):
            taken.set()
            assert finish.wait(5)
            return blob[offset : offset + length]

        result = []
        fetcher = threading.Thread(
            target=lambda: result.append(
                striped_fetch([("a", held), ("b", held)], len(blob), stripe_size=1024)
            )
        )
        fetcher.start()
        try:
            assert taken.wait(5)
            time.sleep(0.1)  # one stripe, two pullers: the other has nothing to do
        finally:
            finish.set()
            fetcher.join(5)
        assert not fetcher.is_alive()  # joined both pullers, the idle one included
        assert result[0][0] == blob
        assert gets == [None, None]  # one blocking get each; the idle one never polled

    def test_end_to_end_over_replicas(self):
        network, services, replicas = memory_cluster(3, blob_size=1 << 14)
        try:
            blob = fed_blob(size=1 << 14)
            clients = []

            def make_fetch(replica):
                fed = FederatedClient(Balancer([replica]))
                clients.append(fed)

                def fetch(offset, length):
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
                sources, len(blob), stripe_size=2048,
                digests=stripe_digests(blob, 2048),
            )
            assert data == blob
            for fed in clients:
                fed.close()
        finally:
            for service in services:
                service.stop()


class TestNodeProcesses:
    """Satellite: ephemeral-port discovery is atomic — no sleep-polling."""

    def test_address_property_is_live_before_start(self):
        from repro.transport.sockets import TcpListener

        listener = TcpListener(host="127.0.0.1", port=0)
        service = SoapServeService(listener, fed_dispatcher(blob_size=1 << 12))
        try:
            host, port = service.address
            assert port != 0  # bound (and listening) before start()
        finally:
            service.start()
            service.stop()

    def test_spawned_cluster_addresses_work_immediately(self):
        nodes = spawn_nodes(2, blob_size=1 << 12)
        try:
            assert all(node.port != 0 for node in nodes)
            assert len({node.port for node in nodes}) == 2
            balancer = Balancer([node.replica() for node in nodes])
            fed = FederatedClient(balancer)
            try:
                for index in range(4):
                    response = fed.call(echo_envelope(index))
                    assert response.body_root.name.local == "EchoResponse"
            finally:
                fed.close()
            assert balancer.probe_all(timeout=3.0) == {
                "fed-node-0": "ready",
                "fed-node-1": "ready",
            }
        finally:
            for node in nodes:
                node.stop()
        assert all(not node.alive for node in nodes)

    def test_a_child_that_never_announces_is_reaped(self, tmp_path):
        """A child whose first line is not ``ADDR ...`` (and which would run
        on) is killed, waited for and its pipes closed: the autouse leak
        fixture counts child processes, zombies included."""
        stand_in = tmp_path / "node"
        stand_in.write_text("#!/bin/sh\necho not an address line\nexec sleep 30\n")
        stand_in.chmod(0o755)
        with pytest.raises(RuntimeError, match="got 'not an address line'") as raised:
            spawn_nodes(1, python=str(stand_in))
        process = raised.traceback[-1].frame.f_locals["process"]
        assert process.returncode is not None
        assert process.stdin.closed and process.stdout.closed
