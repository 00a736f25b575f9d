"""Tests for the serving runtime: worker pool, admission control, load
shedding with ``Retry-After`` cooperation, graceful drain, the load
generators, and the figure_load harness experiment.

The overload acceptance scenario lives in
:class:`TestServeServiceOverload`: a service with queue depth K offered
more than it can admit answers the excess with ``503`` + ``Retry-After``
(visible both as the raw header and as the parsed
:class:`~repro.transport.resilience.ServerBusy` hint), exports
``serve_queue_depth`` / ``serve_shed_total`` on ``GET /metrics``, and
never deadlocks.
"""

import threading
import time

import pytest

from repro.core import Dispatcher, SoapEnvelope, SoapHttpClient
from repro.core.policies import BXSAEncoding, XMLEncoding
from repro.loadgen import LoadResult, arrival_schedule, closed_loop, open_loop
from repro.loadgen.generator import LATENCY_BOUNDS
from repro.obs import MetricsRegistry, render_prometheus
from repro.obs.metrics import Histogram
from repro.serve import (
    AdmissionQueueFull,
    PoolStopped,
    ServeConfig,
    SoapServeService,
    WorkerPool,
)
from repro.transport import MemoryNetwork
from repro.transport.http import HttpClient
from repro.transport.resilience import (
    RetryBudgetExhausted,
    RetryPolicy,
    ServerBusy,
    parse_retry_after,
    retry_call,
)
from repro.xdm import element, leaf


def parse_prometheus(text: str) -> dict:
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        samples[key] = float(value)
    return samples


def series_sum(samples: dict, name: str) -> float:
    return sum(v for k, v in samples.items() if k.split("{")[0] == name)


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.005) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached before timeout")


# ----------------------------------------------------------------------
# WorkerPool


class TestWorkerPool:
    def test_submit_runs_task_with_worker_state(self):
        with WorkerPool(workers=2, queue_depth=4, worker_state_factory=dict) as pool:
            completion = pool.submit(lambda state: (type(state), 41 + 1))
            kind, value = completion.result(5)
        assert kind is dict
        assert value == 42

    def test_after_task_waits_until_the_worker_holds_nothing_of_the_task(self):
        """What a completion callback defers runs once the worker has let go
        of the task, its closure and its result: a hand-off that wakes
        another thread from inside the callback (a call that releases the
        GIL) kept the last exchange's payload alive while the woken thread
        landed the next one."""
        import weakref

        from repro.serve.pool import after_task

        class Payload:
            pass

        seen = []
        handed = threading.Event()

        def hand_off(completion):
            payload = weakref.ref(completion.result())
            after_task(lambda: (seen.append(payload() is None), handed.set()))

        go = threading.Event()
        with WorkerPool(workers=1, queue_depth=2) as pool:
            kept = Payload()
            completion = pool.submit(lambda _state: go.wait(5) and Payload())
            completion.add_done_callback(hand_off)  # before the task can finish
            del completion
            go.set()
            assert handed.wait(5)
            # off a pool worker it runs at once
            after_task(lambda: seen.append(kept is not None))
        assert seen == [True, True]

    def test_worker_state_is_reused_across_tasks(self):
        def factory():
            return {"count": 0}

        def bump(state):
            state["count"] += 1
            return state["count"]

        with WorkerPool(workers=1, queue_depth=8, worker_state_factory=factory) as pool:
            counts = [pool.submit(bump).result(5) for _ in range(5)]
        assert counts == [1, 2, 3, 4, 5]

    def test_task_error_propagates_to_the_waiter(self):
        with WorkerPool(workers=1, queue_depth=2) as pool:
            completion = pool.submit(lambda _s: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                completion.result(5)
            # and the worker survived to run the next task
            assert pool.submit(lambda _s: "alive").result(5) == "alive"

    def test_full_queue_sheds_with_retry_after_hint(self):
        release = threading.Event()
        started = threading.Event()
        metrics = MetricsRegistry()
        pool = WorkerPool(
            workers=1, queue_depth=2, metrics=metrics, retry_after=0.25
        ).start()
        try:
            def block(_state):
                started.set()
                release.wait(10)
                return "done"

            first = pool.submit(block)
            assert started.wait(5)
            queued = [pool.submit(lambda _s: "queued") for _ in range(2)]
            with pytest.raises(AdmissionQueueFull) as excinfo:
                pool.submit(lambda _s: "overflow")
            assert excinfo.value.retry_after == 0.25
            assert metrics.counter("serve_shed_total").snapshot() == 1
            assert metrics.gauge("serve_queue_depth").snapshot() == 2
            release.set()
            assert first.result(5) == "done"
            assert [c.result(5) for c in queued] == ["queued", "queued"]
        finally:
            release.set()
            pool.stop(1)
        # the shed task never reached the completed counters
        assert metrics.counter("serve_shed_total").snapshot() == 1

    def test_submit_after_stop_raises_pool_stopped(self):
        pool = WorkerPool(workers=1, queue_depth=1).start()
        pool.stop(1)
        with pytest.raises(PoolStopped):
            pool.submit(lambda _s: None)

    def test_stop_drains_admitted_work(self):
        metrics = MetricsRegistry()
        pool = WorkerPool(workers=2, queue_depth=16, metrics=metrics).start()
        completions = [
            pool.submit(lambda _s, i=i: (time.sleep(0.01), i)[1]) for i in range(10)
        ]
        pool.stop(drain_timeout=10)
        assert [c.result(0.1) for c in completions] == list(range(10))
        samples = parse_prometheus(render_prometheus(metrics))
        assert samples['serve_completed_total{status="ok"}'] == 10

    def test_stop_abandons_past_the_drain_budget(self):
        release = threading.Event()
        started = threading.Event()
        pool = WorkerPool(workers=1, queue_depth=2).start()
        try:
            def block(_state):
                started.set()
                release.wait(30)
                return "eventually"

            running = pool.submit(block)
            assert started.wait(5)
            queued = pool.submit(lambda _s: "never runs")
            began = time.monotonic()
            pool.stop(drain_timeout=0.2)
            assert time.monotonic() - began < 5  # bounded, not a hang
            with pytest.raises(PoolStopped):
                queued.result(0.1)
            assert not running.done()
        finally:
            release.set()

    def test_stop_drains_a_full_admission_queue(self):
        release = threading.Event()
        started = threading.Event()
        pool = WorkerPool(workers=1, queue_depth=3).start()

        def block(_state):
            started.set()
            release.wait(10)
            return "first"

        first = pool.submit(block)
        assert started.wait(5)
        queued = [pool.submit(lambda _s, i=i: i) for i in range(3)]
        releaser = threading.Timer(0.1, release.set)
        releaser.start()
        try:
            pool.stop(drain_timeout=10)  # stops with the queue at its depth
        finally:
            release.set()
            releaser.join()
        assert first.result(0.1) == "first"
        assert [c.result(0.1) for c in queued] == [0, 1, 2]

    def test_an_idle_worker_parks_on_the_queue_and_stop_wakes_it(self, monkeypatch):
        """Regression: workers polled ``get(timeout=0.05)`` — an idle one
        woke twenty times a second, and stopping an idle pool waited for
        the next poll.  Every get blocks; ``stop`` wakes each worker."""
        import queue

        gets = []
        real_get = queue.Queue.get

        def spying_get(self, block=True, timeout=None):
            if threading.current_thread().name.startswith("parked-worker-"):
                gets.append(timeout)
            return real_get(self, block, timeout)

        monkeypatch.setattr(queue.Queue, "get", spying_get)
        pool = WorkerPool(workers=2, queue_depth=2, name="parked").start()
        assert pool.submit(lambda _s: "ran").result(5) == "ran"
        time.sleep(0.2)  # four polls of the old loop
        threads = list(pool._threads)
        pool.stop(5)
        assert not any(thread.is_alive() for thread in threads)
        assert gets and set(gets) == {None}

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)
        with pytest.raises(ValueError):
            WorkerPool(queue_depth=0)


# ----------------------------------------------------------------------
# Retry-After cooperation (server hint -> client pacing)


class TestRetryAfterCooperation:
    def test_parse_retry_after_seconds_form(self):
        assert parse_retry_after("3") == 3.0
        assert parse_retry_after(" 0.5 ") == 0.5
        assert parse_retry_after("0") == 0.0
        assert parse_retry_after(None) is None
        assert parse_retry_after("-2") is None
        assert parse_retry_after("Wed, 21 Oct 2015 07:28:00 GMT") is None

    def test_hinted_delay_wins_over_exponential_backoff(self):
        """A 503's Retry-After replaces the policy's computed backoff."""
        sleeps: list[float] = []
        attempts = {"n": 0}

        def flaky(_attempt):
            attempts["n"] += 1
            if attempts["n"] <= 2:
                raise ServerBusy("overloaded", retry_after=0.7)
            return "ok"

        # base backoff far from the hint in both directions: tiny base
        # would sleep ~1ms, the hint forces exactly 0.7s
        policy = RetryPolicy(max_attempts=3, base_backoff=0.001, jitter=0.0)
        result = retry_call(flaky, policy, sleep=sleeps.append)
        assert result == "ok"
        assert sleeps == [0.7, 0.7]

        # and without a hint the exponential schedule is untouched
        sleeps.clear()
        attempts["n"] = 0

        def flaky_no_hint(_attempt):
            attempts["n"] += 1
            if attempts["n"] <= 2:
                raise ServerBusy("overloaded")
            return "ok"

        retry_call(flaky_no_hint, policy, sleep=sleeps.append)
        assert sleeps == [0.001, 0.002]

    def test_hint_still_respects_the_retry_budget(self):
        def always_busy(_attempt):
            raise ServerBusy("overloaded", retry_after=0.0)

        policy = RetryPolicy(max_attempts=2, base_backoff=0.0, jitter=0.0)
        with pytest.raises(RetryBudgetExhausted):
            retry_call(always_busy, policy, sleep=lambda _s: None)


# ----------------------------------------------------------------------
# SoapServeService end to end


def make_dispatcher(started: threading.Event, release: threading.Event) -> Dispatcher:
    d = Dispatcher()

    @d.operation("Echo")
    def echo(request: SoapEnvelope):
        return element("EchoResponse", *request.body_root.children)

    @d.operation("Block")
    def block(request: SoapEnvelope):
        started.set()
        release.wait(30)
        return element("BlockResponse")

    return d


def echo_envelope(n: int = 7) -> SoapEnvelope:
    return SoapEnvelope.wrap(element("Echo", leaf("n", n, "int")))


class TestServeServiceOverload:
    def setup_method(self):
        self.net = MemoryNetwork()
        self.started = threading.Event()
        self.release = threading.Event()
        self.service = SoapServeService(
            self.net.listen("serve"),
            make_dispatcher(self.started, self.release),
            config=ServeConfig(
                workers=1, queue_depth=1, retry_after=0.35, drain_timeout=5.0
            ),
        ).start()

    def teardown_method(self):
        self.release.set()
        self.service.stop()

    def call_in_background(self, envelope: SoapEnvelope, encoding=None):
        client = SoapHttpClient(
            lambda: self.net.connect("serve"),
            encoding=encoding if encoding is not None else XMLEncoding(),
        )
        box = {}

        def runner():
            try:
                box["result"] = client.call(envelope)
            except Exception as exc:  # noqa: BLE001 - surfaced via box
                box["error"] = exc
            finally:
                client.close()

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        return thread, box

    def test_echo_in_both_encodings(self):
        for encoding in (XMLEncoding(), BXSAEncoding()):
            client = SoapHttpClient(
                lambda: self.net.connect("serve"), encoding=encoding
            )
            try:
                response = client.call(echo_envelope(11))
            finally:
                client.close()
            assert response.body_root.name.local == "EchoResponse"

    def test_offered_past_queue_depth_sheds_503_with_retry_after(self):
        # occupy the single worker, then fill the depth-1 queue
        blocker_thread, blocker_box = self.call_in_background(
            SoapEnvelope.wrap(element("Block"))
        )
        assert self.started.wait(5)
        queued_thread, queued_box = self.call_in_background(echo_envelope(1))
        wait_until(lambda: self.service.pool.metrics.gauge("serve_queue_depth").snapshot() == 1)

        # raw HTTP view: the overflow POST answers 503 + Retry-After
        raw = HttpClient(lambda: self.net.connect("serve"))
        try:
            body = XMLEncoding().encode(echo_envelope(2).to_document())
            response = raw.post(
                "/soap", body, headers={"Content-Type": XMLEncoding().content_type}
            )
            assert response.status == 503
            assert response.headers.get("Retry-After") == "0.35"

            # engine view: the same condition surfaces as ServerBusy
            # carrying the parsed hint
            client = SoapHttpClient(
                lambda: self.net.connect("serve"), encoding=XMLEncoding()
            )
            try:
                with pytest.raises(ServerBusy) as excinfo:
                    client.call(echo_envelope(3))
            finally:
                client.close()
            assert excinfo.value.retry_after == 0.35

            # saturation telemetry on the same port
            samples = parse_prometheus(str(raw.get("/metrics").body, "utf-8"))
            assert samples["serve_queue_depth"] == 1
            assert samples["serve_shed_total"] == 2
            assert samples["serve_workers_busy"] == 1
            assert samples["serve_saturation"] == 1
            assert samples["serve_queue_capacity"] == 1
        finally:
            raw.close()

        # release: both admitted requests complete, nothing deadlocks
        self.release.set()
        blocker_thread.join(5)
        queued_thread.join(5)
        assert "error" not in blocker_box and "error" not in queued_box
        assert blocker_box["result"].body_root.name.local == "BlockResponse"
        assert queued_box["result"].body_root.name.local == "EchoResponse"

    def test_shed_requests_are_red_counted(self):
        blocker_thread, _ = self.call_in_background(SoapEnvelope.wrap(element("Block")))
        assert self.started.wait(5)
        _, queued_box = self.call_in_background(echo_envelope(1))
        wait_until(
            lambda: self.service.pool.metrics.gauge("serve_queue_depth").snapshot() == 1
        )
        client = SoapHttpClient(lambda: self.net.connect("serve"), encoding=XMLEncoding())
        try:
            with pytest.raises(ServerBusy):
                client.call(echo_envelope(2))
        finally:
            client.close()
        self.release.set()
        blocker_thread.join(5)
        samples = parse_prometheus(render_prometheus(self.service.metrics))
        shed_series = {
            k: v
            for k, v in samples.items()
            if k.startswith("soap_requests_total") and 'status="shed"' in k
        }
        assert sum(shed_series.values()) == 1

    def test_resilient_client_retries_a_shed_exchange(self):
        """503 -> ServerBusy -> engine retry paced by the server's hint."""
        from repro.transport.resilience import ResiliencePolicy

        blocker_thread, _ = self.call_in_background(SoapEnvelope.wrap(element("Block")))
        assert self.started.wait(5)
        _, queued_box = self.call_in_background(echo_envelope(1))
        wait_until(
            lambda: self.service.pool.metrics.gauge("serve_queue_depth").snapshot() == 1
        )

        unblock = threading.Timer(0.15, self.release.set)
        unblock.start()
        client = SoapHttpClient(
            lambda: self.net.connect("serve"),
            encoding=XMLEncoding(),
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=8, base_backoff=0.05, jitter=0.0)
            ),
        )
        try:
            response = client.call(echo_envelope(4))
        finally:
            client.close()
            unblock.cancel()
        assert response.body_root.name.local == "EchoResponse"
        blocker_thread.join(5)

    def test_stop_under_load_is_bounded(self):
        threads = [self.call_in_background(echo_envelope(i))[0] for i in range(8)]
        began = time.monotonic()
        self.service.stop()
        assert time.monotonic() - began < self.service.config.drain_timeout + 3
        for thread in threads:
            thread.join(5)
            assert not thread.is_alive()


# ----------------------------------------------------------------------
# Load generators


class TestLoadgen:
    @staticmethod
    def classified_factory():
        """index % 5 == 4 -> shed; % 7 == 6 -> failed; else completed."""

        def factory():
            def call(index):
                if index % 5 == 4:
                    raise ServerBusy("busy", retry_after=0.01)
                if index % 7 == 6:
                    raise RuntimeError("boom")

            return call

        return factory

    def expected_counts(self, total):
        shed = sum(1 for i in range(total) if i % 5 == 4)
        failed = sum(1 for i in range(total) if i % 7 == 6 and i % 5 != 4)
        return total - shed - failed, shed, failed

    def test_open_loop_accounting_and_classification(self):
        total = 70
        result = open_loop(
            self.classified_factory(), rate=10_000, total=total, seed=1, senders=8
        )
        completed, shed, failed = self.expected_counts(total)
        assert (result.offered, result.completed, result.shed, result.failed) == (
            total,
            completed,
            shed,
            failed,
        )
        assert result.latency.count == completed
        assert result.goodput > 0
        assert 0 < result.shed_rate < 1

    def test_closed_loop_accounting(self):
        result = closed_loop(
            self.classified_factory(), clients=5, requests_per_client=14, seed=2
        )
        completed, shed, failed = self.expected_counts(70)
        assert (result.offered, result.completed, result.shed, result.failed) == (
            70,
            completed,
            shed,
            failed,
        )

    def test_arrival_schedule_is_deterministic_and_paced(self):
        a = arrival_schedule(200.0, 50, seed=9, jitter=0.3)
        b = arrival_schedule(200.0, 50, seed=9, jitter=0.3)
        assert a == b
        assert a != arrival_schedule(200.0, 50, seed=10, jitter=0.3)
        plain = arrival_schedule(200.0, 50)
        assert plain == [pytest.approx(i / 200.0) for i in range(50)]
        assert all(offset >= 0 for offset in a)

    def test_loadgen_metrics_registry_records_outcomes(self):
        metrics = MetricsRegistry()
        open_loop(
            self.classified_factory(),
            rate=10_000,
            total=35,
            seed=1,
            senders=4,
            metrics=metrics,
        )
        samples = parse_prometheus(render_prometheus(metrics))
        completed, shed, failed = self.expected_counts(35)
        assert samples['loadgen_requests_total{mode="open",outcome="completed"}'] == completed
        assert samples['loadgen_requests_total{mode="open",outcome="shed"}'] == shed
        assert samples['loadgen_requests_total{mode="open",outcome="failed"}'] == failed
        assert series_sum(samples, "loadgen_request_seconds_count") == completed

    def test_senders_release_their_connections(self):
        closed = []

        def factory():
            def call(_index):
                return None

            call.close = lambda: closed.append(1)
            return call

        open_loop(factory, rate=10_000, total=12, seed=0, senders=3)
        assert len(closed) == 3
        closed.clear()
        closed_loop(factory, clients=4, requests_per_client=2)
        assert len(closed) == 4

    def test_load_result_rejects_broken_accounting(self):
        with pytest.raises(ValueError):
            LoadResult("open", 10, 5, 2, 1, 1.0, Histogram("x", bounds=LATENCY_BOUNDS))

    def test_parameter_validation(self):
        factory = self.classified_factory()
        with pytest.raises(ValueError):
            open_loop(factory, rate=0, total=1)
        with pytest.raises(ValueError):
            open_loop(factory, rate=1, total=0)
        with pytest.raises(ValueError):
            closed_loop(factory, clients=0, requests_per_client=1)
        with pytest.raises(ValueError):
            closed_loop(factory, clients=1, requests_per_client=0)


# ----------------------------------------------------------------------
# figure_load harness


class TestFigureLoad:
    def test_smoke_sweep_accounts_and_writes_json(self, tmp_path):
        import json

        from repro.harness import figure_load

        out = tmp_path / "load.json"
        result = figure_load.run(
            workers=2,
            queue_depth=2,
            rates=(400.0, 8000.0),
            requests_per_point=24,
            model_size=10,
            seed=5,
            senders=12,
            json_out=str(out),
        )
        assert result.experiment_id == "Figure L"
        # accounting and clean-overload checks must hold at any scale
        by_name = {check.description: check for check in result.checks}
        assert by_name[
            "accounting exact at every point (offered = completed + shed + failed)"
        ].passed
        document = json.loads(out.read_text())
        assert document["seed"] == 5
        assert document["rates_rps"] == [400.0, 8000.0]
        assert set(document["schemes"]) == {"bxsa/http", "xml/http"}
        for points in document["schemes"].values():
            assert len(points) == 2
            for point in points:
                assert (
                    point["offered"]
                    == point["completed"] + point["shed"] + point["failed"]
                    == 24
                )
                assert point["goodput_rps"] > 0

    def test_sweep_is_offered_deterministically(self):
        """Same seed -> same offered schedule (arrival offsets per rung)."""
        assert arrival_schedule(1000.0, 16, seed=5 * 1000 + 0) == arrival_schedule(
            1000.0, 16, seed=5 * 1000 + 0
        )

    def test_connection_ladder_smoke_both_cores(self, tmp_path):
        """A tiny ladder runs both serving cores over real TCP with exact
        accounting, every connection established, and its JSON written."""
        import json

        from repro.harness import figure_load

        out = tmp_path / "ladder.json"
        result = figure_load.run_ladder(
            workers=2,
            queue_depth=32,
            rungs=(8, 24),
            threaded_probe=(4,),
            requests_per_connection=2,
            model_size=5,
            seed=3,
            json_out=str(out),
        )
        assert result.experiment_id == "Figure L (ladder)"
        by_name = {check.description: check for check in result.checks}
        assert by_name[
            "accounting exact at every rung (offered = completed + shed + failed)"
        ].passed
        assert by_name[
            "every connection establishes at every rung (no accept drops)"
        ].passed
        assert by_name[
            "overload is answered cleanly at every rung (failed == 0)"
        ].passed
        document = json.loads(out.read_text())
        assert [p["connections"] for p in document["aio"]] == [8, 24]
        assert document["threaded"][0]["connections"] == 4
        for point in document["threaded"] + document["aio"]:
            assert point["established"] == point["connections"]
            assert point["offered"] == point["completed"] + point["shed"] + point["failed"]


class TestWorkerPoolLifecycle:
    def test_pool_cannot_be_restarted_after_stop(self):
        """Regression: start() after stop() used to silently mix pre- and
        post-drain state (dead workers, an abandoned queue)."""
        pool = WorkerPool(workers=1, queue_depth=2)
        pool.start()
        assert pool.submit(lambda _state: 7).result(timeout=5.0) == 7
        pool.stop()
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            pool.start()

    def test_stop_before_start_is_a_noop_but_poisons_restart(self):
        pool = WorkerPool(workers=1, queue_depth=2)
        pool.stop()  # never started: nothing to drain, no error
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            pool.start()

    def test_completion_callback_runs_exactly_once(self):
        """add_done_callback fires once whether registered before or
        after the task finishes — the aio loop depends on this."""
        calls: list[object] = []
        with WorkerPool(workers=1, queue_depth=4) as pool:
            completion = pool.submit(lambda _state: "done")
            completion.result(timeout=5.0)
            completion.add_done_callback(calls.append)  # after completion
            assert len(calls) == 1 and calls[0] is completion

            gate = threading.Event()
            slow = pool.submit(lambda _state: gate.wait(5))
            slow.add_done_callback(calls.append)  # before completion
            gate.set()
            slow.result(timeout=5.0)
            wait_until(lambda: len(calls) == 2)

    def test_callback_exception_does_not_kill_the_worker(self):
        def bad_callback(_completion):
            raise RuntimeError("callback exploded")

        with WorkerPool(workers=1, queue_depth=4) as pool:
            completion = pool.submit(lambda _state: 1)
            completion.add_done_callback(bad_callback)
            completion.result(timeout=5.0)
            # the worker survived: it can still run tasks
            assert pool.submit(lambda _state: 2).result(timeout=5.0) == 2
