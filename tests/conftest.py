"""Shared fixtures and helpers: the two I/O drivers behind one handle, the
two SOAP bindings behind another, and a thread and child-process leak check
on every test.

The serving contract (``tests/test_serving_contract.py``) runs every case
against both drivers; ``serving_core`` is the one place that knows how to
build, start and tear down either over a real ``TcpListener``.  The SOAP
host contract (``tests/test_soap_host_contract.py``) runs every case
against both bindings through ``soap_host``.
"""

import glob
import threading
import time
import tracemalloc

import pytest

from repro.transport import TcpListener, connect_tcp
from repro.transport.aio import AsyncHttpServer
from repro.transport.http import HttpClient, HttpResponse, HttpServer

DRIVERS = {"threaded": HttpServer, "aio": AsyncHttpServer}


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.005) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached before timeout")


def traced_peak(call, *args) -> int:
    """Bytes ``call(*args)`` held at its traced peak, above what was held."""
    tracemalloc.start()
    try:
        floor = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - floor
    finally:
        tracemalloc.stop()


def parse_prometheus(text: str) -> dict:
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, value = line.rsplit(" ", 1)
            samples[key] = float(value)
    return samples


def series_sum(samples: dict, name: str) -> float:
    return sum(v for k, v in samples.items() if k.split("{")[0] == name)


class PipelineApp:
    """A pipeline application whose exchange (and route) are plain functions."""

    def __init__(self, exchange, route=None):
        self._exchange = exchange
        self._route = route
        self.shed_calls = []  # (target, seconds) per request the pipeline shed

    def route(self, request):
        return self._route(request) if self._route is not None else None

    def exchange(self, request, state):
        return self._exchange(request, state)

    def shed(self, request, seconds):
        self.shed_calls.append((request.target, seconds))


def echo_handler(request):
    """The contract's default application: echo, or explode on ``/boom``."""
    if request.target == "/boom":
        raise RuntimeError("handler exploded")
    return HttpResponse(200, body=b"echo:" + request.body)


class ServingCore:
    """One started driver over real TCP, plus factories for more."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._servers = []
        self._clients = []
        self.server = self.serve(echo_handler)

    def serve(self, handler, **kwargs):
        """Start another driver of this core on its own listener.

        ``handler`` is anything the driver constructors take: a plain
        handler, an application object or a ``RequestPipeline``.
        """
        listener = TcpListener(backlog=64)
        server = DRIVERS[self.name](listener, handler, **kwargs)
        server.address = listener.address
        self._servers.append(server)
        return server.start()

    def client(self, server=None) -> HttpClient:
        host, port = (server or self.server).address
        client = HttpClient(lambda: connect_tcp(host, port))
        self._clients.append(client)
        return client

    def close(self) -> None:
        for client in self._clients:
            client.close()
        for server in self._servers:
            server.stop(drain_timeout=1.0)


@pytest.fixture(params=sorted(DRIVERS))
def serving_core(request):
    core = ServingCore(request.param)
    try:
        yield core
    finally:
        core.close()


# ---------------------------------------------------------------------------
# the two SOAP bindings behind one handle (tests/test_soap_host_contract.py)


class SoapHost:
    """SOAP hosts of one binding over a private ``MemoryNetwork``.

    ``serve`` starts a host; ``client`` is the binding's engine-backed
    client; ``post`` is one raw exchange on the binding's own framing, for
    payloads no client would produce.
    """

    def __init__(self, binding: str) -> None:
        from repro.transport import MemoryNetwork

        self.binding = binding  # the RED ``binding`` label
        self.serve_span = {"tcp": "soap.serve", "http": "http.serve"}[binding]
        self.net = MemoryNetwork()
        self.connects = 0  # connections opened through ``client``/``post``
        self._services = []
        self._clients = []

    def serve(self, dispatcher, address: str = "svc", **kwargs):
        from repro.core import SoapHttpService, SoapTcpService

        host = {"tcp": SoapTcpService, "http": SoapHttpService}[self.binding]
        service = host(self.net.listen(address), dispatcher, **kwargs)
        self._services.append(service)
        return service.start()

    def connect(self, address: str = "svc"):
        self.connects += 1
        return self.net.connect(address)

    def client(self, address: str = "svc", **kwargs):
        from repro.core import SoapHttpClient, SoapTcpClient

        client = {"tcp": SoapTcpClient, "http": SoapHttpClient}[self.binding](
            lambda: self.connect(address), **kwargs
        )
        self._clients.append(client)
        return client

    def post(self, payload: bytes, content_type: str, address: str = "svc") -> tuple[bytes, str]:
        """Send ``payload`` as one request; the reply's (payload, content type)."""
        from repro.transport import read_message, write_message

        if self.binding == "tcp":
            channel = self.connect(address)
            try:
                write_message(channel, payload, content_type)
                return read_message(channel)
            finally:
                channel.close()
        client = HttpClient(lambda: self.connect(address))
        try:
            response = client.post("/soap", payload, headers={"Content-Type": content_type})
            return response.body, response.headers.get("Content-Type")
        finally:
            client.close()

    def close(self) -> None:
        for client in self._clients:
            client.close()
        for service in self._services:
            service.stop()


@pytest.fixture(params=["tcp", "http"])
def soap_host(request):
    host = SoapHost(request.param)
    try:
        yield host
    finally:
        host.close()


# ---------------------------------------------------------------------------
# the thread and child-process halves of ROADMAP item 2.3: no thread and no
# child process outlives its test

def child_processes() -> dict[int, str]:
    """``{pid: command line}`` of this process's children, zombies included
    (an exited child nobody waited for is still one).  Linux's procfs lists
    them per thread; elsewhere there is nothing to read and nothing checked.
    """
    children = {}
    for listing in glob.glob("/proc/self/task/*/children"):
        try:
            with open(listing, encoding="ascii") as fh:
                pids = [int(pid) for pid in fh.read().split()]
        except OSError:
            continue  # that thread ended between the glob and the read
        for pid in pids:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    command = fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
            except OSError:
                continue  # reaped in between
            children[pid] = command or "<exited, never waited for>"
    return children


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Every thread and every child process a test started is gone shortly
    after its teardown."""
    threads_before = set(threading.enumerate())
    children_before = set(child_processes())

    def leaked():
        threads = [
            f"thread {thread.name}"
            for thread in threading.enumerate()
            if thread not in threads_before
        ]
        children = [
            f"child {pid}: {command}"
            for pid, command in child_processes().items()
            if pid not in children_before
        ]
        return sorted(threads) + children

    yield
    try:
        wait_until(lambda: not leaked(), timeout=2.0)
    except AssertionError:
        raise AssertionError(f"outlived the test: {leaked()}") from None
