"""Shared fixtures and helpers: the two I/O drivers behind one handle.

The serving contract (``tests/test_serving_contract.py``) runs every case
against both drivers; ``serving_core`` is the one place that knows how to
build, start and tear down either over a real ``TcpListener``.
"""

import time

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
