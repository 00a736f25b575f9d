"""The threaded connection host: accept, a thread per connection, drain.

Every server here that parks a thread in ``accept()`` is this class: the
HTTP driver owns one; the SOAP/TCP host, the intermediary, the notification
sink and the GridFTP control channel derive from it.  It owns the accept
thread, one thread per connection, the cap, which connections are idle, and
the stop rule.  A host supplies ``serve_connection(channel)`` — its framing
and what a message means: called on the connection's thread with the
channel wrapped in a :class:`~repro.transport.base.BufferedChannel`, it
reads each message through :meth:`ConnectionHost.receive` (how the host
knows the connection is parked between messages) and returns when the
connection is done; the host closes the channel.

**The stop rule** (DESIGN.md §10): shut the listener, which wakes the
accept thread at once; close idle connections immediately; let a message
already being handled finish and be written, within the drain budget;
force-close what lingers and join every thread.  ``tools/lint.py`` keeps
this the only accept loop (``accept_loop_findings``).
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.transport.base import (
    BufferedChannel,
    Listener,
    TransportClosed,
    TransportError,
    prime_allocator,
)


def close_quietly(channels) -> None:
    """Close every channel; a peer already torn down is a finished close."""
    for channel in channels:
        try:
            channel.close()
        except TransportError:
            pass


class OneShot:
    """``start()`` and ``with`` for a server that serves once: ``stop()``
    closes the listener, so a restart would serve a dead socket on stale
    bookkeeping — starting after a stop raises instead of limping.  A
    subclass provides ``_launch()`` (start the serving thread) and a
    ``stop()`` that clears ``_running`` and sets ``_stopped``."""

    _running = False
    _stopped = False

    def start(self):
        """Start serving in a daemon thread; returns self."""
        if self._running:
            raise RuntimeError("server already running")
        if self._stopped:
            raise RuntimeError(
                "server cannot be restarted: stop() closed its listener; "
                f"create a new {type(self).__name__} on a fresh listener instead"
            )
        self._running = True
        # process-wide, once, before _launch spawns a thread: one malloc
        # arena, and no heap trim after every bulk message (see
        # prime_allocator for what it costs)
        prime_allocator()
        self._launch()
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class ConnectionHost(OneShot):
    """Serve every connection accepted from ``listener`` on its own thread.

    ``name`` is the accept thread's; connection threads are ``<name>-conn``.
    ``drain_timeout`` is the default budget ``stop()`` gives messages in
    flight.  ``max_connections`` caps concurrent connection threads
    (``None``: no cap); ``refuse(channel)`` is called on the accept thread
    for a connection that will not be served (past the cap, or its thread
    could not be spawned) before the host closes it — the place to write a
    refusal the peer can act on.
    """

    def __init__(
        self,
        listener: Listener,
        serve_connection: Callable[[BufferedChannel], None],
        *,
        name: str,
        drain_timeout: float = 5.0,
        max_connections: int | None = None,
        refuse: Callable[[BufferedChannel], None] | None = None,
    ) -> None:
        self._listener = listener
        self._serve = serve_connection
        self._name = name
        self._drain_timeout = drain_timeout
        self._max_connections = max_connections
        self._refuse = refuse
        self._accept_thread: threading.Thread | None = None
        # connection bookkeeping: threads are joined on stop(); channels
        # parked between messages (``_idle``) are closed as the drain
        # begins, the rest force-closed if the drain timeout expires first
        self._conn_lock = threading.Lock()
        self._conn_threads: list[threading.Thread] = []
        self._conn_channels: set[BufferedChannel] = set()
        self._idle: set[BufferedChannel] = set()

    # ------------------------------------------------------------------
    # lifecycle

    def _launch(self) -> None:
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=self._name, daemon=True
        )
        self._accept_thread.start()

    def stop(self, drain_timeout: float | None = None) -> None:
        """Stop accepting, drain connections, join their threads.

        ``drain_timeout`` overrides the constructor's drain budget for
        this stop — embedders (and tests) shutting down under load can
        bound how long they will wait for messages in flight before the
        lingering channels are force-closed.
        """
        self._running = False
        self._stopped = True
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        budget = drain_timeout if drain_timeout is not None else self._drain_timeout
        deadline = time.monotonic() + budget
        with self._conn_lock:
            threads = list(self._conn_threads)
            idle = list(self._idle)
        # idle connections owe nothing: closing them fails their parked
        # reads now, so the drain budget is spent only on messages in flight
        close_quietly(idle)
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        # past the drain budget: force-close what is still open so blocked
        # reads fail and their threads exit (daemonic either way, but a
        # clean join keeps tests and embedders deterministic)
        with self._conn_lock:
            lingering = list(self._conn_channels)
        close_quietly(lingering)
        # closed channels fail the blocked reads almost immediately, so a
        # single shared budget suffices — never a per-thread wait, which
        # would make stop() O(connections) under load
        final_deadline = time.monotonic() + 1.0
        for thread in threads:
            if thread.is_alive():
                thread.join(timeout=max(0.0, final_deadline - time.monotonic()))

    # ------------------------------------------------------------------
    # what serve_connection calls

    def receive(self, channel: BufferedChannel, read: Callable):
        """``read(channel)`` — the next message — with the connection idle.

        A connection parked here owes nothing, so ``stop()`` closes it at
        once (the read fails with a :class:`TransportError`, which every
        framing takes as "the peer is done"); past this point it is in
        flight and drains.  Once the host is stopping nothing parks: this
        raises :class:`TransportClosed` instead of starting the read.
        """
        with self._conn_lock:
            if not self._running:
                raise TransportClosed(f"{self._name} is draining")
            self._idle.add(channel)
        try:
            return read(channel)
        finally:
            with self._conn_lock:
                self._idle.discard(channel)

    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                channel = BufferedChannel(self._listener.accept())
            except TransportError:
                return  # listener closed
            with self._conn_lock:
                # prune finished threads so a long-lived host's list does
                # not grow with every connection it ever served
                self._conn_threads = [t for t in self._conn_threads if t.is_alive()]
                at_cap = (
                    self._max_connections is not None
                    and len(self._conn_channels) >= self._max_connections
                )
                if not at_cap:
                    thread = threading.Thread(
                        target=self._run_connection,
                        args=(channel,),
                        name=f"{self._name}-conn",
                        daemon=True,
                    )
                    self._conn_threads.append(thread)
                    self._conn_channels.add(channel)
            if not at_cap:
                try:
                    thread.start()
                    continue
                except Exception:  # noqa: BLE001 - thread spawn can fail under
                    # resource pressure; the channel must not keep its slot
                    with self._conn_lock:
                        self._conn_channels.discard(channel)
                        self._conn_threads.remove(thread)
            # refused from the accept thread itself: no thread is spawned
            # for a connection that will not be served
            try:
                if self._refuse is not None:
                    self._refuse(channel)
            finally:
                close_quietly([channel])

    def _run_connection(self, channel: BufferedChannel) -> None:
        try:
            self._serve(channel)
        finally:
            with self._conn_lock:
                self._conn_channels.discard(channel)
            close_quietly([channel])
