"""Bounded worker pool with an explicit admission queue.

The serving runtime's execution discipline lives here, and *only* here:
this module is the one place in :mod:`repro.serve` allowed to spawn
threads (``tools/lint.py`` enforces that), so every unit of server work
flows through one bounded queue and one fixed set of workers.

Semantics:

* **Admission** — :meth:`WorkerPool.submit` enqueues a task or raises
  :class:`AdmissionQueueFull` *immediately* when ``queue_depth`` tasks are
  already waiting.  Shedding is a constant-time decision at the door; a
  saturated server answers "come back later" in microseconds instead of
  accepting work it cannot finish.
* **Execution** — ``workers`` threads drain the queue.  Each worker owns a
  private state object built by ``worker_state_factory`` and passes it to
  every task it runs — this is where warm per-worker
  :class:`~repro.bxsa.session.CodecSession`-backed encodings live, so
  compiled encode/decode plans and interned name tables persist across
  the requests one worker serves without any cross-thread sharing.  A
  worker lets go of a finished task and its result before it reports
  itself idle: ``busy_workers == 0`` means the pool references nothing of
  the work it has done.
* **Drain** — :meth:`stop` rejects new submissions, lets the workers
  finish everything already admitted within ``drain_timeout`` seconds,
  then abandons what remains (waiters get :class:`PoolStopped`, never a
  hang).

Metrics (into the pool's :class:`~repro.obs.MetricsRegistry`, which the
serving runtime shares with its HTTP server so ``GET /metrics`` exports
them): ``serve_queue_depth`` / ``serve_workers_busy`` /
``serve_saturation`` gauges, ``serve_admitted_total`` /
``serve_shed_total`` / ``serve_completed_total{status}`` counters, and
``serve_queue_wait_seconds`` / ``serve_handle_seconds`` histograms.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.transport.base import prime_allocator


#: Per pool worker thread: the calls :func:`after_task` deferred until the
#: worker has let go of its current task (no attribute on other threads).
_worker_local = threading.local()


def after_task(fn: Callable[[], object]) -> None:
    """Run ``fn`` once this pool worker has let go of its finished task and
    its result; at once on any other thread.

    For a completion callback that hands the result to another thread and
    then makes a call that releases the GIL (the selector driver's wake-up
    send): the woken thread can answer, read the next request and land it
    before this worker gets the GIL back, while this worker's frames — the
    callback chain, the task's closure, the completion — still hold the
    last exchange's request and reply."""
    pending = getattr(_worker_local, "pending", None)
    if pending is None:
        fn()
    else:
        pending.append(fn)


class ServeError(Exception):
    """Base class for serving-runtime failures."""


class AdmissionQueueFull(ServeError):
    """The admission queue is at its configured depth; the task was shed.

    ``retry_after`` is the backoff hint (seconds) the caller should
    propagate to the client (the ``Retry-After`` header on a 503).
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class PoolStopped(ServeError):
    """The pool is stopping/stopped and cannot take or finish the task."""


class _Completion:
    """One submitted task's future result (event + slot, no cancellation)."""

    __slots__ = ("_event", "_result", "_error", "_cb_lock", "_callbacks")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result = None
        self._error: BaseException | None = None
        self._cb_lock = threading.Lock()
        self._callbacks: list = []

    def _finish(self, result=None, error: BaseException | None = None) -> None:
        self._result = result
        self._error = error
        self._event.set()
        with self._cb_lock:
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            try:
                fn(self)
            except Exception:  # noqa: BLE001 - a callback must not kill a worker
                pass

    def add_done_callback(self, fn) -> None:
        """Run ``fn(completion)`` when the task finishes (exactly once).

        Registered after completion, the callback runs immediately on the
        registering thread; otherwise it runs on the worker that finished
        the task.  This is what lets the event-driven server hand work to
        the pool without ever blocking its I/O loop on ``result()``.
        """
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """Block for the task's outcome; re-raises what the task raised.

        A ``timeout`` expiring raises :class:`PoolStopped` — by
        construction the pool either runs every admitted task or fails its
        completion during drain, so an expired wait means the caller's
        budget was smaller than the task, not that the result will never
        come.
        """
        if not self._event.wait(timeout):
            raise PoolStopped("timed out waiting for a pooled task's result")
        if self._error is not None:
            raise self._error
        return self._result


class _Item:
    __slots__ = ("task", "completion", "enqueued_at")

    def __init__(self, task, completion: _Completion, enqueued_at: float) -> None:
        self.task = task
        self.completion = completion
        self.enqueued_at = enqueued_at


class WorkerPool:
    """Fixed worker threads behind a bounded admission queue."""

    def __init__(
        self,
        workers: int = 4,
        queue_depth: int = 16,
        *,
        metrics: MetricsRegistry | None = None,
        name: str = "serve",
        worker_state_factory: Callable[[], object] | None = None,
        retry_after: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.workers = workers
        self.queue_depth = queue_depth
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._name = name
        self._state_factory = worker_state_factory
        self._retry_after = retry_after
        #: Admitted items, then one ``None`` per worker to wake it at stop.
        self._queue: queue.Queue[_Item | None] = queue.Queue(maxsize=queue_depth)
        self._threads: list[threading.Thread] = []
        self._running = False
        self._stopping = False
        self._stopped = False
        self._abandoned = False
        self._busy_lock = threading.Lock()
        self._busy = 0
        # bound once: every task touches these, and a registry lookup per
        # touch cost more than the update (a refusal's counters, which
        # /metrics shows only once one happened, are looked up then)
        m = self.metrics
        self._depth_gauge = m.gauge("serve_queue_depth")
        self._busy_gauge = m.gauge("serve_workers_busy")
        self._saturation_gauge = m.gauge("serve_saturation")
        self._admitted = m.counter("serve_admitted_total")
        self._completed = m.counter_family("serve_completed_total", ("status",))
        self._queue_wait = m.histogram("serve_queue_wait_seconds")
        self._handle_seconds = m.histogram("serve_handle_seconds")

    # ------------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn the workers; returns self.

        Like the HTTP servers, a pool is one-shot: a drain may have
        abandoned queued tasks and failed their completions, so a
        restarted pool would silently mix pre- and post-stop state.
        Starting after ``stop()`` raises instead.
        """
        if self._running:
            raise RuntimeError("pool already running")
        if self._stopped:
            raise RuntimeError(
                "pool cannot be restarted after stop(); create a new WorkerPool"
            )
        self._running = True
        self._stopping = False
        self._abandoned = False
        # before the first worker exists: a thread keeps the malloc arena
        # it first allocated from, whatever the policy says afterwards
        prime_allocator()
        self.metrics.gauge("serve_workers").set(self.workers)
        self.metrics.gauge("serve_queue_capacity").set(self.queue_depth)
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"{self._name}-worker-{i}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        return self

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Reject new work, drain admitted work, then abandon the rest.

        Within ``drain_timeout`` seconds the workers finish the queue and
        exit; past it the remaining queued tasks have their completions
        failed with :class:`PoolStopped` so no waiter hangs.
        """
        if not self._running:
            self._stopped = True  # a stopped-before-start pool is spent too
            return
        self._stopping = True
        self._stopped = True
        deadline = time.monotonic() + drain_timeout
        # nothing is admitted now: unbounded, every wake-up fits behind the
        # admitted work, and a worker takes one when that work is done
        self._queue.maxsize = 0
        self._wake_workers()
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        # a submit that raced the stop may have slipped an item in after
        # the workers exited — fail it rather than strand its waiter
        self._fail_queued()
        if any(thread.is_alive() for thread in self._threads):
            # drain budget exhausted: a worker quits after its current task,
            # or on a fresh wake-up if it was between tasks
            self._abandoned = True
            self._wake_workers()
        self._running = False
        self._threads = []
        self._depth_gauge.set(0)  # wake-ups are not work

    def _wake_workers(self) -> None:
        for _ in self._threads:
            self._queue.put_nowait(None)

    def _fail_queued(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is None:
                continue  # a wake-up nobody took
            item.completion._finish(error=PoolStopped("pool stopped before the task ran"))
            self._completed.labels(status="abandoned").add()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def submit(self, task: Callable[[object], object]) -> _Completion:
        """Admit ``task`` (a callable receiving the worker's state).

        Raises :class:`AdmissionQueueFull` when ``queue_depth`` tasks are
        already waiting and :class:`PoolStopped` when the pool is not
        accepting work — both *before* the task consumes any resource.
        """
        if not self._running or self._stopping:
            raise PoolStopped("pool is not accepting work")
        completion = _Completion()
        item = _Item(task, completion, time.perf_counter())
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            self.metrics.counter("serve_shed_total").add()
            raise AdmissionQueueFull(
                f"admission queue full ({self.queue_depth} waiting)",
                retry_after=self._retry_after,
            ) from None
        self._admitted.add()
        self._set_depth_gauge()
        return completion

    @property
    def busy_workers(self) -> int:
        with self._busy_lock:
            return self._busy

    @property
    def queue_size(self) -> int:
        """Tasks waiting for a worker right now (approximate, lock-free)."""
        return self._queue.qsize()

    @property
    def accepting(self) -> bool:
        """Whether :meth:`submit` would even consider admitting a task."""
        return self._running and not self._stopping

    # ------------------------------------------------------------------

    def _set_depth_gauge(self) -> None:
        self._depth_gauge.set(self._queue.qsize())

    def _set_busy(self, delta: int) -> None:
        with self._busy_lock:
            self._busy += delta
            busy = self._busy
        self._busy_gauge.set(busy)
        self._saturation_gauge.set(busy / self.workers)

    def _worker_loop(self) -> None:
        state = self._state_factory() if self._state_factory is not None else None
        pending = _worker_local.pending = []
        while True:
            item = self._queue.get()
            if item is None:
                return  # stop's wake-up: everything admitted before it is done
            self._set_depth_gauge()
            self._queue_wait.observe(time.perf_counter() - item.enqueued_at)
            self._set_busy(+1)
            start = time.perf_counter()
            try:
                result = item.task(state)
            except BaseException as exc:  # noqa: BLE001 - worker must not die
                item.completion._finish(error=exc)
                self._completed.labels(status="error").add()
            else:
                item.completion._finish(result=result)
                self._completed.labels(status="ok").add()
            finally:
                # dropped before this worker reports itself idle and parks
                # in get(): ``busy_workers == 0`` means nothing of a
                # finished task is held (an idle worker that kept its last
                # request and response cost the next exchange two payloads)
                item = result = None
                for fn in pending:
                    try:
                        fn()
                    except Exception:  # noqa: BLE001 - must not kill a worker
                        pass
                pending.clear()
                self._set_busy(-1)
                self._handle_seconds.observe(time.perf_counter() - start)
            if self._abandoned:
                return
