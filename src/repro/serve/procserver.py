"""Multi-process serving: ModelServer replicas as worker processes.

The thread-based :class:`~repro.serve.server.ModelServer` scales until
the GIL does not: replicas interleave Python-side batching and NumPy
kernels inside one interpreter. :class:`ProcessServerPool` reuses the
fork-based worker machinery from :mod:`repro.runtime.procpool` on the
serving side — N worker **processes**, each booting its own
``ModelServer.from_checkpoint`` (through the compile cache, so every
worker boot is a warm thaw once the first has seeded it), behind the
same HTTP front end (`python -m repro.serve --workers N`).

Coordinator design (the parent stays light — it never loads the model):

* **dispatch** — :meth:`submit` picks the least-loaded live worker,
  applies per-worker admission control (a full worker sheds with
  :class:`~repro.serve.batcher.QueueFullError` → HTTP 429 exactly like
  the thread server), and ships ``(seq, request_id, item)`` over the
  worker's pipe. The ``request_id`` crosses the process boundary and
  lands in the worker's batcher admission, spans, and structured logs.
* **completion** — one reader thread per worker correlates replies by
  ``seq`` and completes the parent-side
  :class:`~repro.serve.batcher.Request` handles (same waitable object
  the thread server hands out).
* **failure** — replies are polled alongside ``Process.is_alive`` and a
  heartbeat thread pings every worker: a dead or hung worker fails its
  pending requests with a structured
  :class:`~repro.runtime.procpool.WorkerDiedError` (never a hung
  ``wait``), increments ``serve_worker_restarts_total``, and is
  replaced by a freshly forked worker when ``restart=True``.
* **observability** — :meth:`metrics_text` merges the parent registry
  with every worker's scraped page, each worker's samples gaining a
  ``worker="k"`` label
  (:func:`repro.telemetry.metrics.merge_metrics_pages`), so one
  ``GET /metrics`` shows pool-level counters *and* per-worker serving
  metrics; :meth:`stats` aggregates the workers' stats JSON.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.procpool import (
    ProcessPoolUnavailable,
    WorkerDiedError,
    WorkerError,
    _fork_context,
)
from repro.serve.batcher import BatcherClosedError, QueueFullError, Request
from repro.telemetry.logging import get_logger, log_event, new_request_id
from repro.telemetry.metrics import MetricsRegistry, merge_metrics_pages


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker process needs to boot its ModelServer
    (inherited over fork — never pickled)."""

    checkpoint: str
    batch_size: int
    replicas: int
    output: Optional[str]
    max_latency: float
    max_queue: int
    num_threads: Optional[int]
    cache: object
    predict_timeout: float


def _serve_worker_main(spec: _WorkerSpec, conn, inherited) -> None:
    """Worker process body: boot a ModelServer from the checkpoint and
    serve ``predict`` / ``metrics`` / ``stats`` / ``ping`` messages
    until ``stop`` (draining queued requests) or parent death."""
    for pc in inherited:
        pc.close()
    from repro.serve.server import ModelServer

    send_lock = threading.Lock()

    def send(msg) -> None:
        try:
            with send_lock:
                conn.send(msg)
        except (BrokenPipeError, OSError):  # parent went away
            pass

    try:
        server = ModelServer.from_checkpoint(
            spec.checkpoint, batch_size=spec.batch_size,
            replicas=spec.replicas, output=spec.output,
            num_threads=spec.num_threads, max_latency=spec.max_latency,
            max_queue=spec.max_queue, cache=spec.cache,
        )
    except BaseException as exc:
        send(("boot_error", type(exc).__name__, str(exc)))
        conn.close()
        return
    send(("ready", server.item_shape, server.batch_size))

    # batch completion happens on the server's replica threads; a
    # dedicated completer thread waits on the handles in FIFO order and
    # ships results back, so the recv loop never blocks on inference
    pending: "queue.Queue" = queue.Queue()

    def completer() -> None:
        while True:
            job = pending.get()
            if job is None:
                return
            seq, handle = job
            try:
                out = handle.wait(spec.predict_timeout)
                send(("result", seq, out))
            except BaseException as exc:
                send(("error", seq, type(exc).__name__, str(exc)))

    ct = threading.Thread(target=completer, daemon=True,
                          name="serve-completer")
    ct.start()
    try:
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "predict":
                _, seq, rid, item = msg
                try:
                    handle = server.submit(item, request_id=rid)
                    pending.put((seq, handle))
                except BaseException as exc:
                    send(("error", seq, type(exc).__name__, str(exc)))
            elif kind == "ping":
                send(("pong",))
            elif kind == "metrics":
                send(("metrics", msg[1], server.metrics_text()))
            elif kind == "stats":
                send(("stats", msg[1], server.stats()))
            elif kind == "stop":
                break
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        server.close()  # drains the batcher; completer flushes results
        pending.put(None)
        ct.join(timeout=spec.predict_timeout)
        conn.close()


class _Worker:
    """Parent-side record of one worker process."""

    def __init__(self, index: int, proc, conn):
        self.index = index
        self.proc = proc
        self.conn = conn
        self.send_lock = threading.Lock()
        self.lock = threading.Lock()
        self.pending: Dict[int, Request] = {}
        self.ready = threading.Event()
        self.item_shape: Optional[Tuple[int, ...]] = None
        self.batch_size: Optional[int] = None
        self.boot_error: Optional[str] = None
        self.last_pong = time.monotonic()
        self.dead = False
        self.reader: Optional[threading.Thread] = None

    def inflight(self) -> int:
        with self.lock:
            return len(self.pending)

    def alive(self) -> bool:
        return (not self.dead and self.ready.is_set()
                and self.proc.is_alive())


class ProcessServerPool:
    """Serve one checkpoint from N forked ModelServer processes.

    Duck-type compatible with :class:`~repro.serve.server.ModelServer`
    where the HTTP front end is concerned (``submit`` / ``predict`` /
    ``stats`` / ``metrics_text``), so
    :func:`~repro.serve.server.make_http_server` wraps either.

    Parameters mirror ``ModelServer.from_checkpoint`` — ``workers``
    processes each compile ``replicas`` replica(s) at ``batch_size``
    through ``cache`` (pass a directory or ``True`` so the first
    worker's compile warms every later boot). ``max_queue`` bounds the
    *per-worker* in-flight count at the parent (shedding is synchronous
    at submit, so overload surfaces as 429, not as a worker-side
    error). ``heartbeat`` seconds paces liveness pings; a worker silent
    for ``8 * heartbeat`` while work is pending is declared hung and
    killed (then restarted when ``restart=True``).
    """

    def __init__(self, checkpoint: str, *, workers: int = 2,
                 batch_size: int = 8, replicas: int = 1,
                 output: Optional[str] = None,
                 max_latency: float = 0.005, max_queue: int = 64,
                 num_threads: Optional[int] = None, cache=None,
                 registry=None, logger=None, restart: bool = True,
                 heartbeat: float = 0.5, boot_timeout: float = 300.0,
                 predict_timeout: float = 30.0):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._ctx = _fork_context()
        self.checkpoint = checkpoint
        self.spec = _WorkerSpec(
            checkpoint=checkpoint, batch_size=int(batch_size),
            replicas=int(replicas), output=output,
            max_latency=float(max_latency), max_queue=int(max_queue),
            num_threads=num_threads, cache=cache,
            predict_timeout=float(predict_timeout),
        )
        self.n_workers = int(workers)
        self.max_queue = int(max_queue)
        self.restart = bool(restart)
        self.heartbeat = float(heartbeat)
        self.boot_timeout = float(boot_timeout)
        self.logger = logger if logger is not None else get_logger()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._init_metrics()
        self._seq = itertools.count(1)
        self._rr = itertools.count()
        self._rpc_token = itertools.count(1)
        self._rpc_lock = threading.Lock()
        self._rpc_slots: Dict[int, list] = {}
        self._closed = False
        self.workers: List[_Worker] = [None] * self.n_workers
        for k in range(self.n_workers):
            self._spawn(k)
        deadline = time.monotonic() + self.boot_timeout
        for w in self.workers:
            w.ready.wait(max(0.0, deadline - time.monotonic()))
            if w.boot_error is not None:
                self.close()
                raise RuntimeError(
                    f"worker {w.index} failed to boot: {w.boot_error}"
                )
            if not w.ready.is_set():
                self.close()
                raise TimeoutError(
                    f"worker {w.index} did not boot within "
                    f"{self.boot_timeout:.0f}s"
                )
        self.item_shape = self.workers[0].item_shape
        self.batch_size = self.workers[0].batch_size
        self._hb = threading.Thread(target=self._heartbeat_loop,
                                    daemon=True, name="serve-heartbeat")
        self._hb.start()

    # -- metrics ------------------------------------------------------------

    def _init_metrics(self) -> None:
        r = self.registry
        self._m_requests = r.counter(
            "serve_pool_requests_total",
            "Pool-level prediction requests by outcome "
            "(served|shed|error)",
            labels=("outcome",),
        )
        for outcome in ("served", "shed", "error"):
            self._m_requests.inc(0, outcome=outcome)
        self._m_latency = r.histogram(
            "serve_pool_request_latency_seconds",
            "End-to-end request latency through the pool, submit to "
            "completion",
        )
        self._m_dispatch = r.counter(
            "serve_pool_dispatch_total",
            "Requests dispatched, per worker process",
            labels=("worker",),
        )
        self._m_restarts = r.counter(
            "serve_worker_restarts_total",
            "Worker-process deaths detected (dead or hung); each is "
            "replaced by a fresh fork when restart is enabled",
            labels=("worker",),
        )
        # pre-touch so a scrape before any failure shows explicit zeros
        for k in range(getattr(self, "n_workers", 0) or 0):
            self._m_restarts.inc(0, worker=str(k))
        r.gauge("serve_pool_workers", "Configured worker processes").set(
            getattr(self, "n_workers", 0) or 0)
        r.gauge("serve_pool_workers_alive",
                "Worker processes currently serving",
                fn=lambda: sum(1 for w in self.workers
                               if w is not None and w.alive()))

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self, index: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        inherited = [w.conn for w in self.workers
                     if w is not None and not w.dead]
        proc = self._ctx.Process(
            target=_serve_worker_main,
            args=(self.spec, child_conn, inherited),
            name=f"repro-serve-{index}", daemon=True,
        )
        proc.start()
        child_conn.close()
        w = _Worker(index, proc, parent_conn)
        self.workers[index] = w
        w.reader = threading.Thread(
            target=self._reader_loop, args=(w,), daemon=True,
            name=f"serve-reader-{index}",
        )
        w.reader.start()

    def _reader_loop(self, w: _Worker) -> None:
        # runs until the channel is exhausted (EOF / closed / dead with
        # nothing buffered) — NOT until self._closed, so a graceful
        # shutdown still delivers the results the worker drains out
        while True:
            try:
                if not w.conn.poll(0.1):
                    if not w.proc.is_alive():
                        break
                    continue
                msg = w.conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "result":
                _, seq, out = msg
                with w.lock:
                    req = w.pending.pop(seq, None)
                if req is not None:
                    req.complete(out)
                    self._m_requests.inc(outcome="served")
                    self._m_latency.observe(req.latency)
            elif kind == "error":
                _, seq, etype, emsg = msg
                with w.lock:
                    req = w.pending.pop(seq, None)
                if req is not None:
                    req.fail(WorkerError(w.index, etype, emsg))
                    self._m_requests.inc(outcome="error")
                    log_event(self.logger, "worker_request_error",
                              worker=w.index, request_id=req.request_id,
                              error_type=etype, error=emsg)
            elif kind == "pong":
                w.last_pong = time.monotonic()
            elif kind == "ready":
                _, w.item_shape, w.batch_size = msg
                w.item_shape = tuple(w.item_shape)
                w.last_pong = time.monotonic()
                w.ready.set()
            elif kind == "boot_error":
                w.boot_error = f"{msg[1]}: {msg[2]}"
                w.ready.set()
                break
            elif kind in ("metrics", "stats"):
                _, token, payload = msg
                with self._rpc_lock:
                    slot = self._rpc_slots.get(token)
                if slot is not None:
                    slot[1] = payload
                    slot[0].set()
        if not self._closed and w.boot_error is None:
            self._on_worker_death(w)

    def _on_worker_death(self, w: _Worker) -> None:
        """Reader-thread path when a worker's channel breaks: fail its
        pending requests with a structured error, count the restart,
        and fork a replacement."""
        w.dead = True
        exitcode = w.proc.exitcode
        with w.lock:
            pending = list(w.pending.values())
            w.pending.clear()
        exc = WorkerDiedError(w.index, exitcode, "serving")
        for req in pending:
            req.fail(exc)
        self._m_requests.inc(len(pending), outcome="error")
        self._m_restarts.inc(worker=str(w.index))
        log_event(self.logger, "worker_died", worker=w.index,
                  exitcode=exitcode, failed_requests=len(pending),
                  restarting=self.restart and not self._closed)
        try:
            w.conn.close()
        except OSError:
            pass
        if self._closed or not self.restart:
            return
        self._spawn(w.index)
        nw = self.workers[w.index]
        nw.ready.wait(self.boot_timeout)
        if nw.boot_error is not None or not nw.ready.is_set():
            log_event(self.logger, "worker_restart_failed",
                      worker=w.index, error=nw.boot_error or "boot timeout")

    def _heartbeat_loop(self) -> None:
        while not self._closed:
            time.sleep(self.heartbeat)
            now = time.monotonic()
            for w in list(self.workers):
                if w is None or w.dead or not w.ready.is_set():
                    continue
                try:
                    with w.send_lock:
                        w.conn.send(("ping",))
                except (BrokenPipeError, OSError):
                    continue  # the reader will notice the dead channel
                # a worker that stays silent with work outstanding is
                # hung (not merely idle): kill it so the reader's death
                # path fails the pending requests and restarts it
                if (w.inflight() > 0
                        and now - w.last_pong > 8 * self.heartbeat
                        and w.proc.is_alive()):
                    log_event(self.logger, "worker_hung", worker=w.index,
                              silent_s=round(now - w.last_pong, 3))
                    w.proc.terminate()

    # -- client API ---------------------------------------------------------

    def _pick_worker(self) -> _Worker:
        live = [w for w in self.workers if w is not None and w.alive()]
        if not live:
            raise BatcherClosedError(
                "no live worker processes" if not self._closed
                else "pool is shut down"
            )
        start = next(self._rr) % len(live)
        rotated = live[start:] + live[:start]
        return min(rotated, key=lambda w: w.inflight())

    def submit(self, item: np.ndarray,
               request_id: Optional[str] = None) -> Request:
        """Enqueue one item on the least-loaded worker; returns a
        waitable :class:`~repro.serve.batcher.Request` exactly like the
        thread server's. Sheds with
        :class:`~repro.serve.batcher.QueueFullError` when the chosen
        worker is at its in-flight bound."""
        if self._closed:
            raise BatcherClosedError("pool is shut down")
        item = np.asarray(item, dtype=np.float32)
        if self.item_shape is not None and item.shape != self.item_shape:
            raise ValueError(
                f"item shape {item.shape} != expected {self.item_shape}"
            )
        rid = request_id or new_request_id()
        w = self._pick_worker()
        depth = w.inflight()
        if depth >= self.max_queue:
            self._m_requests.inc(outcome="shed")
            log_event(self.logger, "shed", request_id=rid,
                      worker=w.index, reason="queue_full",
                      queue_depth=depth)
            raise QueueFullError(
                f"worker {w.index} at capacity ({depth} in flight)",
                depth=depth,
            )
        seq = next(self._seq)
        req = Request(item, time.monotonic(), request_id=rid)
        with w.lock:
            w.pending[seq] = req
        try:
            with w.send_lock:
                w.conn.send(("predict", seq, rid, item))
        except (BrokenPipeError, OSError) as exc:
            with w.lock:
                w.pending.pop(seq, None)
            raise WorkerDiedError(w.index, w.proc.exitcode,
                                  "dispatching a request") from exc
        self._m_dispatch.inc(worker=str(w.index))
        return req

    def predict(self, item: np.ndarray,
                timeout: Optional[float] = 30.0,
                request_id: Optional[str] = None) -> np.ndarray:
        """Blocking single-item convenience: submit + wait."""
        return self.submit(item, request_id=request_id).wait(timeout)

    # -- introspection ------------------------------------------------------

    def _rpc(self, w: _Worker, kind: str, timeout: float = 5.0):
        """Request/reply over a worker pipe, correlated by token (the
        reader thread delivers the payload). None on timeout/death."""
        token = next(self._rpc_token)
        slot = [threading.Event(), None]
        with self._rpc_lock:
            self._rpc_slots[token] = slot
        try:
            try:
                with w.send_lock:
                    w.conn.send((kind, token))
            except (BrokenPipeError, OSError):
                return None
            if not slot[0].wait(timeout):
                return None
            return slot[1]
        finally:
            with self._rpc_lock:
                self._rpc_slots.pop(token, None)

    def metrics_text(self) -> str:
        """One Prometheus page for the whole pool: the parent registry's
        samples verbatim plus every live worker's page with a
        ``worker="k"`` label on each sample."""
        pages = []
        for w in self.workers:
            if w is None or not w.alive():
                continue
            page = self._rpc(w, "metrics")
            if page is not None:
                pages.append((w.index, page))
        return merge_metrics_pages(self.registry.render(), pages)

    def stats(self) -> Dict[str, object]:
        """Pool-level counters plus each live worker's
        :meth:`ModelServer.stats` under ``per_worker``."""
        per_worker = []
        for w in self.workers:
            if w is None or not w.alive():
                continue
            s = self._rpc(w, "stats")
            if s is not None:
                s["worker"] = w.index
                per_worker.append(s)
        lat = self._m_latency
        out: Dict[str, object] = {
            "workers": self.n_workers,
            "alive": sum(1 for w in self.workers
                         if w is not None and w.alive()),
            "batch_size": self.batch_size,
            "served": int(self._m_requests.value(outcome="served")),
            "shed": int(self._m_requests.value(outcome="shed")),
            "errors": int(self._m_requests.value(outcome="error")),
            "restarts": int(self._m_restarts.total()),
            "in_flight": sum(w.inflight() for w in self.workers
                             if w is not None and not w.dead),
            "per_worker": per_worker,
        }
        if lat.count():
            out["latency_ms"] = {
                "p50": round(1e3 * lat.quantile(0.50), 3),
                "p95": round(1e3 * lat.quantile(0.95), 3),
                "p99": round(1e3 * lat.quantile(0.99), 3),
                "mean": round(1e3 * lat.mean(), 3),
            }
        return out

    # -- lifecycle ----------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Stop every worker (draining queued work), join the
        processes, and fail anything still pending. Idempotent."""
        if self._closed:
            return
        self._closed = True
        for w in self.workers:
            if w is None or w.dead:
                continue
            try:
                with w.send_lock:
                    w.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for w in self.workers:
            if w is None:
                continue
            w.proc.join(timeout)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout)
            # let the reader finish delivering whatever the worker
            # drained out before failing the true stragglers
            if w.reader is not None and w.reader is not threading.current_thread():
                w.reader.join(timeout)
            with w.lock:
                pending = list(w.pending.values())
                w.pending.clear()
            for req in pending:
                req.fail(BatcherClosedError("pool is shut down"))
            try:
                w.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ProcessServerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "ProcessPoolUnavailable",
    "ProcessServerPool",
    "WorkerDiedError",
    "WorkerError",
]
