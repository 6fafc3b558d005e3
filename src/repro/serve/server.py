"""The model server: the one serving front end — queue, dynamic batcher,
metrics, drain, HTTP — over a replica transport.

A :class:`ModelServer` owns one
:class:`~repro.serve.batcher.DynamicBatcher` and one or more *replicas*
— forward-only compiled copies of the same network. Each replica gets a
thread that loops: take the next micro-batch, zero-pad it to the
compiled batch size if ragged, ``replica.run`` it, and complete the
per-request handles with the real rows. What a replica *is* is all the
two transports disagree on: a ``CompiledNet`` called in that thread
(:mod:`repro.serve.replica`; replicas share parameter storage, so N
cost N× activation memory but 1× parameter memory) or, with
``from_checkpoint(workers=N)``, a forked worker process that compiled
its own copy (:mod:`repro.serve.procserver`).

Observability is three-layered (docs/OBSERVABILITY.md):

* **metrics** — every server owns a
  :class:`~repro.telemetry.metrics.MetricsRegistry`: request counters
  by outcome, fixed-bucket latency and batch-fill histograms,
  per-replica step latency, live queue depth, planned/arena bytes, and
  checkpoint age. ``GET /metrics`` renders it in Prometheus text
  format, and :meth:`ModelServer.stats` reads the *same* registry (no
  private sample lists — the old unbounded latency window is gone by
  construction).
* **request IDs** — every submitted item carries a ``request_id``
  (client-supplied ``X-Request-ID`` header or generated), propagated
  through batcher admission into the worker's ``serve``-category span,
  the executor's step spans (via ``CompiledNet.trace_context``), the
  structured log lines, and the response.
* **structured logs** — one JSON line per completed request and per
  batch flush on the ``repro.serve`` logger (silent until a handler is
  attached; ``python -m repro.serve`` configures one).

``make_http_server`` wraps a :class:`ModelServer` in a stdlib
``ThreadingHTTPServer`` with ``POST /predict``, ``GET /healthz``,
``GET /stats`` and ``GET /metrics`` endpoints; ``python -m
repro.serve`` is the CLI (see :mod:`repro.serve.__main__`).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serve.batcher import (
    BatcherClosedError,
    DynamicBatcher,
    QueueFullError,
    Request,
)
from repro.serve.checkpoint import load_checkpoint
from repro.serve.replica import NetReplica
from repro.telemetry.logging import get_logger, log_event, new_request_id
from repro.telemetry.metrics import FILL_BUCKETS, MetricsRegistry
from repro.trace import NULL_TRACER

#: seconds any one request may take: the default ``predict()`` wait, the
#: HTTP handler's wait, and the deadline a process replica gets to answer
#: one batch before it is declared hung
REQUEST_TIMEOUT = 30.0


class ModelServer:
    """Serve single-item prediction requests over replica workers.

    Parameters
    ----------
    replicas:
        Forward-only ``CompiledNet`` replicas of one network, all at the
        same batch size (each is wrapped in a
        :class:`~repro.serve.replica.NetReplica`; replica 0 owns the
        parameter storage, the rest are rebound onto it), or ready-made
        replica handles.
    output:
        Ensemble whose value array is the prediction (sliced per row).
    max_latency:
        Seconds the oldest queued request may wait before a ragged
        flush (the batcher's latency trigger).
    max_queue:
        Admission bound on the server's one queue, whatever the
        transport; beyond it :meth:`submit` sheds with
        :class:`~repro.serve.batcher.QueueFullError`.
    registry:
        The :class:`~repro.telemetry.metrics.MetricsRegistry` all
        serving metrics land in (a fresh one by default; pass
        :data:`~repro.telemetry.metrics.NULL_REGISTRY` to disable, or a
        shared registry to co-locate with other subsystems' metrics).
    logger:
        Structured-log target (default: the ``repro.serve`` stdlib
        logger — silent until a handler is attached; see
        :func:`repro.telemetry.logging.configure_json_logging`).
    checkpoint_mtime:
        When known, a ``serve_checkpoint_age_seconds`` gauge reports the
        served artifact's age at scrape time (set automatically by
        :meth:`from_checkpoint`).
    """

    def __init__(self, replicas: Sequence, output: str, *,
                 max_latency: float = 0.005, max_queue: int = 64,
                 tracer=None, registry=None, logger=None,
                 checkpoint_mtime: Optional[float] = None):
        if not replicas:
            raise ValueError("need at least one replica")
        self.replicas = [r if hasattr(r, "run") else NetReplica(r, output)
                         for r in replicas]
        batches = {r.batch_size for r in self.replicas}
        if len(batches) != 1:
            raise ValueError(f"replicas disagree on batch size: {batches}")
        nets = [r for r in self.replicas if isinstance(r, NetReplica)]
        for replica in nets[1:]:
            replica.share_params(nets[0])
        self.output = output
        self.batch_size = self.replicas[0].batch_size
        self.item_shape = self.replicas[0].item_shape
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.logger = logger if logger is not None else get_logger()
        self.checkpoint_mtime = checkpoint_mtime
        self.batcher = DynamicBatcher(self.batch_size, max_latency,
                                      max_queue)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._init_metrics()
        self._workers = [
            threading.Thread(target=self._worker_loop, args=(i,),
                             name=f"serve-worker-{i}", daemon=True)
            for i in range(len(self.replicas))
        ]
        self._closed = False
        for w in self._workers:
            w.start()

    def _init_metrics(self) -> None:
        """Register the serving metric families (idempotent per
        registry, so several servers may share one)."""
        r = self.registry
        #: callback gauges, settled to their last values at close: a
        #: shared registry must not keep a closed server alive
        self._callbacks: list = []

        def watch(name: str, help: str, fn) -> None:
            self._callbacks.append((r.gauge(name, help, fn=fn), fn))

        self._m_requests = r.counter(
            "serve_requests_total",
            "Prediction requests by outcome (served|shed|error)",
            labels=("outcome",),
        )
        # pre-touch the outcomes so a scrape before traffic shows zeros
        for outcome in ("served", "shed", "error"):
            self._m_requests.inc(0, outcome=outcome)
        self._m_latency = r.histogram(
            "serve_request_latency_seconds",
            "End-to-end request latency, submit to completion",
        )
        self._m_batches = r.counter(
            "serve_batches_total", "Micro-batches executed, per replica",
            labels=("replica",),
        )
        self._m_step_latency = r.histogram(
            "serve_replica_step_seconds",
            "Per-replica forward step latency (one micro-batch)",
            labels=("replica",),
        )
        self._m_fill = r.histogram(
            "serve_batch_fill",
            "Fraction of batch slots holding real requests",
            buckets=FILL_BUCKETS,
        )
        watch("serve_queue_depth", "Requests waiting for batch assembly",
              self.batcher.depth)
        self._m_restarts = r.counter(
            "serve_worker_restarts_total",
            "Replica workers found dead or hung and replaced by a fresh "
            "fork (process transport; an in-thread replica never is)",
            labels=("worker",),
        )
        # pre-touch so a scrape before any batch or failure shows
        # explicit per-replica zeros
        for index in range(len(self.replicas)):
            self._m_batches.inc(0, replica=str(index))
            self._m_restarts.inc(0, worker=str(index))
        r.gauge("serve_replicas", "Replica workers").set(len(self.replicas))
        watch("serve_replicas_alive", "Replica workers able to serve",
              self._alive)
        r.gauge("serve_batch_size", "Compiled batch size").set(
            self.batch_size)
        mstats = self.replicas[0].memory_stats()
        r.gauge("serve_planned_bytes",
                "Per-replica planned (post-reuse) buffer bytes").set(
            mstats["planned_bytes"])
        r.gauge("serve_arena_bytes",
                "Per-replica shared arena bytes").set(mstats["arena_bytes"])
        if self.checkpoint_mtime is not None:
            mtime = float(self.checkpoint_mtime)
            watch("serve_checkpoint_age_seconds",
                  "Age of the served checkpoint artifact",
                  lambda: max(0.0, time.time() - mtime))
        # compile-cache provenance: how many replica compiles were warm
        # thaws vs cold compiles, and how stale the warm entry is (only
        # populated when the replicas went through repro.cache)
        cached = [rep.cache for rep in self.replicas
                  if rep.cache is not None]
        if cached:
            hits = sum(1 for hit, _ in cached if hit)
            r.counter(
                "serve_compile_cache_hits_total",
                "Replica compiles thawed from the compilation cache",
            ).inc(hits)
            r.counter(
                "serve_compile_cache_misses_total",
                "Replica compiles that ran cold and seeded the cache",
            ).inc(len(cached) - hits)
            created = [made for hit, made in cached
                       if hit and made is not None]
            if created:
                oldest = min(created)
                watch("serve_compile_cache_age_seconds",
                      "Age of the oldest thawed compile-cache entry",
                      lambda: max(0.0, time.time() - oldest))

    def _alive(self) -> int:
        return sum(1 for replica in self.replicas if replica.alive())

    # -- client API ---------------------------------------------------------

    def submit(self, item: np.ndarray,
               request_id: Optional[str] = None) -> Request:
        """Enqueue one item (no batch axis); returns a waitable
        :class:`~repro.serve.batcher.Request` carrying ``request_id``
        (generated if not supplied). Sheds with
        :class:`~repro.serve.batcher.QueueFullError` when the queue is
        at capacity."""
        item = np.asarray(item, dtype=np.float32)
        if item.shape != self.item_shape:
            raise ValueError(
                f"item shape {item.shape} != expected {self.item_shape}"
            )
        rid = request_id or new_request_id()
        try:
            req = self.batcher.submit(item, request_id=rid)
        except QueueFullError as exc:
            self._m_requests.inc(outcome="shed")
            log_event(self.logger, "shed", request_id=rid,
                      reason=exc.reason, queue_depth=exc.depth)
            raise
        return req

    def predict(self, item: np.ndarray,
                timeout: Optional[float] = REQUEST_TIMEOUT,
                request_id: Optional[str] = None) -> np.ndarray:
        """Blocking single-item convenience: submit + wait."""
        return self.submit(item, request_id=request_id).wait(timeout)

    # -- worker side --------------------------------------------------------

    def _worker_loop(self, index: int) -> None:
        replica = self.replicas[index]
        while True:
            batch = self.batcher.next_batch()
            if batch is None:
                return
            # died while idle: nothing was in flight, the batch waits
            self._revive(replica, index)
            self._run_batch(replica, batch, index)
            # died or hung on that batch (its requests have failed):
            # replace it now rather than in front of the next batch
            self._revive(replica, index)

    def _revive(self, replica, index: int) -> None:
        """Replace ``replica``'s worker if it is gone; a replacement
        that fails to boot is logged, and the batches this thread takes
        fail with the structured error until one does."""
        if replica.alive():
            return
        self._m_restarts.inc(worker=str(index))
        log_event(self.logger, "worker_died", worker=index)
        try:
            replica.respawn()
        except Exception as exc:  # noqa: BLE001 - any boot failure
            log_event(self.logger, "worker_restart_failed", worker=index,
                      error=str(exc))

    def _run_batch(self, replica, batch: List[Request],
                   index: int) -> None:
        n = len(batch)
        ids = [req.request_id for req in batch]
        ids_csv = ",".join(ids)
        x = np.zeros((self.batch_size,) + self.item_shape, np.float32)
        for i, req in enumerate(batch):
            x[i] = req.item
        t0 = time.monotonic()
        try:
            with self.tracer.span("serve.batch", "serve",
                                  replica=index, rows=n,
                                  batch=self.batch_size,
                                  request_ids=ids_csv):
                out = replica.run(x, n, ids_csv)
        except BaseException as exc:  # complete waiters, then bookkeep
            for req in batch:
                req.fail(exc)
            self._m_requests.inc(n, outcome="error")
            log_event(self.logger, "batch_error", replica=index,
                      request_ids=ids, error=str(exc),
                      error_type=type(exc).__name__)
            return
        step_seconds = time.monotonic() - t0
        now = time.monotonic()
        for i, req in enumerate(batch):
            req.complete(out[i], now - req.enqueued_at)
        rep = str(index)
        self._m_requests.inc(n, outcome="served")
        self._m_batches.inc(replica=rep)
        self._m_step_latency.observe(step_seconds, replica=rep)
        self._m_fill.observe(n / self.batch_size)
        for req in batch:
            self._m_latency.observe(req.latency)
            log_event(self.logger, "request",
                      request_id=req.request_id, replica=index,
                      latency_ms=round(req.latency * 1e3, 3))
        log_event(self.logger, "batch_flush", replica=index, rows=n,
                  batch_size=self.batch_size,
                  fill=round(n / self.batch_size, 4),
                  step_ms=round(step_seconds * 1e3, 3),
                  request_ids=ids)

    # -- introspection ------------------------------------------------------

    def metrics_text(self) -> str:
        """The Prometheus exposition page ``GET /metrics`` serves — the
        registry rendered; under either transport every serving number
        is counted once, in this process."""
        return self.registry.render()

    def stats(self) -> Dict[str, object]:
        """Counters plus request-latency percentiles (milliseconds),
        all derived from the metrics registry — the identical numbers
        ``GET /metrics`` exposes, reduced to one JSON object. The
        percentiles come from fixed histogram buckets, so state stays
        bounded regardless of traffic. One shape for both transports."""
        lat = self._m_latency
        out: Dict[str, object] = {
            "served": int(self._m_requests.value(outcome="served")),
            "shed": int(self._m_requests.value(outcome="shed")),
            "errors": int(self._m_requests.value(outcome="error")),
            "batches": int(self._m_batches.total()),
            "replicas": len(self.replicas),
            "alive": self._alive(),
            "restarts": int(self._m_restarts.total()),
            "batch_size": self.batch_size,
            "queue_depth": self.batcher.depth(),
            "mean_batch_fill": round(self._m_fill.mean(), 4),
            # per-replica forward-only arena footprint (inference
            # compiles plan a smaller arena than train graphs)
            "planned_bytes": int(
                self.replicas[0].memory_stats()["planned_bytes"]
            ),
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
        """Drain and stop: refuse new work, serve everything queued,
        join the workers, settle the callback gauges to their last
        values, release the replicas. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.batcher.shutdown()
        for w in self._workers:
            w.join(timeout)
        for gauge, fn in self._callbacks:
            gauge.settle(fn)
        self._callbacks = []
        for replica in self.replicas:
            replica.close()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @classmethod
    def from_checkpoint(cls, path: str, *, batch_size: int = 8,
                        replicas: int = 1, workers: int = 0, options=None,
                        output: Optional[str] = None,
                        num_threads: Optional[int] = None,
                        tracer=None, cache=None,
                        **kwargs) -> "ModelServer":
        """Boot a server from a checkpoint artifact: rebuild the
        architecture, compile ``replicas`` forward-only copies at
        ``batch_size``, restore parameters once, and share them. The
        artifact's mtime feeds the ``serve_checkpoint_age_seconds``
        gauge.

        ``workers=N`` selects the process transport instead: N forked
        workers each load the artifact and compile one replica (this
        process never loads the model), replaced when they die or hang
        (:mod:`repro.serve.procserver`). It excludes ``replicas > 1``.

        Pass ``cache=`` (a ``repro.cache.CompileCache``, a directory
        path, or ``True`` for the default store) to compile through the
        persistent compilation cache: a pre-warmed entry turns boot into
        a millisecond thaw, and even cold the first replica's compile
        seeds the cache so replicas 2..N (and the next boot) are warm.
        Hit/miss counts and entry age land in the metrics registry
        (``serve_compile_cache_*``)."""
        if workers and replicas > 1:
            raise ValueError(
                f"workers={workers} with replicas={replicas}: pick one "
                "transport (worker processes run one replica each)"
            )
        boot = functools.partial(
            NetReplica.from_checkpoint, batch_size=batch_size,
            options=options, output=output, num_threads=num_threads,
            cache=cache)
        if workers:
            from repro.serve.procserver import spawn_replicas

            handles = spawn_replicas(functools.partial(boot, path),
                                     workers, REQUEST_TIMEOUT)
        else:
            ck = load_checkpoint(path)
            handles = [boot(ck, tracer=tracer) for _ in range(replicas)]
        try:
            mtime = os.path.getmtime(path)
        except OSError:
            mtime = None
        kwargs.setdefault("checkpoint_mtime", mtime)
        return cls(handles, handles[0].output, tracer=tracer, **kwargs)


def ProcessServerPool(checkpoint: str, *, workers: int = 2,
                      **kwargs) -> ModelServer:
    """``ModelServer.from_checkpoint(checkpoint, workers=workers, ...)``
    under the name benchmark and doc code imports."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return ModelServer.from_checkpoint(checkpoint, workers=workers, **kwargs)


# ---------------------------------------------------------------------------
# HTTP front end (stdlib only)
# ---------------------------------------------------------------------------


def make_http_server(server, host: str = "127.0.0.1",
                     port: int = 8080) -> ThreadingHTTPServer:
    """A ``ThreadingHTTPServer`` exposing ``server``, a
    :class:`ModelServer` over either transport:

    * ``POST /predict`` — body ``{"inputs": [item, ...]}`` where each
      item is a nested list matching the model's input shape; responds
      ``{"outputs": [...], "request_id": ..., "latency_ms": ...}``.
      The request ID is taken from an ``X-Request-ID`` header when
      present (else generated), echoed in the response header and
      body, and propagated into batcher admission, worker spans, and
      log lines. Answers 429 when the batcher sheds — the body carries
      ``request_id``, ``queue_depth``, and the ``shed`` reason — 400
      on malformed bodies, and 503 (with ``request_id``) once the
      server is closing.
    * ``GET /healthz`` — liveness.
    * ``GET /stats`` — the :meth:`ModelServer.stats` JSON.
    * ``GET /metrics`` — the metrics registry in Prometheus text
      exposition format.

    Call ``serve_forever()`` on the result (or ``handle_request()`` in
    tests); ``shutdown()`` + ``ModelServer.close()`` to stop.
    """

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _send(self, code: int, body: bytes, content_type: str,
                  headers: Optional[Dict[str, str]] = None) -> None:
            fields = {"Server": self.version_string(),
                      "Date": self.date_time_string(),
                      "Content-Type": content_type,
                      "Content-Length": len(body), **(headers or {})}
            head = f"HTTP/1.1 {code} {HTTPStatus(code).phrase}\r\n" + "".join(
                f"{name}: {value}\r\n" for name, value in fields.items())
            # head and body leave in one write: as two segments every
            # keep-alive reply stalls on Nagle + the client's delayed ACK
            self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

        def _reply(self, code: int, payload: dict,
                   headers: Optional[Dict[str, str]] = None) -> None:
            self._send(code, json.dumps(payload).encode(),
                       "application/json", headers)

        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            if self.path == "/healthz":
                self._reply(200, {"ok": True})
            elif self.path == "/stats":
                self._reply(200, server.stats())
            elif self.path == "/metrics":
                self._send(200, server.metrics_text().encode(),
                           "text/plain; version=0.0.4; charset=utf-8")
            else:
                self._reply(404, {"error": f"no route {self.path}"})

        def _fail(self, code: int, error: str, rid: str, **context) -> None:
            self._reply(code, {"error": error, "request_id": rid, **context},
                        {"X-Request-ID": rid})

        def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
            if self.path != "/predict":
                self._reply(404, {"error": f"no route {self.path}"})
                return
            t0 = time.monotonic()
            rid = self.headers.get("X-Request-ID") or new_request_id()
            try:
                length = int(self.headers.get("Content-Length", 0))
                items = json.loads(self.rfile.read(length))["inputs"]
            except (ValueError, KeyError, TypeError) as exc:
                return self._fail(400, f"bad request body: {exc}", rid)
            # multi-item bodies fan out to per-item request IDs so each
            # row stays traceable; a single item keeps the ID verbatim
            item_ids = ([rid] if len(items) == 1
                        else [f"{rid}/{i}" for i in range(len(items))])
            try:
                handles = [
                    server.submit(np.asarray(item, np.float32),
                                  request_id=item_id)
                    for item, item_id in zip(items, item_ids)
                ]
            except QueueFullError as exc:
                return self._fail(429, "overloaded, retry later", rid,
                                  queue_depth=exc.depth, shed=exc.reason)
            except ValueError as exc:
                return self._fail(400, str(exc), rid)
            except BatcherClosedError as exc:  # closing: not the client's fault
                return self._fail(503, str(exc), rid)
            try:
                outputs = [h.wait(REQUEST_TIMEOUT).tolist()
                           for h in handles]
            except BaseException as exc:
                return self._fail(500, str(exc), rid)
            self._reply(200, {
                "outputs": outputs,
                "request_id": rid,
                "latency_ms": round(1e3 * (time.monotonic() - t0), 3),
            }, {"X-Request-ID": rid})

        def log_message(self, fmt, *args):  # quiet by default
            pass

    return ThreadingHTTPServer((host, port), Handler)
