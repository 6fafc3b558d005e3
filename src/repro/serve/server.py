"""The model server: replica pool + dynamic batcher + HTTP front end.

A :class:`ModelServer` owns one or more *replicas* — forward-only
compiled copies of the same network — and a
:class:`~repro.serve.batcher.DynamicBatcher`. Each replica gets a
worker thread that loops: take the next micro-batch, zero-pad it to the
compiled batch size if ragged, run ``forward``, slice the real rows
back out, and complete the per-request handles. Replicas share
parameter storage through ``CompiledNet.rebind_buffer`` — one set of
weight arrays serves every worker, so N replicas cost N× activation
memory but 1× parameter memory.

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

import json
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
from repro.telemetry.logging import get_logger, log_event, new_request_id
from repro.telemetry.metrics import FILL_BUCKETS, MetricsRegistry
from repro.trace import NULL_TRACER


class ModelServer:
    """Serve single-item prediction requests over replica workers.

    Parameters
    ----------
    replicas:
        Forward-only ``CompiledNet`` replicas of one network, all at the
        same batch size. Replica 0 owns the parameter storage; the rest
        are rebound onto it at construction (``share_params=False``
        skips that, for replicas that are already sharing).
    output:
        Ensemble whose value array is the prediction (sliced per row).
    max_latency:
        Seconds the oldest queued request may wait before a ragged
        flush (the batcher's latency trigger).
    max_queue:
        Admission bound; beyond it :meth:`submit` sheds with
        :class:`~repro.serve.batcher.QueueFullError`.
    data_name / label_name:
        DataEnsemble fed with request items / zero-filled dummy labels
        (loss-bearing training graphs still expect a label input at
        forward time; ``None`` if the net has no label ensemble —
        detected automatically by default).
    registry:
        The :class:`~repro.telemetry.metrics.MetricsRegistry` all
        serving metrics land in (a fresh one by default; pass
        :data:`~repro.telemetry.metrics.NULL_REGISTRY` to disable, or a
        shared registry to co-locate with other subsystems' metrics).
    logger:
        Structured-log target (default: the ``repro.serve`` stdlib
        logger — silent until a handler is attached; see
        :func:`repro.telemetry.logging.configure_json_logging`).
    checkpoint_path / checkpoint_mtime:
        Provenance of the served parameters; when the mtime is known, a
        ``serve_checkpoint_age_seconds`` gauge reports artifact age at
        scrape time (set automatically by :meth:`from_checkpoint`).
    """

    def __init__(self, replicas: Sequence, output: str, *,
                 max_latency: float = 0.005, max_queue: int = 64,
                 data_name: str = "data",
                 label_name: Optional[str] = "auto",
                 share_params: bool = True, tracer=None,
                 registry=None, logger=None,
                 checkpoint_path: Optional[str] = None,
                 checkpoint_mtime: Optional[float] = None):
        if not replicas:
            raise ValueError("need at least one replica")
        batches = {r.batch_size for r in replicas}
        if len(batches) != 1:
            raise ValueError(f"replicas disagree on batch size: {batches}")
        self.replicas = list(replicas)
        self.output = output
        self.batch_size = self.replicas[0].batch_size
        self.data_name = data_name
        if label_name == "auto":
            label_name = ("label" if "label"
                          in self.replicas[0]._data_names else None)
        self.label_name = label_name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.logger = logger if logger is not None else get_logger()
        self.checkpoint_path = checkpoint_path
        self.checkpoint_mtime = checkpoint_mtime
        self.item_shape = tuple(
            self.replicas[0].value(data_name).shape[1:]
        )
        if share_params and len(self.replicas) > 1:
            primary = self.replicas[0]
            for replica in self.replicas[1:]:
                for info in replica.plan.params:
                    replica.rebind_buffer(
                        info.value_buf, primary.buffers[info.value_buf]
                    )
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
        r.gauge("serve_queue_depth",
                "Requests waiting for batch assembly",
                fn=self.batcher.depth)
        r.gauge("serve_replicas", "Replica workers").set(len(self.replicas))
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
            r.gauge("serve_checkpoint_age_seconds",
                    "Age of the served checkpoint artifact",
                    fn=lambda: max(0.0, time.time() - mtime))
        # compile-cache provenance: how many replica compiles were warm
        # thaws vs cold compiles, and how stale the warm entry is (only
        # populated when the replicas went through repro.cache)
        reports = [getattr(rep, "compile_report", None)
                   for rep in self.replicas]
        reports = [rp for rp in reports if rp is not None
                   and rp.cache_key is not None]
        if reports:
            hits = sum(1 for rp in reports if rp.cache_hit)
            r.counter(
                "serve_compile_cache_hits_total",
                "Replica compiles thawed from the compilation cache",
            ).inc(hits)
            r.counter(
                "serve_compile_cache_misses_total",
                "Replica compiles that ran cold and seeded the cache",
            ).inc(len(reports) - hits)
            created = [rp.cache_created for rp in reports
                       if rp.cache_hit and rp.cache_created is not None]
            if created:
                oldest = min(created)
                r.gauge("serve_compile_cache_age_seconds",
                        "Age of the oldest thawed compile-cache entry",
                        fn=lambda: max(0.0, time.time() - oldest))

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
                timeout: Optional[float] = 30.0,
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
            self._run_batch(replica, batch, index)

    def _run_batch(self, replica, batch: List[Request],
                   index: int) -> None:
        n = len(batch)
        ids = [req.request_id for req in batch]
        ids_csv = ",".join(ids)
        x = np.zeros((self.batch_size,) + self.item_shape, np.float32)
        for i, req in enumerate(batch):
            x[i] = req.item
        inputs = {self.data_name: x}
        if self.label_name is not None:
            inputs[self.label_name] = np.zeros(
                replica.value(self.label_name).shape, np.float32
            )
        t0 = time.monotonic()
        try:
            if self.tracer.enabled:
                # request identity flows into the executor's own step
                # spans for this forward (replica-owned, single worker)
                replica.trace_context = {"request_ids": ids_csv}
            try:
                with self.tracer.span("serve.batch", "serve",
                                      replica=index, rows=n,
                                      batch=self.batch_size,
                                      request_ids=ids_csv):
                    replica.forward(**inputs)
            finally:
                replica.trace_context = None
            out = replica.value(self.output)[:n].copy()
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
        in-process registry rendered. The multi-process pool
        (:class:`~repro.serve.procserver.ProcessServerPool`) overrides
        this with an aggregation of every worker's page."""
        return self.registry.render()

    def stats(self) -> Dict[str, object]:
        """Counters plus request-latency percentiles (milliseconds),
        all derived from the metrics registry — the identical numbers
        ``GET /metrics`` exposes, reduced to one JSON object. The
        percentiles come from fixed histogram buckets, so state stays
        bounded regardless of traffic."""
        lat = self._m_latency
        out: Dict[str, object] = {
            "served": int(self._m_requests.value(outcome="served")),
            "shed": int(self._m_requests.value(outcome="shed")),
            "batches": int(self._m_batches.total()),
            "replicas": len(self.replicas),
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
        join the workers, release the replicas. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.batcher.shutdown()
        for w in self._workers:
            w.join(timeout)
        for replica in self.replicas:
            replica.close()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @classmethod
    def from_checkpoint(cls, path: str, *, batch_size: int = 8,
                        replicas: int = 1, options=None,
                        output: Optional[str] = None,
                        num_threads: Optional[int] = None,
                        tracer=None, cache=None,
                        **kwargs) -> "ModelServer":
        """Boot a server from a checkpoint artifact: rebuild the
        architecture, compile ``replicas`` forward-only copies at
        ``batch_size``, restore parameters once, and share them. The
        artifact's mtime feeds the ``serve_checkpoint_age_seconds``
        gauge.

        Pass ``cache=`` (a ``repro.cache.CompileCache``, a directory
        path, or ``True`` for the default store) to compile through the
        persistent compilation cache: a pre-warmed entry turns boot into
        a millisecond thaw, and even cold the first replica's compile
        seeds the cache so replicas 2..N (and the next boot) are warm.
        Hit/miss counts and entry age land in the metrics registry
        (``serve_compile_cache_*``)."""
        import os

        from repro.serve.checkpoint import load_checkpoint

        ck = load_checkpoint(path)
        out = output or ck.output
        if out is None:
            raise ValueError(
                "checkpoint records no output ensemble; pass output="
            )
        nets = [
            ck.compile(batch_size, options=options,
                       num_threads=num_threads, tracer=tracer,
                       cache=cache)
            for _ in range(replicas)
        ]
        try:
            mtime = os.path.getmtime(path)
        except OSError:
            mtime = None
        kwargs.setdefault("checkpoint_path", path)
        kwargs.setdefault("checkpoint_mtime", mtime)
        return cls(nets, out, tracer=tracer, **kwargs)


# ---------------------------------------------------------------------------
# HTTP front end (stdlib only)
# ---------------------------------------------------------------------------


def make_http_server(server, host: str = "127.0.0.1",
                     port: int = 8080) -> ThreadingHTTPServer:
    """A ``ThreadingHTTPServer`` exposing ``server`` — a
    :class:`ModelServer` or anything with the same ``submit`` /
    ``stats`` / ``metrics_text`` surface (the multi-process
    :class:`~repro.serve.procserver.ProcessServerPool` plugs in here
    unchanged):

    * ``POST /predict`` — body ``{"inputs": [item, ...]}`` where each
      item is a nested list matching the model's input shape; responds
      ``{"outputs": [...], "request_id": ..., "latency_ms": ...}``.
      The request ID is taken from an ``X-Request-ID`` header when
      present (else generated), echoed in the response header and
      body, and propagated into batcher admission, worker spans, and
      log lines. Answers 429 when the batcher sheds — the body carries
      ``request_id``, ``queue_depth``, and the ``shed`` reason — and
      400 on malformed bodies.
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

        def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
            if self.path != "/predict":
                self._reply(404, {"error": f"no route {self.path}"})
                return
            t0 = time.monotonic()
            rid = self.headers.get("X-Request-ID") or new_request_id()
            echo = {"X-Request-ID": rid}
            try:
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length))
                items = payload["inputs"]
            except (ValueError, KeyError, TypeError) as exc:
                self._reply(400, {"error": f"bad request body: {exc}",
                                  "request_id": rid}, echo)
                return
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
                self._reply(429, {
                    "error": "overloaded, retry later",
                    "request_id": rid,
                    "queue_depth": exc.depth,
                    "shed": exc.reason,
                }, echo)
                return
            except (ValueError, BatcherClosedError) as exc:
                self._reply(400, {"error": str(exc), "request_id": rid},
                            echo)
                return
            try:
                outputs = [h.wait(30.0).tolist() for h in handles]
            except BaseException as exc:
                self._reply(500, {"error": str(exc), "request_id": rid},
                            echo)
                return
            self._reply(200, {
                "outputs": outputs,
                "request_id": rid,
                "latency_ms": round(1e3 * (time.monotonic() - t0), 3),
            }, echo)

        def log_message(self, fmt, *args):  # quiet by default
            pass

    return ThreadingHTTPServer((host, port), Handler)
