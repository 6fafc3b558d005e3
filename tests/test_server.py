"""The model server (:mod:`repro.serve.server`), the one front end over
both replica transports: batched execution must be bitwise-equal to
serial forwards, overload must shed with structured 429s, request IDs
must propagate end to end, ``close()`` must drain, and the stdlib HTTP
front end must speak its endpoints — including ``GET /metrics`` in
Prometheus text format agreeing with ``stats()``. Each of those runs
once per transport (``replicas=2`` threads | ``workers=2`` processes).
Thread replicas must share parameter storage; a killed or hung worker
process must surface as a structured error, a
``serve_worker_restarts_total`` bump and a replacement — never a hung
request."""

import ast
import contextlib
import gc
import io
import json
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro.serve.server as server_module
from repro.models import (
    FCSpec,
    ModelConfig,
    ReLUSpec,
    SoftmaxLossSpec,
    build_latte,
)
from repro.optim import CompilerOptions
from repro.runtime.worker import WorkerDiedError, WorkerError
from repro.serve import (
    BatcherClosedError,
    ModelServer,
    ProcessServerPool,
    QueueFullError,
    make_http_server,
    save_checkpoint,
)
from repro.telemetry import (
    JsonLogFormatter,
    MetricsRegistry,
    parse_prometheus_text,
    sample_value,
)
from repro.trace import RecordingTracer
from repro.utils.rng import seed_all

CONFIG = ModelConfig(
    "srv_mlp", (6, 1, 1),
    (FCSpec("ip1", 8), ReLUSpec("relu1"), FCSpec("ip2", 3),
     SoftmaxLossSpec()),
    3,
)
BATCH = 4
OUT = "ip2"


def _replicas(n, batch=BATCH, seed=42):
    """n forward-only replicas bound to one set of parameter arrays:
    the first draws them, the rest take them as their ``params=``."""
    seed_all(seed)
    nets = [build_latte(CONFIG, batch).init(CompilerOptions.inference())]
    params = {p.key: p.value for p in nets[0].parameters()}
    nets += [build_latte(CONFIG, batch, params=params).init(
        CompilerOptions.inference()) for _ in range(n - 1)]
    return nets


def _same_storage(a, b):
    """The same memory seen the same way (dtype, shape and strides)."""
    return a.__array_interface__ == b.__array_interface__


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """The ``_replicas`` parameters as an artifact both transports
    boot from."""
    seed_all(42)
    cnet = build_latte(CONFIG, BATCH).init()
    path = save_checkpoint(
        str(tmp_path_factory.mktemp("ckpt") / "m.npz"), cnet,
        config=CONFIG, output=OUT,
    )
    cnet.close()
    return path


@pytest.fixture(params=["threads", "processes"])
def transport(request):
    return request.param


def _boot(checkpoint, transport, n=2, **kwargs):
    topology = {"replicas": n} if transport == "threads" else {"workers": n}
    kwargs.setdefault("max_latency", 0.002)
    return ModelServer.from_checkpoint(checkpoint, batch_size=BATCH,
                                       **topology, **kwargs)


@pytest.fixture()
def server(checkpoint, transport):
    srv = _boot(checkpoint, transport)
    yield srv
    srv.close()


@contextlib.contextmanager
def _http(srv):
    httpd = make_http_server(srv, "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever, args=(0.02,),
                              daemon=True)
    thread.start()
    try:
        yield "http://%s:%d" % httpd.server_address[:2]
    finally:
        httpd.shutdown()
        httpd.server_close()


@pytest.fixture()
def endpoint(server):
    with _http(server) as base:
        yield base


def _until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


@contextlib.contextmanager
def _held(srv):
    """Keep replica 0 from finishing a batch until the block exits — a
    full queue flushes at once, so overload only exists while the
    replica is busy. A thread replica's ``forward`` waits on an event; a
    worker process is SIGSTOPped."""
    replica = srv.replicas[0]
    if hasattr(replica, "proc"):
        os.kill(replica.proc.pid, signal.SIGSTOP)
        release = lambda: os.kill(replica.proc.pid, signal.SIGCONT)  # noqa: E731
    else:
        gate, forward = threading.Event(), replica.net.forward
        replica.net.forward = lambda **inputs: (gate.wait(10.0),
                                                forward(**inputs))[1]
        release = gate.set
    try:
        yield
    finally:
        release()


def _items(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 6)).astype(np.float32)


def _serial_reference(items):
    """Eval-mode forward of the same net, one full batch at a time."""
    seed_all(42)
    cnet = build_latte(CONFIG, BATCH).init(CompilerOptions.inference())
    outs = []
    for start in range(0, len(items), BATCH):
        chunk = items[start:start + BATCH]
        x = np.zeros((BATCH, 6), np.float32)
        x[:len(chunk)] = chunk
        cnet.forward(data=x, label=np.zeros((BATCH, 1), np.float32))
        outs.append(cnet.value(OUT)[:len(chunk)].copy())
    cnet.close()
    return np.concatenate(outs)


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _post(url, payload, headers=None, timeout=30):
    """POST ``payload`` (bytes verbatim, anything else as JSON)."""
    body = (payload if isinstance(payload, bytes)
            else json.dumps(payload).encode())
    req = urllib.request.Request(
        url, data=body,
        headers={"Content-Type": "application/json", **(headers or {})})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp, json.loads(resp.read())


def _refused(call, *args, **kwargs):
    """The ``(status, JSON body, headers)`` of an HTTP error reply."""
    with pytest.raises(urllib.error.HTTPError) as exc:
        call(*args, **kwargs)
    with exc.value as reply:
        return reply.code, json.loads(reply.read()), reply.headers


class TestBatchedExecution:
    def test_batched_equals_serial_bitwise(self, server):
        items = _items(13)
        handles = [server.submit(item) for item in items]
        got = np.stack([h.wait(30.0) for h in handles])
        np.testing.assert_array_equal(got, _serial_reference(items))

    def test_concurrent_submitters_bitwise(self, server):
        items = _items(24, seed=7)
        results = [None] * len(items)

        def client(i):
            results[i] = server.predict(items[i])

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(items))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = server.stats()
        np.testing.assert_array_equal(np.stack(results),
                                      _serial_reference(items))
        assert stats["served"] == len(items)
        assert stats["errors"] == stats["restarts"] == 0
        assert stats["alive"] == stats["replicas"] == 2
        assert stats["batches"] >= len(items) // BATCH
        assert 0 < stats["mean_batch_fill"] <= 1.0
        assert stats["latency_ms"]["p50"] <= stats["latency_ms"]["p99"]

    def test_item_shape_validated(self, server):
        with pytest.raises(ValueError, match="shape"):
            server.submit(np.zeros(5, np.float32))

    def test_replica_error_propagates_to_waiter(self, checkpoint,
                                                transport):
        with _boot(checkpoint, transport, n=1,
                   output="no_such_ensemble") as srv:
            # raised in this process, or shipped back from the worker
            with pytest.raises((KeyError, WorkerError),
                               match="no_such_ensemble"):
                srv.predict(_items(1)[0], timeout=10.0)
            assert srv.stats()["errors"] == 1
            assert srv.stats()["alive"] == 1  # the replica lives on

    def test_one_transport_per_server(self, checkpoint):
        with pytest.raises(ValueError, match="pick one transport"):
            ModelServer.from_checkpoint(checkpoint, workers=2, replicas=2)
        with pytest.raises(ValueError, match="workers"):
            ProcessServerPool(checkpoint, workers=0)


class TestThreadReplicas:
    def test_replicas_share_parameter_storage(self):
        with ModelServer(_replicas(2), OUT) as srv:
            primary, secondary = (r.net for r in srv.replicas)
            for info in primary.plan.params:
                assert _same_storage(secondary.buffers[info.value_buf],
                                     primary.buffers[info.value_buf])

    def test_extra_replicas_release_their_own_weights(self, checkpoint,
                                                      monkeypatch):
        """Booting three replicas holds one set of weights, the
        checkpoint's: every replica's parameters are views of its
        arrays."""
        from repro.serve.checkpoint import Checkpoint

        loaded = []
        load = server_module.load_checkpoint

        def recording(path):
            loaded.append(load(path))
            return loaded[-1]

        monkeypatch.setattr(server_module, "load_checkpoint", recording)
        with _boot(checkpoint, "threads", n=3) as srv:
            (ck,) = loaded
            assert isinstance(ck, Checkpoint)
            for replica in srv.replicas:
                for p in replica.net.parameters():
                    assert np.shares_memory(p.value, ck.params[p.key])
            assert srv.predict(_items(1)[0]).shape == (3,)

    def test_rebound_params_change_replica_output(self):
        """Replicas built from one ``params=`` source see one set of
        weights: zeroing them through replica 0 changes the output of
        every replica."""
        items = _items(1)
        with ModelServer(_replicas(2), OUT, max_latency=0.002) as srv:
            before = [r.run(np.stack([items[0]] * BATCH), 1)
                      for r in srv.replicas]
            for p in srv.replicas[0].net.parameters():
                p.value[...] = 0.0
            for replica, row in zip(srv.replicas, before):
                after = replica.run(np.stack([items[0]] * BATCH), 1)
                # zeroed weights: logits collapse to the bias-only row
                assert not np.array_equal(after, row)
                np.testing.assert_array_equal(after, np.zeros_like(row))

    def test_mismatched_batch_sizes_rejected(self):
        a = _replicas(1, batch=4)
        b = _replicas(1, batch=2)
        with pytest.raises(ValueError, match="batch"):
            ModelServer(a + b, OUT)
        for r in a + b:
            r.close()

    def test_needs_at_least_one_replica(self):
        with pytest.raises(ValueError, match="replica"):
            ModelServer([], OUT)


class TestAdmission:
    def test_overload_sheds_and_counts(self, checkpoint, transport):
        item = _items(1)[0]
        with _boot(checkpoint, transport, n=1, max_latency=60.0,
                   max_queue=1) as srv:
            with _held(srv):
                running = srv.submit(item)
                _until(lambda: srv.batcher.depth() == 0)  # replica has it
                parked = srv.submit(item)  # ...so this one queues
                with pytest.raises(QueueFullError) as exc:
                    srv.submit(item)
                assert exc.value.depth == 1
                assert exc.value.reason == "queue_full"
                assert srv.stats()["shed"] == 1
            srv.close()  # drains: the queued request still completes
            assert running.wait(10.0) is not None
            assert parked.wait(10.0) is not None

    def test_close_drains_a_full_queue(self, checkpoint, transport):
        items = _items(4, seed=2)
        srv = _boot(checkpoint, transport, n=1, max_latency=60.0,
                    max_queue=2)
        with _held(srv):
            # two fill the queue and flush to the replica, two more park
            handles = [srv.submit(item) for item in items[:2]]
            _until(lambda: srv.batcher.depth() == 0)
            handles += [srv.submit(item) for item in items[2:]]
            closer = threading.Thread(target=srv.close)
            closer.start()
            _until(lambda: srv.batcher.closed)
            with pytest.raises(BatcherClosedError):
                srv.submit(items[0])
        closer.join(15.0)
        assert not closer.is_alive()
        got = np.stack([h.wait(0.0) for h in handles])
        np.testing.assert_array_equal(got, _serial_reference(items))
        assert srv.stats()["alive"] == (1 if transport == "threads" else 0)

    def test_close_is_idempotent(self, server):
        server.close()
        server.close()


class TestHTTP:
    def test_healthz(self, endpoint):
        assert _get(endpoint + "/healthz") == (200, {"ok": True})

    def test_each_reply_is_one_write(self):
        """Head and body leave in one segment — split in two, every
        keep-alive reply waits out Nagle plus the peer's delayed ACK."""

        class FakeSocket:
            def __init__(self, request: bytes):
                self.rfile = io.BytesIO(request)
                self.writes = []

            def makefile(self, mode, bufsize):
                return self.rfile

            def sendall(self, data):
                self.writes.append(bytes(data))

        body = json.dumps({"inputs": [_items(1)[0].tolist()]}).encode()
        requests = (
            b"GET /healthz HTTP/1.1\r\n\r\n"
            b"GET /metrics HTTP/1.1\r\n\r\n"
            b"GET /nope HTTP/1.1\r\n\r\n"
            b"POST /predict HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        with ModelServer(_replicas(1), OUT, max_latency=0.002) as srv:
            httpd = make_http_server(srv, "127.0.0.1", 0)
            try:
                sock = FakeSocket(requests)
                httpd.RequestHandlerClass(sock, ("127.0.0.1", 0), httpd)
            finally:
                httpd.server_close()
        assert len(sock.writes) == 4  # four keep-alive replies
        for write, status in zip(sock.writes, (200, 200, 404, 200)):
            head, _, payload = write.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 %d " % status)
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            assert len(payload) == length > 0
        assert b"serve_requests_total" in sock.writes[1]
        assert len(json.loads(sock.writes[3].partition(b"\r\n\r\n")[2])
                   ["outputs"]) == 1

    def test_predict_matches_local(self, endpoint):
        items = _items(3, seed=9)
        resp, payload = _post(endpoint + "/predict",
                              {"inputs": items.tolist()})
        assert resp.status == 200
        got = np.asarray(payload["outputs"], np.float32)
        np.testing.assert_allclose(got, _serial_reference(items),
                                   rtol=1e-6, atol=1e-7)
        assert payload["latency_ms"] >= 0

    def test_stats_endpoint(self, endpoint):
        _post(endpoint + "/predict", {"inputs": _items(2).tolist()})
        status, payload = _get(endpoint + "/stats")
        assert status == 200
        assert payload["served"] == 2
        assert payload["alive"] == 2
        assert "latency_ms" in payload

    def test_bad_body_is_400(self, endpoint):
        assert _refused(_post, endpoint + "/predict",
                        b"not json")[0] == 400

    def test_unknown_route_is_404(self, endpoint):
        assert _refused(_get, endpoint + "/nope")[0] == 404

    def test_closing_server_is_503_not_400(self, server, endpoint):
        server.close()
        code, body, headers = _refused(
            _post, endpoint + "/predict", {"inputs": _items(1).tolist()},
            headers={"X-Request-ID": "too-late"})
        assert code == 503
        assert body["request_id"] == headers["X-Request-ID"] == "too-late"

    def test_request_waits_out_a_respawn(self, checkpoint):
        """One queue in the parent: a request admitted while the only
        worker is being replaced waits for it instead of failing."""
        items = _items(2, seed=11)
        with _boot(checkpoint, "processes", n=1) as srv, _http(srv) as base:
            os.kill(srv.replicas[0].proc.pid, signal.SIGKILL)
            _until(lambda: srv.stats()["alive"] == 0)
            resp, payload = _post(base + "/predict",
                                  {"inputs": items.tolist()})
            assert resp.status == 200
            assert srv.stats()["restarts"] == 1
        np.testing.assert_allclose(
            np.asarray(payload["outputs"], np.float32),
            _serial_reference(items), rtol=1e-6, atol=1e-7)


class TestMetricsEndpoint:
    def _scrape(self, base):
        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            return resp.read().decode()

    def test_scrape_parses_and_agrees_with_stats(self, server, endpoint):
        _post(endpoint + "/predict", {"inputs": _items(5, seed=3).tolist()})
        families = parse_prometheus_text(self._scrape(endpoint))
        stats = server.stats()
        assert sample_value(families, "serve_requests_total",
                            outcome="served") == stats["served"] == 5
        assert sample_value(families, "serve_requests_total",
                            outcome="shed") == stats["shed"] == 0
        assert sample_value(
            families, "serve_request_latency_seconds_count") == 5
        assert sum(
            sample_value(families, "serve_batches_total", replica=k) or 0
            for k in ("0", "1")) == stats["batches"]
        assert sample_value(families, "serve_batch_size") == BATCH
        assert sample_value(families, "serve_replicas") == 2
        assert sample_value(
            families, "serve_replicas_alive") == stats["alive"] == 2
        # the restart counter is pre-touched per replica: explicit zeros
        for k in ("0", "1"):
            assert sample_value(
                families, "serve_worker_restarts_total", worker=k) == 0
        assert sample_value(families, "serve_queue_depth") == 0
        assert sample_value(
            families, "serve_planned_bytes") == stats["planned_bytes"] > 0
        assert families["serve_requests_total"]["type"] == "counter"
        assert (families["serve_request_latency_seconds"]["type"]
                == "histogram")

    def test_stats_percentiles_are_bucket_derived(self, server):
        for item in _items(9, seed=4):
            server.predict(item)
        lat = server.stats()["latency_ms"]
        assert lat["p50"] <= lat["p95"] <= lat["p99"]
        assert lat["mean"] > 0
        # bounded state: the histogram never stores raw samples
        hist = server.registry.get("serve_request_latency_seconds")
        assert hist.count() == 9

    def test_compile_cache_provenance(self, checkpoint, transport,
                                      tmp_path):
        # the first replica's compile seeds the cache; whichever boots
        # after it (and every replica of the second server) thaws
        for expected_hits in (None, 2):
            with _boot(checkpoint, transport,
                       cache=str(tmp_path)) as srv:
                reg = srv.registry
                hits = reg.get("serve_compile_cache_hits_total").total()
                misses = reg.get(
                    "serve_compile_cache_misses_total").total()
                assert hits + misses == 2
                if expected_hits is not None:
                    assert hits == expected_hits
                    assert reg.get(
                        "serve_compile_cache_age_seconds").value() >= 0

    def test_checkpoint_age_gauge(self):
        with ModelServer(_replicas(1), OUT,
                         checkpoint_mtime=time.time() - 100) as srv:
            age = srv.registry.get("serve_checkpoint_age_seconds").value()
            assert 100 <= age < 160

    def test_shared_registry_across_servers(self):
        with ModelServer(_replicas(1), OUT) as srv_a:
            # a second server can reuse the same registry without
            # name-collision errors (get-or-create families)
            ModelServer(_replicas(1), OUT, registry=srv_a.registry).close()

    def test_a_shared_registry_does_not_keep_a_closed_server(self):
        registry = MetricsRegistry()
        enabled = gc.isenabled()
        gc.disable()
        try:
            srv = ModelServer(_replicas(2), OUT, registry=registry,
                              checkpoint_mtime=time.time() - 100)
            srv.predict(np.zeros(6, np.float32))
            srv.close()
            server = weakref.ref(srv)
            param = weakref.ref(srv.replicas[0].net.parameters()[0].value)
            del srv
            assert server() is None
            assert param() is None
        finally:
            if enabled:
                gc.enable()
        # the callback gauges keep the values they read at close
        assert registry.get("serve_replicas_alive").value() == 2
        assert registry.get("serve_queue_depth").value() == 0
        assert registry.get("serve_checkpoint_age_seconds").value() >= 100


@contextlib.contextmanager
def _captured_log():
    logger = logging.getLogger("repro.serve")
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonLogFormatter())
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False
    events = []
    try:
        yield events
    finally:
        logger.removeHandler(handler)
        events += [json.loads(line) for line in
                   stream.getvalue().strip().splitlines()]


class TestRequestIds:
    def test_client_supplied_id_echoed(self, endpoint):
        resp, payload = _post(
            endpoint + "/predict", {"inputs": [_items(1)[0].tolist()]},
            headers={"X-Request-ID": "trace-me-42"})
        assert resp.headers["X-Request-ID"] == "trace-me-42"
        assert payload["request_id"] == "trace-me-42"

    def test_generated_id_when_absent(self, endpoint):
        resp, payload = _post(
            endpoint + "/predict", {"inputs": [_items(1)[0].tolist()]})
        rid = payload["request_id"]
        assert rid and resp.headers["X-Request-ID"] == rid

    def test_multi_item_ids_fan_out(self, endpoint):
        with _captured_log() as logged:
            _post(endpoint + "/predict",
                  {"inputs": _items(3, seed=8).tolist()},
                  headers={"X-Request-ID": "multi"})
        ids = {e["request_id"] for e in logged
               if e["event"] == "request"}
        assert ids == {"multi/0", "multi/1", "multi/2"}

    def test_request_id_in_json_log_lines(self, endpoint):
        with _captured_log() as events:
            _post(endpoint + "/predict",
                  {"inputs": [_items(1)[0].tolist()]},
                  headers={"X-Request-ID": "log-probe"})
        per_request = [e for e in events if e["event"] == "request"]
        assert any(e["request_id"] == "log-probe" for e in per_request)
        flushes = [e for e in events if e["event"] == "batch_flush"]
        assert any("log-probe" in e["request_ids"] for e in flushes)
        assert all("latency_ms" in e for e in per_request)

    def test_shed_is_429_with_context(self, checkpoint, transport):
        srv = _boot(checkpoint, transport, n=1, max_latency=60.0,
                    max_queue=1)
        served = {}

        def post(base, rid):
            resp, _ = _post(base + "/predict",
                            {"inputs": [_items(1)[0].tolist()]},
                            headers={"X-Request-ID": rid}, timeout=15)
            served[rid] = resp.status

        with _http(srv) as base:
            with _held(srv):
                # the first request occupies the replica, the second
                # the queue's one slot
                running = srv.submit(_items(1)[0])
                _until(lambda: srv.batcher.depth() == 0)
                parked = threading.Thread(target=post, args=(base, "b"))
                parked.start()
                _until(lambda: srv.batcher.depth() == 1)
                code, body, headers = _refused(post, base, "c")
                assert code == 429
                assert body["request_id"] == headers["X-Request-ID"] == "c"
                assert body["shed"] == "queue_full"
                assert body["queue_depth"] == 1
            srv.close()  # drains the parked request
            parked.join(15.0)
        assert running.wait(0.0) is not None
        assert served == {"b": 200}

    def test_request_ids_reach_executor_spans(self):
        tracer = RecordingTracer()
        seed_all(42)
        replica = build_latte(CONFIG, BATCH).init(
            CompilerOptions.inference(), tracer=tracer)
        with ModelServer([replica], OUT, max_latency=0.002,
                         tracer=tracer) as srv:
            srv.predict(_items(1)[0], request_id="deep-trace")
        batch_spans = [s for s in tracer.spans if s.name == "serve.batch"]
        assert any("deep-trace" in s.args.get("request_ids", "")
                   for s in batch_spans)
        step_spans = [s for s in tracer.spans
                      if s.cat == "forward" and "request_ids" in s.args]
        assert step_spans, "executor step spans must carry the id"
        assert all("deep-trace" in s.args["request_ids"]
                   for s in step_spans)

    def test_trace_context_cleared_between_batches(self):
        tracer = RecordingTracer()
        seed_all(42)
        replica = build_latte(CONFIG, BATCH).init(
            CompilerOptions.inference(), tracer=tracer)
        with ModelServer([replica], OUT, max_latency=0.002,
                         tracer=tracer) as srv:
            srv.predict(_items(1)[0], request_id="one")
            assert srv.replicas[0].net.trace_context is None


def _pid(srv, index=0):
    return srv.replicas[index].proc.pid


class TestWorkerFaults:
    """Process transport only: what a dead or hung worker looks like
    from outside."""

    def test_killed_idle_worker_is_replaced_and_serves_bitwise(
            self, checkpoint):
        items = _items(5, seed=3)
        with _boot(checkpoint, "processes", n=1) as srv:
            want = np.stack([srv.predict(it) for it in items])
            old_pid = _pid(srv)
            os.kill(old_pid, signal.SIGKILL)
            _until(lambda: srv.stats()["alive"] == 0)
            # nothing was in flight: the next batch waits for the fresh
            # fork instead of failing
            got = np.stack([srv.predict(it) for it in items])
            fams = parse_prometheus_text(srv.metrics_text())
            assert sample_value(fams, "serve_worker_restarts_total",
                                worker="0") == 1
            stats = srv.stats()
            assert (stats["restarts"], stats["alive"],
                    stats["errors"]) == (1, 1, 0)
            assert _pid(srv) != old_pid
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, _serial_reference(items))

    def test_kill_mid_batch_fails_every_request_of_it(self, checkpoint):
        items = _items(3, seed=4)
        with _boot(checkpoint, "processes", n=1, max_latency=0.05) as srv:
            want = np.stack([srv.predict(it) for it in items])
            old_pid = _pid(srv)
            os.kill(old_pid, signal.SIGSTOP)  # the batch stays in flight
            handles = [srv.submit(it) for it in items]
            _until(lambda: srv.batcher.depth() == 0)
            os.kill(old_pid, signal.SIGKILL)
            for handle in handles:
                with pytest.raises(WorkerDiedError) as exc:
                    handle.wait(10.0)
                assert exc.value.worker == 0
                assert exc.value.exitcode == -signal.SIGKILL
            _until(lambda: srv.stats()["alive"] == 1)
            stats = srv.stats()
            assert (stats["restarts"], stats["errors"]) == (1, 3)
            assert _pid(srv) != old_pid
            got = np.stack([srv.predict(it) for it in items])
        np.testing.assert_array_equal(got, want)

    def test_hung_worker_fails_its_batch_at_the_deadline(
            self, checkpoint, monkeypatch):
        monkeypatch.setattr(server_module, "REQUEST_TIMEOUT", 0.3)
        items = _items(2, seed=5)
        with _boot(checkpoint, "processes", n=1) as srv:
            want = np.stack([srv.predict(it) for it in items])
            old_pid = _pid(srv)
            os.kill(old_pid, signal.SIGSTOP)
            t0 = time.monotonic()
            handle = srv.submit(items[0])
            with pytest.raises(WorkerDiedError, match="worker 0"):
                handle.wait(10.0)
            assert 0.3 <= time.monotonic() - t0 < 5.0
            _until(lambda: srv.stats()["alive"] == 1)
            # killed, reaped and replaced
            with pytest.raises(ProcessLookupError):
                os.kill(old_pid, 0)
            assert _pid(srv) != old_pid
            assert srv.stats()["restarts"] == 1
            got = np.stack([srv.predict(it) for it in items])
        np.testing.assert_array_equal(got, want)

    def test_kill_under_load_resolves_every_handle(self, checkpoint):
        items = _items(16, seed=6)
        want = _serial_reference(items)
        outcomes = [[] for _ in range(8)]
        srv = _boot(checkpoint, "processes")

        def client(c):
            for k in range(40):
                i = (c + k) % len(items)
                try:
                    ok = np.array_equal(srv.predict(items[i], 15.0),
                                        want[i])
                    outcomes[c].append("served" if ok else "wrong")
                except (WorkerDiedError, BatcherClosedError):
                    outcomes[c].append("failed")

        clients = [threading.Thread(target=client, args=(c,))
                   for c in range(8)]
        for t in clients:
            t.start()
        _until(lambda: srv.stats()["served"] >= 40)
        os.kill(_pid(srv, 0), signal.SIGKILL)
        for t in clients:
            t.join(30.0)
        assert not any(t.is_alive() for t in clients)
        t0 = time.monotonic()
        srv.close()
        assert time.monotonic() - t0 < 5.0
        flat = [o for per_client in outcomes for o in per_client]
        assert len(flat) == 8 * 40 and "wrong" not in flat
        stats = srv.stats()
        assert flat.count("served") == stats["served"]
        assert flat.count("failed") == stats["errors"] <= BATCH
        assert stats["restarts"] == 1

    def test_boot_failure_names_the_worker_and_leaves_no_child(
            self, tmp_path):
        with pytest.raises(RuntimeError,
                           match="worker 0 failed to boot"):
            ProcessServerPool(str(tmp_path / "missing.npz"), workers=2)
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("repro-serve")]


ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def _cli(checkpoint, cache, log):
    """``python -m repro.serve`` with two thread replicas on ``cache``,
    in a child process; yields the URL it announces. Its JSON logs go
    to ``log``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "repro.serve", "--checkpoint", checkpoint,
            "--port", "0", "--batch-size", str(BATCH), "--replicas", "2",
            "--max-latency-ms", "2", "--compile-cache", str(cache)]
    with open(log, "w") as stderr, subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=stderr, text=True,
            env=env) as proc:
        try:
            line = proc.stdout.readline()
            url = re.search(r"http://[\d.]+:\d+", line)
            assert url, f"no address in {line!r}: {Path(log).read_text()}"
            yield url.group(0)
        finally:
            proc.terminate()


class TestCLI:
    """The deployment path across a process boundary: the checkpoint
    alone is enough for the CLI to reproduce this process's eval-mode
    forward bitwise, under concurrent clients, and a second boot on the
    same compile-cache directory runs no compiler."""

    def test_two_boots_on_one_cache(self, checkpoint, tmp_path):
        items = _items(8, seed=9)
        want = _serial_reference(items)
        misses = []
        for boot in (1, 2):
            with _cli(checkpoint, tmp_path / "cache",
                      tmp_path / f"boot{boot}.log") as base:

                def client(i):
                    rid = f"boot{boot}-{i}"
                    resp, payload = _post(
                        base + "/predict", {"inputs": [items[i].tolist()]},
                        headers={"X-Request-ID": rid})
                    assert resp.headers["X-Request-ID"] == rid
                    assert payload["request_id"] == rid
                    return payload["outputs"][0]

                with ThreadPoolExecutor(len(items)) as pool:
                    got = list(pool.map(client, range(len(items))))
                np.testing.assert_array_equal(
                    np.asarray(got, np.float32), want)
                with urllib.request.urlopen(base + "/metrics",
                                            timeout=10) as resp:
                    families = parse_prometheus_text(resp.read().decode())
            assert sample_value(families, "serve_requests_total",
                                outcome="served") == len(items)
            misses.append(sample_value(
                families, "serve_compile_cache_misses_total"))
        assert misses[0] >= 1 and misses[1] == 0, misses


class TestOneFrontEnd:
    """Structure: the process transport is a worker loop, not a second
    server."""

    def test_worker_module_imports_no_front_end(self):
        source = ROOT / "src" / "repro" / "serve" / "procserver.py"
        imported = []
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
        assert "repro.serve.replica" in imported
        assert not [name for name in imported if name.startswith(
            ("repro.serve.server", "repro.serve.batcher"))]

    def test_pool_era_names_are_gone(self):
        files = [p for top in ("src", "docs", "examples")
                 for p in sorted((ROOT / top).rglob("*"))
                 if p.suffix in (".py", ".md")]
        assert len(files) > 50
        for path in files:
            text = path.read_text()
            for name in ("serve_pool_", "merge_metrics_pages"):
                assert name not in text, f"{path} mentions {name}"
