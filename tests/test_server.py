"""The model server (:mod:`repro.serve.server`): batched execution must
be bitwise-equal to serial forwards, replicas must share parameter
storage, overload must shed with structured 429s, request IDs must
propagate end to end, and the stdlib HTTP front end must speak its
endpoints — including ``GET /metrics`` in Prometheus text format
agreeing with ``stats()``."""

import io
import json
import logging
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.models import (
    FCSpec,
    ModelConfig,
    ReLUSpec,
    SoftmaxLossSpec,
    build_latte,
)
from repro.optim import CompilerOptions
from repro.serve import ModelServer, QueueFullError, make_http_server
from repro.telemetry import (
    JsonLogFormatter,
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
    """n forward-only replicas with identical parameters."""
    nets = []
    for _ in range(n):
        seed_all(seed)
        nets.append(build_latte(CONFIG, batch).init(
            CompilerOptions.inference()))
    return nets


def _gated_replica():
    """One replica whose ``forward`` blocks until ``release`` is set
    (``entered`` says a batch is inside it) — a full queue flushes at
    once, so overload only exists while the worker is busy."""
    replica, = _replicas(1)
    entered, release = threading.Event(), threading.Event()
    forward = replica.forward

    def gated(**inputs):
        entered.set()
        release.wait(10.0)
        return forward(**inputs)

    replica.forward = gated
    return replica, entered, release


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


class TestBatchedExecution:
    def test_batched_equals_serial_bitwise(self):
        items = _items(13)
        want = _serial_reference(items)
        with ModelServer(_replicas(1), OUT, max_latency=0.002) as srv:
            handles = [srv.submit(item) for item in items]
            got = np.stack([h.wait(30.0) for h in handles])
        np.testing.assert_array_equal(got, want)

    def test_concurrent_submitters_bitwise(self):
        items = _items(24, seed=7)
        want = _serial_reference(items)
        results = [None] * len(items)
        with ModelServer(_replicas(2), OUT, max_latency=0.002) as srv:
            def client(i):
                results[i] = srv.predict(items[i])

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(items))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = srv.stats()
        np.testing.assert_array_equal(np.stack(results), want)
        assert stats["served"] == len(items)
        assert stats["batches"] >= len(items) // BATCH
        assert 0 < stats["mean_batch_fill"] <= 1.0
        assert stats["latency_ms"]["p50"] <= stats["latency_ms"]["p99"]

    def test_item_shape_validated(self):
        with ModelServer(_replicas(1), OUT) as srv:
            with pytest.raises(ValueError, match="shape"):
                srv.submit(np.zeros(5, np.float32))

    def test_worker_error_propagates_to_waiter(self):
        with ModelServer(_replicas(1), "no_such_ensemble",
                         max_latency=0.002) as srv:
            with pytest.raises(KeyError):
                srv.predict(_items(1)[0], timeout=10.0)


class TestReplicaPool:
    def test_replicas_share_parameter_storage(self):
        replicas = _replicas(2)
        with ModelServer(replicas, OUT) as srv:
            primary, secondary = srv.replicas
            for info in primary.plan.params:
                assert secondary.buffers[info.value_buf] is \
                    primary.buffers[info.value_buf]

    def test_rebound_params_change_replica_output(self):
        """Mutating the primary's weights must be visible through every
        replica — the single-parameter-set property."""
        items = _items(1)
        replicas = _replicas(2)
        srv = ModelServer(replicas, OUT, max_latency=0.002)
        try:
            before = srv.predict(items[0]).copy()
            for p in srv.replicas[0].parameters():
                p.value[...] = 0.0
            after = srv.predict(items[0])
            # zeroed weights: logits collapse to the bias-only row
            assert not np.array_equal(after, before)
        finally:
            srv.close()

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
    def test_overload_sheds_and_counts(self):
        replica, entered, release = _gated_replica()
        with ModelServer([replica], OUT, max_latency=60.0,
                         max_queue=1) as srv:
            running = srv.submit(_items(1)[0])
            assert entered.wait(5.0)  # the worker is busy with it...
            parked = srv.submit(_items(1)[0])  # ...so this one queues
            with pytest.raises(QueueFullError) as exc:
                srv.submit(_items(1)[0])
            assert exc.value.depth == 1
            assert exc.value.reason == "queue_full"
            assert srv.stats()["shed"] == 1
            release.set()
            srv.close()  # drains: the queued request still completes
            assert running.wait(10.0) is not None
            assert parked.wait(10.0) is not None

    def test_close_is_idempotent(self):
        srv = ModelServer(_replicas(1), OUT)
        srv.close()
        srv.close()


class TestHTTP:
    @pytest.fixture()
    def endpoint(self):
        srv = ModelServer(_replicas(1), OUT, max_latency=0.002)
        httpd = make_http_server(srv, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        yield f"http://{host}:{port}"
        httpd.shutdown()
        httpd.server_close()
        srv.close()

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, json.loads(resp.read())

    def _post(self, url, body):
        req = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())

    def test_healthz(self, endpoint):
        status, payload = self._get(endpoint + "/healthz")
        assert (status, payload) == (200, {"ok": True})

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
        want = _serial_reference(items)
        status, payload = self._post(
            endpoint + "/predict",
            json.dumps({"inputs": items.tolist()}).encode())
        assert status == 200
        got = np.asarray(payload["outputs"], np.float32)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)
        assert payload["latency_ms"] >= 0

    def test_stats_endpoint(self, endpoint):
        items = _items(2)
        self._post(endpoint + "/predict",
                   json.dumps({"inputs": items.tolist()}).encode())
        status, payload = self._get(endpoint + "/stats")
        assert status == 200
        assert payload["served"] == 2
        assert "latency_ms" in payload

    def test_bad_body_is_400(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post(endpoint + "/predict", b"not json")
        assert exc.value.code == 400

    def test_unknown_route_is_404(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._get(endpoint + "/nope")
        assert exc.value.code == 404


class TestMetricsEndpoint:
    @pytest.fixture()
    def stack(self):
        srv = ModelServer(_replicas(1), OUT, max_latency=0.002)
        httpd = make_http_server(srv, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        yield srv, f"http://{host}:{port}"
        httpd.shutdown()
        httpd.server_close()
        srv.close()

    def _scrape(self, base):
        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            return resp.read().decode()

    def test_scrape_parses_and_agrees_with_stats(self, stack):
        srv, base = stack
        items = _items(5, seed=3)
        body = json.dumps({"inputs": items.tolist()}).encode()
        req = urllib.request.Request(
            base + "/predict", data=body,
            headers={"Content-Type": "application/json"})
        urllib.request.urlopen(req, timeout=30).read()
        families = parse_prometheus_text(self._scrape(base))
        stats = srv.stats()
        assert sample_value(families, "serve_requests_total",
                            outcome="served") == stats["served"] == 5
        assert sample_value(families, "serve_requests_total",
                            outcome="shed") == stats["shed"] == 0
        assert sample_value(
            families, "serve_request_latency_seconds_count") == 5
        assert sample_value(families, "serve_batch_size") == BATCH
        assert sample_value(families, "serve_replicas") == 1
        assert sample_value(families, "serve_queue_depth") == 0
        assert sample_value(
            families, "serve_planned_bytes") == stats["planned_bytes"]
        assert families["serve_requests_total"]["type"] == "counter"
        assert (families["serve_request_latency_seconds"]["type"]
                == "histogram")

    def test_stats_percentiles_are_bucket_derived(self, stack):
        srv, base = stack
        for item in _items(9, seed=4):
            srv.predict(item)
        lat = srv.stats()["latency_ms"]
        assert lat["p50"] <= lat["p95"] <= lat["p99"]
        assert lat["mean"] > 0
        # bounded state: the histogram never stores raw samples
        hist = srv.registry.get("serve_request_latency_seconds")
        assert hist.count() == 9

    def test_checkpoint_age_gauge(self):
        import time

        with ModelServer(_replicas(1), OUT,
                         checkpoint_mtime=time.time() - 100) as srv:
            age = srv.registry.get("serve_checkpoint_age_seconds").value()
            assert 100 <= age < 160

    def test_shared_registry_across_servers(self):
        srv_a = ModelServer(_replicas(1), OUT)
        try:
            # a second server can reuse the same registry without
            # name-collision errors (get-or-create families)
            srv_b = ModelServer(_replicas(1), OUT,
                                registry=srv_a.registry)
            srv_b.close()
        finally:
            srv_a.close()


class TestRequestIds:
    @pytest.fixture()
    def endpoint(self):
        srv = ModelServer(_replicas(1), OUT, max_latency=0.002)
        httpd = make_http_server(srv, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        yield srv, f"http://{host}:{port}"
        httpd.shutdown()
        httpd.server_close()
        srv.close()

    def _post(self, url, payload, headers=None):
        hdrs = {"Content-Type": "application/json"}
        hdrs.update(headers or {})
        req = urllib.request.Request(
            url, data=json.dumps(payload).encode(), headers=hdrs)
        resp = urllib.request.urlopen(req, timeout=30)
        return resp, json.loads(resp.read())

    def test_client_supplied_id_echoed(self, endpoint):
        _, base = endpoint
        resp, payload = self._post(
            base + "/predict", {"inputs": [_items(1)[0].tolist()]},
            headers={"X-Request-ID": "trace-me-42"})
        assert resp.headers["X-Request-ID"] == "trace-me-42"
        assert payload["request_id"] == "trace-me-42"

    def test_generated_id_when_absent(self, endpoint):
        _, base = endpoint
        resp, payload = self._post(
            base + "/predict", {"inputs": [_items(1)[0].tolist()]})
        rid = payload["request_id"]
        assert rid and resp.headers["X-Request-ID"] == rid

    def test_multi_item_ids_fan_out(self, endpoint):
        srv, base = endpoint
        stream, handler = self._attach_log_capture()
        try:
            self._post(base + "/predict",
                       {"inputs": _items(3, seed=8).tolist()},
                       headers={"X-Request-ID": "multi"})
        finally:
            self._detach_log_capture(handler)
        logged = [json.loads(line) for line in
                  stream.getvalue().strip().splitlines()]
        ids = {e["request_id"] for e in logged
               if e["event"] == "request"}
        assert ids == {"multi/0", "multi/1", "multi/2"}

    def _attach_log_capture(self):
        logger = logging.getLogger("repro.serve")
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonLogFormatter())
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        return stream, handler

    def _detach_log_capture(self, handler):
        logging.getLogger("repro.serve").removeHandler(handler)

    def test_request_id_in_json_log_lines(self, endpoint):
        _, base = endpoint
        stream, handler = self._attach_log_capture()
        try:
            self._post(base + "/predict",
                       {"inputs": [_items(1)[0].tolist()]},
                       headers={"X-Request-ID": "log-probe"})
        finally:
            self._detach_log_capture(handler)
        events = [json.loads(line) for line in
                  stream.getvalue().strip().splitlines()]
        per_request = [e for e in events if e["event"] == "request"]
        assert any(e["request_id"] == "log-probe" for e in per_request)
        flushes = [e for e in events if e["event"] == "batch_flush"]
        assert any("log-probe" in e["request_ids"] for e in flushes)
        assert all("latency_ms" in e for e in per_request)

    def test_shed_is_429_with_context(self):
        replica, entered, release = _gated_replica()
        srv = ModelServer([replica], OUT, max_latency=60.0, max_queue=1)
        httpd = make_http_server(srv, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            self_post = lambda hdr: urllib.request.urlopen(  # noqa: E731
                urllib.request.Request(
                    base + "/predict",
                    data=json.dumps(
                        {"inputs": [_items(1)[0].tolist()]}).encode(),
                    headers={"Content-Type": "application/json",
                             "X-Request-ID": hdr}),
                timeout=5)
            # the first request occupies the worker, the second the
            # queue's one slot
            served = {}

            def post(hdr):
                served[hdr] = self_post(hdr).status

            posts = [threading.Thread(target=post, args=("a",))]
            posts[0].start()
            assert entered.wait(5.0)
            posts.append(threading.Thread(target=post, args=("b",)))
            posts[1].start()
            deadline = threading.Event()
            for _ in range(500):  # wait until it is actually queued
                if srv.batcher.depth() == 1:
                    break
                deadline.wait(0.01)
            with pytest.raises(urllib.error.HTTPError) as exc:
                self_post("c")
            assert exc.value.code == 429
            body = json.loads(exc.value.read())
            assert body["request_id"] == "c"
            assert body["shed"] == "queue_full"
            assert body["queue_depth"] == 1
            assert exc.value.headers["X-Request-ID"] == "c"
        finally:
            release.set()
            httpd.shutdown()
            httpd.server_close()
            srv.close()  # drains the parked request
            for poster in posts:
                poster.join(15.0)
        assert served == {"a": 200, "b": 200}

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
            assert srv.replicas[0].trace_context is None
