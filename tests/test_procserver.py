"""The multi-process serving pool (repro.serve.procserver).

ModelServer replicas as forked worker processes behind the same HTTP
front end: predictions must be bitwise what the in-process server
returns, request IDs must cross the process boundary, ``/metrics`` must
aggregate every worker's page under ``worker=`` labels, and a killed
worker must surface as a structured error + ``serve_worker_restarts_total``
bump + respawn — never a hung request.
"""

import json
import os
import signal
import threading
import time
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
from repro.serve import (
    ModelServer,
    ProcessServerPool,
    QueueFullError,
    make_http_server,
)
from repro.serve.checkpoint import save_checkpoint
from repro.telemetry import parse_prometheus_text, sample_value
from repro.utils.rng import seed_all

CONFIG = ModelConfig(
    "psrv_mlp", (6, 1, 1),
    (FCSpec("ip1", 8), ReLUSpec("relu1"), FCSpec("ip2", 3),
     SoftmaxLossSpec()),
    3,
)
BATCH = 4
OUT = "ip2"


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    seed_all(42)
    cnet = build_latte(CONFIG, BATCH).init()
    path = save_checkpoint(
        str(tmp_path_factory.mktemp("ckpt") / "m.npz"), cnet,
        config=CONFIG, output=OUT,
    )
    cnet.close()
    return path


@pytest.fixture()
def pool(checkpoint):
    p = ProcessServerPool(checkpoint, workers=2, batch_size=BATCH,
                          max_latency=0.002, heartbeat=0.2)
    yield p
    p.close()


def _items(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 6)).astype(np.float32)


def _wait_for_restart(pool, index, old_pid, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        w = pool.workers[index]
        if w.proc.pid != old_pid and w.alive():
            return w
        time.sleep(0.05)
    raise AssertionError(f"worker {index} did not restart in {timeout}s")


class TestParity:
    def test_pool_matches_in_process_server_bitwise(self, checkpoint,
                                                    pool):
        items = _items(11)
        ref = ModelServer.from_checkpoint(checkpoint, batch_size=BATCH)
        want = np.stack([ref.predict(it) for it in items])
        ref.close()
        got = np.stack([pool.predict(it) for it in items])
        assert np.array_equal(want, got)

    def test_item_shape_validation(self, pool):
        with pytest.raises(ValueError, match="item shape"):
            pool.submit(np.zeros((5,), np.float32))

    def test_worker_count_validation(self, checkpoint):
        with pytest.raises(ValueError):
            ProcessServerPool(checkpoint, workers=0)


class TestObservability:
    def test_metrics_page_aggregates_workers(self, pool):
        for it in _items(6, seed=1):
            pool.predict(it)
        page = pool.metrics_text()
        fams = parse_prometheus_text(page)
        # pool-level families, unlabeled
        assert sample_value(fams, "serve_pool_workers") == 2
        assert sample_value(
            fams, "serve_pool_requests_total", outcome="served") == 6
        # restarts counter is pre-touched per worker: explicit zeros
        for k in ("0", "1"):
            assert sample_value(
                fams, "serve_worker_restarts_total", worker=k) == 0
        # worker pages folded in under worker= labels
        per_worker = [
            sample_value(fams, "serve_requests_total",
                         outcome="served", worker=k)
            for k in ("0", "1")
        ]
        assert all(v is not None for v in per_worker)
        assert sum(per_worker) == 6

    def test_stats_aggregates_workers(self, pool):
        for it in _items(4, seed=2):
            pool.predict(it)
        st = pool.stats()
        assert st["workers"] == st["alive"] == 2
        assert st["served"] == 4
        assert st["restarts"] == 0
        assert len(st["per_worker"]) == 2
        assert sum(s["served"] for s in st["per_worker"]) == 4
        assert st["latency_ms"]["p50"] <= st["latency_ms"]["p99"]


class TestFailureHandling:
    def test_killed_worker_restarts_and_pool_keeps_serving(self, pool):
        items = _items(5, seed=3)
        want = np.stack([pool.predict(it) for it in items])
        w0 = pool.workers[0]
        old_pid = w0.proc.pid
        os.kill(old_pid, signal.SIGKILL)
        _wait_for_restart(pool, 0, old_pid)
        fams = parse_prometheus_text(pool.metrics_text())
        assert sample_value(fams, "serve_worker_restarts_total",
                            worker="0") == 1
        assert pool.stats()["restarts"] == 1
        got = np.stack([pool.predict(it) for it in items])
        assert np.array_equal(want, got)

    def test_pending_request_fails_structurally_not_hangs(self,
                                                          checkpoint):
        # a huge flush window keeps the submitted request queued in the
        # worker; killing the worker must fail it promptly with a
        # structured error instead of leaving the waiter hanging
        pool = ProcessServerPool(checkpoint, workers=1, batch_size=BATCH,
                                 max_latency=60.0, heartbeat=0.2,
                                 restart=False)
        try:
            req = pool.submit(_items(1)[0])
            os.kill(pool.workers[0].proc.pid, signal.SIGKILL)
            with pytest.raises(Exception) as ei:
                req.wait(15.0)
            assert "died" in str(ei.value)
            fams = parse_prometheus_text(pool.metrics_text())
            assert sample_value(fams, "serve_worker_restarts_total",
                                worker="0") == 1
        finally:
            pool.close()

    def test_parent_side_admission_cap(self, checkpoint):
        pool = ProcessServerPool(checkpoint, workers=1, batch_size=BATCH,
                                 max_latency=60.0, max_queue=1,
                                 heartbeat=0.2)
        pid = pool.workers[0].proc.pid
        try:
            # a stopped worker completes nothing, so the in-flight count
            # provably still holds the first request at the second submit
            os.kill(pid, signal.SIGSTOP)
            try:
                first = pool.submit(_items(1)[0])
                with pytest.raises(QueueFullError) as exc:
                    pool.submit(_items(1)[0])
            finally:
                os.kill(pid, signal.SIGCONT)
            assert exc.value.depth == 1
            pool.close()  # graceful drain completes the queued request
            assert first.wait(15.0) is not None
        finally:
            pool.close()


class TestHTTP:
    @pytest.fixture()
    def endpoint(self, pool):
        httpd = make_http_server(pool, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        yield f"http://{host}:{port}"
        httpd.shutdown()
        httpd.server_close()

    def test_request_id_crosses_the_process_boundary(self, endpoint,
                                                     pool):
        items = _items(1, seed=5)
        body = json.dumps({"inputs": items.tolist()}).encode()
        req = urllib.request.Request(
            endpoint + "/predict", data=body,
            headers={"Content-Type": "application/json",
                     "X-Request-ID": "cross-proc-7"})
        with urllib.request.urlopen(req, timeout=30) as resp:
            payload = json.loads(resp.read())
            assert resp.headers["X-Request-ID"] == "cross-proc-7"
        assert payload["request_id"] == "cross-proc-7"

    def test_metrics_endpoint_serves_merged_page(self, endpoint):
        with urllib.request.urlopen(endpoint + "/metrics",
                                    timeout=10) as resp:
            assert resp.status == 200
            fams = parse_prometheus_text(resp.read().decode())
        assert sample_value(fams, "serve_pool_workers") == 2
        assert "serve_worker_restarts_total" in fams

    def test_stats_endpoint(self, endpoint):
        items = _items(2, seed=6)
        body = json.dumps({"inputs": items.tolist()}).encode()
        req = urllib.request.Request(
            endpoint + "/predict", data=body,
            headers={"Content-Type": "application/json"})
        urllib.request.urlopen(req, timeout=30).read()
        with urllib.request.urlopen(endpoint + "/stats",
                                    timeout=10) as resp:
            payload = json.loads(resp.read())
        assert payload["served"] == 2
        assert payload["alive"] == 2
