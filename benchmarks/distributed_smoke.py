#!/usr/bin/env python
"""Multi-process data-parallel smoke: training throughput + serving QPS.

This is the ``distributed`` CI job body, runnable locally::

    PYTHONPATH=src python benchmarks/distributed_smoke.py

Three claims, measured on real processes (no simulator):

1. **Training scales.** ``solve(workers=2)`` on the Fig. 14 AlexNet
   geometry beats ``workers=1`` on steps/sec — gated at ≥1.6× on hosts
   with ≥2 cores (the paper's near-linear §7 story at unit scale); a
   single-core container time-slices the workers, so there the gate
   degrades to a sanity floor on the parallel efficiency.
2. **Sync reduction is deterministic.** Two identical 2-worker runs
   produce bitwise-identical parameters.
3. **Process serving beats thread serving.** The same ``ModelServer``
   sustains higher aggregate QPS over 2 worker processes
   (``workers=2``) than over 2 in-thread replicas (gated on multi-core
   hosts only — the GIL is the thing being escaped).

Measurements land in ``benchmarks/results/BENCH_distributed.json``.
"""

import os
import sys
import tempfile
import threading
import time

# keep every library single-threaded so worker processes are the only
# parallelism being measured (must happen before numpy import)
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(__file__))
from harness import BENCH_GEOMETRY, record_distributed  # noqa: E402

from repro.models import alexnet_config, build_latte, mlp_config  # noqa: E402
from repro.optim import CompilerOptions  # noqa: E402
from repro.runtime import ProcessTrainer, SyncReduce  # noqa: E402
from repro.serve import ModelServer, save_checkpoint  # noqa: E402
from repro.solvers import (  # noqa: E402
    SGD,
    LRPolicy,
    MomPolicy,
    SolverParameters,
)
from repro.utils.rng import seed_all  # noqa: E402

CORES = os.cpu_count() or 1
#: full gates need real cores; a 1-CPU container can only time-slice
MULTI_CORE = CORES >= 2
#: training speedup floor: paper-ish scaling with cores, parallel
#: efficiency sanity floor without (fork+IPC overhead must stay small)
TRAIN_GATE = 1.6 if MULTI_CORE else 0.55

TRAIN_BATCHES = 12
SERVE_REQUESTS = 64
SERVE_BATCH = 8


def _alexnet():
    scale, size, batch = BENCH_GEOMETRY["alexnet"]
    cfg = alexnet_config().scaled(channel_scale=scale, input_size=size,
                                  classes=100)
    seed_all(1)
    return build_latte(cfg, batch).init(CompilerOptions.level(4)), batch


def _solver():
    return SGD(SolverParameters(lr_policy=LRPolicy.Fixed(0.01),
                                mom_policy=MomPolicy.Fixed(0.9)))


def _params(cnet):
    return {info.value_buf: cnet.buffers[info.value_buf].copy()
            for info in cnet.plan.params}


def bench_training():
    cnet, batch = _alexnet()
    in_shape = cnet.value("data").shape[1:]
    n = batch * TRAIN_BATCHES
    rng = np.random.default_rng(0)
    data = rng.standard_normal((n,) + in_shape).astype(np.float32)
    labels = rng.integers(0, 100, (n, 1)).astype(np.float32)

    results = {}
    param_snaps = {}
    for run_key, workers in (("workers1", 1), ("workers2", 2),
                             ("workers2_rerun", 2)):  # rerun: determinism
        seed_all(1)
        net, _ = _alexnet()
        tr = ProcessTrainer(net, workers, SyncReduce())
        try:
            tr.train_epoch(_solver(), data, labels,
                           rng=np.random.default_rng(5))  # warm
            # best-of-3: single epochs are noisy on shared/1-core CI
            # hosts, and throughput is a capability claim (peak rate)
            best = None
            for rep in range(3):
                t0 = time.perf_counter()
                tr.train_epoch(_solver(), data, labels,
                               rng=np.random.default_rng(6 + rep))
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            results[run_key] = {
                "seconds": best,
                "steps_per_sec": tr.last_batches / best,
                "batches": tr.last_batches,
            }
            param_snaps[run_key] = _params(net)
        finally:
            tr.close()
            net.close()
    cnet.close()

    speedup = (results["workers2"]["steps_per_sec"]
               / results["workers1"]["steps_per_sec"])
    deterministic = all(
        np.array_equal(param_snaps["workers2"][k],
                       param_snaps["workers2_rerun"][k])
        for k in param_snaps["workers2"]
    )
    print(f"training: 1w {results['workers1']['steps_per_sec']:.2f} "
          f"steps/s, 2w {results['workers2']['steps_per_sec']:.2f} "
          f"steps/s -> {speedup:.2f}x (gate {TRAIN_GATE}x on "
          f"{CORES} core(s)); sync deterministic: {deterministic}")
    assert deterministic, "2-worker sync runs disagree bitwise"
    assert speedup >= TRAIN_GATE, (
        f"2-worker speedup {speedup:.2f}x under the {TRAIN_GATE}x gate "
        f"({CORES} cores)"
    )
    return {
        "workers1": results["workers1"],
        "workers2": results["workers2"],
        "speedup_2w": speedup,
        "gate": TRAIN_GATE,
        "sync_deterministic": deterministic,
    }


def _drive(server, items):
    """Fire SERVE_REQUESTS predictions from 8 client threads; returns
    (qps, p95_ms)."""
    errors = []

    def client(chunk):
        try:
            for it in chunk:
                server.predict(it, timeout=60.0)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    chunks = np.array_split(items, 8)
    threads = [threading.Thread(target=client, args=(c,)) for c in chunks]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    dt = time.perf_counter() - t0
    if errors:
        raise errors[0]
    stats = server.stats()  # one shape, either transport
    assert stats["errors"] == stats["restarts"] == 0, \
        f"replicas failed during the serving benchmark: {stats}"
    return len(items) / dt, stats["latency_ms"]["p95"]


def bench_serving():
    seed_all(0)
    config = mlp_config()
    cnet = build_latte(config, SERVE_BATCH).init(CompilerOptions.level(4))
    ckpt = os.path.join(tempfile.mkdtemp(), "dist_smoke.npz")
    save_checkpoint(ckpt, cnet, config=config, output="ip2")
    cnet.close()

    rng = np.random.default_rng(3)
    items = rng.standard_normal(
        (SERVE_REQUESTS, int(np.prod(config.input_shape)))
    ).astype(np.float32)

    thread_srv = ModelServer.from_checkpoint(
        ckpt, batch_size=SERVE_BATCH, replicas=2, max_latency=0.002)
    _drive(thread_srv, items[:16])  # warm
    thread_qps, thread_p95 = _drive(thread_srv, items)
    thread_srv.close()

    pool = ModelServer.from_checkpoint(
        ckpt, batch_size=SERVE_BATCH, workers=2, max_latency=0.002)
    _drive(pool, items[:16])  # warm
    pool_qps, pool_p95 = _drive(pool, items)
    pool.close()

    ratio = pool_qps / thread_qps
    print(f"serving: thread pool {thread_qps:.0f} qps (p95 "
          f"{thread_p95:.2f}ms), process pool {pool_qps:.0f} qps (p95 "
          f"{pool_p95:.2f}ms) -> {ratio:.2f}x")
    if MULTI_CORE:
        assert ratio > 1.0, (
            f"process pool slower than thread pool on {CORES} cores: "
            f"{pool_qps:.0f} vs {thread_qps:.0f} qps"
        )
    else:
        # single core the ratio is meaningless: inference on this MLP
        # is microseconds, so the pipe hop dominates and processes
        # cannot win. Gate instead on an absolute floor proving the
        # cross-process path itself is healthy, not pathological.
        assert pool_qps >= 300, (
            f"process-pool throughput pathological on 1 core: "
            f"{pool_qps:.0f} qps"
        )
    return {
        "thread_pool": {"replicas": 2, "qps": thread_qps,
                        "p95_ms": thread_p95},
        "process_pool": {"workers": 2, "qps": pool_qps,
                         "p95_ms": pool_p95},
        "qps_ratio": ratio,
        "gated": MULTI_CORE,
    }


def main() -> int:
    payload = {
        "cpu_count": CORES,
        "training": bench_training(),
        "serving": bench_serving(),
    }
    record_distributed(payload)
    print("wrote benchmarks/results/BENCH_distributed.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
