#!/usr/bin/env python
"""Cold-vs-warm server boot across process boundaries.

This is the ``cold-start`` CI job body, runnable locally::

    PYTHONPATH=src python benchmarks/cold_start_smoke.py

The parent saves a checkpoint of the fig14 AlexNet geometry, then boots
``ModelServer.from_checkpoint`` twice in **fresh processes** sharing one
compile-cache directory:

* boot 1 — empty cache: a full cold compile that seeds the cache;
* boot 2 — warm cache: the compiler must not run at all (the replica's
  ``compile_report`` says ``cache_hit``), the compile phase must be at
  least :data:`MIN_SPEEDUP`× faster, and the prediction must be
  **bitwise identical** to the cold boot's.

Measurements land in ``benchmarks/results/BENCH_cold_start.json``.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))
from harness import BENCH_GEOMETRY, record_cold_start  # noqa: E402

from repro.models import build_latte  # noqa: E402
from repro.models.configs import alexnet_config  # noqa: E402
from repro.optim import CompilerOptions  # noqa: E402
from repro.serve import save_checkpoint  # noqa: E402
from repro.utils.rng import seed_all  # noqa: E402

#: warm compile (thaw) must beat the cold compile by at least this much
MIN_SPEEDUP = 5.0


def fig14_config():
    scale, size, batch = BENCH_GEOMETRY["alexnet"]
    return alexnet_config().scaled(scale, size), batch


def child(checkpoint: str, cache_dir: str) -> int:
    """One server boot in this (fresh) process; prints a JSON report."""
    from repro.serve.server import ModelServer

    t0 = time.perf_counter()
    server = ModelServer.from_checkpoint(
        checkpoint, batch_size=fig14_config()[1], cache=cache_dir)
    boot_seconds = time.perf_counter() - t0
    try:
        report = server.replicas[0].net.compile_report
        x = np.random.default_rng(7).standard_normal(
            server.item_shape).astype(np.float32)
        out = server.predict(x, timeout=60.0)
        print(json.dumps({
            "boot_seconds": boot_seconds,
            "compile_seconds": report.compile_seconds,
            "cache_hit": report.cache_hit,
            "cache_key": report.cache_key,
            "prediction_hex": out.astype(np.float32).tobytes().hex(),
            "output_shape": list(out.shape),
        }))
    finally:
        server.close()
    return 0


def boot_once(checkpoint: str, cache_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child",
         "--checkpoint", checkpoint, "--cache-dir", cache_dir],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"child boot failed (rc={proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    config, batch = fig14_config()
    with tempfile.TemporaryDirectory() as tmp:
        seed_all(0)
        built = build_latte(config, batch)
        # a cheap compile is enough to snapshot parameters + builder
        cnet = built.init(CompilerOptions.inference(1))
        checkpoint = os.path.join(tmp, "fig14_alexnet.npz")
        save_checkpoint(checkpoint, cnet, config=config,
                        output=built.output.name)
        cnet.close()

        cache_dir = os.path.join(tmp, "compile-cache")
        cold = boot_once(checkpoint, cache_dir)
        warm = boot_once(checkpoint, cache_dir)

    failures = []
    if cold["cache_hit"]:
        failures.append("first boot unexpectedly hit the cache")
    if not warm["cache_hit"]:
        failures.append("second boot missed the cache")
    speedup = (cold["compile_seconds"] / warm["compile_seconds"]
               if warm["compile_seconds"] > 0 else float("inf"))
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"warm compile only {speedup:.1f}x faster "
            f"(cold {cold['compile_seconds']:.3f}s vs warm "
            f"{warm['compile_seconds']:.3f}s; need >= {MIN_SPEEDUP}x)")
    bitwise = warm["prediction_hex"] == cold["prediction_hex"]
    if not bitwise:
        failures.append("warm prediction is not bitwise-equal to cold")

    payload = {
        "model": config.name,
        "batch": batch,
        "cold": {k: cold[k] for k in
                 ("boot_seconds", "compile_seconds", "cache_hit")},
        "warm": {k: warm[k] for k in
                 ("boot_seconds", "compile_seconds", "cache_hit")},
        "compile_speedup": round(speedup, 2),
        "boot_speedup": round(
            cold["boot_seconds"] / max(warm["boot_seconds"], 1e-9), 2),
        "min_speedup": MIN_SPEEDUP,
        "bitwise_equal": bitwise,
        "ok": not failures,
    }
    record_cold_start(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"cold-start smoke OK: compile {cold['compile_seconds']:.3f}s "
          f"cold -> {warm['compile_seconds']:.3f}s warm "
          f"({speedup:.0f}x), bitwise predictions")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--child", action="store_true")
    ap.add_argument("--checkpoint")
    ap.add_argument("--cache-dir")
    args = ap.parse_args()
    if args.child:
        sys.exit(child(args.checkpoint, args.cache_dir))
    sys.exit(main())
