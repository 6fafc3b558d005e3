"""``python -m repro.serve`` — boot a model server from a checkpoint.

Example::

    python -m repro.serve --checkpoint model.npz --port 8080 \\
        --batch-size 8 --replicas 2 --max-latency-ms 5

then::

    curl -s localhost:8080/healthz
    curl -s -X POST localhost:8080/predict \\
        -H 'X-Request-ID: my-trace-1' \\
        -d '{"inputs": [[...one item...]]}'
    curl -s localhost:8080/stats
    curl -s localhost:8080/metrics

Structured JSON request/batch logs go to stderr (one object per
line); the human-readable announce line stays on stdout.
"""

from __future__ import annotations

import argparse
import sys

from repro.serve.server import ModelServer, make_http_server
from repro.telemetry.logging import configure_json_logging


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve a Latte checkpoint over HTTP with dynamic "
                    "micro-batching (see docs/SERVING.md).",
    )
    ap.add_argument("--checkpoint", required=True,
                    help="path to a .npz checkpoint with a builder record")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8080)
    ap.add_argument("--batch-size", type=int, default=8,
                    help="compiled batch size = max micro-batch size")
    ap.add_argument("--replicas", type=int, default=1,
                    help="worker replicas sharing one parameter set")
    ap.add_argument("--workers", type=int, default=0,
                    help="run N replicas as worker *processes* instead "
                    "of in-process replica threads "
                    "(docs/DISTRIBUTED.md); excludes --replicas > 1")
    ap.add_argument("--max-latency-ms", type=float, default=5.0,
                    help="oldest-request age that forces a ragged flush")
    ap.add_argument("--max-queue", type=int, default=64,
                    help="admission bound on the server's one queue; "
                    "beyond it requests get 429")
    ap.add_argument("--output", default=None,
                    help="output ensemble (default: recorded in the "
                    "checkpoint)")
    ap.add_argument("--threads", type=int, default=None,
                    help="executor threads per replica")
    ap.add_argument("--compile-cache", nargs="?", const=True, default=None,
                    metavar="DIR",
                    help="compile through the persistent compilation "
                    "cache: warm boots skip every compiler pass "
                    "(docs/COMPILE_CACHE.md). Optional DIR overrides "
                    "REPRO_CACHE_DIR / ~/.cache/latte-repro/compile")
    args = ap.parse_args(argv)

    # validate the topology flags up front — a bad value
    # should be one clear line here, not a traceback (or a boot_error)
    # from deep inside a worker process
    if args.workers < 0:
        ap.error(f"--workers must be >= 0, got {args.workers}")
    if args.replicas < 1:
        ap.error(f"--replicas must be >= 1, got {args.replicas}")
    if args.batch_size < 1:
        ap.error(f"--batch-size must be >= 1, got {args.batch_size}")
    if args.workers and args.replicas > 1:
        ap.error(f"--workers {args.workers} with --replicas "
                 f"{args.replicas}: pick one transport")

    configure_json_logging()
    server = ModelServer.from_checkpoint(
        args.checkpoint,
        batch_size=args.batch_size,
        replicas=args.replicas,
        workers=args.workers,
        output=args.output,
        num_threads=args.threads,
        max_latency=args.max_latency_ms / 1e3,
        max_queue=args.max_queue,
        cache=args.compile_cache,
    )
    httpd = make_http_server(server, args.host, args.port)
    host, port = httpd.server_address[:2]
    print(f"serving {args.checkpoint} on http://{host}:{port} "
          f"(batch={server.batch_size}, replicas={len(server.replicas)} "
          f"{'processes' if args.workers else 'threads'}) "
          f"— POST /predict, GET /healthz, GET /stats, GET /metrics",
          flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
