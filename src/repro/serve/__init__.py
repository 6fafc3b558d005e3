"""Inference serving: forward-only compilation artifacts, checkpoints,
and a dynamic-batching model server (see docs/SERVING.md).

The compiler side lives in ``CompilerOptions(mode="inference")`` /
``CompilerOptions.inference()``; this package provides everything after
compilation: persisting trained parameters (:mod:`repro.serve.checkpoint`),
micro-batching request admission (:mod:`repro.serve.batcher`), and the
one serving front end — replica pool, metrics, stdlib HTTP
(:mod:`repro.serve.server`) — over a replica transport
(:mod:`repro.serve.replica`). ``python -m repro.serve --checkpoint
m.npz`` boots the whole stack from one artifact; add ``--workers N``
(``ModelServer.from_checkpoint(workers=N)``) and the same server runs
its replicas as worker *processes* (:mod:`repro.serve.procserver`,
docs/DISTRIBUTED.md) instead of threads.
"""

from repro.serve.batcher import (
    BatcherClosedError,
    DynamicBatcher,
    QueueFullError,
    Request,
)
from repro.serve.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.server import (
    ModelServer,
    ProcessServerPool,
    make_http_server,
)

__all__ = [
    "BatcherClosedError",
    "Checkpoint",
    "CheckpointError",
    "DynamicBatcher",
    "ModelServer",
    "ProcessServerPool",
    "QueueFullError",
    "Request",
    "load_checkpoint",
    "make_http_server",
    "save_checkpoint",
]
