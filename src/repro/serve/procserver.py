"""The in-process replica transport: one ``CompiledNet`` per forked
worker, behind the same replica interface as
:class:`~repro.serve.replica.NetReplica`.

Thread replicas scale until the GIL does not. A :class:`ProcessReplica`
is instead a :class:`~repro.runtime.worker.ForkedWorker` (the handle the
data-parallel trainer also uses) whose child boots *one* ``NetReplica``
— through the compile cache, so every boot after the first is a warm
thaw, and the parent never loads the model — and loops ``recv padded
batch → forward → send rows``. Admission, the one batcher, metrics, logs,
drain and HTTP stay in the parent's
:class:`~repro.serve.server.ModelServer`, whose replica thread ``k`` is
the only caller of worker ``k``'s :meth:`run`: one message each way per
micro-batch.

That waiting thread is also the only supervisor, through the handle's
``recv``: a dead worker (pipe EOF) or a hung one (``deadline`` seconds
without a reply, then killed) makes :meth:`run` raise a structured
:class:`~repro.runtime.worker.WorkerDiedError`; the front end fails that
batch's requests with it and calls :meth:`respawn`. An exception raised
*inside* a worker's forward ships back as
:class:`~repro.runtime.worker.WorkerError` and the worker lives on. (A
worker that stops reading while the parent is still writing a batch
larger than the socket buffer blocks the write, deadline or not.)
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.runtime.worker import ForkedWorker, WorkerDiedError, WorkerError
from repro.serve.replica import BOOT_FACTS

#: seconds a worker gets to load the checkpoint and compile its replica
BOOT_TIMEOUT = 300.0


def _worker_main(conn, boot: Callable) -> None:
    """Worker process body: boot one replica, then answer ``(x, n)``
    batches with ``("rows", out)`` / ``("error", type, message)`` until
    ``None`` (stop) or parent death (pipe EOF)."""
    try:
        replica = boot()
    except Exception as exc:  # noqa: BLE001 - reported, then the parent raises
        conn.send(("error", type(exc).__name__, str(exc)))
        return
    conn.send(("ready", {name: getattr(replica, name)
                         for name in BOOT_FACTS}, replica.memory_stats()))
    try:
        while (batch := conn.recv()) is not None:
            try:
                reply = ("rows", replica.run(*batch))
            except Exception as exc:  # noqa: BLE001 - fails the batch, not the worker
                reply = ("error", type(exc).__name__, str(exc))
            conn.send(reply)
    finally:
        replica.close()


class ProcessReplica(ForkedWorker):
    """Parent-side handle of one serving worker process: the forked
    worker handle with the serving ``deadline``, plus the replica
    interface (boot facts, :meth:`run`, :meth:`respawn`)."""

    def __init__(self, index: int, boot: Callable, deadline: float,
                 pool: List["ProcessReplica"]):
        super().__init__(index, _worker_main, (boot,), pool,
                         float(deadline), "repro-serve")

    def wait_ready(self) -> None:
        """Block until the worker has booted and adopt the facts it
        reports; a failed boot reaps the child and raises, naming the
        worker."""
        try:
            _ready, facts, self._memory = self.recv("booting", BOOT_TIMEOUT)
        except (WorkerError, WorkerDiedError) as exc:
            self.reap()
            raise RuntimeError(
                f"worker {self.index} failed to boot: {exc} "
                f"(exitcode={self.proc.exitcode})") from exc
        for name in BOOT_FACTS:
            setattr(self, name, facts[name])

    def respawn(self) -> None:
        """Replace a dead worker with a fresh fork of the same boot."""
        self.reap()
        self.refork()
        self.wait_ready()

    def memory_stats(self) -> Dict[str, int]:
        return self._memory

    def run(self, x: np.ndarray, n: int, request_ids: str = "") -> np.ndarray:
        """Ship one padded batch to the worker and wait for its rows
        (``request_ids`` stays in the parent, which owns the spans and
        logs)."""
        self.send((x, n))
        return self.recv("serving a batch")[1]


def spawn_replicas(boot: Callable, n: int,
                   deadline: float) -> List[ProcessReplica]:
    """Fork ``n`` workers that each run ``boot()`` (returning the
    :class:`~repro.serve.replica.NetReplica` to serve), and wait for all
    of them. If any fails to boot, every child is reaped before the
    error propagates."""
    pool: List[ProcessReplica] = []
    try:
        for index in range(n):
            pool.append(ProcessReplica(index, boot, deadline, pool))
        for replica in pool:
            replica.wait_ready()
    except BaseException:
        for replica in pool:
            replica.reap()
        raise
    return pool
