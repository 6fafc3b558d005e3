"""The in-process replica transport: one ``CompiledNet`` per forked
worker, behind the same replica interface as
:class:`~repro.serve.replica.NetReplica`.

Thread replicas scale until the GIL does not. A :class:`ProcessReplica`
instead forks a worker (the ``fork`` machinery of
:mod:`repro.runtime.procpool`) that boots *one* ``NetReplica`` — through
the compile cache, so every boot after the first is a warm thaw, and the
parent never loads the model — and loops ``recv padded batch → forward →
send rows``. Admission, the one batcher, metrics, logs, drain and HTTP
stay in the parent's :class:`~repro.serve.server.ModelServer`, whose
replica thread ``k`` is the only caller of worker ``k``'s :meth:`run`:
one message each way per micro-batch.

That waiting thread is also the only supervisor. A dead worker is pipe
EOF; a hung one (stuck in a forward, SIGSTOPped) is ``deadline`` seconds
without a reply, after which it is killed. Either way :meth:`run` raises
a structured :class:`~repro.runtime.procpool.WorkerDiedError` (worker
index, exit code); the front end fails that batch's requests with it and
calls :meth:`respawn`. An exception raised *inside* a worker's forward
ships back as :class:`~repro.runtime.procpool.WorkerError` and the
worker lives on. (A worker that stops reading while the parent is still
writing a batch larger than the socket buffer blocks the write, deadline
or not.)
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.runtime.procpool import (
    WorkerDiedError,
    WorkerError,
    _fork_context,
)
from repro.serve.replica import BOOT_FACTS

#: seconds a worker gets to load the checkpoint and compile its replica
BOOT_TIMEOUT = 300.0


def _worker_main(boot: Callable, conn, inherited) -> None:
    """Worker process body: boot one replica, then answer ``(x, n)``
    batches with ``("rows", out)`` / ``("error", type, message)`` until
    ``None`` (stop) or parent death (pipe EOF)."""
    for pc in inherited:
        pc.close()
    try:
        replica = boot()
    except Exception as exc:  # noqa: BLE001 - reported, then the parent raises
        conn.send(("boot_error", type(exc).__name__, str(exc)))
        return
    conn.send(("ready", {name: getattr(replica, name)
                         for name in BOOT_FACTS}, replica.memory_stats()))
    try:
        while True:
            batch = conn.recv()
            if batch is None:
                break
            try:
                reply = ("rows", replica.run(*batch))
            except Exception as exc:  # noqa: BLE001 - fails the batch, not the worker
                reply = ("error", type(exc).__name__, str(exc))
            conn.send(reply)
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        replica.close()
        conn.close()


class ProcessReplica:
    """Parent-side handle of one worker process. ``pool`` is the list
    every sibling handle lives in: a forked child closes its copies of
    all their pipe ends, so each worker sees EOF when the parent dies."""

    def __init__(self, index: int, boot: Callable, deadline: float,
                 pool: List["ProcessReplica"]):
        self.index = index
        self.deadline = float(deadline)
        self._boot = boot
        self._pool = pool
        self._fork()

    def _fork(self) -> None:
        ctx = _fork_context()
        self.conn, child_conn = ctx.Pipe()
        inherited = [self.conn] + [r.conn for r in self._pool
                                   if r is not self]
        self.proc = ctx.Process(
            target=_worker_main, args=(self._boot, child_conn, inherited),
            name=f"repro-serve-{self.index}", daemon=True,
        )
        self.proc.start()
        child_conn.close()

    def wait_ready(self) -> None:
        """Block until the worker has booted and adopt the facts it
        reports; a failed boot reaps the child and raises, naming the
        worker."""
        why = f"no reply within {BOOT_TIMEOUT:.0f}s"
        try:
            if self.conn.poll(BOOT_TIMEOUT):
                kind, *rest = self.conn.recv()
                if kind == "ready":
                    facts, self._memory = rest
                    for name in BOOT_FACTS:
                        setattr(self, name, facts[name])
                    return
                why = ": ".join(rest)
        except (EOFError, OSError):
            why = "died before reporting"
        self._reap()
        raise RuntimeError(f"worker {self.index} failed to boot: {why} "
                           f"(exitcode={self.proc.exitcode})")

    def _reap(self) -> None:
        """Kill (if still running) and wait for the child; close the
        pipe. Leaves ``proc.exitcode`` set."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()
        self.conn.close()

    def respawn(self) -> None:
        """Replace a dead worker with a fresh fork of the same boot."""
        self._reap()
        self._fork()
        self.wait_ready()

    def memory_stats(self) -> Dict[str, int]:
        return self._memory

    def alive(self) -> bool:
        return self.proc.is_alive()

    def run(self, x: np.ndarray, n: int, request_ids: str = "") -> np.ndarray:
        """Ship one padded batch to the worker and wait for its rows
        (``request_ids`` stays in the parent, which owns the spans and
        logs)."""
        try:
            self.conn.send((x, n))
            if not self.conn.poll(self.deadline):
                self.proc.kill()  # hung: same path as dead from here on
            kind, *rest = self.conn.recv()
        except (EOFError, OSError) as exc:
            self._reap()
            raise WorkerDiedError(self.index, self.proc.exitcode,
                                  "serving a batch") from exc
        if kind == "error":
            raise WorkerError(self.index, *rest)
        return rest[0]

    def close(self, timeout: float = 10.0) -> None:
        """Ask the worker to stop, then make sure it has."""
        try:
            self.conn.send(None)
            self.proc.join(timeout)
        except OSError:  # pipe already closed: the worker is gone
            pass
        self._reap()


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
            replica._reap()
        raise
    return pool
