"""One worker handle for training and serving, over two transports.

The data-parallel trainer (:mod:`repro.runtime.procpool`) and the
serving process replica (:mod:`repro.serve.procserver`) both drive a
worker with one message each way per unit of work. The handle owns
everything about *reaching* that worker: :class:`ForkedWorker` forks a
child running ``target(conn, *args)`` over a pipe, :class:`ThreadWorker`
runs the same target in a daemon thread of this process. Both answer
``send`` / ``recv(phase)`` / ``alive`` / ``close`` / ``first_ready``.

A forked worker's death is pipe EOF — every child closes its copies of
its siblings' parent pipe ends *and its own*, so the only other holder of
a pipe is the parent, and a child likewise sees EOF when the parent dies.
``recv`` therefore blocks on the pipe, not on a poll loop: EOF, or
``deadline`` seconds of silence (after which the child is killed), raises
a structured :class:`WorkerDiedError`; an ``("error", type, message[,
traceback])`` reply raises :class:`WorkerError` and the worker lives on.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from multiprocessing.connection import wait
from multiprocessing.dummy import Pipe as thread_pipe
from typing import Callable, List, Optional, Sequence


class ProcessPoolUnavailable(RuntimeError):
    """The platform cannot run the multi-process backend (no ``fork``
    start method — e.g. Windows)."""


class WorkerError(RuntimeError):
    """An exception raised *inside* a worker, re-raised in the parent
    with the worker's traceback text attached."""

    def __init__(self, worker: int, error_type: str, message: str,
                 tb: str = ""):
        super().__init__(
            f"worker {worker} raised {error_type}: {message}"
            + (f"\n--- worker traceback ---\n{tb}" if tb else "")
        )
        self.worker = worker
        self.error_type = error_type
        self.worker_message = message
        self.worker_traceback = tb


class WorkerDiedError(RuntimeError):
    """A worker process exited (or was killed) while work was pending.

    Structured: :attr:`worker` (index), :attr:`exitcode` (negative =
    killed by that signal), :attr:`phase` (what the parent was doing).
    """

    def __init__(self, worker: int, exitcode: Optional[int],
                 phase: str = ""):
        super().__init__(
            f"worker {worker} died (exitcode={exitcode})"
            + (f" while {phase}" if phase else "")
        )
        self.worker = worker
        self.exitcode = exitcode
        self.phase = phase


def _fork_context():
    try:
        return mp.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-POSIX platforms
        raise ProcessPoolUnavailable(
            "the multi-process backend needs the 'fork' start method "
            "(workers inherit the compiled replica copy-on-write); "
            "this platform does not provide it"
        ) from exc


def _child_main(target: Callable, conn, inherited, args) -> None:
    for parent_end in inherited:
        parent_end.close()
    try:
        target(conn, *args)
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away; just exit
    finally:
        conn.close()


class ForkedWorker:
    """Parent-side handle of one forked worker running
    ``target(conn, *args)``. ``pool`` is the list every sibling handle
    lives in (see the module docstring); ``deadline`` bounds each
    :meth:`recv` in seconds, ``None`` for no bound; the process is
    named ``{name}-{index}``."""

    def __init__(self, index: int, target: Callable, args: tuple,
                 pool: List["ForkedWorker"], deadline: Optional[float],
                 name: str):
        self.index = index
        self.deadline = deadline
        self._spawn = (target, args, pool, f"{name}-{index}")
        self.refork()

    def refork(self) -> None:
        """Fork a fresh child (the previous one, if any, was reaped)."""
        target, args, pool, name = self._spawn
        ctx = _fork_context()
        self.conn, child_conn = ctx.Pipe()
        inherited = [self.conn] + [w.conn for w in pool if w is not self]
        self.proc = ctx.Process(
            target=_child_main, name=name, daemon=True,
            args=(target, child_conn, inherited, args))
        try:
            self.proc.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            child_conn.close()

    def alive(self) -> bool:
        return self.proc.is_alive()

    def _died(self, phase: str) -> WorkerDiedError:
        self.reap()
        return WorkerDiedError(self.index, self.proc.exitcode, phase)

    def send(self, msg) -> None:
        try:
            self.conn.send(msg)
        except OSError as exc:
            raise self._died("sending work") from exc

    def recv(self, phase: str, deadline: Optional[float] = None):
        """The worker's next reply. ``deadline`` overrides the handle's
        for this one call (a boot is allowed longer than a batch)."""
        deadline = self.deadline if deadline is None else deadline
        try:
            if deadline is not None and not self.conn.poll(deadline):
                self.proc.kill()  # hung: same path as dead from here on
            reply = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._died(phase) from exc
        if reply[0] == "error":
            raise WorkerError(self.index, *reply[1:])
        return reply

    @staticmethod
    def first_ready(workers: Sequence["ForkedWorker"]) -> "ForkedWorker":
        """Block until one of ``workers`` has a reply (or is dead) and
        return it — a death is seen at once even while a peer is busy."""
        ready = wait([w.conn for w in workers])
        return next(w for w in workers if w.conn in ready)

    def reap(self) -> None:
        """Kill (if still running) and wait for the child; close the
        pipe. Leaves ``proc.exitcode`` set."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()
        self.conn.close()

    def close(self, timeout: float = 10.0) -> None:
        """Ask the worker to stop (``None``), then make sure it has."""
        try:
            self.conn.send(None)
            self.proc.join(timeout)
        except OSError:  # pipe already closed: the worker is gone
            pass
        self.reap()


class ThreadWorker(ForkedWorker):
    """The same handle over a daemon thread running ``target`` in this
    process: messages pass by reference over ``multiprocessing.dummy``'s
    queue-backed pipe, nothing is pickled. A thread cannot be killed or
    die under its parent, so there is never an EOF, reaping is waiting
    for it to take the stop message, and replies are taken in worker
    order."""

    def refork(self) -> None:
        target, args, _pool, name = self._spawn
        self.conn, worker_end = thread_pipe()
        self.proc = threading.Thread(
            target=target, args=(worker_end, *args), name=name, daemon=True)
        self.proc.start()

    def reap(self) -> None:
        self.proc.join()

    @staticmethod
    def first_ready(workers: Sequence["ThreadWorker"]) -> "ThreadWorker":
        return workers[0]
