"""Real data parallelism (§5.3, §7, Figs 18-20 on real cores).

The simulator (:class:`~repro.runtime.distributed.ClusterSimulator`)
models the paper's cluster runs on a virtual clock. This module is the
one trainer that runs them for real: N workers, each owning a full
compiled replica, with parameters and gradient accumulators in one
block every replica is rebound onto.

How the pieces fit:

* :class:`SharedParamBlock` packs every learnable parameter into one
  flat float32 *values* block plus an ``(n_rows, total)`` *gradient
  grid*, carved back into per-tensor views with
  :func:`~repro.runtime.buffers.param_layout`. Each worker rebinds its
  replica onto the block through the existing
  :meth:`~repro.runtime.executor.CompiledNet.rebind_buffers` seam — the
  compiled program is untouched; only the buffer table changes.
* :class:`DataParallelTrainer` starts the workers over one of two
  transports, derived from its arguments — forked processes with the
  block in POSIX shared memory, or daemon threads with it on the heap —
  all running the one :func:`_worker_main` loop behind a
  :mod:`~repro.runtime.worker` handle, and deals them micro-batch index
  sets under a :class:`ReducePolicy`: :class:`SyncReduce`,
  :class:`LossyAccumulate` or :class:`AsyncLossy`.

Fork is the only process start method: ``spawn`` would have to pickle
the compiled program (closures and all) and recompile in every worker.
On platforms without ``fork`` the constructor raises. One caveat
inherited from fork: the C/OpenMP backend's libgomp state does not
survive a fork that happens *after* the parent entered a parallel
region — fork the trainer before running the parent net, or use the
NumPy backend for multi-process training (see docs/DISTRIBUTED.md).

Worker failures never hang the parent: a dead process is pipe EOF and
raises :class:`~repro.runtime.worker.WorkerDiedError` (index, exit
code, phase); an exception inside a worker is shipped back and
re-raised as :class:`~repro.runtime.worker.WorkerError` with the
worker's traceback text attached. Either closes the trainer on the
spot (the other workers are not waited for), which hands the parent net
back its own arrays holding the values trained so far.
"""

from __future__ import annotations

import copy
import time
import traceback
from contextlib import AbstractContextManager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.runtime.buffers import carve_param_views, param_layout
from repro.runtime.threads import tree_reduce
from repro.runtime.worker import (
    ForkedWorker,
    ThreadWorker,
    WorkerDiedError,
    WorkerError,
)
from repro.solvers.solve import _batches


# ---------------------------------------------------------------------------
# Reduce policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyncReduce:
    """Synchronous gradient summation (§5.3 semantics at worker
    granularity): the parent barriers on every round of ``n_workers``
    micro-batches, tree-reduces the gradient grid in the same fixed
    pairwise order the thread executor uses
    (:func:`~repro.runtime.threads.tree_reduce`), and applies one solver
    update. Deterministic: bitwise-reproducible run to run at a fixed
    worker count, bitwise equal across the two transports, and at one
    worker bitwise-identical to the serial training loop."""


@dataclass(frozen=True)
class LossyAccumulate:
    """Racing gradient accumulation (§3.1, measured by Fig. 20): rounds
    like :class:`SyncReduce`, but every worker accumulates into the *one*
    gradient row without synchronization (genuine read-modify-write
    races — the paper's "threads update their computed values in
    place") and nobody reduces."""


@dataclass(frozen=True)
class AsyncLossy:
    """Asynchronous/lossy updates (§7, after Project Adam): each worker
    applies its own solver's update directly to the shared values,
    racing with its peers, bounded by ``max_staleness`` — a shared step
    counter keeps any worker from running more than that many steps
    ahead of the slowest one."""

    max_staleness: int = 4

    def __post_init__(self):
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")


ReducePolicy = Union[SyncReduce, LossyAccumulate, AsyncLossy]


# ---------------------------------------------------------------------------
# Shared parameter storage
# ---------------------------------------------------------------------------


class SharedParamBlock:
    """Parameter values, gradient rows and per-worker step counters in
    one place every replica binds to — POSIX shared memory
    (``shared=True``, for forked workers) or heap arrays of the same
    layout (threads).

    ``values`` is a flat float32 array holding every parameter tensor
    at :func:`~repro.runtime.buffers.param_layout` offsets; ``grads``
    is an ``(n_rows, total)`` grid — worker ``k`` accumulates into row
    ``k % n_rows``, and a sync round tree-reduces the rows into row 0
    (which is exactly what the parent replica's gradient views alias);
    ``steps`` holds one completed-step counter per row, read under
    :class:`AsyncLossy` where every worker has its own (int64, so a
    torn read is not a practical concern on one word).
    """

    def __init__(self, plan, n_rows: int, shared: bool = True):
        self.layout, self.total = param_layout(plan)
        self.n_rows = int(n_rows)
        self._shms: List[shared_memory.SharedMemory] = []
        try:
            self.values = self._array((self.total,), np.float32, shared)
            self.grads = self._array(
                (self.n_rows, self.total), np.float32, shared)
            self.steps = self._array((self.n_rows,), np.int64, shared)
        except BaseException:
            self.close(unlink=True)
            raise

    def _array(self, shape, dtype, shared: bool) -> np.ndarray:
        if not shared:
            return np.zeros(shape, dtype)
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        self._shms.append(
            shared_memory.SharedMemory(create=True, size=max(nbytes, 1)))
        return np.ndarray(shape, dtype, buffer=self._shms[-1].buf)

    def bindings(self, grad_row: int) -> Dict[str, np.ndarray]:
        """The buffer name → shared view dict that maps one replica
        onto this block (values shared by all, gradients private to
        ``grad_row``) through ``rebind_buffers`` — one program re-bake."""
        out = carve_param_views(self.layout, self.values)
        out.update(carve_param_views(
            self.layout, self.grads[grad_row], grads=True))
        return out

    def load_from(self, cnet) -> None:
        """Copy ``cnet``'s current parameter values into the shared
        values block (call before rebinding it)."""
        for info, off, shape, n in self.layout:
            self.values[off:off + n] = cnet.buffers[info.value_buf].ravel()

    def close(self, unlink: bool) -> None:
        """Drop this process's mapping; ``unlink=True`` (parent only)
        also removes the underlying blocks. Idempotent."""
        # release the exported views before closing the mappings
        self.values = self.grads = self.steps = None
        for shm in self._shms:
            # close() raises BufferError while numpy views of the block
            # are still alive — unlink anyway (the name goes away; the
            # mapping is released when the views are collected)
            try:
                shm.close()
            except BufferError:  # pragma: no cover - stray view alive
                pass
            if unlink:
                try:
                    shm.unlink()
                except (OSError, FileNotFoundError):  # pragma: no cover
                    pass


def _worker_main(conn, replica, block: SharedParamBlock, k: int) -> None:
    """Bind ``replica`` onto ``block`` (gradient row ``k % n_rows``),
    report ``("ready",)``, then answer ``("data", data, labels, data_name,
    label_name)``, ``("step", sel)`` and ``("async_epoch", sels, solver,
    max_staleness)`` until ``None`` (stop) or, in a forked child, parent
    death (pipe EOF)."""
    data = labels = names = solver = None

    def step(sel) -> float:
        # the serial loop clears parameter gradients here; the parent
        # clears the whole grid before each round instead, so that
        # workers sharing a row do not wipe each other's sums
        loss = replica.forward(**{names[0]: data[sel],
                                  names[1]: labels[sel]})
        replica.backward()
        return float(loss)

    msg = ("bind",)  # what every worker does first, unasked
    while msg is not None:
        kind, *args = msg
        try:
            if kind == "bind":
                replica.rebind_buffers(block.bindings(k % block.n_rows))
                reply = ("ready",)
            elif kind == "data":
                data, labels, *names = args
                reply = ("ok",)
            elif kind == "step":
                reply = ("done", step(*args))
            else:
                sels, shipped, bound = args
                solver = shipped if shipped is not None else solver
                reply = ("done", *_async_epoch(
                    replica, solver, block.steps, k, step, sels, bound))
        except Exception as exc:  # noqa: BLE001 - shipped; ends the trainer
            reply = ("error", type(exc).__name__, str(exc),
                     traceback.format_exc())
        conn.send(reply)
        msg = conn.recv()


def _async_epoch(replica, solver, steps, k, step, sels, bound):
    losses: List[float] = []
    max_spread = 0
    try:
        for sel in sels:
            # staleness gate: stall while we are too far ahead of the
            # slowest worker (spread measured in completed steps)
            while (spread := int(steps[k] - steps.min())) > bound:
                time.sleep(1e-4)
            max_spread = max(max_spread, spread)
            replica.clear_param_grads()
            losses.append(step(sel))
            # lossy by construction: in-place update of the shared
            # values, racing with every other worker's updates
            solver.update(replica)
            steps[k] += 1
    finally:
        # finished or failed: never hold a peer at the gate
        steps[k] = np.iinfo(np.int64).max
    return losses, max_spread


# ---------------------------------------------------------------------------
# The data-parallel trainer
# ---------------------------------------------------------------------------


class DataParallelTrainer(AbstractContextManager):
    """Data-parallel training across workers sharing parameter memory.

    ``cnet`` is the parent's compiled net. Construction packs its
    parameters into a :class:`SharedParamBlock`, rebinds the parent
    onto it (gradient row 0) and starts the workers: with
    ``replicas=[...]`` one daemon thread per caller-compiled replica
    (identical programs; ``replicas[0]`` may be ``cnet`` itself; one
    interpreter, one GIL), otherwise ``n_workers`` forked children that
    each rebind their inherited copy of ``cnet`` (copy-on-write — no
    pickling, no recompilation). :meth:`train_epoch` then drives the
    epoch under the chosen :class:`ReducePolicy`; :meth:`close` restores
    the parent's original parameter arrays (values copied back) and
    tears the workers down.

    Works as a context manager; ``solve(..., workers=N)`` wraps the
    process transport for the full training loop (eval, checkpoints,
    monitors).
    """

    def __init__(self, cnet, n_workers: Optional[int] = None,
                 policy: Optional[ReducePolicy] = None,
                 replicas: Optional[Sequence] = None):
        threads = replicas is not None
        if threads and n_workers not in (None, len(replicas)):
            raise ValueError("n_workers disagrees with len(replicas)")
        n = len(replicas) if threads else n_workers
        if n is None or n < 1:
            raise ValueError("n_workers must be >= 1")
        policy = policy if policy is not None else SyncReduce()
        if not isinstance(policy, (SyncReduce, LossyAccumulate, AsyncLossy)):
            raise TypeError(
                f"reduce policy must be SyncReduce, LossyAccumulate or "
                f"AsyncLossy, got {type(policy).__name__}"
            )
        self.cnet = cnet
        self.n_workers = int(n)
        self.policy = policy
        self.workers: List[ForkedWorker] = []
        self.block: Optional[SharedParamBlock] = None
        self._orig: Dict[str, np.ndarray] = {}
        self._data_token = None
        self._async_solver_sent = False
        self._closed = False
        #: stats from the last train_epoch call
        self.last_batches = 0
        self.last_max_spread = 0
        try:
            n_rows = 1 if isinstance(policy, LossyAccumulate) else n
            self.block = block = SharedParamBlock(
                cnet.plan, n_rows, shared=not threads)
            # remember the original arrays so close() can restore them:
            # the ensemble field bindings alias these, and they must hold
            # the trained values after the shared block is unlinked
            self._orig = {name: cnet.buffers[name]
                          for name in block.bindings(0)}
            block.load_from(cnet)
            cnet.rebind_buffers(block.bindings(0))
            if not threads:
                cnet.close()  # shard threads do not survive a fork
            handle = ThreadWorker if threads else ForkedWorker
            for k, net in enumerate(replicas if threads else [cnet] * n):
                self.workers.append(handle(
                    k, _worker_main, (net, block, k), self.workers, None,
                    "repro-train"))
            self._gather(n, "binding the shared block")
        except BaseException:
            self.close()
            raise

    def _gather(self, n: int, phase: str) -> list:
        """One reply from each of the first ``n`` workers, taken as
        they arrive, returned in worker order."""
        pending, replies = list(self.workers[:n]), {}
        while pending:
            w = pending[0].first_ready(pending)
            pending.remove(w)
            replies[w.index] = w.recv(phase)
        return [replies[k] for k in range(n)]

    def _ship_data(self, data, labels, data_name, label_name) -> None:
        token = (id(data), id(labels), len(data), data_name, label_name)
        if token == self._data_token:
            return
        for w in self.workers:
            w.send(("data", data, labels, data_name, label_name))
        self._gather(self.n_workers, "shipping the dataset")
        self._data_token = token

    def train_epoch(self, solver, data: np.ndarray, labels: np.ndarray,
                    data_name: str = "data", label_name: str = "label",
                    rng=None, shuffle: bool = True) -> float:
        """One epoch over ``data``; returns the mean micro-batch loss.

        Micro-batches are the serial loop's (same generator: same RNG
        consumption, same ordering), then dealt to workers: under
        :class:`SyncReduce` / :class:`LossyAccumulate` in rounds of
        ``n_workers`` consecutive batches with one solver update per
        round (group semantics — the effective batch is ``batch_size *
        n_workers``; a short final round updates from however many
        batches remain), under :class:`AsyncLossy` round-robin with
        worker-local updates. Sets :attr:`last_batches` (micro-batches
        run) and :attr:`last_max_spread` (async only: the largest
        observed staleness)."""
        if self._closed:
            raise RuntimeError("trainer is closed")
        rng = rng if rng is not None else np.random.default_rng(0)
        sels = list(_batches(len(data), self.cnet.batch_size, rng, shuffle))
        self.last_batches = len(sels)
        self.last_max_spread = 0
        try:
            self._ship_data(data, labels, data_name, label_name)
            if isinstance(self.policy, AsyncLossy):
                losses = self._async_epoch(solver, sels)
            else:
                losses = self._round_epoch(solver, sels)
        except (WorkerError, WorkerDiedError):
            # the trainer ends here, without waiting: a survivor may
            # still owe a reply or be stalled on a dead peer's counter
            self.close(timeout=0)
            raise
        # plain sequential sum: the serial loop accumulates epoch loss
        # the same way, keeping one worker bitwise-identical to it
        return sum(losses) / max(len(losses), 1)

    def _round_epoch(self, solver, sels) -> List[float]:
        losses: List[float] = []
        n = self.n_workers
        grads = self.block.grads
        for start in range(0, len(sels), n):
            grads[:] = 0.0
            round_sels = sels[start:start + n]
            for w, sel in zip(self.workers, round_sels):
                w.send(("step", sel))
            losses += [loss for _done, loss in self._gather(
                len(round_sels), "running a round")]
            # one row (lossy) is already the racing sum; the parent's
            # gradient views alias row 0 either way
            tree_reduce(grads)
            solver.update(self.cnet)
        return losses

    def _async_epoch(self, solver, sels) -> List[float]:
        self.block.steps[:] = 0
        for k, w in enumerate(self.workers):
            # each worker updates through its own copy of the solver
            shipped = (None if self._async_solver_sent
                       else copy.deepcopy(solver))
            w.send(("async_epoch", sels[k::self.n_workers], shipped,
                    self.policy.max_staleness))
        self._async_solver_sent = True
        losses: List[float] = []
        for _done, worker_losses, spread in self._gather(
                self.n_workers, "running an async epoch"):
            losses += worker_losses
            self.last_max_spread = max(self.last_max_spread, spread)
        return losses

    # -- lifecycle ----------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers, restore the parent net's original
        parameter arrays (trained values copied back in), and unlink
        the shared blocks. Idempotent, and safe on a half-built
        trainer."""
        if self._closed:
            return
        self._closed = True
        for w in self.workers:
            w.close(timeout)
        if self.block is None:
            return
        # copy the trained values back into the original arrays (which
        # the ensembles' field bindings still alias) and rebind the net
        # off the shared block before unlinking it
        for name, arr in self._orig.items():
            arr[...] = self.cnet.buffers[name]
        self.cnet.rebind_buffers(self._orig)
        self.block.close(unlink=True)

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
