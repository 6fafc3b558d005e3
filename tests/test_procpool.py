"""The data-parallel trainer (repro.runtime.procpool) on both transports.

Pins the contract the paper's §5.3/§7 story rides on: one worker under
synchronous reduction is bitwise the serial training loop, multi-worker
sync runs are deterministic run to run *and* bitwise equal between the
thread and the process transport, the lossy policies honour their bounds
and still learn (Fig. 20 at unit scale), the parent's original parameter
arrays come back (trained) after close, and construction failures,
worker exceptions and worker deaths surface as structured errors that
leak nothing — no hang, no child, no ``/dev/shm`` segment.
"""

import contextlib
import itertools
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.codegen.c_backend import have_c_toolchain
from repro.core import Net
from repro.layers import (
    DataAndLabelLayer,
    FullyConnectedLayer,
    ReLULayer,
    SoftmaxLossLayer,
)
from repro.optim import CompilerOptions
from repro.runtime import (
    AsyncLossy,
    DataParallelTrainer,
    LossyAccumulate,
    MultiThreadTrainer,
    SharedParamBlock,
    SyncReduce,
    WorkerDiedError,
    WorkerError,
)
from repro.runtime.buffers import param_layout
from repro.solvers import (
    SGD,
    Dataset,
    LRPolicy,
    MomPolicy,
    SolverParameters,
    evaluate,
    solve,
)
from repro.utils.rng import seed_all

BATCH = 8
TRANSPORTS = ("process", "thread")
POLICIES = {"sync": SyncReduce(), "lossy": LossyAccumulate(),
            "async": AsyncLossy(max_staleness=2)}


def _build(backend="numpy"):
    seed_all(17)
    net = Net(BATCH)
    data, label = DataAndLabelLayer(net, (32,))
    ip1 = FullyConnectedLayer("ip1", net, data, 24)
    r = ReLULayer("r", net, ip1)
    ip2 = FullyConnectedLayer("ip2", net, r, 4)
    SoftmaxLossLayer("loss", net, ip2, label)
    return net.init(CompilerOptions(backend=backend))


def _task(n=256, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.random.default_rng(99).standard_normal((4, 32)) * 2
    labels = rng.integers(0, 4, n)
    data = centers[labels] + 0.4 * rng.standard_normal((n, 32))
    return data.astype(np.float32), labels.astype(np.float32).reshape(-1, 1)


def _solver(lr=0.05, mom=0.9):
    return SGD(SolverParameters(lr_policy=LRPolicy.Fixed(lr),
                                mom_policy=MomPolicy.Fixed(mom),
                                max_epoch=3))


def _params(cnet):
    return {info.value_buf: cnet.buffers[info.value_buf].copy()
            for info in cnet.plan.params}


def _own_arrays(cnet):
    return {info.value_buf: cnet.buffers[info.value_buf]
            for info in cnet.plan.params}


@contextlib.contextmanager
def _trainer(transport, n_workers, policy=None, backend="numpy",
             parent_step=False):
    """``(trainer, parent net)`` on ``transport``: forked workers of one
    net, or threads on ``n_workers`` identically built ones;
    ``parent_step`` runs one training step on the parent net before the
    trainer starts its workers."""
    nets = [_build(backend)
            for _ in range(n_workers if transport == "thread" else 1)]
    if parent_step:
        x, y = _task(BATCH, seed=5)
        nets[0].forward(data=x, label=y)
        nets[0].backward()
    try:
        args = ((None, policy, nets) if transport == "thread"
                else (n_workers, policy))
        with DataParallelTrainer(nets[0], *args) as trainer:
            yield trainer, nets[0]
    finally:
        for net in nets:
            net.close()


def _leftovers():
    """What a trainer must not leave behind."""
    return (set(os.listdir("/dev/shm")),
            {p.pid for p in multiprocessing.active_children()})


class TestSharedParamBlock:
    def test_layout_covers_every_parameter(self):
        cnet = _build()
        try:
            layout, total = param_layout(cnet.plan)
            assert total == sum(n for _, _, _, n in layout)
            assert {info.value_buf for info, _, _, _ in layout} == {
                info.value_buf for info in cnet.plan.params
            }
        finally:
            cnet.close()

    @pytest.mark.parametrize("shared", [True, False], ids=["shm", "heap"])
    def test_bindings_alias_one_flat_block(self, shared):
        cnet = _build()
        block = SharedParamBlock(cnet.plan, 2, shared=shared)
        try:
            views = block.bindings(grad_row=1)
            for info, off, shape, n in block.layout:
                v = views[info.value_buf]
                assert v.shape == shape
                assert np.shares_memory(v, block.values)
                g = views[info.grad_buf]
                assert np.shares_memory(g, block.grads[1])
                assert not np.shares_memory(g, block.grads[0])
        finally:
            block.close(unlink=True)
            cnet.close()

    def test_thread_replicas_share_values_and_lossy_shares_the_row(self):
        sync = MultiThreadTrainer(_build, 3, lossy=False)
        lossy = MultiThreadTrainer(_build, 2, lossy=True)
        try:
            assert all(w.alive() for w in sync.workers + lossy.workers)
            w = [rep.buffers["ip1_weights"] for rep in sync.replicas]
            g = [rep.buffers["ip1_grad_weights"] for rep in sync.replicas]
            assert np.shares_memory(w[0], w[1])
            assert np.shares_memory(w[0], w[2])
            assert not np.shares_memory(g[0], g[1])
            assert lossy.block.grads.shape[0] == 1
            assert np.shares_memory(
                *(rep.buffers["ip1_grad_weights"] for rep in lossy.replicas))
        finally:
            for tr in (sync, lossy):
                tr.close()
                for rep in tr.replicas:
                    rep.close()


class TestSerialParity:
    def test_workers1_sync_is_bitwise_serial(self):
        """The acceptance bar: one process worker = the serial loop,
        loss trajectory and parameters bitwise."""
        data, labels = _task(128)
        ds = Dataset(data, labels)

        serial = _build()
        h_serial = solve(_solver(), serial, ds,
                         rng=np.random.default_rng(7))
        w_serial = _params(serial)
        serial.close()

        proc = _build()
        h_proc = solve(_solver(), proc, ds, workers=1,
                       rng=np.random.default_rng(7))
        w_proc = _params(proc)
        proc.close()

        assert h_serial.losses == h_proc.losses
        for name in w_serial:
            assert np.array_equal(w_serial[name], w_proc[name]), name

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_original_arrays_restored_after_close(self, transport):
        """close() hands the net owned arrays — heap copies, not views
        of the shared block or /dev/shm — holding the trained values,
        and its field bindings and parameter views point at them."""
        data, labels = _task(64)
        cnet = _build()
        replicas = [cnet, _build()] if transport == "thread" else None
        with DataParallelTrainer(cnet, 2, replicas=replicas) as tr:
            tr.train_epoch(_solver(), data, labels,
                           rng=np.random.default_rng(1))
            trained = _params(cnet)
        views = {(p.ensemble, p.name): p for p in cnet.parameters()}
        for info in cnet.plan.params:
            arr = cnet.buffers[info.value_buf]
            assert arr.flags.owndata, info.value_buf
            assert np.array_equal(arr, trained[info.value_buf])
            binding = cnet.net[info.ensemble].field_bindings[info.name]
            assert binding.array is arr
            assert cnet.plan.buffers[info.value_buf].array is arr
            assert views[info.ensemble, info.name].value is arr
        cnet.close()


def _sync_run(transport, n_workers, data, labels, epochs=2, **build):
    with _trainer(transport, n_workers, SyncReduce(), **build) as (tr, cnet):
        solver = _solver()
        losses = [tr.train_epoch(solver, data, labels,
                                 rng=np.random.default_rng(11 + epoch))
                  for epoch in range(epochs)]
        assert tr.last_batches == len(data) // BATCH
        return losses, _params(cnet)


@pytest.mark.parametrize("n_workers", [2, 4])
def test_sync_reduce_is_deterministic(n_workers):
    """Two identical runs at the same worker count produce bitwise
    identical parameters — the fixed tree-reduction order at work."""
    data, labels = _task(96)
    (_, a), (_, b) = (_sync_run("process", n_workers, data, labels)
                      for _ in range(2))
    for name in a:
        assert np.array_equal(a[name], b[name]), name


@pytest.mark.parametrize("n_workers,backend", [
    pytest.param(1, "numpy", id="1"),
    pytest.param(2, "numpy", id="2"),
    pytest.param(4, "numpy", id="4"),
    pytest.param(2, "c", id="2-c", marks=pytest.mark.skipif(
        not have_c_toolchain(), reason="no usable C toolchain")),
])
def test_sync_reduce_is_bitwise_across_transports(n_workers, backend):
    """One round loop, one reduction order: threads and processes give
    the same numbers, per-epoch losses and final parameters — on 13
    micro-batches, so 2 and 4 workers end on a short round — and one
    worker on either gives the serial loop's. On the C backend the
    parent runs a step before its workers fork: the children inherit a
    loaded native program and run it as the parent does."""
    data, labels = _task(13 * BATCH + 3)
    runs = {t: _sync_run(t, n_workers, data, labels, backend=backend,
                         parent_step=backend == "c")
            for t in TRANSPORTS}
    if n_workers == 1:
        cnet = _build()
        solver = _solver()
        runs["serial"] = ([
            solve(solver, cnet, Dataset(data, labels), epochs=1,
                  rng=np.random.default_rng(11 + epoch)).losses[0]
            for epoch in range(2)], _params(cnet))
        cnet.close()
    want_losses, want = runs.pop("process")
    for name, (losses, got) in runs.items():
        assert losses == want_losses, name
        for buf in want:
            assert np.array_equal(got[buf], want[buf]), (name, buf)


@pytest.mark.parametrize(
    "transport,policy,n_workers",
    list(itertools.product(TRANSPORTS, POLICIES, (1, 2, 4))))
def test_every_configuration_trains(transport, policy, n_workers):
    """The closed matrix transport × policy × workers: every cell is
    legal (nothing in the round loop branches on the transport) and
    learns the task; the async cells also honour their staleness bound."""
    data, labels = _task()
    with _trainer(transport, n_workers, POLICIES[policy]) as (tr, cnet):
        solver = _solver()
        losses = [tr.train_epoch(solver, data, labels,
                                 rng=np.random.default_rng(epoch))
                  for epoch in range(6)]
        assert tr.last_batches == len(data) // BATCH
        assert losses[-1] < losses[0] * 0.5, losses
        # spread is measured *before* each step completes, so the
        # observed maximum can never exceed the bound
        assert tr.last_max_spread <= 2
        for value in _params(cnet).values():
            assert np.all(np.isfinite(value))


def test_lossy_accumulation_matches_sync_accuracy_on_threads():
    """Fig. 20's claim at test scale: racing gradient accumulation costs
    no accuracy against the synchronized reduction."""
    data, labels = _task()
    held, held_labels = _task(128, seed=1)
    accuracy = {}
    for name in ("sync", "lossy"):
        with _trainer("thread", 4, POLICIES[name]) as (tr, cnet):
            solver = _solver()
            for epoch in range(6):
                tr.train_epoch(solver, data, labels,
                               rng=np.random.default_rng(epoch))
            accuracy[name] = evaluate(
                cnet, Dataset(held, held_labels), "ip2")
    assert accuracy["sync"] >= 0.75
    assert abs(accuracy["sync"] - accuracy["lossy"]) < 0.03, accuracy


class TestFailureSurfacing:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_worker_exception_raises_worker_error(self, transport):
        data, labels = _task(64)
        before = _leftovers()
        with _trainer(transport, 2) as (tr, cnet):
            bad = data[:, :5]  # wrong item width → worker-side raise
            with pytest.raises(WorkerError) as ei:
                tr.train_epoch(_solver(), bad, labels,
                               rng=np.random.default_rng(0),
                               shuffle=False)
            assert ei.value.worker in (0, 1)
            assert "worker traceback" in str(ei.value)
            # the failure ended the trainer and gave the net back
            with pytest.raises(RuntimeError, match="closed"):
                tr.train_epoch(_solver(), data, labels)
            assert _leftovers() == before
            assert np.isfinite(cnet.forward(data=data[:BATCH],
                                            label=labels[:BATCH]))

    @pytest.mark.parametrize("fail_at,n_workers", [(2, 2), (1, 1)])
    def test_failed_construction_unwinds(self, monkeypatch, fail_at,
                                         n_workers):
        """A fork that fails part-way leaves no segment, no child, and a
        net that still trains on its own arrays."""
        process = multiprocessing.get_context("fork").Process
        start, calls = process.start, itertools.count(1)

        def failing_start(self):
            if next(calls) == fail_at:
                raise OSError("fork: resource temporarily unavailable")
            start(self)

        monkeypatch.setattr(process, "start", failing_start)
        data, labels = _task(64)
        cnet = _build()
        try:
            own, before = _own_arrays(cnet), _leftovers()
            with pytest.raises(OSError, match="temporarily unavailable"):
                DataParallelTrainer(cnet, n_workers)
            assert _leftovers() == before
            for name, arr in own.items():
                assert cnet.buffers[name] is arr, name
            hist = solve(_solver(), cnet, Dataset(data, labels))
            assert hist.losses[-1] < hist.losses[0]
        finally:
            cnet.close()

    @pytest.mark.parametrize("when,policy,phase", [
        ("idle", SyncReduce(), "sending work"),
        ("busy", SyncReduce(), "running a round"),
        ("busy", AsyncLossy(max_staleness=0), "running an async epoch"),
    ], ids=["between-epochs", "mid-round", "mid-async-epoch"])
    def test_killed_worker_raises_worker_died(self, when, policy, phase):
        """SIGKILL worker 1: the parent sees pipe EOF — at once, not
        after a poll or a timeout, even with worker 0 stalled at the
        async gate on the dead worker's counter — and gets its net back
        holding what was trained so far."""
        ctx = multiprocessing.get_context("fork")
        armed, entered = ctx.Event(), ctx.Event()
        data, labels = _task(64)
        cnet = _build()
        forward = cnet.forward

        def gated(**inputs):  # inherited by the forked workers
            if (armed.is_set() and multiprocessing.current_process().name
                    == "repro-train-1"):
                entered.set()
                threading.Event().wait()  # held until killed
            return forward(**inputs)

        cnet.forward = gated
        killed_at = []

        def kill(victim):
            os.kill(victim.proc.pid, signal.SIGKILL)
            killed_at.append(time.monotonic())

        try:
            before = _leftovers()
            initial = _params(cnet)
            tr = DataParallelTrainer(cnet, 2, policy)
            solver = _solver()
            tr.train_epoch(solver, data, labels)
            trained = _params(cnet)
            victim = tr.workers[1]
            if when == "idle":
                kill(victim)
                victim.proc.join()
            else:
                armed.set()
                threading.Thread(
                    target=lambda: (entered.wait(), kill(victim))).start()
            with pytest.raises(WorkerDiedError) as ei:
                tr.train_epoch(solver, data, labels)
            assert time.monotonic() - killed_at[0] < 1.0
            err = ei.value
            assert (err.worker, err.exitcode, err.phase) == (
                1, -signal.SIGKILL, phase)
            tr.close()
            assert _leftovers() == before
            for name in initial:
                arr = cnet.buffers[name]
                assert arr.flags.owndata, name  # off the unlinked block
                assert np.all(np.isfinite(arr))
                assert not np.array_equal(arr, initial[name]), name
                if when == "idle":
                    assert np.array_equal(arr, trained[name]), name
        finally:
            cnet.close()


class TestValidation:
    def test_worker_count(self):
        cnet = _build()
        try:
            for args in ((0,), (), (2, None, [cnet])):
                with pytest.raises(ValueError):
                    DataParallelTrainer(cnet, *args)
            with pytest.raises(ValueError):
                MultiThreadTrainer(_build, 0, lossy=False)
        finally:
            cnet.close()

    def test_policy_type(self):
        cnet = _build()
        try:
            with pytest.raises(TypeError):
                DataParallelTrainer(cnet, 1, policy="lossy")
            with pytest.raises(ValueError):
                AsyncLossy(max_staleness=-1)
        finally:
            cnet.close()

    def test_solve_rejects_policy_without_workers(self):
        data, labels = _task(32)
        cnet = _build()
        try:
            with pytest.raises(ValueError):
                solve(_solver(), cnet, Dataset(data, labels),
                      reduce_policy=SyncReduce())
        finally:
            cnet.close()
