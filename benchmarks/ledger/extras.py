"""Fixed-subject cells of the traced run: layers no workload's life
cycle passes through (the parallel substrates, reduced precision, the
Caffe-style baseline) plus the dispatch floor. None of them gates; the
subjects are fixed (vgg, LeNet, the 6x16 MLP, the Fig 14 trio) so the
rows read the same whichever workload produced them.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.baselines import CaffeNet
from repro.data import synthetic_mnist
from repro.optim import CompilerOptions, compile_net
from repro.quant import calibrate
from repro.runtime import MultiThreadTrainer, SyncReduce
from repro.serve import ProcessServerPool
from repro.serve.batcher import DynamicBatcher
from repro.solvers import Dataset, solve
from repro.trace import NullTracer, RecordingTracer
from repro.utils.rng import seed_all

import cells
from programs import FIG14, program
from stats import median


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def dispatch_floor(ctx) -> Dict[str, dict]:
    """Per backend: task steps of one training step of the 6x16 MLP and
    the untraced forward+backward wall per task step, in microseconds.
    The MLP's arithmetic is negligible, so this is what one step costs
    to dispatch. The two backends alternate in six blocks of 150 steps
    and the floor is the lowest block median: a floor, and microsecond
    steps on a shared host are noisy."""
    prog = program("mlp6x16", native=True)
    state = {}
    for backend in ("numpy", "c"):
        tracer = RecordingTracer()
        net, _ = prog.build()
        cnet = compile_net(net, cells.options(backend), tracer=tracer)
        inputs = prog.inputs(cnet, np.random.default_rng(0))
        solver = cells.make_solver()
        del tracer.spans[:]
        cells.train_step(cnet, solver, inputs)
        tasks = sum(1 for s in tracer.spans
                    if s.cat in ("forward", "backward"))
        cnet.tracer = NullTracer()
        state[backend] = (cnet, solver, inputs, tasks, [])
    with ctx.spans.span("runtime.executor.dispatch_floor"):
        for _ in range(6):
            for cnet, solver, inputs, _, medians in state.values():
                walls = []
                for _ in range(150):
                    _, st = cells.train_step(cnet, solver, inputs)
                    walls.append((st[1] - st[0]) + (st[3] - st[2]))
                medians.append(median(walls))
    out = {}
    for backend, (cnet, _, _, tasks, medians) in state.items():
        cnet.close()
        out[backend] = {"task_steps": tasks,
                        "floor_us": 1e6 * min(medians) / tasks}
    return out


def _lenet_data(n: int):
    train, _ = synthetic_mnist(n_train=n, n_test=8)
    return train


def _lenet_net(num_threads=None):
    net, _ = program("lenet").build()
    return compile_net(net, cells.options(), num_threads=num_threads)


def solve_epoch_s(ctx) -> float:
    cnet = _lenet_net()
    train = _lenet_data(512)
    with ctx.spans.span("solvers.solve"):
        wall = _timed(lambda: solve(cells.make_solver(), cnet, train,
                                    epochs=1))
    cnet.close()
    return wall


def threads_step_ms(ctx) -> float:
    prog = program("vgg")
    net, _ = prog.build()
    cnet = compile_net(net, cells.options(), num_threads=2)
    inputs = prog.inputs(cnet, np.random.default_rng(0))
    solver = cells.make_solver()
    walls = []
    with ctx.spans.span("runtime.threads.steps"):
        for _ in range(6):
            _, st = cells.train_step(cnet, solver, inputs)
            walls.append(st[4] - st[0])
    cnet.close()
    return 1e3 * median(walls[1:])


def distributed_epoch_s(ctx) -> float:
    train = _lenet_data(256)
    trainer = MultiThreadTrainer(_lenet_net, 2, lossy=False)
    try:
        with ctx.spans.span("runtime.distributed.train_epoch"):
            return _timed(lambda: trainer.train_epoch(
                cells.make_solver(), train.data, train.labels))
    finally:
        trainer.close()
        for rep in trainer.replicas:
            rep.close()


def procpool_epoch_s(ctx) -> float:
    cnet = _lenet_net()
    train = _lenet_data(256)
    try:
        with ctx.spans.span("runtime.procpool.solve"):
            return _timed(lambda: solve(
                cells.make_solver(), cnet, Dataset(train.data, train.labels),
                epochs=1, workers=2, reduce_policy=SyncReduce()))
    finally:
        cnet.close()


def procserver_sat(ctx, served) -> float:
    pool = ProcessServerPool(
        served.path, workers=2, batch_size=cells.SERVE_BATCH,
        max_latency=cells.MAX_LATENCY_S, max_queue=cells.MAX_QUEUE,
        cache=served.cache_dir)
    try:
        for k in range(16):
            pool.predict(served.items[k])
        return max(cells.closed_loop(ctx, pool, served, 0.25, phase="pool",
                                     windowed=False) for _ in range(4))
    finally:
        pool.close()


def batcher_microbench(ctx) -> Dict[str, float]:
    """Direct ``DynamicBatcher`` calls: admission cost per item, and
    hand-out cost per full batch with nothing to wait for."""
    n = 2000
    batcher = DynamicBatcher(cells.SERVE_BATCH, cells.MAX_LATENCY_S, n + 1)
    item = np.zeros((4,), np.float32)
    with ctx.spans.span("serve.batcher.microbench"):
        t0 = time.perf_counter()
        for _ in range(n):
            batcher.submit(item)
        submit = (time.perf_counter() - t0) / n
        batches = n // cells.SERVE_BATCH
        t0 = time.perf_counter()
        for _ in range(batches):
            batcher.next_batch()
        next_batch = (time.perf_counter() - t0) / batches
    batcher.shutdown()
    return {"submit_us": 1e6 * submit, "next_batch_us": 1e6 * next_batch}


def quant_rows(ctx) -> Dict[str, Dict[str, float]]:
    """vgg forward-only at each precision: direct forward wall and
    planned bytes."""
    prog = program("vgg")
    probe_net, _ = prog.build()
    probe = compile_net(probe_net, CompilerOptions.inference(4))
    inputs = prog.inputs(probe, np.random.default_rng(0))
    probe.close()
    net, _ = prog.build()
    calibration = calibrate(net, [inputs])
    out = {}
    for precision in ("fp32", "fp16", "int8"):
        net, _ = prog.build()
        cnet = compile_net(
            net, CompilerOptions.inference(4, precision=precision),
            calibration=calibration if precision == "int8" else None)
        with ctx.spans.span(f"quant.forward.{precision}"):
            walls = [_timed(lambda: cnet.forward(**inputs))
                     for _ in range(8)]
        out[precision] = {
            "infer_ms": 1e3 * median(walls[1:]),
            "planned_bytes": cnet.memory_stats()["planned_bytes"],
        }
        cnet.close()
    return out


def caffe_rows(ctx) -> Dict[str, float]:
    """Fig 14 reference rows: forward+backward of the static-kernel
    baseline against the compiled NumPy backend, same parameters."""
    caffe_s = latte_s = 0.0
    for name in FIG14:
        prog = program(name)
        net, _ = prog.build()
        cnet = compile_net(net, cells.options())
        cnet.training = False
        inputs = prog.inputs(cnet, np.random.default_rng(0))
        seed_all(1)
        base = CaffeNet(prog.model, prog.batch)
        base.load_params_from(cnet)
        base.training = False

        def caffe_step():
            base.forward(inputs["data"], inputs["label"])
            base.clear_grads()
            base.backward()

        def latte_step():
            cnet.forward(**inputs)
            cnet.clear_param_grads()
            cnet.backward()

        with ctx.spans.span("baselines.caffe_like.steps"):
            caffe = [_timed(caffe_step) for _ in range(6)]
        latte = [_timed(latte_step) for _ in range(6)]
        caffe_s += median(caffe[1:])
        latte_s += median(latte[1:])
        cnet.close()
    return {"step_ms": 1e3 * caffe_s, "ratio": caffe_s / latte_s}
