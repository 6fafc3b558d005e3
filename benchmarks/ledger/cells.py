"""Measurement cells: each times one stage of the life cycle from
outside, through the program's public functions.

A cell records raw samples into ``ctx.raw`` (lists keyed by name) and
counts its operations on ``ctx.tally``; ``workloads.py`` reduces the
samples to the named metrics. Nothing here knows which workload is
running — only the programs and the time budget it is handed.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cache import CompileCache, compile_cached
from repro.cache.key import as_builder, cache_key
from repro.optim import CompilerOptions, compile_net
from repro.serve.batcher import QueueFullError
from repro.serve.checkpoint import load_checkpoint, save_checkpoint
from repro.serve.server import ModelServer
from repro.solvers import SGD, LRPolicy, MomPolicy, SolverParameters
from repro.trace import NullTracer, RecordingTracer

import check
from stats import (
    delta_sum,
    due_latency,
    median,
    poisson_schedule,
    registry_delta,
    run_schedule,
)

#: serving geometry (ISSUE: vgg, batch 8, 1 replica, 5 ms latency
#: trigger, 256-deep admission queue)
SERVE_BATCH = 8
MAX_LATENCY_S = 0.005
MAX_QUEUE = 256
#: latency limit of ``goodput_share``. A batch is zero-padded to 8 rows,
#: so a replica step costs the same 14-27 ms (the host's fast and slow
#: days, 40 ms in its worst spells) whatever its fill, and above ~40
#: items/s the replica is always busy: a request waits out the step in
#: progress, then its own, and the tail sits at two steps plus the
#: trigger, 35-80 ms. The ISSUE's 60 ms put the limit inside that tail
#: (goodput 0.91-1.0 from run to run) and 100 ms still did in a spell
#: that slowed the host 1.6x (0.96-1.0). 200 ms is five steps of a slow
#: day: a request misses it when the queue has grown by whole batches,
#: when it is shed, or when its reply is wrong
LATENCY_LIMIT_S = 0.200
CLOSED_OUTSTANDING = 32
#: open-loop arrival rates, items/s: about 20/40/60 % of the 270-440
#: items/s one vgg replica (the model every workload serves) sustained
#: closed-loop on the 2-core container when these were sized (400-580
#: on a better day), so the highest rate still drains its queue through
#: a slow spell of the host and no request is ever shed
RATES = (("r60", 60.0), ("r120", 120.0), ("r180", 180.0))
#: the rate the latency metrics are read at
LATENCY_PHASE = "r120"
#: a window whose generator ran later than this (median) measured the
#: scheduler as much as the server: its phase is marked unresolved
MAX_MEDIAN_LATENESS_S = 0.001
#: distinct request items (and reference rows) per serving cell
ITEM_POOL = 64

_NULL = NullTracer()


@dataclass
class Unit:
    """One program of the workload with its compiled nets."""

    program: object
    output: str = ""
    nets: Dict[str, object] = field(default_factory=dict)
    tracers: Dict[str, object] = field(default_factory=dict)
    inputs: Optional[dict] = None
    #: warm-up estimate of one training step, seconds, per backend
    warm_s: Dict[str, float] = field(default_factory=dict)


class Ctx:
    """State shared by the cells of one run."""

    def __init__(self, seed, trace, spans, workdir, src_dir):
        self.trace = bool(trace)
        self.spans = spans
        self.workdir = workdir
        self.src_dir = src_dir
        self.rng = np.random.default_rng(seed)
        self.tally = check.Tally()
        #: raw samples: name -> list of numbers, as the clock read them
        self.raw: Dict[str, List[float]] = collections.defaultdict(list)
        #: exact counts and one-off values: name -> number
        self.facts: Dict[str, float] = {}
        #: what this run could not resolve: serving phases whose
        #: generator ran late, ``host`` when the host changed speed
        self.unresolved: List[str] = []

    def add(self, key: str, value: float) -> None:
        self.raw[key].append(float(value))

    def bump(self, key: str, value: float) -> None:
        self.facts[key] = self.facts.get(key, 0.0) + float(value)


def options(backend: str = "numpy") -> CompilerOptions:
    opts = CompilerOptions.level(4)
    opts.backend = backend
    return opts


def make_solver() -> SGD:
    # small fixed rate: thousands of steps on one batch must stay finite
    return SGD(SolverParameters(lr_policy=LRPolicy.Fixed(0.001),
                                mom_policy=MomPolicy.Fixed(0.9),
                                regu_coef=0.0005))


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def compile_once(ctx: Ctx, program, backend: str, traced: bool = False):
    """Build + cold-compile ``program``; records the build and compile
    walls and returns ``(cnet, output, tracer)``."""
    tracer = RecordingTracer() if traced else None
    with ctx.spans.span("models.build"):
        t0 = time.perf_counter()
        net, output = program.build()
        build_s = time.perf_counter() - t0
    with ctx.spans.span(f"optim.compile_net.{backend}"):
        t0 = time.perf_counter()
        cnet = compile_net(net, options(backend), tracer=tracer)
        compile_s = time.perf_counter() - t0
    ctx.add(f"build_s/{program.name}", build_s)
    ctx.add(f"compile_s/{backend}/{program.name}", compile_s)
    ctx.tally.count("compile")
    return cnet, output, tracer


def _compile_spans(tracer) -> Dict[str, float]:
    """Seconds per ``compile``-category span name, then forget them."""
    out: Dict[str, float] = {}
    for s in tracer.spans:
        if s.cat == "compile":
            out[s.name] = out.get(s.name, 0.0) + s.dur
    del tracer.spans[:]
    return out


#: the counter that says how much each pass did
_PRIMARY_REWRITE = {
    "copy_inline": ("copies_inlined",),
    "pattern_match": ("gemms_matched",),
    "first_writer": ("fills_dropped", "gemm_stores_forwarded"),
    "tiling": ("units_tiled",),
    "fusion": ("fused_groups",),
    "parallel": ("loops_annotated",),
    "prune_buffers": ("buffers_pruned",),
    "memory_plan": ("buffers_pooled",),
}
PASSES = tuple(_PRIMARY_REWRITE)


def _record_passes(ctx: Ctx, report, only=PASSES) -> None:
    """Fold the published per-pass records of one cold compile into
    the facts: wall time and the pass's primary rewrite counter."""
    for rec in report.records:
        if rec.name in only and rec.enabled:
            ctx.bump(f"optim.{rec.name}.ms", 1e3 * rec.wall_time)
            ctx.bump(f"optim.{rec.name}.rewrites",
                     sum(rec.rewrites.get(k, 0)
                         for k in _PRIMARY_REWRITE[rec.name]))


def _record_report(ctx: Ctx, cnet) -> None:
    report = cnet.compile_report
    ctx.bump("synthesis.units", report.records[0].units_before)
    _record_passes(ctx, report)
    if "memory_plan" in report:
        ctx.bump("synthesis.liveness.steps_moved",
                 report["memory_plan"].rewrites.get("steps_moved", 0))


def setup_unit(ctx: Ctx, program) -> Unit:
    """Phase A for one program: first cold compile per backend (the
    compile a user waits for), static facts, input batch."""
    unit = Unit(program)
    cnet, unit.output, tracer = compile_once(ctx, program, "numpy",
                                             traced=ctx.trace)
    unit.nets["numpy"] = cnet
    unit.inputs = program.inputs(cnet, ctx.rng)
    stats = cnet.memory_stats()
    for key in ("naive_bytes", "planned_bytes", "arena_bytes"):
        ctx.bump(f"memory.{key}", stats[key])
    ctx.bump("core.ensembles", len(cnet.net.ensembles))
    ctx.bump("core.connections", len(cnet.net.connections))
    ctx.bump("codegen.python_backend.source_bytes", len(cnet.source))
    _record_report(ctx, cnet)
    if tracer is not None:
        unit.tracers["numpy"] = tracer
        spans = _compile_spans(tracer)
        ctx.bump("synthesis.plan_synthesize_ms",
                 1e3 * spans.get("plan+synthesize", 0.0))
        ctx.bump("codegen.python_backend.ms", 1e3 * spans.get("codegen", 0.0))
    if program.native:
        c_net, _, c_tracer = compile_once(ctx, program, "c",
                                          traced=ctx.trace)
        unit.nets["c"] = c_net
        compiled = c_net.compiled
        ctx.bump("codegen.c_backend.native_steps", len(compiled.c_steps))
        ctx.bump("codegen.c_backend.python_steps", len(compiled.c_skipped))
        ctx.bump("codegen.c_backend.c_source_bytes",
                 len(compiled.c_exec_source))
        if c_tracer is not None:
            unit.tracers["c"] = c_tracer
            cold = _compile_spans(c_tracer).get("codegen-c", 0.0)
            # the same program again: the content-addressed build
            # directory now holds its shared object, so this attach is
            # emit + dlopen + bind without cc
            hot_tracer = RecordingTracer()
            net, _ = program.build()
            hot_net = compile_net(net, options("c"), tracer=hot_tracer)
            hot = _compile_spans(hot_tracer).get("codegen-c", 0.0)
            hot_net.close()
            ctx.bump("codegen.c_backend.attach_hot_ms", 1e3 * hot)
            ctx.bump("codegen.c_backend.cc_s", cold - hot)
            from repro.codegen.c_backend import shared_object_bytes

            ctx.bump("codegen.c_backend.so_bytes",
                     len(shared_object_bytes(compiled.c_exec_source)))
    return unit


def serve_only_unit(program) -> Unit:
    """The served model on a workload that does not train it: compiled
    so it can be checkpointed, outside the workload's programs and so
    outside its compile, memory and training numbers."""
    net, output = program.build()
    return Unit(program, output, {"numpy": compile_net(net, options())})


def check_unit(ctx: Ctx, unit: Unit) -> None:
    """Reference checks, on the freshly initialised parameters."""
    with ctx.spans.span("check.reference"):
        check.reference_forward(unit.program, unit.nets["numpy"],
                                unit.output, unit.inputs, ctx.tally)
        if "c" in unit.nets:
            check.native_vs_numpy(unit.program, unit.nets["numpy"],
                                  unit.nets["c"], unit.inputs, ctx.tally)


def compile_round(ctx: Ctx, units: List[Unit], budget_s: float) -> None:
    """One more cold NumPy compile of every program, in seeded order,
    then further passes over the programs while this round's budget
    lasts."""
    deadline = time.perf_counter() + budget_s
    while True:
        for idx in ctx.rng.permutation(len(units)):
            cnet, _, _ = compile_once(ctx, units[idx].program, "numpy")
            cnet.close()
        ctx.bump("compile.passes", 1)
        if time.perf_counter() >= deadline:
            return


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class _StepTrace:
    """What the traced blocks of one (program, backend) cell added up
    to: bench-side phase walls and the program's own step spans."""

    def __init__(self, cnet):
        self.steps = 0
        self.walls: List[float] = []
        self.wall = self.fwd = self.clr = self.bwd = self.upd = 0.0
        self.gemm = self.loop = 0.0
        self.tasks = self.bytes = self.flops = self.native_calls = 0
        compiled = cnet.compiled
        self._native = {
            s.label for s in compiled.forward + compiled.backward
            if s.name in compiled.c_steps
        }

    def fold(self, tracer) -> None:
        for s in tracer.spans:
            if s.cat not in ("forward", "backward"):
                continue
            flops = s.args.get("flops") or 0
            if flops:
                self.gemm += s.dur
                self.flops += flops
            else:
                self.loop += s.dur
            self.tasks += 1
            self.bytes += s.args.get("bytes") or 0
            self.native_calls += s.name in self._native
        del tracer.spans[:]


def train_step(cnet, solver, inputs):
    """One training step, timestamped at each layer boundary."""
    t0 = time.perf_counter()
    loss = cnet.forward(**inputs)
    t1 = time.perf_counter()
    cnet.clear_param_grads()
    t2 = time.perf_counter()
    cnet.backward()
    t3 = time.perf_counter()
    solver.update(cnet)
    t4 = time.perf_counter()
    return loss, (t0, t1, t2, t3, t4)


def _emit_step_spans(spans, op: str, stamps) -> None:
    t0, t1, t2, t3, t4 = stamps
    root = spans.add("train.step", t0, t4, None, op)
    spans.add("runtime.executor.forward", t0, t1, root, op)
    spans.add("runtime.executor.clear_param_grads", t1, t2, root, op)
    spans.add("runtime.executor.backward", t2, t3, root, op)
    spans.add("solvers.update", t3, t4, root, op)


def warm_up(ctx: Ctx, units: List[Unit]) -> None:
    """Three warm-up iterations per net (part of set-up); their median
    sizes the training blocks."""
    for unit in units:
        for backend, cnet in unit.nets.items():
            tracer, cnet.tracer = cnet.tracer, _NULL
            solver = make_solver()
            walls = []
            for _ in range(3):
                _, stamps = train_step(cnet, solver, unit.inputs)
                walls.append(stamps[4] - stamps[0])
            cnet.tracer = tracer
            unit.warm_s[backend] = median(walls)


class TrainCell:
    """Training steps on every (program, backend) cell, in blocks of
    equal step counts, one block per cell per round.

    Untraced blocks give the step samples. With ``ctx.trace`` every
    round also runs a traced block of the same length (program tracer
    on, bench spans recorded), so traced and untraced steps interleave
    on the same nets and their ratio is the tracing overhead."""

    def __init__(self, ctx: Ctx, units: List[Unit], budget_s: float,
                 rounds: int):
        self.ctx = ctx
        self.cells = [(u, b) for u in units for b in u.nets]
        per_round = sum(u.warm_s[b] for u, b in self.cells)
        blocks = rounds * (2 if ctx.trace else 1)
        self.n = max(1, int(budget_s / (blocks * per_round)))
        self.solvers = {(u.program.name, b): make_solver()
                        for u, b in self.cells}
        self.traces = {(u.program.name, b): _StepTrace(u.nets[b])
                       for u, b in self.cells}
        for unit in units:  # the reference checks ran with the tracer on
            for rec in unit.tracers.values():
                del rec.spans[:]
        self.step_id = 0
        ctx.facts["train.steps_per_cell"] = self.n * rounds

    def round(self) -> None:
        ctx, n = self.ctx, self.n
        for idx in ctx.rng.permutation(len(self.cells)):
            unit, backend = self.cells[idx]
            key = (unit.program.name, backend)
            cnet, solver = unit.nets[backend], self.solvers[key]
            rec = unit.tracers.get(backend)
            bad = 0
            cnet.tracer = _NULL
            samples = ctx.raw[f"step_s/{backend}/{key[0]}"]
            updates = ctx.raw[f"update_s/{key[0]}"]
            # the cell last ran a whole round ago: let its code and
            # buffers back into the caches before timing (>= 1 step,
            # about 2 ms for microsecond steps)
            for _ in range(max(1, min(20, int(0.002 / unit.warm_s[backend])))):
                train_step(cnet, solver, unit.inputs)
            for _ in range(n):
                loss, st = train_step(cnet, solver, unit.inputs)
                samples.append(st[4] - st[0])
                updates.append(st[4] - st[3])
                bad += not np.isfinite(loss)
            if rec is not None:
                cnet.tracer = rec
                trace = self.traces[key]
                for _ in range(n):
                    loss, st = train_step(cnet, solver, unit.inputs)
                    bad += not np.isfinite(loss)
                    self.step_id += 1
                    _emit_step_spans(
                        ctx.spans, f"{key[0]}.{backend}.{self.step_id}", st)
                    trace.steps += 1
                    trace.walls.append(st[4] - st[0])
                    trace.wall += st[4] - st[0]
                    trace.fwd += st[1] - st[0]
                    trace.clr += st[2] - st[1]
                    trace.bwd += st[3] - st[2]
                    trace.upd += st[4] - st[3]
                trace.fold(rec)
            ctx.tally.count("train_step", n * (2 if rec else 1), bad,
                            f"{key}: non-finite loss")


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


class CacheCell:
    """``compile_cached`` against a store that starts empty: the first
    round misses (compile + freeze + put) and checks the thaw bitwise,
    every round thaws each program once. The caller supplies the built
    net, so the hit wall is key + store get + thaw."""

    def __init__(self, ctx: Ctx, units: List[Unit]):
        self.ctx = ctx
        self.units = units
        self.store_dir = os.path.join(ctx.workdir, "cache-cell")
        self.store = CompileCache(self.store_dir)
        self.want: Dict[str, np.ndarray] = {}

    def _cached(self, prog):
        net, _ = prog.build()
        t0 = time.perf_counter()
        cnet = compile_cached(prog.model, prog.batch, net=net,
                              options=options(), cache=self.store)
        return cnet, time.perf_counter() - t0

    def _forward(self, cnet, unit: Unit) -> np.ndarray:
        cnet.training = False
        cnet.forward(**unit.inputs)
        return cnet.value(unit.output).copy()

    def _miss(self, unit: Unit) -> None:
        ctx, prog = self.ctx, unit.program
        t0 = time.perf_counter()
        cache_key(as_builder(prog.model), prog.batch, options(), 1, None)
        ctx.add("cache_key_s", time.perf_counter() - t0)
        with ctx.spans.span("cache.miss"):
            cold, wall = self._cached(prog)
        missed = not cold.compile_report.cache_hit
        ctx.tally.check("cache", missed, f"{prog.name}: hit on an empty store")
        ctx.bump("cache.misses", missed)
        ctx.add("cache_freeze_put_s",
                wall - cold.compile_report.compile_seconds)
        self.want[prog.name] = self._forward(cold, unit)
        cold.close()

    def round(self) -> None:
        ctx = self.ctx
        for unit in self.units:
            name = unit.program.name
            first = name not in self.want
            if first:
                self._miss(unit)
            with ctx.spans.span("cache.hit"):
                warm, wall = self._cached(unit.program)
            hit = bool(warm.compile_report.cache_hit)
            ctx.tally.check("cache", hit, f"{name}: silent miss")
            ctx.bump("cache.hits", hit)
            ctx.add(f"cache_hit_s/{name}", wall)
            ctx.add(f"cache_thaw_s/{name}",
                    warm.compile_report.compile_seconds)
            if first:
                check.bitwise("cache", f"{name} thawed forward",
                              self._forward(warm, unit), self.want[name],
                              ctx.tally)
            warm.close()

    def finish(self) -> None:
        self.ctx.facts["cache.entry_bytes"] = sum(
            os.path.getsize(os.path.join(self.store_dir, f))
            for f in os.listdir(self.store_dir))


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


@dataclass
class Served:
    """The checkpointed model a serving or boot cell works on."""

    path: str
    cache_dir: str
    items: np.ndarray
    #: reference rows: a direct eval forward of the checkpoint
    rows: np.ndarray
    reference: object  # the forward-only net the rows came from


def _feeds(net, batch: np.ndarray) -> Dict[str, np.ndarray]:
    """Inputs of one forward of a forward-only net: the data batch and,
    where the checkpointed model kept its loss layer, zero labels."""
    feeds = {"data": batch}
    if "label" in net.net.ensembles:
        feeds["label"] = np.zeros(net.value("label").shape, np.float32)
    return feeds


def checkpoint_unit(ctx: Ctx, unit: Unit) -> Served:
    """Write the serve model's checkpoint (set-up), load it back, and
    compute reference rows for a seeded pool of request items."""
    path = os.path.join(ctx.workdir, f"{unit.program.name}.npz")
    with ctx.spans.span("serve.checkpoint.save"):
        t0 = time.perf_counter()
        save_checkpoint(path, unit.nets["numpy"], config=unit.program.model,
                        output=unit.output)
        ctx.add("checkpoint_save_s", time.perf_counter() - t0)
    ctx.facts["serve.checkpoint.bytes"] = os.path.getsize(path)
    with ctx.spans.span("serve.checkpoint.load"):
        t0 = time.perf_counter()
        ck = load_checkpoint(path)
        ctx.add("checkpoint_load_s", time.perf_counter() - t0)
    reference = ck.compile(SERVE_BATCH)
    # the forward-only compile is the one place prune_buffers runs
    _record_passes(ctx, reference.compile_report, only=("prune_buffers",))
    ctx.bump("memory.planned_bytes",
             reference.memory_stats()["planned_bytes"])
    shape = reference.value("data").shape[1:]
    items = ctx.rng.standard_normal((ITEM_POOL,) + shape).astype(np.float32)
    rows = []
    for i in range(0, ITEM_POOL, SERVE_BATCH):
        reference.forward(**_feeds(reference, items[i:i + SERVE_BATCH]))
        rows.append(reference.value(unit.output).copy())
    return Served(path, os.path.join(ctx.workdir, "serve-cache"), items,
                  np.concatenate(rows), reference)


def bare_forward_s(served: Served) -> float:
    """Median wall of ten direct batch forwards on the reference net: the
    floor under a replica step."""
    net = served.reference
    feeds = _feeds(net, served.items[:SERVE_BATCH])
    walls = []
    for _ in range(10):
        t0 = time.perf_counter()
        net.forward(**feeds)
        walls.append(time.perf_counter() - t0)
    return median(walls)


class _Window:
    """Registry counters around one load window, reduced to the
    per-phase batcher/server numbers."""

    def __init__(self, server):
        self.server = server
        self.before = server.registry.snapshot()

    def close(self, ctx: Ctx, phase: str, latencies: List[float]) -> None:
        delta = registry_delta(self.before, self.server.registry.snapshot())
        batches = delta_sum(delta, "serve_batches_total")
        served = delta_sum(delta, "serve_requests_total", outcome="served")
        step_sum = delta_sum(delta, "serve_replica_step_seconds_sum")
        ctx.bump(f"serve.batches.{phase}", batches)
        ctx.bump(f"serve.served.{phase}", served)
        ctx.bump(f"serve.step_sum_s.{phase}", step_sum)
        ctx.bump(f"serve.latency_sum_s.{phase}", sum(latencies))
        ctx.bump("serve.server.shed",
                 delta_sum(delta, "serve_requests_total", outcome="shed"))
        ctx.bump("serve.server.errors",
                 delta_sum(delta, "serve_requests_total", outcome="error"))


def _collect(ctx: Ctx, served: Served, phase: str, sent,
             window: Optional[int]) -> List[float]:
    """Wait for every request of a window; returns server-side
    latencies of those that completed, and records the due-time latency
    of those that completed correctly. ``sent`` holds
    ``(due, item_index, handle_or_None)``; ``None`` was shed. A traced
    run records one span per request under the ``window`` span, from
    when it was due (closed loop: admitted) to its completion, on the
    server's monotonic clock — the same clock as ``perf_counter`` on
    Linux."""
    latencies = []
    for n, (due, k, handle) in enumerate(sent):
        ok = False
        detail = "shed at admission"
        if handle is not None:
            try:
                row = handle.wait(30.0)
                ok = bool(np.array_equal(row, served.rows[k]))
                detail = "row differs from the direct forward"
                latencies.append(handle.latency)
                ctx.spans.add(
                    f"serve.request.{phase}",
                    handle.enqueued_at if due is None else due,
                    handle.enqueued_at + handle.latency, window,
                    f"{phase}.{n}")
                if ok and due is not None:  # a wrong reply misses
                    ctx.add(f"latency_s/{phase}",
                            due_latency(due, handle.enqueued_at,
                                        handle.latency))
            except Exception as exc:  # noqa: BLE001 - any failure is a failed op
                detail = f"{type(exc).__name__}: {exc}"
        ctx.tally.count(f"request.{phase}", 1, 0 if ok else 1, detail)
    return latencies


def _submit(server, served: Served, k: int):
    try:
        return server.submit(served.items[k])
    except QueueFullError:
        return None


def open_window(ctx: Ctx, server, served: Served, phase: str, rate: float,
                duration: float) -> None:
    """One open-loop window: this thread generates on a seeded Poisson
    schedule and, once the window is over, collects the replies."""
    schedule = poisson_schedule(ctx.rng, rate, duration)
    picks = ctx.rng.integers(0, ITEM_POOL, len(schedule))
    window = _Window(server)
    with ctx.spans.span(f"serve.window.{phase}") as span_id:
        _, sent, late = run_schedule(
            schedule, lambda k: _submit(server, served, int(picks[k])),
            time.monotonic, time.sleep)
        before = len(ctx.raw[f"latency_s/{phase}"])
        latencies = _collect(
            ctx, served, phase,
            [(due, int(picks[k]), h) for k, (due, h) in enumerate(sent)],
            span_id)
    window.close(ctx, phase, latencies)
    ctx.raw["late_s"].extend(late)
    ctx.bump(f"serve.due.{phase}", len(schedule))
    if (late and median(late) > MAX_MEDIAN_LATENESS_S
            and phase not in ctx.unresolved):
        # this window measured the generator as much as the server. Its
        # numbers stay (the result line needs every metric from every
        # run) and the run names the phase unresolved
        ctx.unresolved.append(phase)
    window_latency = ctx.raw[f"latency_s/{phase}"][before:]
    if window_latency:
        ctx.add(f"window_p50_s/{phase}", median(window_latency))
    ctx.bump("serve.good",
             sum(1 for x in window_latency if x <= LATENCY_LIMIT_S))
    ctx.bump("serve.due", len(schedule))


def closed_loop(ctx: Ctx, server, served: Served, duration: float,
                outstanding: int = CLOSED_OUTSTANDING,
                phase: str = "sat", windowed: bool = True) -> float:
    """Closed loop: ``outstanding`` requests in flight, each reply
    triggers the next submit. Returns items completed per second.
    ``windowed=False`` skips the registry window (the process pool
    keeps its counters in the workers)."""
    window = _Window(server) if windowed else None
    picks = ctx.rng.integers(0, ITEM_POOL, 1 << 16)
    pending = collections.deque()
    sent = []
    with ctx.spans.span(f"serve.window.{phase}") as span_id:
        for i in range(outstanding):
            pending.append((None, int(picks[i]),
                            _submit(server, served, int(picks[i]))))
        i = outstanding
        # the pipeline is full: time from here
        t0 = time.monotonic()
        deadline = t0 + duration
        done = 0
        while time.monotonic() < deadline:
            entry = pending.popleft()
            if entry[2] is not None:
                entry[2].done.wait(30.0)
            sent.append(entry)
            done += 1
            k = int(picks[i % len(picks)])
            pending.append((None, k, _submit(server, served, k)))
            i += 1
        rate = done / (time.monotonic() - t0)
        sent.extend(pending)
        latencies = _collect(ctx, served, phase, sent, span_id)
    if window is not None:
        window.close(ctx, phase, latencies)
    ctx.raw[f"closed_latency_s/{phase}"].extend(latencies)
    return rate


#: how one round's open-loop time is split over the rates: the rate
#: the latency metrics are read at gets the most samples
_RATE_WEIGHT = {"r60": 1.0, "r120": 2.5, "r180": 1.0}
#: share of a round's serving time spent in the closed loop
_CLOSED_SHARE = 0.25


class ServeCell:
    """In-process ``ModelServer.from_checkpoint``; every round drives
    one open-loop Poisson window per rate, then a closed-loop slice at
    saturation."""

    def __init__(self, ctx: Ctx, served: Served):
        self.ctx = ctx
        self.served = served
        self.tracer = RecordingTracer() if ctx.trace else None
        with ctx.spans.span("serve.server.boot"):
            self.server = ModelServer.from_checkpoint(
                served.path, batch_size=SERVE_BATCH, replicas=1,
                max_latency=MAX_LATENCY_S, max_queue=MAX_QUEUE,
                cache=served.cache_dir, tracer=self.tracer)
        for k in range(2 * SERVE_BATCH):  # warm the replica
            self.server.predict(served.items[k])

    def round(self, budget_s: float) -> None:
        ctx = self.ctx
        open_s = (1.0 - _CLOSED_SHARE) * budget_s
        unit_s = open_s / sum(_RATE_WEIGHT.values())
        for phase, rate in RATES:
            open_window(ctx, self.server, self.served, phase, rate,
                        unit_s * _RATE_WEIGHT[phase])
        ctx.add("sat_items_per_s",
                closed_loop(ctx, self.server, self.served,
                            _CLOSED_SHARE * budget_s))

    def finish(self) -> None:
        ctx = self.ctx
        try:
            ctx.add("bare_forward_s", bare_forward_s(self.served))
            if ctx.trace:
                for _ in range(20):
                    t0 = time.perf_counter()
                    self.server.metrics_text()
                    ctx.add("render_s", time.perf_counter() - t0)
        finally:
            self.server.close()


# ---------------------------------------------------------------------------
# boot
# ---------------------------------------------------------------------------


class CliServer:
    """``python -m repro.serve`` in a child process, timed from process
    start; always terminated and waited for."""

    def __init__(self, ctx: Ctx, served: Served, cache_dir: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = ctx.src_dir
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve",
             "--checkpoint", served.path, "--port", "0",
             "--batch-size", str(SERVE_BATCH),
             "--max-queue", str(MAX_QUEUE),
             "--compile-cache", cache_dir],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.port = None

    def wait_ready(self) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "http://" not in line:
            raise RuntimeError(f"repro.serve did not come up: {line!r}")
        self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _post_predict(conn, item) -> None:
    conn.request("POST", "/predict",
                 json.dumps({"inputs": [item.tolist()]}),
                 {"Content-Type": "application/json"})


def _read_row(conn):
    resp = conn.getresponse()
    body = json.loads(resp.read())
    if resp.status != 200:
        raise RuntimeError(f"HTTP {resp.status}: {body}")
    return np.asarray(body["outputs"][0], np.float32)


def boot_once(ctx: Ctx, served: Served, cache_dir: str, kind: str) -> float:
    """Process start -> first ``200`` from ``POST /predict``."""
    with ctx.spans.span(f"serve.cli.boot.{kind}"):
        cli = CliServer(ctx, served, cache_dir)
        try:
            cli.wait_ready()
            conn = cli.connect()
            _post_predict(conn, served.items[0])
            row = _read_row(conn)
            wall = time.perf_counter() - cli.t0
            conn.close()
        finally:
            cli.close()
    check.bitwise(f"boot.{kind}", "first prediction", row, served.rows[0],
                  ctx.tally)
    return wall


def boot_cache_dir(ctx: Ctx) -> str:
    return os.path.join(ctx.workdir, "boot-cache")


def boot(ctx: Ctx, served: Served, kind: str) -> None:
    """One timed CLI boot: ``cold`` is the first, against an empty
    compile cache it seeds; every later one is ``warm``."""
    ctx.add(f"boot_{kind}_s",
            boot_once(ctx, served, boot_cache_dir(ctx), kind))


def http_cell(ctx: Ctx, served: Served) -> None:
    """HTTP front-end cost: 60 round trips over exactly two keep-alive
    connections (two requests in flight, one thread) against the same
    two-in-flight closed loop on an in-process server."""
    cli = CliServer(ctx, served, boot_cache_dir(ctx))
    try:
        cli.wait_ready()
        conns = [cli.connect(), cli.connect()]
        starts = [0.0, 0.0]
        inflight = [0, 0]

        def post(slot: int, k: int) -> None:
            inflight[slot] = k
            starts[slot] = time.perf_counter()
            _post_predict(conns[slot], served.items[k])

        with ctx.spans.span("serve.http.closed_loop"):
            post(0, 0)
            post(1, 1)
            for i in range(2, 62):
                slot = i % 2
                row = _read_row(conns[slot])
                ctx.add("http_rtt_s", time.perf_counter() - starts[slot])
                check.bitwise("request.http", "row", row,
                              served.rows[inflight[slot]], ctx.tally)
                if i < 60:
                    post(slot, i % ITEM_POOL)
        for conn in conns:
            conn.close()
    finally:
        cli.close()
    server = ModelServer.from_checkpoint(
        served.path, batch_size=SERVE_BATCH, max_latency=MAX_LATENCY_S,
        max_queue=MAX_QUEUE, cache=served.cache_dir)
    try:
        closed_loop(ctx, server, served, 0.5, outstanding=2, phase="inproc2")
    finally:
        server.close()
