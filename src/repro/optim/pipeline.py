"""Compiler driver: options, the pass table, and ``compile_net``.

The paper's compiler has four phases — analysis, synthesis, optimization,
code generation (§5). :data:`PASSES` lists them in the order they run:

1. buffer planning + shared-variable analysis (`repro.synthesis.plan`)
2. synthesis of loop units (`repro.synthesis.lower`)
3. optimization passes, each turned on at its rung of the opt level
   ladder (:data:`PASS_LEVELS`): copy inlining, GEMM pattern matching,
   store forwarding, backward re-gathers, tiling, cross-layer fusion,
   parallel shard marking, inference pruning, reduced precision, arena
   planning
4. code generation (`repro.codegen.python_backend`; with
   ``backend='c'`` the native program from `repro.codegen.c_backend`)

Every pass takes the one :class:`CompileState`, rewrites it in place and
returns its counters; ``compile_net`` runs the table in one loop, which
times each pass, opens its tracer span and records it.

``CompilerOptions.opt_level`` is the one pass switch; the ladder is the
ablation the Fig. 13 microbenchmark decomposes: O0 scalar oracle → O1
vectorized → O2 +GEMM → O3 +in-place, parallel & arena planning → O4
+tiling & fusion (the full compiler).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.codegen import c_backend, python_backend
from repro.optim import first_writer, fusion, parallel, pattern_match, tiling
from repro.synthesis import liveness
from repro.synthesis.lower import synthesize
from repro.synthesis.plan import plan_buffers
from repro.trace import NULL_TRACER
from repro.trace.compile_report import CompileReport, PassRecord


#: The optimization ladder (§5, the Fig. 13 breakdown): the opt level
#: at which each pass, or planning rule, turns on. Cumulative — a pass
#: on at one rung stays on above it. The one place a rung is written;
#: every gate asks :meth:`CompilerOptions.runs`.
PASS_LEVELS = {
    "vectorize": 1,
    "pattern_match": 2, "first_writer": 2,
    "inplace": 3, "parallel": 3, "regather": 3, "memory_plan": 3,
    "copy_inline": 4, "tiling": 4, "fusion": 4,
}


@dataclass
class CompilerOptions:
    """What changes the compiled program (default: opt level O4, every
    optimization on)."""

    #: the rung of the O0..O4 ladder (:data:`PASS_LEVELS`)
    opt_level: int = 4
    #: liveness-driven arena reuse (repro.synthesis.liveness), O3+:
    #: share storage between buffers whose live intervals never
    #: overlap. Bitwise-neutral — ``False`` compiles the unplanned
    #: program the differential oracle checks planned runs against
    memory_plan: bool = True
    #: executable backend: ``'numpy'`` (default) runs the generated
    #: Python/NumPy program; ``'c'`` additionally lowers every fused
    #: step to C, compiles the program with the system toolchain
    #: (``cc`` -> shared object, loaded via ctypes), and swaps the
    #: native kernels in — extern-closure steps (normalization
    #: statistics, concatenation, gathers) keep their Python functions.
    #: Requires a working C compiler
    #: (:func:`repro.codegen.c_backend.have_c_toolchain`); raises
    #: :class:`repro.codegen.c_backend.CBackendUnavailable` otherwise.
    backend: str = "numpy"
    #: ``'train'`` compiles the full forward+backward program;
    #: ``'inference'`` synthesizes a forward-only program — backward
    #: sections are empty, gradient/staging buffers are pruned from the
    #: buffer table, the executor starts with ``training = False``
    #: (dropout folded to the identity, normalization in running-stats mode);
    #: the memory planner keeps the same buffers whole as in training.
    #: See docs/SERVING.md.
    mode: str = "train"
    #: inference numeric precision — an offline accuracy/footprint
    #: study knob (docs/QUANTIZATION.md; both reduced precisions run
    #: slower than fp32 here and are never cached): ``'fp32'``
    #: (default) leaves every buffer float32; ``'fp16'`` retypes the
    #: non-parameter activation/staging buffers to float16 (≈50% of the
    #: planned arena bytes, toleranced accuracy); ``'int8'`` keeps
    #: float32 storage and schedules fake-quantization steps —
    #: activations per-tensor affine, weights per-tensor symmetric —
    #: from a calibration range profile
    #: (``compile_net(calibration=...)`` — required for int8). Both
    #: reduced precisions require ``mode='inference'`` and the NumPy
    #: backend; unsupported (extern-closure) steps fall back to fp32
    #: per-buffer with reasons recorded in ``compile_report``.
    precision: str = "fp32"

    def __post_init__(self):
        if self.opt_level not in range(5):
            raise ValueError(f"opt_level must be 0..4, got {self.opt_level!r}")
        floor = PASS_LEVELS["memory_plan"]
        if not self.memory_plan and self.opt_level < floor:
            raise ValueError(
                f"memory_plan=False needs opt_level >= {floor}: no arena "
                f"planner runs below O{floor} (got {self.opt_level})"
            )
        if self.mode not in ("train", "inference"):
            raise ValueError(
                f"mode must be 'train' or 'inference', got {self.mode!r}"
            )
        if self.backend not in ("numpy", "c"):
            raise ValueError(
                f"backend must be 'numpy' or 'c', got {self.backend!r}"
            )
        if self.precision not in ("fp32", "fp16", "int8"):
            raise ValueError(
                f"precision must be 'fp32', 'fp16' or 'int8', "
                f"got {self.precision!r}"
            )
        if self.precision != "fp32":
            if self.mode != "inference":
                raise ValueError(
                    f"precision={self.precision!r} requires "
                    f"mode='inference' (training stays fp32); use "
                    f"CompilerOptions.inference(precision=...)"
                )
            if self.backend != "numpy":
                raise ValueError(
                    f"precision={self.precision!r} requires the NumPy "
                    f"backend (the C kernels are float32-only)"
                )

    def runs(self, pass_name: str) -> bool:
        """Whether ``pass_name`` of :data:`PASS_LEVELS` is on. The arena
        planner, and the re-gathers that only shrink its arena, also
        need ``memory_plan``."""
        planner = pass_name in ("regather", "memory_plan")
        return (self.opt_level >= PASS_LEVELS[pass_name]
                and (self.memory_plan or not planner))

    @classmethod
    def level(cls, n: int) -> "CompilerOptions":
        """Opt level ``n`` of the O0..O4 ladder."""
        return cls(opt_level=n)

    @classmethod
    def inference(cls, n: int = 4,
                  precision: str = "fp32") -> "CompilerOptions":
        """Forward-only compilation at opt level ``n`` (default O4),
        optionally at reduced precision (``'fp16'`` / ``'int8'``)."""
        return cls(opt_level=n, mode="inference", precision=precision)


def resolve_num_threads(num_threads=None) -> int:
    """Executor thread count: explicit argument, else the
    ``REPRO_NUM_THREADS`` environment variable, else 1 (serial)."""
    if num_threads is None:
        env = os.environ.get("REPRO_NUM_THREADS", "").strip()
        num_threads = int(env) if env else 1
    return max(1, int(num_threads))


@dataclass
class CompileState:
    """What one compile's phases and passes read, and rewrite in place."""

    net: object
    options: CompilerOptions
    keep_alive: object
    num_threads: int
    calibration: object
    #: the buffer table and the synthesized sections (``plan+synthesize``)
    plan: object = None
    program: object = None
    #: value/grad bases kept individually allocated, by why
    #: (:func:`~repro.synthesis.liveness.kept_buffers`)
    keep: Dict[str, str] = field(default_factory=dict)
    #: the forward staging copies and values ``regather`` re-ran in
    #: backward, and those it declined, for the memory plan's report
    regathered: dict = field(default_factory=dict)
    declined: dict = field(default_factory=dict)
    #: the schedule (``fusion``) and the generated program (``codegen``)
    fwd: Optional[list] = None
    bwd: Optional[list] = None
    compiled: object = None
    #: the running pass's environment facts (``PassRecord.env``)
    env: dict = field(default_factory=dict)

    @property
    def inference(self) -> bool:
        return self.options.mode == "inference"

    def units(self) -> int:
        """Loop units of the sections until fusion builds the schedule,
        its steps after."""
        if self.fwd is None:
            return sum(len(sec.units) for sec in
                       self.program.forward + self.program.backward)
        return len(self.fwd) + len(self.bwd)


def _each(run: Callable, fwd, bwd, *args) -> Dict[str, int]:
    """Run a one-phase pass over the forward, then the backward program;
    its counters summed."""
    a, b = run(fwd, *args), run(bwd, *args)
    return {k: a[k] + b[k] for k in a}


def _plan_synthesize(s: CompileState) -> None:
    s.plan = plan_buffers(s.net, s.options)
    s.program = synthesize(s.net, s.plan, s.options)
    liveness.drop_unwritten_data_grads(s.net, s.plan, s.program.forward,
                                       s.program.backward)
    s.keep = liveness.kept_buffers(s.net, s.plan, s.keep_alive)


def _copy_inline(s: CompileState):
    return fusion.inline_copies(s.program.forward, s.program.backward,
                                s.plan)


def _pattern_match(s: CompileState):
    return _each(pattern_match.run, s.program.forward, s.program.backward)


def _first_writer(s: CompileState):
    return _each(first_writer.run, s.program.forward, s.program.backward,
                 s.plan)


def _regather(s: CompileState):
    # staging copies read again in backward are re-gathered there (and
    # re-padded first, if they gather from a padded buffer), and cheap
    # values recomputed: units cloned ahead of tiling, so that fusion
    # sees both gathers inside their layers and can contract what they
    # stage
    s.regathered, s.declined = liveness.regather_staging(
        s.plan, s.program.forward, s.program.backward, s.keep)
    recomputed = sum(1 for r in s.regathered.values() if r.recomputed)
    counters = {"copies_regathered": len(s.regathered) - recomputed,
                "pads_regathered": sum(
                    1 for r in s.regathered.values() if r.padded),
                "copies_declined": sum(
                    1 for b in s.declined
                    if s.plan.buffers[b].role == "input")}
    # only where there are some, so that a program recomputing nothing
    # keeps its pass records
    if recomputed:
        counters["values_recomputed"] = recomputed
    return counters


def _tiling(s: CompileState):
    return _each(tiling.run, s.program.forward, s.program.backward, s.plan)


def _fusion(s: CompileState):
    # values kept inspectable stay whole — and under int8 every
    # activation does: the precision pass fake-quantizes whole values
    # and padded copies of them between steps
    keep = s.keep
    if s.options.precision == "int8":
        keep = {**{name: "int8" for name, spec in s.plan.buffers.items()
                   if spec.role in ("value", "padded")}, **keep}
    fuse = s.options.runs("fusion")
    s.fwd = fusion.build_schedule(s.program.forward, s.plan, fuse, keep,
                                  later=s.program.backward)
    s.bwd = fusion.build_schedule(s.program.backward, s.plan, fuse, keep)
    return fusion.contract(s.plan, s.fwd, s.bwd, keep)


def _parallel(s: CompileState):
    return _each(parallel.run, s.fwd, s.bwd, s.plan, s.num_threads)


def _prune_buffers(s: CompileState):
    # with the backward program empty, the gradient/staging half of the
    # buffer table is unreferenced — drop it before the planner runs so
    # naive/planned accounting and the arena itself reflect the
    # forward-only footprint
    return liveness.prune_unused_buffers(s.plan, s.fwd, s.bwd, s.keep)


def _precision(s: CompileState):
    # retype inference buffers to fp16, or insert int8 fake-quant steps
    # with scales/zero points from the calibration ranges — before the
    # memory planner, so buffer sizes and live intervals see the final
    # dtypes and schedule
    from repro.quant.precision import apply_precision

    return apply_precision(s.plan, s.fwd, s.program.closures,
                           s.options.precision, s.calibration)


def _memory_plan(s: CompileState):
    # runs last so intervals see the final schedule (fusion order,
    # contracted shapes, parallel privatization marks). The backward
    # list is first re-scheduled to shrink live intervals (hoist last
    # readers above buffer births) — dependency-exact, so outputs are
    # unchanged bitwise.
    moved = liveness.reorder_backward(s.plan, s.bwd)
    mem = s.plan.memory = liveness.plan_memory(s.plan, s.fwd, s.bwd, s.keep)
    mem.rematerialized, mem.declined = s.regathered, s.declined
    return dict(mem.stats(), steps_moved=moved)


def _codegen(s: CompileState) -> None:
    s.compiled = python_backend.compile_items(
        s.fwd, s.bwd, s.program.closures, s.options.runs("vectorize"), s.plan)


def _codegen_c(s: CompileState):
    # lower lowerable steps to C, build one shared object, and swap the
    # native kernels in (extern steps keep their Python fns)
    return c_backend.attach_native(s.compiled, s.plan, s.net.time_steps,
                                   s.env)


def _rung(name: str) -> Callable[[CompileState], bool]:
    return lambda s: s.options.runs(name)


#: The compile, in the order it runs: ``(name, gate, run)``. A row with
#: a gate is a pass: ``gate(state)`` says whether it is on — ``None``
#: leaves it out of this compile's records — and ``run(state)`` rewrites
#: the state and returns the pass's counters. A row without a gate is a
#: phase, which always runs and records nothing. Each row that runs
#: gets its ``compile`` tracer span. A new pass is one row here plus
#: its rung in :data:`PASS_LEVELS`.
PASSES = (
    ("plan+synthesize", None, _plan_synthesize),
    ("copy_inline", _rung("copy_inline"), _copy_inline),
    ("pattern_match", _rung("pattern_match"), _pattern_match),
    # first-writer forwarding assumes each buffer is produced once per
    # pass; time-unrolled nets re-execute the program per step and carry
    # recurrent scatters across iterations
    ("first_writer",
     lambda s: s.options.runs("first_writer") and s.net.time_steps == 1,
     _first_writer),
    ("regather", lambda s: s.options.runs("regather") and not s.inference,
     _regather),
    ("tiling", _rung("tiling"), _tiling),
    # the schedule is always built; cross-layer merging inside it is
    # what the fusion rung gates
    ("fusion", _rung("fusion"), _fusion),
    ("parallel", _rung("parallel"), _parallel),
    ("prune_buffers", lambda s: s.inference, _prune_buffers),
    ("precision", lambda s: s.options.precision != "fp32" or None,
     _precision),
    ("memory_plan", _rung("memory_plan"), _memory_plan),
    ("codegen", None, _codegen),
    ("codegen-c", lambda s: s.options.backend == "c" or None, _codegen_c),
)


def compile_net(net, options: CompilerOptions | None = None, tracer=None,
                num_threads=None, keep_alive=None, watchdog=None,
                calibration=None):
    """Compile a :class:`~repro.core.network.Net` into a
    :class:`~repro.runtime.executor.CompiledNet`.

    Parameters
    ----------
    net:
        The network to compile (ensembles + connections, §3).
    options:
        A :class:`CompilerOptions`; defaults to every optimization on
        (opt level O4). ``CompilerOptions.level(n)`` gives the O0..O4
        ablation ladder; each pass turns on at its rung of
        :data:`PASS_LEVELS`.
    tracer:
        A :class:`repro.trace.Tracer` attached to the returned network;
        it additionally receives one ``compile``-category span per
        compiler pass. Independent of the tracer, every pass is
        instrumented into a :class:`repro.trace.CompileReport` — wall
        time, unit counts before/after, and rewrite counters — exposed
        as ``CompiledNet.compile_report``.
    num_threads:
        Executor thread count for batch-sharded parallel execution of
        steps the parallel pass marks shardable (the pass runs from O3;
        below it the program runs on one thread, native kernels
        included). Defaults to the
        ``REPRO_NUM_THREADS`` environment variable, else 1; at 1 the
        compiled program and its execution are identical to the serial
        compiler. See DESIGN.md "Parallel execution".
    keep_alive:
        With the arena planner on (O3+, ``memory_plan``): ensembles
        whose value/grad arrays ``value()``/``grad()`` read back after
        a run, beyond the program contract — data ensembles, sinks and
        loss feeders, which are always inspectable. Each is readable
        after the call that writes it until the next ``forward()``: a
        buffer a step writes may share the arena, live to the
        program's last point, and what the caller defines (fed data,
        seeded sink gradients) stays whole. ``None`` (default) or
        ``()`` keeps the contract only, in both modes: every other
        value and gradient shares the arena with the staging buffers
        and may be overwritten mid-run. ``keep_alive=list(
        net.ensembles)`` keeps every ensemble inspectable. See
        docs/ARCHITECTURE.md §Buffers.
    watchdog:
        A :class:`repro.telemetry.NumericsWatchdog` attached to the
        executor (checked after every sampled task step), or ``None``.
        Not an option: it changes no compiled code, so it stays out of
        the compile-cache key. See docs/OBSERVABILITY.md.
    calibration:
        A :class:`repro.quant.CalibrationResult` (per-buffer activation
        ranges recorded by :func:`repro.quant.calibrate`) consumed by
        the ``precision`` pass. Required for
        ``options.precision == 'int8'``; ignored for fp32/fp16. See
        docs/QUANTIZATION.md.
    """
    from repro.runtime.executor import CompiledNet

    options = options or CompilerOptions()
    tracer = tracer if tracer is not None else NULL_TRACER
    # the parallel pass owns threading: with it off the program runs on
    # one thread, native kernels included
    num_threads = (resolve_num_threads(num_threads)
                   if options.runs("parallel") else 1)
    state = CompileState(net, options, keep_alive, num_threads, calibration)
    report = CompileReport()
    t_compile = time.perf_counter()
    for name, gate, run in PASSES:
        if gate is None:
            with tracer.span(name, "compile"):
                run(state)
            continue
        on = gate(state)
        if on is None:
            continue
        before, state.env, rewrites = state.units(), {}, {}
        t0 = time.perf_counter()
        # a pass that is off does not run, but fusion off still builds
        # the (unfused) schedule every later pass reads
        ran = on or name == "fusion"
        if ran:
            with tracer.span(name, "compile"):
                rewrites = run(state)
        report.records.append(PassRecord(
            name, on, time.perf_counter() - t0 if ran else 0.0, before,
            state.units(), rewrites if on else {}, state.env))
    # the end-to-end compile wall time (synthesis + passes + codegen) is
    # what the persistent compile cache's warm boot is measured against
    report.compile_seconds = time.perf_counter() - t_compile
    return CompiledNet(net, state.plan, state.compiled, options,
                       tracer=tracer, compile_report=report,
                       num_threads=num_threads, watchdog=watchdog)
