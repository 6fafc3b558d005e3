"""Compiler driver: options, pass ordering, and ``compile_net``.

The paper's compiler has four phases — analysis, synthesis, optimization,
code generation (§5). This module wires them together:

1. buffer planning + shared-variable analysis (`repro.synthesis.plan`)
2. synthesis of loop units (`repro.synthesis.lower`)
3. optimization passes, each gated by a :class:`CompilerOptions` flag:
   copy inlining, GEMM pattern matching, tiling, cross-layer fusion,
   parallel annotation
4. code generation (`repro.codegen.python_backend`, with a C rendering
   from `repro.codegen.c_backend`)

``OPT_LEVELS`` defines the ablation ladder used by the Fig. 13
microbenchmark: O0 scalar oracle → O1 vectorized → O2 +GEMM →
O3 +in-place&parallel → O4 +tiling&fusion (the full compiler).
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, replace

from repro.codegen import c_backend, python_backend
from repro.ir import Gemm
from repro.optim import first_writer, fusion, parallel, pattern_match, tiling
from repro.synthesis import liveness
from repro.synthesis.lower import synthesize
from repro.synthesis.plan import plan_buffers
from repro.trace import NULL_TRACER
from repro.trace.compile_report import (
    CompileReport,
    PassRecord,
    count_gemms,
    count_inlined,
    count_kind,
    count_parallel,
    count_schedule,
    count_tiled,
    count_units,
)


@dataclass
class CompilerOptions:
    """Optimization switches (all on by default — opt level O4)."""

    vectorize: bool = True
    pattern_match: bool = True
    inplace: bool = True
    fusion: bool = True
    tiling: bool = True
    parallel: bool = True
    #: liveness-driven arena reuse (repro.synthesis.liveness): share
    #: storage between buffers whose live intervals never overlap.
    #: Bitwise-neutral — planned and unplanned runs produce identical
    #: outputs (checked by the differential oracle)
    memory_plan: bool = True
    #: smallest tile height the tiler may create (see repro.optim.tiling)
    min_tile_rows: int = 32
    #: numerics watchdog sampling stride: 0 (default) disables it
    #: entirely (the executor hot paths are untouched); N >= 1 attaches
    #: a :class:`repro.telemetry.NumericsWatchdog` checking every Nth
    #: executed task step's written buffers for NaN/Inf and raising a
    #: structured :class:`repro.telemetry.NumericsError` naming the
    #: offending step and buffer. ``True`` is accepted as 1. Pass a
    #: configured watchdog via ``compile_net(..., watchdog=)`` /
    #: ``Net.init(watchdog=)`` instead for record-don't-raise modes.
    check_numerics: int = 0
    #: executable backend: ``'numpy'`` (default) runs the generated
    #: Python/NumPy program; ``'c'`` additionally lowers every fused
    #: step to C, compiles the program with the system toolchain
    #: (``cc`` -> shared object, loaded via ctypes), and swaps the
    #: native kernels in — extern-closure steps (softmax loss,
    #: normalization statistics, gathers) keep their Python functions.
    #: Requires a working C compiler
    #: (:func:`repro.codegen.c_backend.have_c_toolchain`); raises
    #: :class:`repro.codegen.c_backend.CBackendUnavailable` otherwise.
    backend: str = "numpy"
    #: ``'train'`` compiles the full forward+backward program;
    #: ``'inference'`` synthesizes a forward-only program — backward
    #: sections are empty, gradient/staging buffers are pruned from the
    #: buffer table, the executor starts with ``training = False``
    #: (dropout masks pinned to 1, normalization in running-stats mode),
    #: and the memory planner defaults to an empty ``keep_alive`` set
    #: for maximum activation-slab reuse. See docs/SERVING.md.
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
        self.check_numerics = int(self.check_numerics)
        if self.check_numerics < 0:
            raise ValueError("check_numerics must be >= 0")

    @classmethod
    def level(cls, n: int) -> "CompilerOptions":
        """The O0..O4 ablation ladder (see module docstring)."""
        if n not in range(5):
            raise ValueError("opt level must be 0..4")
        return cls(
            vectorize=n >= 1,
            pattern_match=n >= 2,
            inplace=n >= 3,
            parallel=n >= 3,
            memory_plan=n >= 3,
            tiling=n >= 4,
            fusion=n >= 4,
        )

    @classmethod
    def inference(cls, n: int = 4,
                  precision: str = "fp32") -> "CompilerOptions":
        """Forward-only compilation at opt level ``n`` (default O4),
        optionally at reduced precision (``'fp16'`` / ``'int8'``)."""
        return replace(cls.level(n), mode="inference", precision=precision)


OPT_LEVELS = {f"O{n}": CompilerOptions.level(n) for n in range(5)}


def _count_gemm_stores(sections) -> int:
    """Non-accumulating GEMMs (first-writer's store-forwarding result)."""
    return sum(
        1
        for sec in sections
        for u in sec.units
        if isinstance(u.stmt, Gemm) and not u.stmt.accumulate
    )


def resolve_num_threads(num_threads=None) -> int:
    """Executor thread count: explicit argument, else the
    ``REPRO_NUM_THREADS`` environment variable, else 1 (serial)."""
    if num_threads is None:
        env = os.environ.get("REPRO_NUM_THREADS", "").strip()
        num_threads = int(env) if env else 1
    return max(1, int(num_threads))


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
        ablation ladder.
    tracer:
        A :class:`repro.trace.Tracer` attached to the returned network;
        it additionally receives one ``compile``-category span per
        compiler pass. Independent of the tracer, every pass is
        instrumented into a :class:`repro.trace.CompileReport` — wall
        time, unit counts before/after, and rewrite counters — exposed
        as ``CompiledNet.compile_report``.
    num_threads:
        Executor thread count for batch-sharded parallel execution of
        steps the parallel pass marks shardable (requires
        ``options.parallel``, i.e. O3+). Defaults to the
        ``REPRO_NUM_THREADS`` environment variable, else 1; at 1 the
        compiled program and its execution are identical to the serial
        compiler. See DESIGN.md "Parallel execution".
    keep_alive:
        With ``options.memory_plan`` on: ensembles whose value/grad
        arrays must stay individually allocated for post-run
        ``value()``/``grad()`` inspection. ``None`` (default) keeps
        every ensemble inspectable — the planner then pools only the
        staging buffers (im2col inputs, gradient inputs, padded
        gradients). Pass an explicit collection (data ensembles,
        sinks, and loss feeders are always kept) to opt the rest into
        the arena for maximum reuse. Under ``options.mode ==
        'inference'`` the default flips to the *empty* set — serving
        wants throughput, not inspection — and ``None`` must be
        spelled ``keep_alive=list(net.ensembles)`` to keep everything.
        See docs/ARCHITECTURE.md §Buffers and docs/SERVING.md.
    watchdog:
        A :class:`repro.telemetry.NumericsWatchdog` attached to the
        executor (checked after every task step). Defaults to ``None``
        — or, when ``options.check_numerics`` is N >= 1, a fresh
        raising watchdog sampling every Nth step. See
        docs/OBSERVABILITY.md.
    calibration:
        A :class:`repro.quant.CalibrationResult` (per-buffer activation
        ranges recorded by :func:`repro.quant.calibrate`) consumed by
        the ``precision`` pass. Required for
        ``options.precision == 'int8'``; ignored for fp32/fp16. See
        docs/QUANTIZATION.md.
    """
    from repro.runtime.executor import CompiledNet

    options = options or CompilerOptions()
    inference = options.mode == "inference"
    if inference and keep_alive is None:
        keep_alive = ()
    if watchdog is None and options.check_numerics:
        from repro.telemetry.watchdog import NumericsWatchdog

        watchdog = NumericsWatchdog(every=options.check_numerics)
    tracer = tracer if tracer is not None else NULL_TRACER
    num_threads = resolve_num_threads(num_threads)
    report = CompileReport()
    t_compile = time.perf_counter()

    def run_pass(name, enabled, fn, rewrites, before=None, after=None):
        """Run one (possibly disabled) pass under instrumentation.

        ``before``/``after`` are unit-count callables; ``rewrites``
        computes the pass's counter dict from its observed effects.
        """
        sections = (program.forward, program.backward)
        n_before = (before or (lambda: sum(map(count_units, sections))))()
        t0 = time.perf_counter()
        result = None
        if enabled:
            with tracer.span(name, "compile"):
                result = fn()
        dt = time.perf_counter() - t0
        n_after = (after or (lambda: sum(map(count_units, sections))))()
        report.add(PassRecord(
            name, enabled, dt if enabled else 0.0, n_before, n_after,
            rewrites() if enabled else {},
        ))
        return result

    with tracer.span("plan+synthesize", "compile"):
        plan = plan_buffers(net, options)
        program = synthesize(net, plan, options)

    run_pass(
        "copy_inline",
        options.fusion,
        lambda: fusion.inline_copies(program.forward, program.backward, plan),
        lambda: {"copies_inlined": count_inlined(plan)},
    )

    gemms_before = count_gemms(program.forward) + count_gemms(program.backward)
    run_pass(
        "pattern_match",
        options.pattern_match,
        lambda: (pattern_match.run(program.forward),
                 pattern_match.run(program.backward)),
        lambda: {"gemms_matched":
                 count_gemms(program.forward)
                 + count_gemms(program.backward) - gemms_before},
    )

    # first-writer forwarding assumes each buffer is produced once per
    # pass; time-unrolled nets re-execute the program per step and carry
    # recurrent scatters across iterations
    fw_enabled = options.pattern_match and net.time_steps == 1
    fills_before = (count_kind(program.forward, "fill")
                    + count_kind(program.backward, "fill"))
    stores_before = (_count_gemm_stores(program.forward)
                     + _count_gemm_stores(program.backward))
    run_pass(
        "first_writer",
        fw_enabled,
        lambda: (first_writer.run(program.forward, plan),
                 first_writer.run(program.backward, plan)),
        lambda: {
            "fills_dropped": fills_before
            - count_kind(program.forward, "fill")
            - count_kind(program.backward, "fill"),
            "gemm_stores_forwarded": _count_gemm_stores(program.forward)
            + _count_gemm_stores(program.backward) - stores_before,
        },
    )

    # staging copies read again in backward are re-gathered there (and
    # re-padded first, if they gather from a padded buffer): units
    # cloned ahead of tiling, so that fusion sees both gathers inside
    # their layers and can contract what they stage
    staging = {"regathered": {}, "declined": {}}

    def regather():
        staging["regathered"], staging["declined"] = (
            liveness.regather_staging(
                plan, program.forward, program.backward,
                liveness.kept_buffers(net, plan, keep_alive)))

    run_pass(
        "regather",
        options.memory_plan and not inference,
        regather,
        lambda: {"copies_regathered": len(staging["regathered"]),
                 "pads_regathered": sum(
                     1 for r in staging["regathered"].values() if r.padded),
                 "copies_declined": len(staging["declined"])},
    )

    run_pass(
        "tiling",
        options.tiling,
        lambda: (tiling.run(program.forward, plan, options.min_tile_rows),
                 tiling.run(program.backward, plan, options.min_tile_rows)),
        lambda: {"units_tiled": count_tiled(program.forward)
                 + count_tiled(program.backward)},
    )

    # the schedule is always built; cross-layer merging inside it is what
    # options.fusion gates, so the pass record reflects the merge effect
    schedule = {}

    def build():
        schedule["fwd"] = fusion.build_schedule(program.forward, plan, options)
        schedule["bwd"] = fusion.build_schedule(program.backward, plan, options)
        # values keep_alive keeps inspectable stay whole — and under int8
        # every activation does: the precision pass fake-quantizes whole
        # values and padded copies of them between steps
        keep = liveness.kept_buffers(net, plan, keep_alive)
        if options.precision == "int8":
            keep |= {name for name, spec in plan.buffers.items()
                     if spec.role in ("value", "padded")}
        schedule["bytes_contracted"] = fusion.contract(
            plan, schedule["fwd"], schedule["bwd"], keep)

    units_total = count_units(program.forward) + count_units(program.backward)
    t0 = time.perf_counter()
    with tracer.span("fusion", "compile"):
        build()
    dt = time.perf_counter() - t0
    roles = Counter(plan.buffers[b].role for b in plan.contracted)
    counts = {
        k: count_schedule(schedule["fwd"])[k]
        + count_schedule(schedule["bwd"])[k]
        for k in ("steps", "fused_groups", "fused_units")
    }
    report.add(PassRecord(
        "fusion", options.fusion, dt, units_total, counts["steps"],
        {"fused_groups": counts["fused_groups"],
         "fused_units": counts["fused_units"],
         "staging_contracted": roles["input"] + roles["grad_input"],
         "values_contracted": roles["value"],
         "padded_contracted": roles["padded"],
         "bytes_contracted": schedule["bytes_contracted"]}
        if options.fusion else {},
    ))
    fwd_items, bwd_items = schedule["fwd"], schedule["bwd"]

    run_pass(
        "parallel",
        options.parallel,
        lambda: (parallel.run(fwd_items, plan, num_threads),
                 parallel.run(bwd_items, plan, num_threads)),
        lambda: {"loops_annotated": count_parallel(fwd_items)
                 + count_parallel(bwd_items),
                 "steps_sharded": parallel.count_sharded(fwd_items)
                 + parallel.count_sharded(bwd_items)},
        before=lambda: counts["steps"],
        after=lambda: counts["steps"],
    )

    # inference compilation: with the backward program empty, the
    # gradient/staging half of the buffer table is unreferenced — drop
    # it before the planner runs so naive/planned accounting and the
    # arena itself reflect the forward-only footprint
    prune_stats: dict = {}
    run_pass(
        "prune_buffers",
        inference,
        lambda: prune_stats.update(
            liveness.prune_unused_buffers(plan, fwd_items, bwd_items)
        ),
        lambda: dict(prune_stats),
        before=lambda: counts["steps"],
        after=lambda: counts["steps"],
    )

    # reduced-precision rewrite (repro.quant): retype inference buffers
    # to fp16, or insert int8 fake-quant steps with scales/zero points
    # from the calibration ranges — before the memory planner, so slab
    # sizes and live intervals see the final dtypes and schedule
    if options.precision != "fp32":
        from repro.quant.precision import apply_precision

        def precision():
            n_fwd = len(fwd_items)
            apply_precision(plan, fwd_items, program.closures,
                            options.precision, calibration)
            counts["steps"] += len(fwd_items) - n_fwd

        run_pass(
            "precision",
            True,
            precision,
            lambda: plan.quant.stats(),
            before=lambda: counts["steps"],
            after=lambda: counts["steps"],
        )

    # whole-program liveness + arena reuse: runs last so intervals see
    # the final schedule (fusion order, contracted shapes, parallel
    # privatization marks). The backward list is first re-scheduled to
    # shrink live intervals (hoist last readers above buffer births) —
    # dependency-exact, so outputs are unchanged bitwise.
    reorder_stats = {"steps_moved": 0}

    def plan_mem():
        reorder_stats["steps_moved"] = liveness.reorder_backward(
            plan, bwd_items
        )
        mem = liveness.plan_memory(
            net, plan, fwd_items, bwd_items, keep_alive=keep_alive
        )
        mem.rematerialized = staging["regathered"]
        mem.declined = staging["declined"]
        plan.memory = mem

    run_pass(
        "memory_plan",
        options.memory_plan,
        plan_mem,
        lambda: dict(plan.memory.stats(), **reorder_stats),
        before=lambda: counts["steps"],
        after=lambda: counts["steps"],
    )

    with tracer.span("codegen", "compile"):
        compiled = python_backend.compile_items(
            fwd_items, bwd_items, program.closures, options.vectorize, plan
        )
        compiled.c_source = c_backend.render_items(
            fwd_items, "forward"
        ) + c_backend.render_items(bwd_items, "backward")
    if options.backend == "c":
        # lower lowerable steps to C, build one shared object, and swap
        # the native kernels in (extern steps keep their Python fns)
        build_stats: dict = {}
        run_pass(
            "codegen-c",
            True,
            lambda: build_stats.update(c_backend.attach_native(
                compiled, fwd_items, bwd_items, plan,
                net.time_steps, num_threads,
            )),
            lambda: build_stats,
            before=lambda: counts["steps"],
            after=lambda: counts["steps"],
        )
    # the end-to-end compile wall time (synthesis + passes + codegen) is
    # what the persistent compile cache's warm boot is measured against
    report.compile_seconds = time.perf_counter() - t_compile
    return CompiledNet(net, plan, compiled, options, tracer=tracer,
                       compile_report=report, num_threads=num_threads,
                       watchdog=watchdog)
