"""The differential oracle: one spec, every compiler configuration.

``check_spec`` runs a generated network forward + backward under every
optimization level and executor thread count and compares against the
O0 scalar interpreter (the semantic reference), finite-difference-checks
the input gradient, and — where the layer vocabulary overlaps — checks
parity against the independent ``caffe_like`` and ``mocha_like``
baseline implementations.

Tolerance policy (see docs/TESTING.md and DESIGN.md §4b):

* **Optimization levels O1..O4 vs O0** — the passes reassociate float32
  reductions (GEMM contraction vs scalar loops, fused accumulators), so
  comparisons use the float-reassociation tier: per-dtype ``rtol`` /
  ``atol`` in :data:`TOLERANCES`.
* **Thread counts vs serial at the same level** — batch sharding never
  splits a contraction axis, but BLAS selects different kernels for
  different shard heights (a one-row shard takes a GEMV path), so
  forward values can differ at the last-ulp level; forward and input
  gradients use the tight ``thread_fwd`` tier, privatized weight/bias
  gradients the ``thread_param`` tier (shard partials + tree reduction
  round differently from one full-batch GEMM). What *is* bitwise is
  run-to-run reproducibility at a fixed thread count (deterministic
  shard bounds + fixed-order reduction): the oracle re-runs one thread
  configuration and requires identical bits — the check that catches
  races. A threaded run the executor does not shard (batch 1, or the
  parallel pass off at O1/O2: one shard) *is* the serial program, on
  either backend, and is compared with the serial run **bitwise**.
* **C backend** — an independent native lowering of the same
  fused schedule: kernels accumulate in double precision and order
  GEMM contractions differently from BLAS, so comparisons against both
  the O0 interpreter and the same-level NumPy backend use the
  float-reassociation (``level_*``) tier. Run-to-run at one thread is
  **bitwise** (fixed loop order, content-addressed shared object), as
  is a freeze/thaw through the compile cache (the thaw recompiles the
  stored C source). Threaded, its kernels run the executor's shard
  bounds: the thread tiers against serial C (bitwise at one shard),
  and bitwise run to run. Enabled automatically when a C toolchain is
  present; skipped cleanly otherwise.
* **Finite differences** — central differences with a non-smoothness
  guard (:mod:`repro.testing.gradcheck`).
* **Baselines** — independent implementations with different summation
  orders: the float-reassociation tier again.
* **Inference compilation** — ``mode="inference"`` drops backward
  sections, the loss and gradient buffers but must never change what
  the forward computes: its output is compared **bitwise** against the
  train graph run in eval mode at the same level, and it has no loss
  step and returns a loss of 0.0.
* **Checkpoints** — a net trained two steps, saved and rebuilt
  forward-only from the file computes the trained net's eval output
  **bitwise**: a checkpoint carries every model array, running
  statistics included.
* **Reduced precision** (docs/QUANTIZATION.md) — fp16 retypes the
  activation buffers, so its output sits inside the dedicated
  ``quant_fp16`` tier against the fp32 inference reference; int8
  fake-quantizes through a calibrated int8 grid and is gated on
  max-abs-error as a fraction of the fp32 output's value range plus
  top-1 agreement on confidently-classified items. Both quantized
  paths are **bitwise** run-to-run deterministic (``np.rint`` plus a
  fixed schedule leave no rounding nondeterminism).
"""

from __future__ import annotations

import contextlib
import os
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import LossEnsemble
from repro.optim import CompilerOptions, compile_net
from repro.synthesis.liveness import ALIGN_BYTES, buffer_nbytes
from repro.testing.generator import (
    NetSpec,
    build_net,
    make_inputs,
)
from repro.testing.gradcheck import check_input_gradient
from repro.utils.rng import seed_all

#: per-dtype comparison tiers. ``level_*`` compares O1..O4 against the
#: O0 oracle (float reassociation across passes); ``thread_*`` compares
#: privatized parameter gradients against serial at the same level
#: (a single tree-reduction reassociation, hence tighter); ``fd_*``
#: bounds finite-difference disagreement; ``baseline_*`` compares the
#: independent reference implementations.
TOLERANCES: Dict[str, Dict[str, float]] = {
    "float32": {
        "loss_rtol": 1e-4,
        "level_rtol": 1e-3, "level_atol": 1e-5,
        "level_param_rtol": 1e-3, "level_param_atol": 2e-4,
        "thread_fwd_rtol": 1e-5, "thread_fwd_atol": 1e-6,
        "thread_loss_rtol": 1e-6,
        "thread_param_rtol": 1e-4, "thread_param_atol": 1e-6,
        "fd_atol": 5e-3, "fd_rtol": 1e-2,
        "baseline_rtol": 1e-3, "baseline_atol": 1e-4,
        # reduced-precision accuracy tiers (docs/QUANTIZATION.md):
        # fp16 carries ~3 decimal digits, so activations drift at the
        # 1e-3 level per layer; int8 is gated on error relative to the
        # fp32 output's value range (8 bits ≈ 0.4% grid steps, widened
        # for accumulation through the net) and on top-1 agreement
        "quant_fp16_rtol": 1e-2, "quant_fp16_atol": 2e-3,
        "quant_int8_range_frac": 0.2,
        "quant_int8_top1_margin_frac": 0.05,
    },
}

#: layer kinds the baseline implementations cover (plus the implicit
#: head/loss); dropout is excluded because the two stacks draw masks in
#: different RNG orders, batchnorm/concat/recurrent are Latte-only
_BASELINE_KINDS = {"conv", "relu", "pool", "lrn", "fc"}


@dataclass
class RunResult:
    """Everything the oracle compares from one forward+backward run."""

    loss: float
    output: np.ndarray
    dx: np.ndarray
    param_grads: Dict[str, np.ndarray]
    #: ``CompiledNet.memory_stats()`` of the compile that produced it
    memory: Dict[str, int] = field(default_factory=dict)
    #: how many staging buffers that compile contracted to a batch tile
    contracted: int = 0
    #: how many batch shards the executor split shardable steps into
    shards: int = 1


@dataclass
class Mismatch:
    """One failed comparison."""

    check: str  # e.g. "level:3", "threads:2", "gradcheck", "baseline:caffe"
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.detail}"


@dataclass
class OracleReport:
    """The outcome of :func:`check_spec` on one spec."""

    spec: NetSpec
    checks: List[str] = field(default_factory=list)
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        head = f"{self.spec.describe()}: " \
               f"{len(self.checks)} checks, " \
               f"{len(self.mismatches)} mismatches"
        lines = [head] + [f"  {m}" for m in self.mismatches]
        return "\n".join(lines)


@contextlib.contextmanager
def batch_tiles(engaged: bool = True):
    """Engage batch tiling at fuzz geometry while compiling: stage no
    more than 1 KB of a window copy at a time. The rule has no option
    to set — its constant (``repro.optim.tiling.STAGING_TILE_BYTES``)
    is patched; outside this block the tiny nets of the fuzz corpus and
    the tests compile untiled."""
    from repro.optim import tiling

    saved = tiling.STAGING_TILE_BYTES
    if engaged:
        tiling.STAGING_TILE_BYTES = 1024
    try:
        yield
    finally:
        tiling.STAGING_TILE_BYTES = saved


def run_spec(spec: NetSpec, level: int = 0, num_threads: int = 1,
             memory_plan: bool = True,
             backend: str = "numpy", keep_alive=None,
             tiled: bool = False) -> RunResult:
    """Build + compile ``spec`` at one configuration and run one
    forward/backward on its deterministic inputs.

    The library RNG is reseeded from ``spec.seed`` before construction,
    so parameter initialization and dropout masks are identical across
    every (level, threads) configuration of the same spec.
    ``memory_plan=False`` turns the arena planner off (at its rung and
    above) for the planned-vs-unplanned bitwise checks;
    ``keep_alive`` names ensembles kept inspectable beyond the contract
    (``head`` and ``data`` are always kept: loss feeder, input).
    ``backend="c"`` compiles the fused steps to a native shared object
    (requires a C toolchain; see :mod:`repro.codegen.c_backend`).
    ``tiled`` compiles under :func:`batch_tiles`.
    """
    seed_all(spec.seed)
    net = build_net(spec)
    opts = CompilerOptions(opt_level=level, memory_plan=memory_plan,
                           backend=backend)
    with batch_tiles(tiled):
        cnet = _compile(net, opts, num_threads=num_threads,
                        keep_alive=keep_alive)
    return run_compiled(cnet, spec)


def run_compiled(cnet, spec: NetSpec) -> RunResult:
    """One forward/backward of a compiled ``spec`` on its deterministic
    inputs."""
    x, y = make_inputs(spec)
    loss = cnet.forward(data=x, label=y)
    cnet.clear_param_grads()
    cnet.backward()
    return RunResult(
        loss=float(loss),
        output=cnet.value("head").copy(),
        dx=cnet.grad("data").copy(),
        param_grads={p.key: p.grad.copy() for p in cnet.parameters()},
        memory=cnet.memory_stats(),
        contracted=len(cnet.plan.contracted),
        shards=cnet.num_shards,
    )


def run_eval_forward(spec: NetSpec, level: int, mode: str = "train",
                     tiled: bool = False, num_threads: int = 1):
    """Build + compile ``spec`` and run one eval-mode forward pass.

    ``mode="train"`` compiles the full train graph and flips the
    executor to ``training=False``; ``mode="inference"`` compiles
    forward-only (backward and loss dropped, gradient buffers pruned).
    Both paths reseed from ``spec.seed`` so parameter initialization is
    identical, and eval-mode dropout draws no RNG — the two must
    produce bitwise-identical output. Returns ``(loss, output, cnet)``.
    ``tiled`` compiles under :func:`batch_tiles`.
    """
    seed_all(spec.seed)
    net = build_net(spec)
    opts = CompilerOptions(opt_level=level, mode=mode)
    with batch_tiles(tiled):
        cnet = _compile(net, opts, num_threads=num_threads)
    cnet.training = False
    x, y = make_inputs(spec)
    loss = cnet.forward(data=x, label=y)
    return float(loss), cnet.value("head").copy(), cnet


def run_quant_forward(spec: NetSpec, level: int, precision: str,
                      calibration=None) -> np.ndarray:
    """Build + compile ``spec`` forward-only at ``precision`` and run
    one eval-mode forward pass on its deterministic inputs; returns the
    ``head`` output (a forward-only compile computes no loss).

    Reseeds from ``spec.seed`` first, so the parameters match the fp32
    reference exactly — every output difference is quantization error,
    not initialization drift. ``calibration`` is required by the
    compiler for ``precision="int8"``.
    """
    seed_all(spec.seed)
    net = build_net(spec)
    opts = CompilerOptions.inference(level, precision=precision)
    cnet = _compile(net, opts, calibration=calibration)
    cnet.forward(data=make_inputs(spec)[0])
    return cnet.value("head").copy()


def calibrate_spec(spec: NetSpec, level: int):
    """Record an activation-range profile for ``spec`` on its own
    deterministic inputs (the fuzz corpus has exactly one batch, so the
    calibration set *is* the eval set — the best case for int8, which
    is what an accuracy gate should measure)."""
    from repro.quant.calibrate import observe_ranges

    seed_all(spec.seed)
    net = build_net(spec)
    cnet = _compile(net, CompilerOptions.inference(level),
                    keep_alive=list(net.ensembles))
    x, y = make_inputs(spec)
    return observe_ranges(cnet, [{"data": x, "label": y}])


def _compare_arrays(check: str, name: str, got: np.ndarray,
                    want: np.ndarray, rtol: float, atol: float,
                    out: List[Mismatch], bitwise: bool = False) -> None:
    if got.shape != want.shape:
        out.append(Mismatch(check, f"{name}: shape {got.shape} != "
                                   f"{want.shape}"))
        return
    if not np.isfinite(got).all():
        out.append(Mismatch(check, f"{name}: non-finite values"))
        return
    if bitwise:
        if not np.array_equal(got, want):
            n_diff = int((got != want).sum())
            out.append(Mismatch(
                check,
                f"{name}: not bitwise identical ({n_diff}/{got.size} "
                f"elements differ, max|Δ|={np.abs(got - want).max():.3g})"
            ))
        return
    if np.allclose(got, want, rtol=rtol, atol=atol):
        return
    diff = np.abs(got.astype(np.float64) - want.astype(np.float64))
    denom = np.maximum(np.abs(want.astype(np.float64)), atol)
    out.append(Mismatch(
        check,
        f"{name}: max|Δ|={diff.max():.3g} max rel={(diff / denom).max():.3g}"
        f" (rtol={rtol:g}, atol={atol:g})"
    ))


def _compare_runs(check: str, got: RunResult, want: RunResult,
                  out: List[Mismatch], loss_rtol: float, fwd_rtol: float,
                  fwd_atol: float, param_rtol: float,
                  param_atol: float) -> None:
    if not np.isfinite(got.loss):
        out.append(Mismatch(check, f"loss is {got.loss}"))
    elif abs(got.loss - want.loss) > loss_rtol * max(1e-12, abs(want.loss)):
        out.append(Mismatch(
            check, f"loss {got.loss:.6g} vs reference {want.loss:.6g} "
                   f"(rel {abs(got.loss - want.loss) / max(1e-12, abs(want.loss)):.3g})"))
    _compare_arrays(check, "output", got.output, want.output,
                    fwd_rtol, fwd_atol, out)
    _compare_arrays(check, "d(data)", got.dx, want.dx, fwd_rtol, fwd_atol,
                    out)
    if set(got.param_grads) != set(want.param_grads):
        out.append(Mismatch(check, "parameter sets differ"))
        return
    for key in sorted(want.param_grads):
        _compare_arrays(check, f"d({key})", got.param_grads[key],
                        want.param_grads[key], param_rtol, param_atol, out)


def _compare_bitwise(check: str, got: RunResult, want: RunResult,
                     out: List[Mismatch]) -> None:
    if got.loss != want.loss:
        out.append(Mismatch(check, f"loss not reproducible: "
                                   f"{got.loss!r} != {want.loss!r}"))
    _compare_arrays(check, "output", got.output, want.output, 0, 0, out,
                    bitwise=True)
    _compare_arrays(check, "d(data)", got.dx, want.dx, 0, 0, out,
                    bitwise=True)
    for key in sorted(want.param_grads):
        _compare_arrays(check, f"d({key})", got.param_grads[key],
                        want.param_grads[key], 0, 0, out, bitwise=True)


def _compare_threaded(check: str, got: RunResult, serial: RunResult,
                      out: List[Mismatch], tol: dict) -> None:
    """A threaded run against the serial run at the same level: the
    thread tiers when the executor sharded it, bitwise when it ran one
    shard — then it is the serial program."""
    if got.shards == 1:
        _compare_bitwise(check, got, serial, out)
    else:
        _compare_runs(check, got, serial, out, tol["thread_loss_rtol"],
                      tol["thread_fwd_rtol"], tol["thread_fwd_atol"],
                      tol["thread_param_rtol"], tol["thread_param_atol"])


class ArenaFault(AssertionError):
    """A compile's arena layout breaks :func:`arena_fault`'s rules."""


def arena_fault(plan) -> Optional[str]:
    """The static arena check of one compiled plan, with no run and no
    numeric comparison: every pooled buffer starts on a multiple of
    ``ALIGN_BYTES`` and ends inside ``arena_bytes``, and any two whose
    ``[offset, offset + nbytes)`` ranges intersect are never live at
    once (their intervals do not overlap; time-unrolled, they are
    touched in no common phase), and every pooled inspected buffer is
    live to the program's last point and in its last phase, so no step
    reuses its bytes before the caller reads them. Returns the first
    offence, naming its buffers, or ``None`` when the layout holds (or
    nothing is pooled).
    """
    mem = plan.memory
    if mem is None:
        return None
    spans = sorted((off, off + buffer_nbytes(plan, plan.buffers[name]), name)
                   for name, off in mem.offsets.items())
    for off, end, name in spans:
        if off % ALIGN_BYTES:
            return f"{name} at offset {off}, not a multiple of {ALIGN_BYTES}"
        if end > mem.arena_bytes:
            return (f"{name} ends at byte {end}, past the "
                    f"{mem.arena_bytes}-byte arena")
    last = sum(mem.points) - 1
    phase = "backward" if mem.points[1] else "forward"
    for name in sorted(mem.inspected.keys() & mem.offsets.keys()):
        iv = mem.intervals[name]
        if iv.last < last:
            return (f"inspected {name} is live to point {iv.last}, not to "
                    f"the program's last point {last}")
        if phase not in iv.phases:
            return f"inspected {name} is not live in {phase}"
    for i, (off, end, a) in enumerate(spans):
        for other, other_end, b in spans[i + 1:]:
            if other >= end:
                break
            ia, ib = mem.intervals[a], mem.intervals[b]
            if plan.time_steps > 1:
                live = not (ia.dead or ib.dead) and bool(ia.phases & ib.phases)
            else:
                live = ia.overlaps(ib)
            if live:
                return (f"{a} [{off}, {end}) and {b} [{other}, {other_end}) "
                        f"share bytes while both are live")
    return None


def check_arena(cnet):
    """``cnet``, once :func:`arena_fault` passes its plan; raises
    :class:`ArenaFault` otherwise."""
    fault = arena_fault(cnet.plan)
    if fault is not None:
        raise ArenaFault(fault)
    return cnet


def _compile(net, options: CompilerOptions, **kwargs):
    """``compile_net``, arena-checked: every compile the oracle makes."""
    return check_arena(compile_net(net, options, **kwargs))


def _check_plan_size(check: str, memory: Dict[str, int],
                     out: List[Mismatch]) -> None:
    """A memory plan is never larger than no plan (DESIGN.md §5.2)."""
    if memory["planned_bytes"] > memory["naive_bytes"]:
        out.append(Mismatch(
            check, f"planned_bytes {memory['planned_bytes']} > "
                   f"naive_bytes {memory['naive_bytes']}"))


def _check_inference(check: str, spec: NetSpec, level: int,
                     out: List[Mismatch], tiled: bool = False
                     ) -> np.ndarray:
    """Forward-only output bitwise that of the eval-mode train graph,
    no loss step and a loss of 0.0, and a plan no larger than no plan;
    returns the forward-only output."""
    _, train_out, _ = run_eval_forward(spec, level, "train", tiled=tiled)
    inf_loss, inf_out, cnet = run_eval_forward(spec, level, "inference",
                                               tiled=tiled)
    _check_plan_size(check, cnet.memory_stats(), out)
    losses = {e.name for e in cnet.net.ensembles.values()
              if isinstance(e, LossEnsemble)}
    stepped = [s.label for s in cnet.compiled.steps
               if {u.split(".")[0] for u in s.label.split("+")} & losses]
    if stepped or inf_loss != 0.0:
        out.append(Mismatch(
            check, f"a forward-only compile computes a loss: {inf_loss!r} "
                   f"from steps {stepped}"))
    _compare_arrays(check, "output", inf_out, train_out, 0, 0, out,
                    bitwise=True)
    return inf_out


def _run_cache_roundtrip(spec: NetSpec, level: int, backend: str = "numpy"):
    """Run ``spec`` twice through ``compile_cached`` against a throwaway
    store — a cold compile that populates it, then a warm thaw — and
    return ``(cold_result, warm_result, warm_was_hit)``.

    ``backend="c"`` exercises the native-program recipe: the warm thaw
    rebuilds the shared object from the stored C source and rebinds the
    step functions, so it must still be bitwise-equal to the cold run.
    """
    import tempfile

    from repro.cache import CompileCache, compile_cached

    def one(store):
        seed_all(spec.seed)
        net = build_net(spec)
        opts = CompilerOptions(opt_level=level, backend=backend)
        cnet = check_arena(compile_cached(spec, net=net, options=opts,
                                          cache=store))
        return run_compiled(cnet, spec), cnet.compile_report.cache_hit

    with tempfile.TemporaryDirectory() as tmp:
        store = CompileCache(tmp)
        cold, _ = one(store)
        warm, hit = one(store)
    return cold, warm, hit


def _check_checkpoint(check: str, spec: NetSpec, level: int,
                      out: List[Mismatch]) -> None:
    """Train ``spec`` two steps, save a checkpoint, rebuild it
    forward-only: its eval output must be the trained net's, bitwise."""
    import tempfile

    from repro.serve.checkpoint import (CheckpointError, load_checkpoint,
                                        save_checkpoint)

    seed_all(spec.seed)
    cnet = _compile(build_net(spec), CompilerOptions.level(level))
    for _ in range(2):
        run_compiled(cnet, spec)
        for p in cnet.parameters():
            p.value -= np.float32(0.1) * p.grad
    cnet.training = False
    x, y = make_inputs(spec)
    cnet.forward(data=x, label=y)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_checkpoint(os.path.join(tmp, "ck.npz"), cnet, spec=spec)
        try:
            served = check_arena(load_checkpoint(path).compile(
                options=CompilerOptions.inference(level)))
        except CheckpointError as exc:
            out.append(Mismatch(check, f"rebuild refused: {exc}"))
            return
    served.forward(data=x, label=y)
    _compare_arrays(check, "output", served.value("head"),
                    cnet.value("head"), 0, 0, out, bitwise=True)


def _check_quant(spec: NetSpec, level: int, tol: dict,
                 checks: List[str], out: List[Mismatch]) -> None:
    """Reduced-precision inference gates (docs/QUANTIZATION.md).

    fp16 must land inside its dedicated numeric tier against the fp32
    inference reference; int8 (calibrated on the spec's own inputs) is
    gated on max-abs-error as a fraction of the fp32 output's value
    range and on top-1 agreement over confidently-classified rows —
    rows whose fp32 top-1 margin is inside the int8 error budget can
    legitimately flip, so they are excluded rather than papered over
    with a loose agreement fraction. Each quantized path is rebuilt
    and rerun once to pin run-to-run bitwise determinism.
    """
    _, ref_out, _ = run_eval_forward(spec, level, "inference")
    ref64 = ref_out.astype(np.float64)
    ref_range = float(ref64.max() - ref64.min())
    scale = max(ref_range, 1e-3)

    # -- fp16: numeric tier + bitwise run-to-run -------------------------
    check = "quant:fp16"
    checks.append(check)
    out16 = run_quant_forward(spec, level, "fp16")
    _compare_arrays(check, "output", out16.astype(np.float32), ref_out,
                    tol["quant_fp16_rtol"], tol["quant_fp16_atol"], out)
    check = "quant:fp16-repro"
    checks.append(check)
    out16b = run_quant_forward(spec, level, "fp16")
    _compare_arrays(check, "output", out16b, out16, 0, 0, out,
                    bitwise=True)

    # -- int8: calibrated accuracy gates + bitwise run-to-run ------------
    calibration = calibrate_spec(spec, level)
    check = "quant:int8"
    checks.append(check)
    out8 = run_quant_forward(spec, level, "int8", calibration)
    got64 = out8.astype(np.float64)
    if not np.isfinite(got64).all():
        out.append(Mismatch(check, "output: non-finite values"))
        return
    err = float(np.abs(got64 - ref64).max())
    bound = tol["quant_int8_range_frac"] * scale
    if err > bound:
        out.append(Mismatch(
            check,
            f"output: max|Δ|={err:.3g} > {bound:.3g} "
            f"({tol['quant_int8_range_frac']:g} × fp32 output range "
            f"{ref_range:.3g})"))
    flat_ref = ref64.reshape(-1, ref64.shape[-1])
    flat_got = got64.reshape(-1, got64.shape[-1])
    if flat_ref.shape[-1] > 1:
        top = np.sort(flat_ref, axis=1)
        margin = top[:, -1] - top[:, -2]
        confident = margin > tol["quant_int8_top1_margin_frac"] * scale
        agree = np.argmax(flat_got, axis=1) == np.argmax(flat_ref, axis=1)
        flipped = int((confident & ~agree).sum())
        if flipped:
            out.append(Mismatch(
                check,
                f"top-1 disagrees on {flipped}/{int(confident.sum())} "
                f"confident rows (fp32 margin > "
                f"{tol['quant_int8_top1_margin_frac']:g} × range)"))
    check = "quant:int8-repro"
    checks.append(check)
    out8b = run_quant_forward(spec, level, "int8", calibration)
    _compare_arrays(check, "output", out8b, out8, 0, 0, out, bitwise=True)


def _baseline_config(spec: NetSpec):
    """Map a baseline-compatible spec onto a shared ModelConfig (layer
    names matching :func:`build_net`'s), or None if out of vocabulary."""
    from repro.models.configs import (
        ConvSpec, FCSpec, LRNSpec, ModelConfig, PoolSpec, ReLUSpec,
        SoftmaxLossSpec,
    )

    if (spec.time_steps != 1 or len(spec.input_shape) != 3
            or not any(ld["kind"] == "conv" for ld in spec.layers)):
        return None
    if any(ld["kind"] not in _BASELINE_KINDS for ld in spec.layers):
        return None
    specs = []
    for i, ld in enumerate(spec.layers):
        name = f"L{i}_{ld['kind']}"
        if ld["kind"] == "conv":
            specs.append(ConvSpec(name, ld["filters"], ld["kernel"],
                                  ld["stride"], ld["pad"]))
        elif ld["kind"] == "relu":
            specs.append(ReLUSpec(name))
        elif ld["kind"] == "pool":
            specs.append(PoolSpec(name, ld["kernel"], ld["stride"],
                                  ld["pad"], ld["mode"]))
        elif ld["kind"] == "lrn":
            specs.append(LRNSpec(name, ld["local_size"], ld["alpha"],
                                 ld["beta"]))
        elif ld["kind"] == "fc":
            specs.append(FCSpec(name, ld["outputs"]))
    specs.append(FCSpec("head", spec.classes))
    specs.append(SoftmaxLossSpec("loss"))
    return ModelConfig(f"fuzz_{spec.seed}", tuple(spec.input_shape),
                       tuple(specs), spec.classes)


def _check_baselines(spec: NetSpec, tol: dict, checks: List[str],
                     out: List[Mismatch]) -> None:
    from repro.baselines import CaffeNet, MochaNet

    config = _baseline_config(spec)
    if config is None:
        return
    seed_all(spec.seed)
    net = build_net(spec)
    cnet = _compile(net, CompilerOptions.level(4))
    x, y = make_inputs(spec)
    for cls, label in ((CaffeNet, "caffe"), (MochaNet, "mocha")):
        check = f"baseline:{label}"
        checks.append(check)
        # a baseline that raises is a mismatch like any other, so the
        # fuzz CLI shrinks the spec and writes a reproducer
        try:
            _compare_baseline(check, cls(config, spec.batch), cnet, x, y,
                              tol, out)
        except Exception as exc:  # noqa: BLE001 - recorded as a mismatch
            where = traceback.extract_tb(exc.__traceback__)[-1]
            out.append(Mismatch(
                check, f"raised {type(exc).__name__} at "
                f"{os.path.basename(where.filename)}:{where.lineno}: {exc}"))


def _compare_baseline(check: str, base, cnet, x, y, tol: dict,
                      out: List[Mismatch]) -> None:
    base.load_params_from(cnet)
    loss = cnet.forward(data=x, label=y)
    cnet.clear_param_grads()
    cnet.backward()
    base.forward(x, y)
    if abs(base.loss - loss) > tol["loss_rtol"] * max(1e-12, abs(loss)):
        out.append(Mismatch(
            check, f"loss {loss:.6g} vs baseline {base.loss:.6g}"))
    base.clear_grads()
    dx_base = base.backward()
    _compare_arrays(check, "d(data)", cnet.grad("data"), dx_base,
                    tol["baseline_rtol"], tol["baseline_atol"], out)
    base_params = base.params()
    latte_params = cnet.parameters()
    if len(base_params) != len(latte_params):
        out.append(Mismatch(check, "parameter count differs"))
        return
    for (bv, bg), p in zip(base_params, latte_params):
        _compare_arrays(check, f"d({p.key})", p.grad, bg,
                        tol["baseline_rtol"], tol["baseline_atol"], out)


def _check_gradients(spec: NetSpec, tol: dict, n_indices: int,
                     out: List[Mismatch]) -> None:
    def build_fn():
        seed_all(spec.seed)
        return _compile(build_net(spec), CompilerOptions.level(0))

    x, y = make_inputs(spec)
    failures = check_input_gradient(
        build_fn, x, y, n_indices=n_indices, atol=tol["fd_atol"],
        rtol=tol["fd_rtol"], index_seed=spec.seed,
    )
    for f in failures:
        out.append(Mismatch("gradcheck", str(f)))


def check_spec(
    spec: NetSpec,
    levels: Sequence[int] = (1, 2, 3, 4),
    threads: Sequence[int] = (2, 4),
    gradcheck_indices: int = 3,
    baselines: bool = True,
    dtype: str = "float32",
    cbackend: Optional[bool] = None,
    quant: bool = True,
) -> OracleReport:
    """Run every configured comparison on ``spec``.

    ``levels`` are compared against the O0 scalar oracle; ``threads``
    run at the highest requested level (or O4 when ``levels`` is empty)
    and are compared against the serial run of that same level;
    ``gradcheck_indices`` finite-difference probes validate the O0
    input gradient itself; ``baselines`` enables caffe/mocha parity
    when the spec stays within their layer vocabulary; ``cbackend``
    pins the compiled C backend against both the O0 interpreter
    and the same-level NumPy backend, and at ``max(threads)`` against
    itself at one thread (``None`` = run exactly when a
    working C toolchain is present, so corpus runs cover it wherever
    they can and skip cleanly where they cannot); ``quant`` runs the
    reduced-precision gates (fp16 tier, calibrated int8 accuracy,
    bitwise determinism — see :func:`_check_quant`). Every compile is
    first put through the static ``arena`` check (:func:`arena_fault`);
    the first layout it rejects ends the report there.
    """
    report = OracleReport(spec, checks=["arena"])
    try:
        _run_checks(report, levels, threads, gradcheck_indices, baselines,
                    TOLERANCES[dtype], cbackend, quant)
    except ArenaFault as fault:
        report.mismatches.append(Mismatch("arena", str(fault)))
    return report


def _run_checks(report: OracleReport, levels: Sequence[int],
                threads: Sequence[int], gradcheck_indices: int,
                baselines: bool, tol: dict, cbackend: Optional[bool],
                quant: bool) -> None:
    spec = report.spec
    reference = run_spec(spec, level=0)
    report.checks.append("level:0")
    if not np.isfinite(reference.loss):
        report.mismatches.append(
            Mismatch("level:0", f"oracle loss is {reference.loss}"))
        return

    by_level = {0: reference}
    for lvl in levels:
        check = f"level:{lvl}"
        report.checks.append(check)
        by_level[lvl] = run_spec(spec, level=lvl)
        _compare_runs(check, by_level[lvl], reference, report.mismatches,
                      tol["loss_rtol"], tol["level_rtol"],
                      tol["level_atol"], tol["level_param_rtol"],
                      tol["level_param_atol"])

    # the arena planner must be bitwise-neutral: reuse changes where
    # buffers live, never what the steps compute (DESIGN.md §5.2)
    memplan_level = max(levels) if levels else 4
    top = CompilerOptions.level(memplan_level)
    tiles = top.runs("tiling") and spec.batch > 1
    everything = list(build_net(spec).ensembles)  # keep_alive: keep all
    if top.runs("memory_plan"):
        check = "memplan"
        report.checks.append(check)
        planned = by_level.get(memplan_level)
        if planned is None:
            planned = run_spec(spec, level=memplan_level)
        unplanned = run_spec(spec, level=memplan_level, memory_plan=False)
        _compare_bitwise(check, planned, unplanned, report.mismatches)
        _check_plan_size(check, planned.memory, report.mismatches)

        # the default pools LRN / batchnorm / concat / gather / recurrent
        # values and gradients too; keeping every ensemble inspectable
        # pools only staging buffers — still the unplanned run's bits
        check = "memplan-kept"
        report.checks.append(check)
        kept = run_spec(spec, level=memplan_level, keep_alive=everything)
        _compare_bitwise(check, kept, unplanned, report.mismatches)
        _check_plan_size(check, kept.memory, report.mismatches)

    # staging chains tiled along the batch, fused and contracted: the
    # same values as the interpreter's (weight-gradient sums reassociate
    # per tile), planned or not, sharded or not, on either backend
    if tiles:
        check = "batchtile"
        report.checks.append(check)
        tiled = run_spec(spec, level=4, tiled=True)
        _compare_runs(check, tiled, reference, report.mismatches,
                      tol["loss_rtol"], tol["level_rtol"],
                      tol["level_atol"], tol["level_param_rtol"],
                      tol["level_param_atol"])
        _check_plan_size(check, tiled.memory, report.mismatches)
    # (a spec with nothing to tile compiled the level:4 program again)
    if tiles and tiled.contracted:
        check = "batchtile-memplan"
        report.checks.append(check)
        unplanned = run_spec(spec, level=4, tiled=True, memory_plan=False)
        _compare_bitwise(check, tiled, unplanned, report.mismatches)
        # every ensemble kept inspectable: values stay whole where the
        # default contracts or pools them, and the same bits come out
        check = "batchtile-kept"
        report.checks.append(check)
        kept = run_spec(spec, level=4, tiled=True, keep_alive=everything)
        _compare_bitwise(check, kept, unplanned, report.mismatches)
        _check_plan_size(check, kept.memory, report.mismatches)
        if threads:
            check = f"batchtile-threads:{max(threads)}"
            report.checks.append(check)
            _compare_threaded(
                check, run_spec(spec, level=4, tiled=True,
                                num_threads=max(threads)),
                tiled, report.mismatches, tol)

    # forward-only under batch tiles: a layer's values and padded input
    # contracted to its group's tile (only the contract is kept), still
    # the eval-mode train graph's bits — and sharded, each shard on
    # private tiles of them
    if tiles:
        report.checks.append("batchtile-inference")
        inf_out = _check_inference(
            "batchtile-inference", spec, 4, report.mismatches, tiled=True)
        if threads:
            check = f"batchtile-inference-threads:{max(threads)}"
            report.checks.append(check)
            _, thr_out, _ = run_eval_forward(
                spec, 4, "inference", tiled=True, num_threads=max(threads))
            _compare_arrays(check, "output", thr_out, inf_out,
                            tol["thread_fwd_rtol"], tol["thread_fwd_atol"],
                            report.mismatches)

    # forward-only compilation must be a pure subtraction: dropping the
    # backward program and pruning gradient buffers cannot perturb the
    # forward schedule, so inference output == eval-mode train output
    # down to the bit
    report.checks.append("inference")
    _check_inference("inference", spec, max(levels) if levels else 4,
                     report.mismatches)

    # a thawed compile-cache entry is the stored cold program re-bound
    # to a freshly built net: no synthesis, no passes, no codegen — so
    # it must compute bit-for-bit what the cold compile computes
    check = "cache"
    report.checks.append(check)
    cold, warm, warm_hit = _run_cache_roundtrip(
        spec, max(levels) if levels else 4
    )
    if not warm_hit:
        report.mismatches.append(Mismatch(
            check, "second compile_cached did not hit the cache"))
    else:
        _compare_bitwise(check, warm, cold, report.mismatches)

    # a checkpoint carries every model array, running statistics too:
    # the net rebuilt from it computes the trained net's eval output
    check = "checkpoint"
    report.checks.append(check)
    _check_checkpoint(check, spec, max(levels) if levels else 4,
                      report.mismatches)

    # reduced-precision inference rides the same fuzz corpus: fp16 and
    # calibrated int8 against the fp32 inference reference, each
    # bitwise run-to-run
    if quant:
        _check_quant(spec, max(levels) if levels else 4, tol,
                     report.checks, report.mismatches)

    # the C backend is an independent lowering of the same fused
    # schedule: its kernels accumulate in double and order contractions
    # differently from BLAS, so values land inside the reassociation
    # tier, never outside it — and a second compile of the same spec
    # (content-addressed .so, fixed shard bounds) is bitwise identical
    if cbackend is None:
        from repro.codegen.c_backend import have_c_toolchain

        cbackend = have_c_toolchain()
    if cbackend:
        c_level = max(levels) if levels else 4
        check = "cbackend"
        report.checks.append(check)
        native = run_spec(spec, level=c_level, backend="c")
        _compare_runs(check, native, reference, report.mismatches,
                      tol["loss_rtol"], tol["level_rtol"],
                      tol["level_atol"], tol["level_param_rtol"],
                      tol["level_param_atol"])

        check = "cbackend-vs-numpy"
        report.checks.append(check)
        numpy_same = by_level.get(c_level)
        if numpy_same is None:
            numpy_same = run_spec(spec, level=c_level)
        _compare_runs(check, native, numpy_same, report.mismatches,
                      tol["loss_rtol"], tol["level_rtol"],
                      tol["level_atol"], tol["level_param_rtol"],
                      tol["level_param_atol"])

        if tiles and tiled.contracted:
            check = "cbackend-batchtile"
            report.checks.append(check)
            _compare_runs(check,
                          run_spec(spec, level=4, backend="c", tiled=True),
                          reference, report.mismatches,
                          tol["loss_rtol"], tol["level_rtol"],
                          tol["level_atol"], tol["level_param_rtol"],
                          tol["level_param_atol"])

        # run-to-run determinism at one thread: a full rebuild (fresh
        # net, fresh .so load) must reproduce every bit — any drift is
        # nondeterministic codegen or an uninitialized buffer, not
        # rounding
        check = "cbackend-repro"
        report.checks.append(check)
        _compare_bitwise(check, run_spec(spec, level=c_level, backend="c"),
                         native, report.mismatches)

        # freeze/thaw of a native program recompiles the stored C source
        # and rebinds the steps; the thawed program must compute the
        # cold compile's exact bits
        check = "cbackend-cache"
        report.checks.append(check)
        cold, warm, warm_hit = _run_cache_roundtrip(spec, c_level,
                                                    backend="c")
        if not warm_hit:
            report.mismatches.append(Mismatch(
                check, "second compile_cached did not hit the cache"))
        else:
            _compare_bitwise(check, warm, cold, report.mismatches)

        # threaded native runs: the kernels run the executor's shards —
        # thread tiers against serial C (bitwise at one shard: batch 1
        # runs the serial program), and bitwise run to run
        nt = max(threads, default=1)
        if nt > 1:
            check = f"cbackend-threads:{nt}"
            report.checks.append(check)
            threaded = run_spec(spec, level=c_level, backend="c",
                                num_threads=nt)
            _compare_threaded(check, threaded, native, report.mismatches,
                              tol)
            _compare_bitwise(check, run_spec(spec, level=c_level,
                                             backend="c", num_threads=nt),
                             threaded, report.mismatches)

    if threads:
        thread_level = max(levels) if levels else 4
        serial = by_level.get(thread_level)
        if serial is None:
            serial = run_spec(spec, level=thread_level)
        reproducibility_checked = False
        memplan_threads_checked = False
        for nt in threads:
            if nt <= 1:
                continue
            check = f"threads:{nt}"
            report.checks.append(check)
            parallel = run_spec(spec, level=thread_level, num_threads=nt)
            _compare_threaded(check, parallel, serial, report.mismatches,
                              tol)
            if not reproducibility_checked:
                # run-to-run determinism at a fixed shard count is
                # bitwise (fixed bounds + fixed-order reduction); any
                # drift here is a race, not rounding
                reproducibility_checked = True
                check = f"repro-threads:{nt}"
                report.checks.append(check)
                _compare_bitwise(
                    check, run_spec(spec, level=thread_level,
                                    num_threads=nt),
                    parallel, report.mismatches)
            if not memplan_threads_checked and CompilerOptions.level(
                    thread_level).runs("memory_plan"):
                # planner neutrality must also hold under sharding
                # (shared arena bytes + per-shard privates interact)
                memplan_threads_checked = True
                check = f"memplan-threads:{nt}"
                report.checks.append(check)
                _compare_bitwise(
                    check, parallel,
                    run_spec(spec, level=thread_level, num_threads=nt,
                             memory_plan=False),
                    report.mismatches)

    if gradcheck_indices:
        report.checks.append("gradcheck")
        _check_gradients(spec, tol, gradcheck_indices, report.mismatches)

    if baselines:
        _check_baselines(spec, tol, report.checks, report.mismatches)


def assert_spec_ok(spec: NetSpec, shrink_on_failure: bool = True,
                   **check_kwargs) -> OracleReport:
    """Pytest-facing wrapper: raise AssertionError on any mismatch,
    shrinking the failing spec first so the error message carries a
    minimal reproducer (paste its JSON into ``tests/regressions/`` to
    pin it)."""
    report = check_spec(spec, **check_kwargs)
    if report.ok:
        return report
    message = [report.summary()]
    if shrink_on_failure:
        from repro.testing.minimize import shrink

        small = shrink(
            spec, lambda s: not check_spec(s, **check_kwargs).ok
        )
        final = check_spec(small, **check_kwargs)
        message.append("minimized reproducer:")
        message.append(small.to_json(indent=2))
        message.append(final.summary())
    raise AssertionError("\n".join(message))


@contextlib.contextmanager
def inject_bug(name: str):
    """Deliberately break an optimizer/runtime invariant (self-test of
    the oracle: a fuzz run under an injected bug must fail).

    * ``drop-private-reduce`` — the privatized-accumulator tree
      reduction returns only the first shard's partial, losing every
      other shard's weight/bias-gradient contribution.
    * ``overlapping-shards`` — every shard covers ``[0, hi)`` instead of
      its own slice, double-counting privatized gradient contributions.
    * ``group-slab-overlap`` — the memory planner takes any two buffers
      contracted to one batch-tiled group for disjoint, whatever units
      touch them, so a group's tiles may share bytes and overwrite one
      another.
    * ``arena-overlap`` — the memory planner places the first two pooled
      buffers that are live together at one offset, in every greedy
      order it tries, so whichever layout it keeps is wrong; the static
      ``arena`` check rejects the layout before anything runs.
    * ``inspected-early-end`` — the memory planner ends a pooled
      inspected buffer's interval at its last access, so a later step
      may reuse its bytes before the caller reads them; the static
      ``arena`` check rejects the plan before anything runs.
    * ``recompute-skipped`` — a value recomputed in backward has its
      backward readers respelled to the recomputed buffer, but the
      clones that would define it are dropped, so they read a buffer
      nothing writes.
    * ``stats-dropped`` — a checkpoint saves the parameters but not the
      running statistics, so the net rebuilt from it cannot start
      where the trained one stands.
    """
    from repro.runtime import executor
    from repro.synthesis import liveness
    from repro.synthesis.access import Interval

    if name == "drop-private-reduce":
        orig = executor.tree_reduce
        executor.tree_reduce = lambda parts: parts[0]
        try:
            yield
        finally:
            executor.tree_reduce = orig
    elif name == "overlapping-shards":
        orig = executor.shard_bounds
        executor.shard_bounds = lambda batch, n: [
            (0, hi) for _lo, hi in orig(batch, n)
        ]
        try:
            yield
        finally:
            executor.shard_bounds = orig
    elif name == "group-slab-overlap":
        orig = Interval.overlaps
        Interval.overlaps = lambda a, b: orig(a, b) and not (
            a.units and b.units and a.first == b.first)
        try:
            yield
        finally:
            Interval.overlaps = orig
    elif name == "arena-overlap":
        orig = liveness.place_offsets

        def overlapping(buffers, sizes, conflicts, key, placed=None):
            offsets = orig(buffers, sizes, conflicts, key, placed)
            order = sorted(offsets, key=lambda b: (offsets[b], b))
            pair = next(((a, b) for i, a in enumerate(order)
                         for b in order[i + 1:] if conflicts(a, b)), None)
            if pair is not None:
                offsets[pair[1]] = offsets[pair[0]]
            return offsets

        liveness.place_offsets = overlapping
        try:
            yield
        finally:
            liveness.place_offsets = orig
    elif name == "inspected-early-end":
        orig = liveness.live_to_end
        liveness.live_to_end = lambda iv, view: None
        try:
            yield
        finally:
            liveness.live_to_end = orig
    elif name == "recompute-skipped":
        orig = liveness._clone_backward

        def skipping(plan, bwd, originals, renames, readers):
            orig(plan, bwd, [(u, kind) for u, kind in originals
                             if kind != "recompute"], renames, readers)

        liveness._clone_backward = skipping
        try:
            yield
        finally:
            liveness._clone_backward = orig
    elif name == "stats-dropped":
        orig = executor.CompiledNet.model_arrays
        executor.CompiledNet.model_arrays = lambda net: {
            p.key: p.value for p in net.parameters()}
        try:
            yield
        finally:
            executor.CompiledNet.model_arrays = orig
    else:
        raise KeyError(
            f"unknown bug {name!r}; have: {', '.join(INJECTABLE_BUGS)}")


#: names accepted by :func:`inject_bug` (for the CLI's --inject-bug)
INJECTABLE_BUGS = ("drop-private-reduce", "overlapping-shards",
                   "group-slab-overlap", "arena-overlap",
                   "inspected-early-end", "recompute-skipped",
                   "stats-dropped")
