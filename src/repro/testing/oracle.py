"""The differential oracle: one spec, every compiler configuration.

``check_spec`` runs a generated network forward + backward under every
optimization level, thread count, memory-plan and batch-tile setting
and backend, and compares each run with its reference in one tier:
``level`` (float reassociation, against the O0 scalar interpreter),
``thread`` (sharded against serial), ``bitwise``, or ``threaded``
(bitwise when the executor ran one shard, the thread tier otherwise).
It also checks forward-only compiles, the compile cache, checkpoints,
reduced precision, finite-difference input gradients and, where the
layer vocabulary overlaps, the independent ``caffe_like`` and
``mocha_like`` baselines.

docs/TESTING.md "The oracle and its tolerance policy" has the table of
every check in the order the report lists it: its name, the
configuration it runs, its reference and its tier, and why each tier
is as tight as it is (see also DESIGN.md §4b).
"""

from __future__ import annotations

import contextlib
import os
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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
_TOL = TOLERANCES["float32"]

#: the :data:`TOLERANCES` keys of each tier :func:`_compare_runs` takes:
#: loss rtol, forward (output and input gradient) rtol and atol, and
#: parameter-gradient rtol and atol; ``bitwise`` has none
_TIERS = {
    "level": ("loss_rtol", "level_rtol", "level_atol", "level_param_rtol",
              "level_param_atol"),
    "thread": ("thread_loss_rtol", "thread_fwd_rtol", "thread_fwd_atol",
               "thread_param_rtol", "thread_param_atol"),
    "bitwise": (),
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
                    want: np.ndarray, out: List[Mismatch],
                    rtol: float = 0.0, atol: float = 0.0) -> None:
    """``got`` against ``want`` within ``rtol`` / ``atol``; bitwise when
    both are 0."""
    if got.shape != want.shape:
        out.append(Mismatch(check, f"{name}: shape {got.shape} != "
                                   f"{want.shape}"))
        return
    if not np.isfinite(got).all():
        out.append(Mismatch(check, f"{name}: non-finite values"))
        return
    if not (rtol or atol):
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
                  out: List[Mismatch], tier: str) -> None:
    """``got`` against ``want`` in one tier of :data:`_TIERS`, or in
    ``"threaded"``: a threaded run against the serial one, bitwise when
    the executor ran it as one shard (then it is the serial program),
    the thread tier otherwise."""
    if tier == "threaded":
        tier = "bitwise" if got.shards == 1 else "thread"
    loss_rtol, fwd_rtol, fwd_atol, param_rtol, param_atol = (
        [_TOL[key] for key in _TIERS[tier]] or [0.0] * 5)
    scale = max(1e-12, abs(want.loss))
    if tier == "bitwise":
        if got.loss != want.loss:
            out.append(Mismatch(check, f"loss not reproducible: "
                                       f"{got.loss!r} != {want.loss!r}"))
    elif not np.isfinite(got.loss):
        out.append(Mismatch(check, f"loss is {got.loss}"))
    elif abs(got.loss - want.loss) > loss_rtol * scale:
        out.append(Mismatch(
            check, f"loss {got.loss:.6g} vs reference {want.loss:.6g} "
                   f"(rel {abs(got.loss - want.loss) / scale:.3g})"))
    _compare_arrays(check, "output", got.output, want.output, out,
                    fwd_rtol, fwd_atol)
    _compare_arrays(check, "d(data)", got.dx, want.dx, out, fwd_rtol,
                    fwd_atol)
    if set(got.param_grads) != set(want.param_grads):
        out.append(Mismatch(check, "parameter sets differ"))
        return
    for key in sorted(want.param_grads):
        _compare_arrays(check, f"d({key})", got.param_grads[key],
                        want.param_grads[key], out, param_rtol, param_atol)


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
    _compare_arrays(check, "output", inf_out, train_out, out)
    return inf_out


def _run_cache_roundtrip(check: str, spec: NetSpec, level: int,
                         out: List[Mismatch], backend: str = "numpy"
                         ) -> None:
    """Run ``spec`` twice through ``compile_cached`` against a throwaway
    store — a cold compile that populates it, then a warm thaw — and
    compare the warm run with the cold one bitwise; a warm compile that
    misses the cache is a mismatch.

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
    if not hit:
        out.append(Mismatch(check,
                            "second compile_cached did not hit the cache"))
    else:
        _compare_runs(check, warm, cold, out, "bitwise")


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
                    cnet.value("head"), out)


def _check_quant(spec: NetSpec, level: int, ref_out: np.ndarray,
                 checks: List[str], out: List[Mismatch]) -> None:
    """Reduced-precision inference gates (docs/QUANTIZATION.md) against
    ``ref_out``, the fp32 forward-only output at ``level``.

    fp16 must land inside its dedicated numeric tier against the fp32
    inference reference; int8 (calibrated on the spec's own inputs) is
    gated on max-abs-error as a fraction of the fp32 output's value
    range and on top-1 agreement over confidently-classified rows —
    rows whose fp32 top-1 margin is inside the int8 error budget can
    legitimately flip, so they are excluded rather than papered over
    with a loose agreement fraction. Each quantized path is rebuilt
    and rerun once to pin run-to-run bitwise determinism.
    """
    ref64 = ref_out.astype(np.float64)
    ref_range = float(ref64.max() - ref64.min())
    scale = max(ref_range, 1e-3)

    # -- fp16: numeric tier + bitwise run-to-run -------------------------
    check = "quant:fp16"
    checks.append(check)
    out16 = run_quant_forward(spec, level, "fp16")
    _compare_arrays(check, "output", out16.astype(np.float32), ref_out,
                    out, _TOL["quant_fp16_rtol"], _TOL["quant_fp16_atol"])
    check = "quant:fp16-repro"
    checks.append(check)
    out16b = run_quant_forward(spec, level, "fp16")
    _compare_arrays(check, "output", out16b, out16, out)

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
    bound = _TOL["quant_int8_range_frac"] * scale
    if err > bound:
        out.append(Mismatch(
            check,
            f"output: max|Δ|={err:.3g} > {bound:.3g} "
            f"({_TOL['quant_int8_range_frac']:g} × fp32 output range "
            f"{ref_range:.3g})"))
    flat_ref = ref64.reshape(-1, ref64.shape[-1])
    flat_got = got64.reshape(-1, got64.shape[-1])
    if flat_ref.shape[-1] > 1:
        top = np.sort(flat_ref, axis=1)
        margin = top[:, -1] - top[:, -2]
        confident = margin > _TOL["quant_int8_top1_margin_frac"] * scale
        agree = np.argmax(flat_got, axis=1) == np.argmax(flat_ref, axis=1)
        flipped = int((confident & ~agree).sum())
        if flipped:
            out.append(Mismatch(
                check,
                f"top-1 disagrees on {flipped}/{int(confident.sum())} "
                f"confident rows (fp32 margin > "
                f"{_TOL['quant_int8_top1_margin_frac']:g} × range)"))
    check = "quant:int8-repro"
    checks.append(check)
    out8b = run_quant_forward(spec, level, "int8", calibration)
    _compare_arrays(check, "output", out8b, out8, out)


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


def _check_baselines(spec: NetSpec, checks: List[str],
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
                              out)
        except Exception as exc:  # noqa: BLE001 - recorded as a mismatch
            where = traceback.extract_tb(exc.__traceback__)[-1]
            out.append(Mismatch(
                check, f"raised {type(exc).__name__} at "
                f"{os.path.basename(where.filename)}:{where.lineno}: {exc}"))


def _compare_baseline(check: str, base, cnet, x, y,
                      out: List[Mismatch]) -> None:
    base.load_params_from(cnet)
    loss = cnet.forward(data=x, label=y)
    cnet.clear_param_grads()
    cnet.backward()
    base.forward(x, y)
    if abs(base.loss - loss) > _TOL["loss_rtol"] * max(1e-12, abs(loss)):
        out.append(Mismatch(
            check, f"loss {loss:.6g} vs baseline {base.loss:.6g}"))
    base.clear_grads()
    dx_base = base.backward()
    tol = _TOL["baseline_rtol"], _TOL["baseline_atol"]
    _compare_arrays(check, "d(data)", cnet.grad("data"), dx_base, out, *tol)
    base_params = base.params()
    latte_params = cnet.parameters()
    if len(base_params) != len(latte_params):
        out.append(Mismatch(check, "parameter count differs"))
        return
    for (bv, bg), p in zip(base_params, latte_params):
        _compare_arrays(check, f"d({p.key})", p.grad, bg, out, *tol)


def _check_gradients(check: str, spec: NetSpec, n_indices: int,
                     out: List[Mismatch]) -> None:
    def build_fn():
        seed_all(spec.seed)
        return _compile(build_net(spec), CompilerOptions.level(0))

    x, y = make_inputs(spec)
    failures = check_input_gradient(
        build_fn, x, y, n_indices=n_indices, atol=_TOL["fd_atol"],
        rtol=_TOL["fd_rtol"], index_seed=spec.seed,
    )
    for f in failures:
        out.append(Mismatch(check, str(f)))


def check_spec(
    spec: NetSpec,
    levels: Sequence[int] = (1, 2, 3, 4),
    threads: Sequence[int] = (2, 4),
    gradcheck_indices: int = 3,
    baselines: bool = True,
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
                    cbackend, quant)
    except ArenaFault as fault:
        report.mismatches.append(Mismatch("arena", str(fault)))
    return report


def _run_checks(report: OracleReport, levels: Sequence[int],
                threads: Sequence[int], gradcheck_indices: int,
                baselines: bool, cbackend: Optional[bool],
                quant: bool) -> None:
    """The checks of docs/TESTING.md's table, in its order: each
    ``check`` row names its configuration, its reference and its tier."""
    spec, out = report.spec, report.mismatches
    memo: Dict[tuple, RunResult] = {}

    def run(fresh: bool = False, **config) -> RunResult:
        # one compile per configuration; ``fresh`` compiles it again,
        # for the rows that compare two runs of one configuration
        if fresh:
            return run_spec(spec, **config)
        key = tuple(sorted(config.items()))
        if key not in memo:
            memo[key] = run_spec(spec, **config)
        return memo[key]

    def named(name: str) -> str:
        report.checks.append(name)
        return name

    def check(name: str, got: RunResult, want: RunResult,
              tier: str) -> RunResult:
        _compare_runs(named(name), got, want, out, tier)
        return got

    reference = run(level=0)
    named("level:0")
    if not np.isfinite(reference.loss):
        out.append(Mismatch("level:0", f"oracle loss is {reference.loss}"))
        return
    for lvl in levels:
        check(f"level:{lvl}", run(level=lvl), reference, "level")

    top = max(levels, default=4)
    most = max(threads, default=1)
    plans = CompilerOptions.level(top).runs("memory_plan")
    tiles = CompilerOptions.level(top).runs("tiling") and spec.batch > 1
    everything = tuple(build_net(spec).ensembles)  # keep_alive: keep all
    # the arena planner must be bitwise-neutral: reuse changes where
    # buffers live, never what the steps compute (DESIGN.md §5.2); the
    # default pools LRN / batchnorm / concat / gather / recurrent values
    # and gradients too, keeping every ensemble pools staging buffers only
    if plans:
        got = check("memplan", run(level=top),
                    run(level=top, memory_plan=False), "bitwise")
        _check_plan_size("memplan", got.memory, out)
        got = check("memplan-kept", run(level=top, keep_alive=everything),
                    run(level=top, memory_plan=False), "bitwise")
        _check_plan_size("memplan-kept", got.memory, out)

    # staging chains tiled along the batch, fused and contracted: the
    # same values as the interpreter's (weight-gradient sums reassociate
    # per tile), planned or not, sharded or not, on either backend; a
    # spec with nothing to tile compiles the level:4 program again
    if tiles:
        tiled = check("batchtile", run(level=4, tiled=True), reference,
                      "level")
        _check_plan_size("batchtile", tiled.memory, out)
    contracted = tiles and tiled.contracted
    if contracted:
        check("batchtile-memplan", tiled,
              run(level=4, tiled=True, memory_plan=False), "bitwise")
        got = check("batchtile-kept",
                    run(level=4, tiled=True, keep_alive=everything),
                    run(level=4, tiled=True, memory_plan=False), "bitwise")
        _check_plan_size("batchtile-kept", got.memory, out)
        if threads:
            check(f"batchtile-threads:{most}",
                  run(level=4, tiled=True, num_threads=most), tiled,
                  "threaded")

    # forward-only under batch tiles: a layer's values and padded input
    # contracted to its group's tile, still the eval-mode train graph's
    # bits — and sharded, each shard on private tiles of them
    if tiles:
        inf_out = _check_inference(named("batchtile-inference"), spec, 4,
                                   out, tiled=True)
        if threads:
            name = named(f"batchtile-inference-threads:{most}")
            _, thr_out, _ = run_eval_forward(
                spec, 4, "inference", tiled=True, num_threads=most)
            _compare_arrays(name, "output", thr_out, inf_out, out,
                            _TOL["thread_fwd_rtol"], _TOL["thread_fwd_atol"])

    # forward-only compilation is a pure subtraction: inference output
    # is the eval-mode train output down to the bit; it is the fp32
    # reference of reduced precision too
    inf_out = _check_inference(named("inference"), spec, top, out)
    _run_cache_roundtrip(named("cache"), spec, top, out)
    _check_checkpoint(named("checkpoint"), spec, top, out)
    if quant:
        _check_quant(spec, top, inf_out, report.checks, out)

    # the C backend is an independent lowering of the same fused
    # schedule: its kernels accumulate in double and order contractions
    # differently from BLAS, so values land inside the reassociation
    # tier — and a second compile (content-addressed .so, fixed shard
    # bounds) is bitwise identical
    if cbackend is None:
        from repro.codegen.c_backend import have_c_toolchain

        cbackend = have_c_toolchain()
    if cbackend:
        native = check("cbackend", run(level=top, backend="c"), reference,
                       "level")
        check("cbackend-vs-numpy", native, run(level=top), "level")
        if contracted:
            check("cbackend-batchtile", run(level=4, backend="c", tiled=True),
                  reference, "level")
        check("cbackend-repro", run(fresh=True, level=top, backend="c"),
              native, "bitwise")
        _run_cache_roundtrip(named("cbackend-cache"), spec, top, out,
                             backend="c")
        if most > 1:
            config = dict(level=top, backend="c", num_threads=most)
            threaded = check(f"cbackend-threads:{most}", run(**config),
                             native, "threaded")
            _compare_runs(f"cbackend-threads:{most}",
                          run(fresh=True, **config), threaded, out,
                          "bitwise")

    # threaded against serial at the same level; run to run at the first
    # thread count, where any drift is a race, not rounding; and the
    # planner's neutrality under sharding
    if threads:
        serial = run(level=top)
        for i, nt in enumerate(n for n in threads if n > 1):
            parallel = check(f"threads:{nt}", run(level=top, num_threads=nt),
                             serial, "threaded")
            if i == 0:
                check(f"repro-threads:{nt}",
                      run(fresh=True, level=top, num_threads=nt), parallel,
                      "bitwise")
                if plans:
                    check(f"memplan-threads:{nt}", parallel,
                          run(level=top, num_threads=nt, memory_plan=False),
                          "bitwise")

    if gradcheck_indices:
        _check_gradients(named("gradcheck"), spec, gradcheck_indices, out)
    if baselines:
        _check_baselines(spec, report.checks, out)


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


def _overlapping(place_offsets):
    """``place_offsets`` that puts the first two buffers live together at
    one offset."""
    def overlapping(buffers, sizes, conflicts, key, placed=None):
        offsets = place_offsets(buffers, sizes, conflicts, key, placed)
        order = sorted(offsets, key=lambda b: (offsets[b], b))
        pair = next(((a, b) for i, a in enumerate(order)
                     for b in order[i + 1:] if conflicts(a, b)), None)
        if pair is not None:
            offsets[pair[1]] = offsets[pair[0]]
        return offsets
    return overlapping


def _skipping(clone_backward):
    """``_clone_backward`` that drops the clones of recomputed values."""
    def skipping(plan, bwd, originals, renames, readers):
        clone_backward(plan, bwd, [(u, kind) for u, kind in originals
                                   if kind != "recompute"], renames, readers)
    return skipping


#: the bugs :func:`inject_bug` can inject: name -> (owner module,
#: attribute path in it, replacement factory taking the original)
_BUGS = {
    # the privatized-accumulator tree reduction returns only the first
    # shard's partial, losing every other shard's weight/bias-gradient
    # contribution
    "drop-private-reduce": ("repro.runtime.executor", "tree_reduce",
                            lambda orig: lambda parts: parts[0]),
    # every shard covers [0, hi) instead of its own slice,
    # double-counting privatized gradient contributions
    "overlapping-shards": (
        "repro.runtime.executor", "shard_bounds",
        lambda orig: lambda batch, n: [(0, hi) for _lo, hi in orig(batch, n)]),
    # the memory planner takes any two buffers contracted to one
    # batch-tiled group for disjoint, whatever units touch them, so a
    # group's tiles may share bytes and overwrite one another
    "group-slab-overlap": (
        "repro.synthesis.access", "Interval.overlaps",
        lambda orig: lambda a, b: orig(a, b) and not (
            a.units and b.units and a.first == b.first)),
    # the memory planner places the first two pooled buffers that are
    # live together at one offset, in every greedy order it tries, so
    # whichever layout it keeps is wrong; the static ``arena`` check
    # rejects the layout before anything runs
    "arena-overlap": ("repro.synthesis.liveness", "place_offsets",
                      _overlapping),
    # the memory planner ends a pooled inspected buffer's interval at its
    # last access, so a later step may reuse its bytes before the caller
    # reads them; the static ``arena`` check rejects the plan
    "inspected-early-end": ("repro.synthesis.liveness", "live_to_end",
                            lambda orig: lambda iv, view: None),
    # a value recomputed in backward has its backward readers respelled
    # to the recomputed buffer, but the clones that would define it are
    # dropped, so they read a buffer nothing writes
    "recompute-skipped": ("repro.synthesis.liveness", "_clone_backward",
                          _skipping),
    # a checkpoint saves the parameters but not the running statistics,
    # so the net rebuilt from it cannot start where the trained one stands
    "stats-dropped": (
        "repro.runtime.executor", "CompiledNet.model_arrays",
        lambda orig: lambda net: {p.key: p.value for p in net.parameters()}),
}

#: names accepted by :func:`inject_bug` (for the CLI's --inject-bug)
INJECTABLE_BUGS = tuple(_BUGS)


@contextlib.contextmanager
def inject_bug(name: str):
    """Deliberately break an optimizer/runtime invariant (self-test of
    the oracle: a fuzz run under an injected bug must fail). ``name`` is
    one of :data:`INJECTABLE_BUGS`; :data:`_BUGS` says what each breaks.
    """
    import importlib

    if name not in _BUGS:
        raise KeyError(
            f"unknown bug {name!r}; have: {', '.join(INJECTABLE_BUGS)}")
    module, path, broken = _BUGS[name]
    *owners, attr = path.split(".")
    owner = importlib.import_module(module)
    for part in owners:
        owner = getattr(owner, part)
    orig = getattr(owner, attr)
    setattr(owner, attr, broken(orig))
    try:
        yield
    finally:
        setattr(owner, attr, orig)
