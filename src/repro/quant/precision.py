"""The ``precision`` compiler pass (``CompilerOptions(precision=...)``).

Runs after schedule construction and buffer pruning but **before** the
memory planner, so the liveness arena is packed with the reduced
element sizes (fp16 halves the planned non-parameter bytes).

Two modes, both inference-only:

* ``fp16`` — retype every non-parameter activation/staging buffer to
  float16. Parameters stay float32 (NumPy promotes mixed-precision
  kernels to float32 and casts back on store, which is exactly the
  usual mixed-precision inference recipe). Buffers touched by extern
  Python closures (softmax loss, normalization statistics, gathers)
  keep float32 — those closures were written against float32 arrays —
  and the fallback is recorded per-buffer with a reason.

* ``int8`` — storage stays float32 (the NumPy kernels keep running
  unmodified) and the forward schedule gains fake-quantization steps
  through a real int8 grid: one for the weights (symmetric per-tensor,
  from their current contents), one per calibrated network input, and
  one after every step that writes a calibrated activation (affine
  per-tensor, scales and zero points chosen here from the calibration
  range profile — :mod:`repro.quant.calibrate`, required; compiling
  int8 without one raises
  :class:`~repro.quant.calibrate.CalibrationError`). Each is an
  ordinary extern step — an :class:`~repro.ir.ExternOp` unit in its own
  group, its closure in ``program.closures`` — so the executor runs,
  traces and re-binds it like a loss or normalization closure. Every
  tensor value a step reads from another step is exactly
  int8-representable while the float execution engine stays as it is
  (inside a fused conv layer the intermediates stay float, as an int8
  kernel's accumulator would).

The resulting :class:`QuantPlan` is attached as ``plan.quant``; its
:meth:`~QuantPlan.stats` feed the ``precision`` row of the compile
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.quant.calibrate import CalibrationError
from repro.quant.qparams import (
    QParams,
    choose_qparams,
    fake_quant,
    weight_qparams,
)
from repro.synthesis.access import ProgramView
from repro.synthesis.lower import ExternFn, extern_unit
from repro.synthesis.units import FusedGroup, UnitTags

#: buffer roles eligible for reduced precision — everything else
#: (parameter fields, gradients kept for solver plumbing) stays fp32
_ELIGIBLE_ROLES = ("value", "input", "padded")


@dataclass
class QuantPlan:
    """What the precision pass decided, attached as ``plan.quant``."""

    precision: str
    #: base buffers retyped away from float32 (fp16 mode)
    dtypes: Dict[str, str] = field(default_factory=dict)
    #: base buffer -> activation quantization params (int8 mode)
    qparams: Dict[str, QParams] = field(default_factory=dict)
    #: parameter value buffers fake-quantized at the head of each forward
    weight_bufs: Tuple[str, ...] = ()
    #: base buffer -> reason it stayed fp32
    fallbacks: Dict[str, str] = field(default_factory=dict)
    #: digest of the calibration profile that produced the scales
    calibration_digest: Optional[str] = None

    def stats(self) -> Dict[str, int]:
        """Rewrite counters for the compile report's ``precision`` row."""
        out: Dict[str, int] = {}
        if self.precision == "fp16":
            out["buffers_fp16"] = len(self.dtypes)
        elif self.precision == "int8":
            out["activations_int8"] = len(self.qparams)
            out["weights_int8"] = len(self.weight_bufs)
        for reason in self.fallbacks.values():
            key = "fallback_" + reason.replace("-", "_")
            out[key] = out.get(key, 0) + 1
        return out


def _candidate_bases(plan):
    for spec in plan.buffers.values():
        if spec.alias_of is None and spec.role in _ELIGIBLE_ROLES:
            yield spec


def _weight_quant(weight_bufs) -> ExternFn:
    """Closure fake-quantizing the parameter arrays in place, symmetric
    per-tensor at ``max|w| / 127`` of their *current* contents — so
    parameters written or rebound after the compile are the ones
    quantized (a ``Checkpoint``-built net's are ``ck.params``). Runs
    once per forward (time step 0 of a recurrent net); idempotent, so
    repeated forwards stay bitwise-stable."""

    def quantize_weights(env, rt):
        if rt.current_t:
            return
        for name in weight_bufs:
            w = env[name]
            w[...] = fake_quant(w, weight_qparams(w))
    return ExternFn(quantize_weights, reads=weight_bufs, writes=weight_bufs)


def _activation_quant(buf: str, qp: QParams) -> ExternFn:
    """Closure overwriting ``buf`` (this time step's view of it) with
    its exact int8 reconstruction under ``qp``."""

    def fake_quantize(env, rt):
        v = env[buf]
        v[...] = fake_quant(v, qp)
    return ExternFn(fake_quantize, reads=(buf,), writes=(buf,))


def _insert_fake_quant(view, fwd_items, closures, qp: QuantPlan) -> None:
    """Splice the int8 plan into the forward schedule as extern steps:
    weights first, then calibrated buffers no step writes (network
    inputs, fed by ``set_input``), then each calibrated activation right
    after every step that writes it."""

    def step(key: str, what: str, ext: ExternFn) -> FusedGroup:
        unit = extern_unit(key, ext, closures, UnitTags(kind="extern"))
        return FusedGroup([unit], None, f"fake_quant({what})")

    def activation(buf: str) -> FusedGroup:
        return step(f"quant.{buf}", buf,
                    _activation_quant(buf, qp.qparams[buf]))

    calibrated = set(qp.qparams)
    written_by = [calibrated & rec.writes for rec in view.records]
    out = []
    if qp.weight_bufs:
        out.append(step("quant.weights", "weights",
                        _weight_quant(qp.weight_bufs)))
    out.extend(activation(b)
               for b in sorted(calibrated.difference(*written_by)))
    for item, written in zip(fwd_items, written_by):
        out.append(item)
        out.extend(activation(b) for b in sorted(written))
    fwd_items[:] = out


def apply_precision(plan, fwd_items, closures, precision: str,
                    calibration=None) -> Dict[str, int]:
    """Rewrite the program for reduced-precision inference (see module
    doc).

    Mutates buffer dtypes in place (fp16), or decides quantization
    parameters and inserts the fake-quant steps into ``fwd_items`` with
    their closures registered in ``closures`` (int8); attaches the
    :class:`QuantPlan` as ``plan.quant`` and returns its
    :meth:`~QuantPlan.stats`.
    """
    # extern closures are compiled against float32 arrays and may read
    # or write their buffers outside the generated-kernel discipline, so
    # nothing they touch is retyped or fake-quantized
    view = ProgramView(plan, fwd_items, ())
    extern = view.opaque_touched

    if precision == "fp16":
        qp = QuantPlan(precision="fp16")
        for spec in _candidate_bases(plan):
            if spec.name in extern:
                qp.fallbacks[spec.name] = "extern-step"
                continue
            spec.dtype = "float16"
            qp.dtypes[spec.name] = "float16"
        # aliases are views of their base — keep the table consistent
        for spec in plan.buffers.values():
            if spec.alias_of is not None:
                spec.dtype = plan.buffers[plan.resolve_alias(spec.name)].dtype
    elif precision == "int8":
        if calibration is None:
            raise CalibrationError(
                "precision='int8' requires a calibration range profile: "
                "run repro.quant.calibrate(net, batches) on representative "
                "inputs and pass the result via compile_net(calibration=...)"
            )
        qp = QuantPlan(precision="int8",
                       calibration_digest=calibration.digest())
        for spec in _candidate_bases(plan):
            if spec.tile:  # never whole, so never observed: no range
                qp.fallbacks[spec.name] = "contracted"
            if spec.role != "value":
                continue
            if spec.name in extern:
                qp.fallbacks[spec.name] = "extern-step"
                continue
            rng = calibration.range(spec.name)
            if rng is None:
                qp.fallbacks[spec.name] = "uncalibrated"
                continue
            qp.qparams[spec.name] = choose_qparams(rng[0], rng[1])
        qp.weight_bufs = tuple(sorted(
            info.value_buf for info in plan.params
            if plan.buffers[info.value_buf].array is not None
            and plan.buffers[info.value_buf].array.ndim >= 2
        ))
        _insert_fake_quant(view, fwd_items, closures, qp)
    else:  # pragma: no cover — pipeline only calls for fp16/int8
        raise ValueError(f"unknown precision {precision!r}")

    plan.quant = qp
    return qp.stats()
