"""Reduced-precision inference, as an offline accuracy/footprint study
tool (docs/QUANTIZATION.md) — nothing outside the compiler pass knows
about it: the executor runs what the pass scheduled, and the serving
stack and the compile cache are float32-only.

Post-training quantization in three pieces:

* :mod:`repro.quant.calibrate` — run representative batches through a
  compiled float net recording per-buffer activation ranges
  (:func:`calibrate` → :class:`CalibrationResult`);
* :mod:`repro.quant.qparams` — the scale/zero-point arithmetic
  (:class:`QParams`, :func:`choose_qparams`, :func:`fake_quant`);
* :mod:`repro.quant.precision` — the compiler pass behind
  ``CompilerOptions(precision='fp16'|'int8')``: retypes inference
  buffer dtypes (fp16) or schedules per-tensor affine activation /
  symmetric weight fake-quantization steps (int8), falling back
  per-buffer to fp32 for unsupported (extern-closure) steps with
  reasons recorded in ``compile_report``.
"""

from repro.quant.calibrate import (
    CalibrationError,
    CalibrationResult,
    RangeObserver,
    calibrate,
)
from repro.quant.precision import QuantPlan, apply_precision
from repro.quant.qparams import (
    QParams,
    choose_qparams,
    dequantize,
    fake_quant,
    quantize,
)

__all__ = [
    "CalibrationError",
    "CalibrationResult",
    "QParams",
    "QuantPlan",
    "RangeObserver",
    "apply_precision",
    "calibrate",
    "choose_qparams",
    "dequantize",
    "fake_quant",
    "quantize",
]
