"""Scale/zero-point arithmetic for int8 quantization.

Two schemes, matching standard post-training-quantization practice:

* **symmetric** (weights): ``q = clip(round(x / scale), -127, 127)``,
  zero-point pinned to 0 so matmul kernels need no cross terms;
* **affine** (activations): ``q = clip(round(x / scale) + zp, -128,
  127)`` with the zero point chosen so the calibrated ``[lo, hi]``
  range maps exactly onto the int8 grid (and 0.0 is representable).

Everything here is pure NumPy with ``np.rint`` (round-half-to-even) —
deterministic bit-for-bit across runs, which the oracle's quantized
determinism check relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: int8 grid bounds for the affine (activation) scheme
QMIN, QMAX = -128, 127
#: symmetric (weight) scheme clips to ±127 so the grid is sign-balanced
SYM_QMAX = 127


@dataclass(frozen=True)
class QParams:
    """Per-tensor quantization parameters."""

    scale: float
    zero_point: int = 0
    symmetric: bool = False


def choose_qparams(lo: float, hi: float, *,
                   symmetric: bool = False) -> QParams:
    """Pick int8 parameters covering the observed range ``[lo, hi]``.

    The range is widened to include 0.0 (so zero pads/ReLU zeros are
    exactly representable) and degenerate ranges fall back to
    ``scale=1.0`` rather than dividing by zero.
    """
    lo = min(float(lo), 0.0)
    hi = max(float(hi), 0.0)
    if symmetric:
        bound = max(abs(lo), abs(hi))
        scale = bound / SYM_QMAX if bound > 0.0 else 1.0
        return QParams(scale=scale, zero_point=0, symmetric=True)
    span = hi - lo
    if span <= 0.0:
        return QParams(scale=1.0, zero_point=0, symmetric=False)
    scale = span / (QMAX - QMIN)
    zero_point = int(np.clip(np.rint(QMIN - lo / scale), QMIN, QMAX))
    return QParams(scale=scale, zero_point=zero_point, symmetric=False)


def quantize(x: np.ndarray, qp: QParams) -> np.ndarray:
    """float → int8 under ``qp`` (the real stored representation)."""
    if qp.symmetric:
        q = np.clip(np.rint(x / qp.scale), -SYM_QMAX, SYM_QMAX)
    else:
        q = np.clip(np.rint(x / qp.scale) + qp.zero_point, QMIN, QMAX)
    return q.astype(np.int8)


def dequantize(q: np.ndarray, qp: QParams) -> np.ndarray:
    """int8 → float32 under ``qp``."""
    return ((q.astype(np.float32) - np.float32(qp.zero_point))
            * np.float32(qp.scale))


def fake_quant(x: np.ndarray, qp: QParams) -> np.ndarray:
    """Round-trip ``x`` through the int8 grid, staying in float32.

    This is the simulation form the int8 fake-quant steps apply in
    place: the tensor's *values* are exactly what real
    int8 storage would reconstruct, while the surrounding float
    kernels keep running unmodified. Idempotent — a tensor already on
    the grid maps to itself — which makes per-forward weight
    quantization safe to re-run.
    """
    return dequantize(quantize(x, qp), qp)


def weight_qparams(w: np.ndarray) -> QParams:
    """Symmetric per-tensor parameters for a weight array."""
    bound = float(np.max(np.abs(w))) if w.size else 0.0
    return QParams(scale=bound / SYM_QMAX if bound > 0.0 else 1.0,
                   zero_point=0, symmetric=True)


def range_of(x: np.ndarray) -> Tuple[float, float]:
    """Finite (min, max) of an array, ignoring non-finite entries."""
    finite = x[np.isfinite(x)] if not np.all(np.isfinite(x)) else x
    if finite.size == 0:
        return (0.0, 0.0)
    return (float(finite.min()), float(finite.max()))
