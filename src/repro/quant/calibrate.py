"""Calibration: record activation ranges from representative batches.

int8 quantization needs to know, per buffer, what value range real
activations occupy — that range picks each buffer's affine scale and
zero point. :func:`calibrate` compiles (or takes) a **float32**
inference net, hooks a :class:`RangeObserver` into the executor's
step-observation seam (the same ``after_step`` hook the numerics
watchdog uses), and runs the user's representative batches through it.
Observation happens *per step*, not after the run — the memory
planner's arena reuse overwrites pooled activations as soon as their
consumers finish, so post-hoc inspection would read garbage.

The result is a plain ``buffer name → (lo, hi)`` table that is
JSON-serializable (:meth:`CalibrationResult.save` / ``load``) and
carries a canonical SHA-256 :meth:`~CalibrationResult.digest`, which
the precision pass records on the ``QuantPlan`` so a study can tell
which profile produced a program's scales.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.quant.qparams import range_of


class CalibrationError(ValueError):
    """Raised when int8 compilation lacks usable calibration data."""


@dataclass
class CalibrationResult:
    """Per-buffer observed activation ranges.

    ``ranges`` maps buffer names (as they appear in the compiled
    buffer plan, e.g. ``conv1_value``) to ``(lo, hi)`` floats.
    """

    ranges: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    batches: int = 0
    percentile: Optional[float] = None

    def observe(self, name: str, lo: float, hi: float) -> None:
        prev = self.ranges.get(name)
        if prev is None:
            self.ranges[name] = (lo, hi)
        else:
            self.ranges[name] = (min(prev[0], lo), max(prev[1], hi))

    def range(self, name: str) -> Optional[Tuple[float, float]]:
        return self.ranges.get(name)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "ranges": {k: [self.ranges[k][0], self.ranges[k][1]]
                       for k in sorted(self.ranges)},
            "batches": self.batches,
            "percentile": self.percentile,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationResult":
        ranges = {str(k): (float(v[0]), float(v[1]))
                  for k, v in d.get("ranges", {}).items()}
        pct = d.get("percentile")
        return cls(ranges=ranges, batches=int(d.get("batches", 0)),
                   percentile=float(pct) if pct is not None else None)

    def digest(self) -> str:
        """Canonical content hash (``QuantPlan.calibration_digest``)."""
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path: str) -> "CalibrationResult":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


class RangeObserver:
    """``after_step`` hook recording written-buffer ranges per step.

    Duck-typed like the numerics watchdog: the executor calls
    ``after_step(rt, step, phase, t, env)`` after every task step when
    installed as ``cnet.watchdog``. With ``percentile=p`` (e.g. 0.999)
    each observation clips to the ``[1-p, p]`` quantiles of that step's
    output instead of the raw min/max, shrinking ranges dominated by a
    few outliers.
    """

    def __init__(self, result: Optional[CalibrationResult] = None, *,
                 percentile: Optional[float] = None):
        if percentile is not None and not 0.5 < percentile <= 1.0:
            raise ValueError(
                f"percentile must be in (0.5, 1.0], got {percentile}"
            )
        self.result = result if result is not None else CalibrationResult(
            percentile=percentile
        )
        self.percentile = percentile

    def _observe_array(self, name: str, arr: np.ndarray) -> None:
        if self.percentile is not None and arr.size > 1:
            finite = arr[np.isfinite(arr)]
            if finite.size == 0:
                return
            lo = float(np.quantile(finite, 1.0 - self.percentile))
            hi = float(np.quantile(finite, self.percentile))
        else:
            lo, hi = range_of(arr)
        self.result.observe(name, lo, hi)

    def after_step(self, rt, step, phase, t, env) -> None:
        if phase != "forward":
            return
        for base in step.writes:
            # a contracted buffer holds its step's last tile only
            if not rt.plan.buffers[base].tile:
                self._observe_array(base, np.asarray(env[base]))

    def observe_input(self, buf_name: str, array: np.ndarray) -> None:
        """Record a network-input buffer (fed by ``set_input``, never
        written by a step, so the ``after_step`` hook cannot see it)."""
        self._observe_array(buf_name, np.asarray(array))


def calibrate(net, batches: Iterable[dict], *, options=None,
              num_threads: Optional[int] = None,
              percentile: Optional[float] = None) -> CalibrationResult:
    """Run ``batches`` through a float32 inference compile of ``net``,
    returning observed per-buffer ranges.

    ``batches`` is an iterable of keyword-dicts as you would pass to
    ``cnet.forward`` (e.g. ``[{"data": x0, "label": y0}, ...]``).
    ``options`` defaults to ``CompilerOptions.inference()``; any
    non-fp32 precision on it is overridden back to fp32 — calibration
    by definition observes the float reference network.
    """
    import dataclasses

    from repro.optim.pipeline import CompilerOptions, compile_net

    if options is None:
        options = CompilerOptions.inference()
    if options.precision != "fp32":
        options = dataclasses.replace(options, precision="fp32")
    # every value whole: a contracted one would hold a tile, not a range
    cnet = compile_net(net, options, num_threads=num_threads,
                       keep_alive=list(net.ensembles))
    cnet.training = False
    observer = RangeObserver(percentile=percentile)
    cnet.watchdog = observer
    n = 0
    for batch in batches:
        for ens_name, arr in batch.items():
            observer.observe_input(f"{ens_name}_value", arr)
        cnet.forward(**batch)
        n += 1
    if n == 0:
        raise CalibrationError("calibrate() needs at least one batch")
    observer.result.batches = n
    return observer.result
