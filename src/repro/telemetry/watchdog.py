"""Runtime health watchdogs: numerics checking and training monitoring.

Two silent failure modes the paper's workflow makes likely are caught
here at runtime instead of N epochs later:

* **non-finite activations/gradients** — §7's lossy asynchronous
  reduction and aggressive learning rates can push buffers to NaN/Inf
  with no visible symptom until accuracy collapses.
  :class:`NumericsWatchdog` hooks the executor (``watchdog=`` on
  ``Net.init`` / ``compile_net`` / ``compile_cached``, or assigned to
  ``cnet.watchdog``) and samples each
  step's *written* buffers after execution, raising (or recording) a
  structured :class:`NumericsError` that names the offending step and
  buffer — the first poisoned write, not the downstream wreckage.
* **training divergence** — :class:`TrainingMonitor` plugs into
  :func:`repro.solvers.solve` (``monitor=``), records loss / gradient
  norm / throughput series into a metrics registry, and trips a
  :class:`DivergenceError` when the loss goes non-finite or rises
  monotonically across a window of epochs.

Both are strictly opt-in: without a watchdog the executor runs the
exact pre-existing code paths (bitwise-identical outputs, no spans, no
overhead — pinned in tests/test_watchdog.py).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

__all__ = [
    "DivergenceError",
    "NumericsError",
    "NumericsWatchdog",
    "TrainingMonitor",
]


class NumericsError(FloatingPointError):
    """A non-finite value appeared in a buffer a step just wrote.

    Structured fields (also in the message): ``step`` (the compiled
    step's label), ``buffer``, ``phase`` (``'forward'``/``'backward'``),
    ``t`` (recurrent time step), ``kind`` (``'nan'``/``'inf'``), and
    ``count`` (non-finite elements found).
    """

    def __init__(self, step: str, buffer: str, phase: str, t: int,
                 kind: str, count: int):
        self.step = step
        self.buffer = buffer
        self.phase = phase
        self.t = t
        self.kind = kind
        self.count = count
        super().__init__(
            f"{kind} detected: {count} non-finite element(s) in buffer "
            f"{buffer!r} written by step {step!r} (phase={phase}, t={t})"
        )

    def to_dict(self) -> dict:
        return {
            "step": self.step, "buffer": self.buffer, "phase": self.phase,
            "t": self.t, "kind": self.kind, "count": self.count,
        }


class NumericsWatchdog:
    """Executor hook that checks step outputs for NaN/Inf.

    Parameters
    ----------
    every:
        Check every ``every``-th executed task step (1 = every step).
        Sampling bounds the overhead: ``np.isfinite().all()`` over a
        buffer is one pass, so ``every=100`` costs ~1% of an
        every-step sweep.
    raise_on_error:
        ``True`` (default) raises :class:`NumericsError` at the first
        detection; ``False`` records it in :attr:`events` (and the
        registry counter) and keeps running — the serving-fleet mode,
        where one poisoned request must not kill the replica.
    registry:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry`;
        detections increment ``numerics_nonfinite_total{step,buffer}``.
    buffers:
        Optional collection restricting which buffers are checked, by
        the name of their storage (an in-place ensemble's output is its
        source's buffer). Default: every float buffer each step writes.
    """

    def __init__(self, every: int = 1, raise_on_error: bool = True,
                 registry=None, buffers=None):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = int(every)
        self.raise_on_error = raise_on_error
        self.buffers = frozenset(buffers) if buffers is not None else None
        self.events: List[NumericsError] = []
        self._steps_seen = 0
        self._counter = None
        if registry is not None:
            self._counter = registry.counter(
                "numerics_nonfinite_total",
                "Non-finite buffer values detected by the watchdog",
                labels=("step", "buffer"),
            )

    def after_step(self, cnet, step, phase: str, t: int, env) -> None:
        """Called by the executor after each task step; ``env`` is the
        step's bound name → array table (time-sliced for recurrent
        nets), so checks see exactly what the step wrote."""
        self._steps_seen += 1
        if self._steps_seen % self.every:
            return
        for name in sorted(step.writes):
            if self.buffers is not None and name not in self.buffers:
                continue
            arr = env[name]
            if arr.dtype.kind != "f" or np.isfinite(arr).all():
                continue
            n_nan = int(np.isnan(arr).sum())
            n_inf = int(np.isinf(arr).sum())
            kind = "nan" if n_nan >= n_inf else "inf"
            err = NumericsError(step.label, name, phase, t, kind,
                                n_nan + n_inf)
            self.events.append(err)
            if self._counter is not None:
                self._counter.inc(step=step.label, buffer=name)
            if self.raise_on_error:
                raise err


class DivergenceError(RuntimeError):
    """Training health tripwire: loss went non-finite or rose
    monotonically over the monitor's window."""

    def __init__(self, epoch: int, reason: str, losses: List[float]):
        self.epoch = epoch
        self.reason = reason
        self.losses = list(losses)
        tail = ", ".join(f"{v:.4g}" for v in losses[-6:])
        super().__init__(
            f"training diverged at epoch {epoch}: {reason} "
            f"(recent losses: [{tail}])"
        )


class TrainingMonitor:
    """Record loss / grad-norm / throughput series and detect divergence.

    Pass one to :func:`repro.solvers.solve` via ``monitor=``; after
    each epoch the solver calls :meth:`on_epoch`, which

    * appends to :attr:`losses` / :attr:`grad_norms` /
      :attr:`throughput` (rows/second),
    * mirrors the latest values into registry gauges (``train_loss``,
      ``train_grad_norm``, ``train_throughput_rows_per_second``) plus a
      ``train_epochs_total`` counter, and
    * raises :class:`DivergenceError` (or records it, with
      ``raise_on_divergence=False``) when the loss is non-finite or has
      risen at every step across the last ``window`` epochs.
    """

    def __init__(self, registry=None, window: int = 5,
                 raise_on_divergence: bool = True, logger=None):
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = int(window)
        self.raise_on_divergence = raise_on_divergence
        self.logger = logger
        self.losses: List[float] = []
        self.grad_norms: List[float] = []
        self.throughput: List[float] = []
        self.diverged: Optional[DivergenceError] = None
        self._g_loss = self._g_gnorm = self._g_tput = self._c_epochs = None
        if registry is not None:
            self._g_loss = registry.gauge(
                "train_loss", "Mean training loss of the last epoch")
            self._g_gnorm = registry.gauge(
                "train_grad_norm",
                "Global parameter-gradient L2 norm at epoch end")
            self._g_tput = registry.gauge(
                "train_throughput_rows_per_second",
                "Training rows processed per second, last epoch")
            self._c_epochs = registry.counter(
                "train_epochs_total", "Completed training epochs")

    @staticmethod
    def grad_norm(cnet) -> float:
        """Global L2 norm over every parameter gradient."""
        total = 0.0
        for p in cnet.parameters():
            g = p.grad
            total += float(np.dot(g.ravel(), g.ravel()))
        return math.sqrt(total)

    def on_epoch(self, epoch: int, loss: float, rows: int = 0,
                 seconds: float = 0.0, cnet=None) -> None:
        loss = float(loss)
        self.losses.append(loss)
        gnorm = self.grad_norm(cnet) if cnet is not None else 0.0
        self.grad_norms.append(gnorm)
        tput = rows / seconds if seconds > 0 else 0.0
        self.throughput.append(tput)
        if self._g_loss is not None:
            self._g_loss.set(loss)
            self._g_gnorm.set(gnorm)
            self._g_tput.set(tput)
            self._c_epochs.inc()
        if self.logger is not None:
            from repro.telemetry.logging import log_event

            log_event(self.logger, "epoch", epoch=epoch,
                      loss=round(loss, 6), grad_norm=round(gnorm, 6),
                      rows_per_second=round(tput, 1))
        reason = None
        if not math.isfinite(loss):
            reason = f"loss is non-finite ({loss})"
        elif len(self.losses) > self.window:
            tail = self.losses[-(self.window + 1):]
            if all(b > a for a, b in zip(tail, tail[1:])):
                reason = (
                    f"loss rose for {self.window} consecutive epochs "
                    f"({tail[0]:.4g} -> {tail[-1]:.4g})"
                )
        if reason is not None:
            err = DivergenceError(epoch, reason, self.losses)
            self.diverged = err
            if self.raise_on_divergence:
                raise err

    def as_dict(self) -> dict:
        """The recorded series (benchmark/BENCH_*.json shape)."""
        return {
            "losses": list(self.losses),
            "grad_norms": list(self.grad_norms),
            "throughput_rows_per_second": list(self.throughput),
            "diverged": (None if self.diverged is None
                         else str(self.diverged)),
        }
