"""Reference-and-failure accounting.

Every operation the ledger performs is counted as attempted, and as
failed when it errors, is refused, produces a non-finite loss, or its
output disagrees with a reference that does not come from the compiler
configuration under test:

* ``ModelConfig`` programs (Fig 14 trio, LeNet, the MLP) — forward loss
  and scores against the independent ``repro.baselines.CaffeNet`` loaded
  with the same parameters (oracle ``baseline_*`` tier);
* ``NetSpec`` programs — against the O0 scalar interpreter (oracle
  ``level_*`` tier);
* the C backend — one training step against the NumPy backend of the
  same program (oracle ``level_*`` tiers, as ``cbackend-vs-numpy``);
* warm cache thaws and served rows — bitwise against the cold compile /
  a direct eval forward of the checkpoint.

A mismatch is a failed operation and makes the run incorrect; it is
never a warning.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.baselines import CaffeNet
from repro.optim import CompilerOptions, compile_net
from repro.testing.oracle import TOLERANCES
from repro.utils.rng import seed_all

TOL = TOLERANCES["float32"]


class Tally:
    """Operations attempted / failed, by kind, with failure details."""

    def __init__(self):
        self.attempted: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}
        self.details: List[str] = []

    def count(self, kind: str, n: int = 1, failed: int = 0,
              detail: str = "") -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + n
        if failed:
            self.failed[kind] = self.failed.get(kind, 0) + failed
            if len(self.details) < 20:
                self.details.append(f"{kind}: {detail}")

    def check(self, kind: str, ok: bool, detail: str = "") -> bool:
        self.count(kind, 1, 0 if ok else 1, detail)
        return ok

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def as_dict(self) -> dict:
        return {
            "attempted": dict(self.attempted),
            "failed": dict(self.failed),
            "succeeded": {k: n - self.failed.get(k, 0)
                          for k, n in self.attempted.items()},
            "details": list(self.details),
        }


def _close(got, want, rtol: float, atol: float) -> str:
    """'' when ``got`` matches ``want`` within tolerance, else why not."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return f"shape {got.shape} vs {want.shape}"
    if not np.all(np.isfinite(got)):
        return "non-finite values"
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        return f"max abs diff {float(np.abs(got - want).max()):.3g}"
    return ""


def _loss_close(got: float, want: float) -> str:
    if not np.isfinite(got):
        return f"loss is {got}"
    if abs(got - want) > TOL["loss_rtol"] * max(1e-12, abs(want)):
        return f"loss {got!r} vs reference {want!r}"
    return ""


def _eval_forward(cnet, inputs) -> float:
    """Forward in eval semantics (dropout off), restoring the mode."""
    was = cnet.training
    cnet.training = False
    try:
        return float(cnet.forward(**inputs))
    finally:
        cnet.training = was


def reference_forward(program, cnet, output: str, inputs,
                      tally: Tally) -> None:
    """Check ``cnet``'s forward against the program's independent
    reference implementation."""
    loss = _eval_forward(cnet, inputs)
    scores = cnet.value(output).copy()
    if program.is_spec:
        net, _ = program.build()
        ref = compile_net(net, CompilerOptions.level(0))
        ref_loss = _eval_forward(ref, inputs)
        ref_scores = ref.value(output).copy()
        ref.close()
        rtol, atol = TOL["level_rtol"], TOL["level_atol"]
    else:
        seed_all(1)
        base = CaffeNet(program.model, program.batch)
        base.load_params_from(cnet)
        base.training = False
        base.forward(inputs["data"], inputs["label"])
        ref_loss, ref_scores = float(base.loss), base.scores
        rtol, atol = TOL["baseline_rtol"], TOL["baseline_atol"]
    why = (_loss_close(loss, ref_loss)
           or _close(scores.reshape(ref_scores.shape), ref_scores,
                     rtol, atol))
    tally.check("reference", not why, f"{program.name}: {why}")


def _train_state(cnet, inputs):
    loss = _eval_forward(cnet, inputs)
    was = cnet.training
    cnet.training = False
    try:
        cnet.clear_param_grads()
        cnet.backward()
    finally:
        cnet.training = was
    return (loss, cnet.grad("data").copy(),
            {p.key: p.grad.copy() for p in cnet.parameters()})


def native_vs_numpy(program, numpy_net, c_net, inputs, tally: Tally) -> None:
    """One training step on each backend from identical parameters must
    agree on loss, data gradient and every parameter gradient."""
    n_loss, n_dx, n_grads = _train_state(numpy_net, inputs)
    c_loss, c_dx, c_grads = _train_state(c_net, inputs)
    why = (_loss_close(c_loss, n_loss)
           or _close(c_dx, n_dx, TOL["level_rtol"], TOL["level_atol"]))
    for key in sorted(n_grads):
        why = why or _close(c_grads[key], n_grads[key],
                            TOL["level_param_rtol"],
                            TOL["level_param_atol"])
    tally.check("reference", not why, f"{program.name} c-vs-numpy: {why}")


def bitwise(kind: str, what: str, got, want, tally: Tally) -> bool:
    return tally.check(kind, bool(np.array_equal(got, want)),
                       f"{what}: not bitwise equal to its reference")
