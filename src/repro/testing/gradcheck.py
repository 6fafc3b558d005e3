"""Finite-difference gradient checking.

Central differences against the analytic gradient of the compiled net's
scalar loss. Because a forward pass can mutate state (batch-norm running
statistics consume their inputs, dropout draws a new key), every loss
evaluation rebuilds the network through a caller-supplied ``build_fn``
that must be deterministic (e.g. it calls ``seed_all`` first) — both
perturbed evaluations then see identical parameters and masks.

Kinked operators (ReLU, max-pooling) are piecewise linear: central
differences are exact away from kinks but slow-converging or
meaningless when the ``[x - eps, x + eps]`` interval straddles one.
Rather than loosening tolerances for everything, a suspect index is
re-estimated at successively halved steps: if the estimate converges
onto the analytic value it was discretization error; if it never
stabilizes the loss is locally non-smooth there and the index is
skipped; only an estimate that *stabilizes* away from the analytic
value is reported. Failures from these checkers are therefore genuine
analytic/numeric disagreements on smooth points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class GradFailure:
    """One index where analytic and numeric gradients disagree."""

    target: str
    index: tuple
    analytic: float
    numeric: float

    def __str__(self) -> str:
        return (f"{self.target}{list(self.index)}: analytic "
                f"{self.analytic:.6g} vs numeric {self.numeric:.6g}")


def _agrees(a: float, b: float, atol: float, rtol: float) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _central(loss_at: Callable[[float], float], eps: float) -> float:
    return (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)


def _check_indices(loss_at_index, grad: np.ndarray, indices, target: str,
                   eps: float, atol: float, rtol: float) -> List[GradFailure]:
    failures = []
    for idx in indices:
        loss_at = loss_at_index(idx)
        analytic = float(grad[idx])
        num = _central(loss_at, eps)
        if _agrees(num, analytic, atol, rtol):
            continue
        # Suspect: refine the step. On smooth points the central
        # difference converges O(eps^2), and kink contamination decays
        # once the window clears the kink — so follow the estimate down
        # and report a failure only if it *stabilizes* (two successive
        # step sizes agree tightly) away from the analytic value.
        # Converging onto the analytic value or never stabilizing means
        # discretization error / local non-smoothness, not a wrong
        # gradient.
        step, prev, verdict = eps, num, None
        for _ in range(4):
            step /= 2.0
            cur = _central(loss_at, step)
            if _agrees(cur, analytic, atol, rtol):
                break
            if _agrees(cur, prev, atol / 4.0, rtol / 4.0):
                verdict = cur
                break
            prev = cur
        if verdict is not None:
            failures.append(GradFailure(target, tuple(int(i) for i in idx),
                                        analytic, float(verdict)))
    return failures


def _pick_indices(shape: Tuple[int, ...], n: int, seed: int):
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    flat = rng.choice(total, size=min(n, total), replace=False)
    return [np.unravel_index(int(f), shape) for f in flat]


def check_input_gradient(
    build_fn: Callable,
    x: np.ndarray,
    y: Optional[np.ndarray] = None,
    indices: Optional[Sequence[tuple]] = None,
    n_indices: int = 3,
    eps: float = 1e-2,
    atol: float = 5e-3,
    rtol: float = 1e-2,
    data_name: str = "data",
    label_name: str = "label",
    index_seed: int = 0,
) -> List[GradFailure]:
    """Finite-difference check of ``d loss / d input``.

    ``build_fn`` returns a freshly compiled net; ``x``/``y`` feed its
    ``data_name``/``label_name`` ensembles. Checks ``indices`` (or
    ``n_indices`` deterministically sampled ones) and returns the list
    of genuine disagreements (empty == pass).
    """
    feed = {data_name: x}
    if y is not None:
        feed[label_name] = y
    cnet = build_fn()
    cnet.forward(**feed)
    cnet.clear_param_grads()
    cnet.backward()
    dx = cnet.grad(data_name).copy()
    if indices is None:
        indices = _pick_indices(x.shape, n_indices, index_seed)

    def loss_at_index(idx):
        def loss_at(delta: float) -> float:
            xp = x.copy()
            xp[idx] += delta
            f = dict(feed)
            f[data_name] = xp
            return float(build_fn().forward(**f))
        return loss_at

    return _check_indices(loss_at_index, dx, indices, data_name, eps, atol,
                          rtol)


def check_param_gradient(
    build_fn: Callable,
    feed: dict,
    param_key: str,
    indices: Optional[Sequence[tuple]] = None,
    n_indices: int = 3,
    eps: float = 1e-2,
    atol: float = 5e-3,
    rtol: float = 1e-2,
    index_seed: int = 0,
) -> List[GradFailure]:
    """Finite-difference check of ``d loss / d parameter``.

    ``param_key`` is a :class:`~repro.runtime.executor.ParamView` key
    (``"ensemble.name"``). The parameter is perturbed *after* the
    deterministic rebuild, so both evaluations share every other value.
    """

    def find_param(cnet):
        for p in cnet.parameters():
            if p.key == param_key:
                return p
        raise KeyError(f"no parameter {param_key!r}; have "
                       f"{[p.key for p in cnet.parameters()]}")

    cnet = build_fn()
    cnet.forward(**feed)
    cnet.clear_param_grads()
    cnet.backward()
    view = find_param(cnet)
    dw = view.grad.copy()
    if indices is None:
        indices = _pick_indices(view.value.shape, n_indices, index_seed)

    def loss_at_index(idx):
        def loss_at(delta: float) -> float:
            fresh = build_fn()
            find_param(fresh).value[idx] += delta
            return float(fresh.forward(**feed))
        return loss_at

    return _check_indices(loss_at_index, dw, indices, param_key, eps, atol,
                          rtol)
