"""Parameter initialization schemes.

``xavier_init`` follows Glorot & Bengio (2010), the scheme the paper's
standard library uses for ``FullyConnectedLayer`` (Fig. 4).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import get_rng

DTYPE = np.float32


def xavier_init(n_inputs: int, n_outputs: int, rng=None) -> np.ndarray:
    """Xavier-initialized weights of shape ``(n_inputs, n_outputs)``.

    The paper's ``weights, ∇weights = xavier_init(n_inputs, n_outputs)``
    also returns the gradient; here a training compile allocates it.
    """
    rng = rng or get_rng()
    scale = np.sqrt(3.0 / n_inputs)
    return rng.uniform(-scale, scale, size=(n_inputs, n_outputs)).astype(DTYPE)


def gaussian_init(shape, std: float = 0.01, rng=None) -> np.ndarray:
    """Gaussian-initialized array (Caffe's default for conv filters)."""
    rng = rng or get_rng()
    return (rng.standard_normal(shape) * std).astype(DTYPE)


def zeros_init(shape) -> np.ndarray:
    """Zero-initialized float32 array."""
    return np.zeros(shape, dtype=DTYPE)


def constant_init(shape, value: float) -> np.ndarray:
    """Constant-filled float32 array."""
    return np.full(shape, value, dtype=DTYPE)
