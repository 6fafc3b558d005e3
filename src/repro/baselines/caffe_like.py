"""Caffe-style baseline: a layer-specific kernel library.

This reproduces the *structure* that makes Caffe fast but fusion-blind
(§1, §8): each layer is a statically-implemented kernel with its own
materialized output blob; convolutions run per-image im2col + GEMM
(Chetlur et al.'s formulation, exactly what Caffe's C++/MKL path does);
activations are out of place; pooling gathers its windows into a
materialized buffer before reducing. No cross-layer optimization is
possible because each kernel's interface is a full blob.

The implementation is NumPy throughout — it is a *strong* baseline (the
paper's Caffe+MKL), distinct from the deliberately interpreter-flavored
:mod:`repro.baselines.mocha_like`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.models.configs import (
    ConvSpec,
    DropoutSpec,
    FCSpec,
    LRNSpec,
    ModelConfig,
    PoolSpec,
    ReLUSpec,
    SoftmaxLossSpec,
)
from repro.utils import conv_output_dim, gaussian_init, pool_output_dim
from repro.utils.initializers import xavier_init, zeros_init
from repro.utils.rng import get_rng

DTYPE = np.float32


def im2col(img: np.ndarray, kernel: int, stride: int, pad: int,
           out_h: int, out_w: int) -> np.ndarray:
    """Per-image im2col: (C, H, W) → (C*k*k, out_h*out_w)."""
    c, h, w = img.shape
    if pad:
        padded = np.zeros((c, h + 2 * pad, w + 2 * pad), DTYPE)
        padded[:, pad : pad + h, pad : pad + w] = img
    else:
        padded = img
    col = np.empty((c * kernel * kernel, out_h, out_w), DTYPE)
    i = 0
    for ch in range(c):
        for ky in range(kernel):
            for kx in range(kernel):
                col[i] = padded[
                    ch,
                    ky : ky + out_h * stride : stride,
                    kx : kx + out_w * stride : stride,
                ]
                i += 1
    return col.reshape(c * kernel * kernel, out_h * out_w)


def col2im(col: np.ndarray, shape: Tuple[int, int, int], kernel: int,
           stride: int, pad: int, out_h: int, out_w: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to an image."""
    c, h, w = shape
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), DTYPE)
    col = col.reshape(c * kernel * kernel, out_h, out_w)
    i = 0
    for ch in range(c):
        for ky in range(kernel):
            for kx in range(kernel):
                padded[
                    ch,
                    ky : ky + out_h * stride : stride,
                    kx : kx + out_w * stride : stride,
                ] += col[i]
                i += 1
    if pad:
        return padded[:, pad : pad + h, pad : pad + w]
    return padded


class Layer:
    """Static layer kernel interface."""

    name = "layer"

    def setup(self, bottom_shape: tuple) -> tuple:
        raise NotImplementedError

    def forward(self, bottom: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, top_grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """(value, grad) pairs."""
        return []

    def set_mode(self, training: bool) -> None:
        self.training = training


class ConvLayer(Layer):
    """Per-image im2col + GEMM convolution (Caffe's CPU path)."""

    def __init__(self, spec: ConvSpec, rng=None):
        self.spec = spec
        self.name = spec.name
        self.rng = rng or get_rng()

    def setup(self, bottom_shape):
        c, h, w = bottom_shape
        s = self.spec
        self.bottom_shape = bottom_shape
        self.out_h = conv_output_dim(h, s.kernel, s.stride, s.pad)
        self.out_w = conv_output_dim(w, s.kernel, s.stride, s.pad)
        k = c * s.kernel * s.kernel
        std = float(np.sqrt(2.0 / k))
        self.weights = gaussian_init((k, s.filters), std=std, rng=self.rng)
        self.bias = zeros_init((1, s.filters))
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        return (s.filters, self.out_h, self.out_w)

    def forward(self, bottom):
        s = self.spec
        b = bottom.shape[0]
        self._cols = []
        top = np.empty((b, s.filters, self.out_h, self.out_w), DTYPE)
        for n in range(b):  # per-image, as Caffe does
            col = im2col(bottom[n], s.kernel, s.stride, s.pad,
                         self.out_h, self.out_w)
            self._cols.append(col)
            out = self.weights.T @ col  # (F, out_h*out_w)
            out += self.bias.T
            top[n] = out.reshape(s.filters, self.out_h, self.out_w)
        return top

    def backward(self, top_grad):
        s = self.spec
        b = top_grad.shape[0]
        bottom_grad = np.empty((b,) + self.bottom_shape, DTYPE)
        for n in range(b):
            g = top_grad[n].reshape(s.filters, -1)
            self.grad_weights += self._cols[n] @ g.T
            self.grad_bias += g.sum(axis=1)
            dcol = self.weights @ g
            bottom_grad[n] = col2im(dcol, self.bottom_shape, s.kernel,
                                    s.stride, s.pad, self.out_h, self.out_w)
        return bottom_grad

    def params(self):
        return [(self.weights, self.grad_weights),
                (self.bias, self.grad_bias)]


class ReLULayer(Layer):
    """Out-of-place rectifier (a fresh top blob, like an unfused static
    kernel)."""

    def __init__(self, spec: ReLUSpec):
        self.name = spec.name

    def setup(self, bottom_shape):
        return bottom_shape

    def forward(self, bottom):
        self._mask = bottom > 0
        return np.maximum(bottom, 0)

    def backward(self, top_grad):
        return np.where(self._mask, top_grad, 0).astype(DTYPE)


class PoolLayer(Layer):
    """Window-materializing pooling (the unfused ``poolinput`` gather of
    the paper's Fig. 9)."""

    def __init__(self, spec: PoolSpec):
        self.spec = spec
        self.name = spec.name

    def setup(self, bottom_shape):
        c, h, w = bottom_shape
        s = self.spec
        self.bottom_shape = bottom_shape
        self.out_h = pool_output_dim(h, s.kernel, s.stride, s.pad)
        self.out_w = pool_output_dim(w, s.kernel, s.stride, s.pad)
        return (c, self.out_h, self.out_w)

    def _pad(self, bottom):
        """``bottom`` inside a zero border of ``pad`` — Latte's padded
        buffer, which a max window reads like any other."""
        s = self.spec
        if not s.pad:
            return bottom
        b, c, h, w = bottom.shape
        padded = np.zeros((b, c, h + 2 * s.pad, w + 2 * s.pad), DTYPE)
        padded[:, :, s.pad : s.pad + h, s.pad : s.pad + w] = bottom
        return padded

    def _crop(self, padded):
        """The interior of a padded-layout array (inverse of ``_pad``)."""
        s = self.spec
        _, h, w = self.bottom_shape
        return padded[:, :, s.pad : s.pad + h, s.pad : s.pad + w]

    def _windows(self, padded):
        """One strided view of ``padded`` per window offset: element
        ``[n, c, y, x]`` is that offset's input to output ``(y, x)``."""
        s = self.spec
        for ky in range(s.kernel):
            for kx in range(s.kernel):
                yield padded[
                    :, :,
                    ky : ky + self.out_h * s.stride : s.stride,
                    kx : kx + self.out_w * s.stride : s.stride,
                ]

    def forward(self, bottom):
        padded = self._pad(bottom)
        # materialized pool input buffer
        windows = np.stack(list(self._windows(padded)))
        if self.spec.mode == "max":
            self._padded = padded
            top = windows.max(axis=0)
            self._top = top
        else:
            top = windows.mean(axis=0)
        return top

    def backward(self, top_grad):
        s = self.spec
        # accumulate in the padded layout forward gathered from, then
        # drop the border
        c, h, w = self.bottom_shape
        grad = np.zeros((top_grad.shape[0], c, h + 2 * s.pad, w + 2 * s.pad),
                        DTYPE)
        if s.mode == "max":
            for view, gview in zip(self._windows(self._padded),
                                   self._windows(grad)):
                gview += np.where(view == self._top, top_grad, 0)
        else:
            share = top_grad / (s.kernel * s.kernel)
            for gview in self._windows(grad):
                gview += share
        return self._crop(grad)


class FCLayer(Layer):
    """Batched GEMM inner product — both Latte and Caffe call the same
    BLAS here, which is why the paper sees no FC speedup (§7.1.2)."""

    def __init__(self, spec: FCSpec, rng=None):
        self.spec = spec
        self.name = spec.name
        self.rng = rng or get_rng()

    def setup(self, bottom_shape):
        n_in = int(np.prod(bottom_shape))
        self.bottom_shape = bottom_shape
        self.weights, self.grad_weights = xavier_init(
            n_in, self.spec.outputs, rng=self.rng
        )
        self.bias = zeros_init((1, self.spec.outputs))
        self.grad_bias = np.zeros_like(self.bias)
        return (self.spec.outputs,)

    def forward(self, bottom):
        self._flat = bottom.reshape(bottom.shape[0], -1)
        return self._flat @ self.weights + self.bias

    def backward(self, top_grad):
        self.grad_weights += self._flat.T @ top_grad
        self.grad_bias += top_grad.sum(axis=0, keepdims=True)
        return (top_grad @ self.weights.T).reshape(
            (top_grad.shape[0],) + self.bottom_shape
        )

    def params(self):
        return [(self.weights, self.grad_weights),
                (self.bias, self.grad_bias)]


class DropoutLayer(Layer):
    def __init__(self, spec: DropoutSpec, rng=None):
        self.spec = spec
        self.name = spec.name
        self.rng = rng or get_rng()
        self.training = True

    def setup(self, bottom_shape):
        return bottom_shape

    def forward(self, bottom):
        if self.training:
            keep = 1.0 - self.spec.ratio
            self._mask = (
                self.rng.random(bottom.shape) < keep
            ).astype(DTYPE) / keep
        else:
            self._mask = 1.0
        return bottom * self._mask

    def backward(self, top_grad):
        return top_grad * self._mask


class LRNLayer(Layer):
    def __init__(self, spec: LRNSpec):
        self.spec = spec
        self.name = spec.name

    def setup(self, bottom_shape):
        return bottom_shape

    def _window_sum(self, sq):
        half = self.spec.local_size // 2
        c = sq.shape[1]
        pad = np.zeros_like(sq[:, :1])
        cs = np.concatenate([pad, np.cumsum(sq, axis=1)], axis=1)
        lo = np.maximum(np.arange(c) - half, 0)
        hi = np.minimum(np.arange(c) + half + 1, c)
        return cs[:, hi] - cs[:, lo]

    def forward(self, bottom):
        s = self.spec
        x = bottom.astype(np.float64)
        self._x = x
        self._scale = 1.0 + (s.alpha / s.local_size) * self._window_sum(x * x)
        return (x * self._scale ** (-s.beta)).astype(DTYPE)

    def backward(self, top_grad):
        s = self.spec
        g = top_grad.astype(np.float64)
        y = self._x * self._scale ** (-s.beta)
        ratio = g * y / self._scale
        dx = g * self._scale ** (-s.beta) - (
            2.0 * s.alpha * s.beta / s.local_size
        ) * self._x * self._window_sum(ratio)
        return dx.astype(DTYPE)


class SoftmaxLossLayer(Layer):
    def __init__(self, spec: SoftmaxLossSpec):
        self.name = spec.name

    def setup(self, bottom_shape):
        return (1,)

    def forward_loss(self, bottom, labels):
        logits = bottom.reshape(bottom.shape[0], -1).astype(np.float64)
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        self._probs = e / e.sum(axis=1, keepdims=True)
        self._labels = labels.reshape(-1).astype(np.int64)
        picked = self._probs[np.arange(len(self._labels)), self._labels]
        return float(-np.log(np.maximum(picked, 1e-30)).mean())

    def backward_loss(self, bottom_shape):
        g = self._probs.copy()
        g[np.arange(len(self._labels)), self._labels] -= 1.0
        g /= len(self._labels)
        return g.reshape(bottom_shape).astype(DTYPE)


def _make_layer(spec, rng):
    if isinstance(spec, ConvSpec):
        return ConvLayer(spec, rng)
    if isinstance(spec, ReLUSpec):
        return ReLULayer(spec)
    if isinstance(spec, PoolSpec):
        return PoolLayer(spec)
    if isinstance(spec, FCSpec):
        return FCLayer(spec, rng)
    if isinstance(spec, DropoutSpec):
        return DropoutLayer(spec, rng)
    if isinstance(spec, LRNSpec):
        return LRNLayer(spec)
    if isinstance(spec, SoftmaxLossSpec):
        return SoftmaxLossLayer(spec)
    raise TypeError(type(spec).__name__)


class CaffeNet:
    """A network of static layer kernels built from a shared config."""

    layer_factory = staticmethod(_make_layer)

    def __init__(self, config: ModelConfig, batch_size: int, rng=None):
        self.config = config
        self.batch_size = batch_size
        rng = rng or get_rng()
        self.layers: List[Layer] = [
            self.layer_factory(spec, rng) for spec in config.layers
        ]
        shape = config.input_shape
        if not any(isinstance(s, ConvSpec) for s in config.layers):
            shape = (int(np.prod(shape)),)
        for layer in self.layers:
            shape = layer.setup(shape)
        self.loss = 0.0
        self.training = True

    def forward(self, x: np.ndarray, labels: Optional[np.ndarray] = None):
        """Run all layers; returns the final top blob (or loss scalar)."""
        self._tops = []
        top = x.astype(DTYPE, copy=False)
        for layer in self.layers:
            layer.set_mode(self.training)
            if isinstance(layer, SoftmaxLossLayer):
                self._pre_loss_shape = top.shape
                self.loss = layer.forward_loss(top, labels)
                self.scores = top
                top = np.array([self.loss], DTYPE)
            else:
                top = layer.forward(top)
            self._tops.append(top)
        return top

    def backward(self) -> np.ndarray:
        """Back-propagate from the loss; returns the input gradient."""
        grad: Optional[np.ndarray] = None
        for layer in reversed(self.layers):
            if isinstance(layer, SoftmaxLossLayer):
                grad = layer.backward_loss(self._pre_loss_shape)
            else:
                if grad is None:
                    raise RuntimeError(
                        "backward without a loss layer; seed a gradient"
                    )
                grad = layer.backward(grad)
        return grad

    def backward_from(self, top_grad: np.ndarray) -> np.ndarray:
        """Back-propagate a seeded top gradient (loss-less benchmarks)."""
        grad = top_grad
        for layer in reversed(self.layers):
            if isinstance(layer, SoftmaxLossLayer):
                continue
            grad = layer.backward(grad)
        return grad

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def clear_grads(self):
        for _, g in self.params():
            g[...] = 0

    def load_params_from(self, cnet) -> None:
        """Copy parameters from a Latte CompiledNet with matching layer
        names (for differential testing)."""
        table: Dict[str, np.ndarray] = cnet.buffers
        for layer in self.layers:
            if isinstance(layer, (ConvLayer, FCLayer)):
                layer.weights[...] = table[f"{layer.name}_weights"]
                layer.bias[...] = table[f"{layer.name}_bias"]
