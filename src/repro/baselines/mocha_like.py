"""Mocha.jl-style baseline: a high-level interpreted framework.

Mocha.jl mirrors Caffe's design in Julia; the paper attributes its
15-40x gap to (a) no parallelization or tiling and (b) the code *around*
the BLAS calls running in an unoptimized high-level language (§7.1.3).
This baseline reproduces that profile in Python: the same layer algebra
as :mod:`repro.baselines.caffe_like`, but with the glue executed at
per-row / per-image granularity through the interpreter — many small
array operations instead of a few large ones — and fresh allocations per
call. Fully-connected layers still hit batched BLAS (Mocha links BLAS
too), matching the paper's observation that the gap narrows where GEMMs
dominate (OverFeat, §7.1.3).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.caffe_like import (
    CaffeNet,
    ConvLayer,
    PoolLayer,
    ReLULayer,
    _make_layer,
)
from repro.models.configs import ConvSpec, PoolSpec, ReLUSpec

DTYPE = np.float32


class MochaConvLayer(ConvLayer):
    """Per-image convolution whose im2col runs one kernel-row slice at a
    time through the interpreter."""

    def _im2col_rows(self, img):
        s = self.spec
        c = img.shape[0]
        if s.pad:
            padded = np.zeros(
                (c, img.shape[1] + 2 * s.pad, img.shape[2] + 2 * s.pad), DTYPE
            )
            padded[:, s.pad : s.pad + img.shape[1],
                   s.pad : s.pad + img.shape[2]] = img
        else:
            padded = img
        col = np.empty((c * s.kernel * s.kernel, self.out_h, self.out_w),
                       DTYPE)
        i = 0
        for ch in range(c):
            for ky in range(s.kernel):
                for kx in range(s.kernel):
                    for y in range(self.out_h):  # row-at-a-time glue code
                        col[i, y] = padded[
                            ch, y * s.stride + ky,
                            kx : kx + self.out_w * s.stride : s.stride,
                        ]
                    i += 1
        return col.reshape(col.shape[0], -1)

    def forward(self, bottom):
        s = self.spec
        b = bottom.shape[0]
        self._cols = []
        top = np.empty((b, s.filters, self.out_h, self.out_w), DTYPE)
        for n in range(b):
            col = self._im2col_rows(bottom[n])
            self._cols.append(col)
            out = self.weights.T @ col
            out = out + self.bias.T  # fresh allocation, unfused bias add
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
            bottom_grad[n] = self._col2im_rows(dcol)
        return bottom_grad

    def _col2im_rows(self, col):
        s = self.spec
        c, h, w = self.bottom_shape
        padded = np.zeros((c, h + 2 * s.pad, w + 2 * s.pad), DTYPE)
        col = col.reshape(c * s.kernel * s.kernel, self.out_h, self.out_w)
        i = 0
        for ch in range(c):
            for ky in range(s.kernel):
                for kx in range(s.kernel):
                    for y in range(self.out_h):
                        padded[
                            ch, y * s.stride + ky,
                            kx : kx + self.out_w * s.stride : s.stride,
                        ] += col[i, y]
                    i += 1
        if s.pad:
            return padded[:, s.pad : s.pad + h, s.pad : s.pad + w]
        return padded


class MochaReLULayer(ReLULayer):
    """Per-image rectifier with fresh allocations."""

    def forward(self, bottom):
        self._mask = bottom > 0
        top = np.empty_like(bottom)
        for n in range(bottom.shape[0]):
            top[n] = np.maximum(bottom[n], 0)
        return top

    def backward(self, top_grad):
        out = np.empty_like(top_grad)
        for n in range(top_grad.shape[0]):
            out[n] = np.where(self._mask[n], top_grad[n], 0)
        return out


class MochaPoolLayer(PoolLayer):
    """Per-image, per-output-row pooling."""

    def forward(self, bottom):
        s = self.spec
        b, c = bottom.shape[:2]
        bottom = self._bottom = self._pad(bottom)
        top = np.full((b, c, self.out_h, self.out_w),
                      -np.inf if s.mode == "max" else 0.0, DTYPE)
        for n in range(b):
            for y in range(self.out_h):
                for ky in range(s.kernel):
                    for kx in range(s.kernel):
                        row = bottom[
                            n, :, y * s.stride + ky,
                            kx : kx + self.out_w * s.stride : s.stride,
                        ]
                        if s.mode == "max":
                            np.maximum(top[n, :, y], row, out=top[n, :, y])
                        else:
                            top[n, :, y] += row / (s.kernel * s.kernel)
        self._top = top
        return top

    def backward(self, top_grad):
        s = self.spec
        b = top_grad.shape[0]
        bottom_grad = np.zeros(self._bottom.shape, DTYPE)  # padded layout
        for n in range(b):
            for y in range(self.out_h):
                for ky in range(s.kernel):
                    for kx in range(s.kernel):
                        dst = bottom_grad[
                            n, :, y * s.stride + ky,
                            kx : kx + self.out_w * s.stride : s.stride,
                        ]
                        if s.mode == "max":
                            src = self._bottom[
                                n, :, y * s.stride + ky,
                                kx : kx + self.out_w * s.stride : s.stride,
                            ]
                            dst += np.where(
                                src == self._top[n, :, y], top_grad[n, :, y], 0
                            )
                        else:
                            dst += top_grad[n, :, y] / (s.kernel * s.kernel)
        return self._crop(bottom_grad)


def _make_mocha_layer(spec, rng):
    if isinstance(spec, ConvSpec):
        return MochaConvLayer(spec, rng)
    if isinstance(spec, ReLUSpec):
        return MochaReLULayer(spec)
    if isinstance(spec, PoolSpec):
        return MochaPoolLayer(spec)
    return _make_layer(spec, rng)


class MochaNet(CaffeNet):
    """A network of Mocha-style layers built from a shared config."""

    layer_factory = staticmethod(_make_mocha_layer)
