"""Normalization layers, built on :class:`NormalizationEnsemble` (§3.2):
"specifying normalization operations is often better suited for array- or
vector-style operations", so these are whole-array kernels and act as
fusion barriers. Nothing is kept from forward to backward: a backward
recomputes what it needs from the input it declares.
"""

from __future__ import annotations

import numpy as np

from repro.core import Net, NormalizationEnsemble, one_to_one

_EPS = 1e-5


def BatchNormLayer(
    name: str, net: Net, input_ens, momentum: float = 0.9, eps: float = _EPS
) -> NormalizationEnsemble:
    """Batch normalization (Ioffe & Szegedy, cited as [31]).

    Normalizes per channel over batch (and spatial dims for rank-3
    inputs), tracking running statistics for inference. The statistics
    ``<name>.running_mean`` and ``<name>.running_var`` are net arrays,
    bound like parameters (``Net(params=)``), but no solver updates
    them. Affine scale and shift, when wanted, compose from Scale
    ensembles.
    """
    rank = len(input_ens.shape)
    if rank == 3:
        axes = (0, 2, 3)  # batch, h, w — per channel
    elif rank == 1:
        axes = (0,)
    else:
        raise ValueError(f"BatchNorm supports rank 1 or 3, got {rank}")
    c = input_ens.shape[0]
    stats = {
        key: net.param_value(f"{name}.{key}", (c,),
                             lambda v=v: np.full(c, v, np.float32))
        for key, v in (("running_mean", 0.0), ("running_var", 1.0))
    }

    def _bshape(x):
        shape = [1] * x.ndim
        shape[1] = c
        return shape

    def _normalize(x, stats, training):
        # x̂ and the per-channel mean and variance behind it, in float64:
        # the batch's moments in training, the running statistics
        # otherwise
        if training:
            mean, var = x.mean(axis=axes), x.var(axis=axes)
        else:
            mean, var = (stats[key].astype(np.float64)
                         for key in ("running_mean", "running_var"))
        shape = _bshape(x)
        xhat = (x - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + eps)
        return xhat, mean, var

    def forward_fn(out, ins, stats, training):
        xhat, mean, var = _normalize(ins[0].astype(np.float64), stats,
                                     training)
        if training:
            for key, batch in (("running_mean", mean), ("running_var", var)):
                stats[key][...] = (momentum * stats[key].astype(np.float64)
                                   + (1 - momentum) * batch)
        out[...] = xhat.astype(out.dtype)

    def backward_fn(in_grads, out_grad, ins, out, stats, training):
        xhat, _, var = _normalize(ins[0].astype(np.float64), stats,
                                  training)
        g = out_grad.astype(np.float64)
        inv_std = (1.0 / np.sqrt(var + eps)).reshape(_bshape(g))
        if training:
            m = float(np.prod([g.shape[a] for a in axes]))
            gsum = g.sum(axis=axes, keepdims=True)
            gx_sum = (g * xhat).sum(axis=axes, keepdims=True)
            g = g - gsum / m - xhat * gx_sum / m
        in_grads[0] += (inv_std * g).astype(in_grads[0].dtype)

    bn = NormalizationEnsemble(
        net, name, input_ens.shape, forward_fn, backward_fn, stats=stats
    )
    net.add_connections(input_ens, bn, one_to_one(rank))
    return bn


def LRNLayer(
    name: str,
    net: Net,
    input_ens,
    local_size: int = 5,
    alpha: float = 1e-4,
    beta: float = 0.75,
    k: float = 1.0,
) -> NormalizationEnsemble:
    """Local response normalization across channels (AlexNet §3.3)::

        out[c] = in[c] / (k + α/n · Σ_{c' in window(c)} in[c']²)^β
    """
    if len(input_ens.shape) != 3:
        raise ValueError("LRN expects a rank-3 (c, h, w) input")
    n = local_size
    half = n // 2

    def _window_sum(sq):
        # sliding-window sum over the channel axis (axis 1 incl. batch)
        c = sq.shape[1]
        pad = np.zeros_like(sq[:, :1])
        cs = np.concatenate([pad, np.cumsum(sq, axis=1)], axis=1)
        lo = np.maximum(np.arange(c) - half, 0)
        hi = np.minimum(np.arange(c) + half + 1, c)
        return cs[:, hi] - cs[:, lo]

    def _scale(x):
        return k + (alpha / n) * _window_sum(x * x)

    def forward_fn(out, ins, stats, training):
        x = ins[0].astype(np.float64)
        out[...] = (x * _scale(x) ** (-beta)).astype(out.dtype)

    def backward_fn(in_grads, out_grad, ins, out, stats, training):
        g = out_grad.astype(np.float64)
        x = ins[0].astype(np.float64)
        scale = _scale(x)
        p = scale ** (-beta)
        ratio = g * (x * p) / scale
        dx = g * p - (2.0 * alpha * beta / n) * x * _window_sum(ratio)
        in_grads[0] += dx.astype(in_grads[0].dtype)

    lrn = NormalizationEnsemble(
        net, name, input_ens.shape, forward_fn, backward_fn
    )
    net.add_connections(input_ens, lrn, one_to_one(3))
    return lrn
