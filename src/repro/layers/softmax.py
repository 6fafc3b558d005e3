"""Softmax, loss, and softmax-loss layers.

``SoftmaxLossLayer`` is a :class:`~repro.core.ensemble.LossEnsemble`
of one :class:`~repro.layers.neurons.SoftmaxLossNeuron`, compiled like
any other ensemble; its values are the loss and its backward seeds
back-propagation. ``SoftmaxLayer`` is a NormalizationEnsemble (§3.2).
"""

from __future__ import annotations

import numpy as np

from repro.core import (Dim, FieldBinding, LossEnsemble, Net,
                        NormalizationEnsemble, all_to_all, one_to_one)
from repro.layers.neurons import SoftmaxLossNeuron


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically-stable softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def SoftmaxLossLayer(name: str, net: Net, input_ens, label_ens) -> LossEnsemble:
    """Mean cross-entropy of softmax(input) against integer labels: one
    :class:`~repro.layers.neurons.SoftmaxLossNeuron`, connected to every
    score and to the label.

    ``label_ens`` is a DataEnsemble of shape ``(1,)`` holding the class
    index per batch item.
    """
    fields = {
        "lse": FieldBinding(None, (Dim(0),), batch=True, shape=(1,)),
        "scale": FieldBinding(np.full(1, 1.0 / net.batch_size, np.float32),
                              (Dim(0),)),
    }
    loss = LossEnsemble(net, name, SoftmaxLossNeuron, (1,), fields=fields)
    net.add_connections(input_ens, loss, all_to_all(input_ens.shape))
    net.add_connections(label_ens, loss, one_to_one(len(label_ens.shape)))
    return loss


def SoftmaxLayer(name: str, net: Net, input_ens) -> NormalizationEnsemble:
    """Standalone softmax over the flattened ensemble (inference heads)."""

    def forward_fn(out, ins, stats, training):
        flat = ins[0].reshape(ins[0].shape[0], -1)
        out[...] = softmax(flat).reshape(out.shape).astype(out.dtype)

    def backward_fn(in_grads, out_grad, ins, out, stats, training):
        p = out.reshape(out.shape[0], -1).astype(np.float64)
        g = out_grad.reshape(out.shape[0], -1).astype(np.float64)
        dot = (g * p).sum(axis=1, keepdims=True)
        in_grads[0] += (p * (g - dot)).reshape(in_grads[0].shape).astype(
            in_grads[0].dtype
        )

    sm = NormalizationEnsemble(
        net, name, input_ens.shape, forward_fn, backward_fn
    )
    net.add_connections(input_ens, sm, one_to_one(len(input_ens.shape)))
    return sm
