"""Channel concatenation — the composition primitive behind
Inception-style multi-branch architectures (the paper's §1 names the
Inception architecture as the kind of novel-topology research Latte aims
to serve).

Implemented as a whole-array ensemble: concatenation is a memory-layout
operation with no per-neuron arithmetic, which (like normalization, §3.2)
suits the array style. Gradients split back to the branches by the same
offsets.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import Net, NormalizationEnsemble, one_to_one


def ConcatLayer(name: str, net: Net, inputs: Sequence) -> NormalizationEnsemble:
    """Concatenate rank-3 ``(c, h, w)`` ensembles along channels (or
    rank-1 ensembles along their only axis)."""
    inputs = list(inputs)
    if len(inputs) < 2:
        raise ValueError("ConcatLayer needs at least two inputs")
    rank = len(inputs[0].shape)
    if any(len(e.shape) != rank for e in inputs):
        raise ValueError("concat inputs must have equal rank")
    if rank == 3:
        tail = inputs[0].shape[1:]
        if any(e.shape[1:] != tail for e in inputs):
            raise ValueError(
                "concat inputs must agree on spatial dimensions"
            )
        shape = (sum(e.shape[0] for e in inputs),) + tail
    elif rank == 1:
        shape = (sum(e.shape[0] for e in inputs),)
    else:
        raise ValueError("ConcatLayer supports rank-1 or rank-3 inputs")

    sizes = [e.shape[0] for e in inputs]
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)

    def forward_fn(out, ins, stats, training):
        for k, arr in enumerate(ins):
            out[:, offsets[k] : offsets[k + 1]] = arr

    def backward_fn(in_grads, out_grad, ins, out, stats, training):
        for k, g in enumerate(in_grads):
            g += out_grad[:, offsets[k] : offsets[k + 1]]

    concat = NormalizationEnsemble(net, name, shape, forward_fn, backward_fn)
    for e in inputs:
        net.add_connections(e, concat, one_to_one(rank))
    return concat
