"""Convolution layers (§4, Fig. 5).

A convolution is the same ``WeightedNeuron`` as a fully-connected layer
with (a) a sparse spatially-local connection structure expressed as a
mapping function, and (b) weights shared across the spatial dimensions of
the ensemble. Sharing is expressed with a field pattern that omits the
spatial dimensions — the declarative form of the view aliasing the
paper's shared-variable analysis recovers (§5.2).
"""

from __future__ import annotations

import numpy as np

from repro.core import VEC, Dim, Ensemble, FieldBinding, Net, Param, window_2d
from repro.layers.neurons import WeightedNeuron
from repro.utils import conv_output_dim, gaussian_init, zeros_init
from repro.utils.rng import get_rng


def ConvolutionLayer(
    name: str,
    net: Net,
    input_ens,
    n_filters: int,
    kernel: int,
    stride: int = 1,
    pad: int = 0,
    weight_std: float | None = None,
    rng=None,
) -> Ensemble:
    """A 2-D convolution over a ``(channels, height, width)`` ensemble.

    The flat window index enumerates ``(in_channel, ky, kx)`` row-major,
    matching the mapping function's range order, so ``weights`` has shape
    ``(in_channels * kernel**2, n_filters)``.
    """
    if len(input_ens.shape) != 3:
        raise ValueError(
            f"convolution input must be rank-3 (c, h, w), got "
            f"{input_ens.shape}"
        )
    c_in, h, w = input_ens.shape
    out_h = conv_output_dim(h, kernel, stride, pad)
    out_w = conv_output_dim(w, kernel, stride, pad)
    k = c_in * kernel * kernel

    rng = rng or get_rng()
    if weight_std is None:
        weight_std = float(np.sqrt(2.0 / k))  # He initialization
    weights = net.param_value(
        f"{name}.weights", (k, n_filters),
        lambda: gaussian_init((k, n_filters), std=weight_std, rng=rng))
    bias = net.param_value(f"{name}.bias", (1, n_filters),
                           lambda: zeros_init((1, n_filters)))
    # the gradients are declared by the Params, not allocated here
    fields = {
        "weights": FieldBinding(weights, (VEC, Dim(0))),
        "bias": FieldBinding(bias, (VEC, Dim(0))),
    }
    conv = Ensemble(
        net,
        name,
        WeightedNeuron,
        (n_filters, out_h, out_w),
        fields=fields,
        params=[Param("weights", 1.0), Param("bias", 2.0)],
    )
    net.add_connections(input_ens, conv, window_2d(kernel, stride, pad, c_in))
    return conv
