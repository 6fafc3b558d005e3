"""Build Latte networks from shared :class:`ModelConfig` records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import Net
from repro.layers import (
    ConvolutionLayer,
    DropoutLayer,
    FullyConnectedLayer,
    LRNLayer,
    MaxPoolingLayer,
    MeanPoolingLayer,
    MemoryDataLayer,
    ReLULayer,
    SoftmaxLossLayer,
)
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


@dataclass
class BuiltModel:
    """A constructed (not yet compiled) Latte network."""

    config: ModelConfig
    net: Net
    data: object
    label: Optional[object]
    output: object  # ensemble producing class scores (or last ensemble)
    loss: Optional[object]

    def init(self, options=None, tracer=None, num_threads=None,
             keep_alive=None, watchdog=None, calibration=None):
        """Compile the network (the paper's ``init``)."""
        return self.net.init(options, tracer=tracer,
                             num_threads=num_threads,
                             keep_alive=keep_alive, watchdog=watchdog,
                             calibration=calibration)


def build_latte(config: ModelConfig, batch_size: int,
                rng=None, params=None) -> BuiltModel:
    """Instantiate ``config`` as a Latte network of DSL layers, binding
    parameter values from ``params`` when given (see :class:`Net`)."""
    net = Net(batch_size, params=params)
    needs_conv = any(isinstance(s, (ConvSpec, PoolSpec, LRNSpec))
                     for s in config.layers)
    if needs_conv:
        data = MemoryDataLayer(net, "data", config.input_shape)
    else:
        data = MemoryDataLayer(net, "data", (int(np.prod(config.input_shape)),))
    label = None
    if any(isinstance(s, SoftmaxLossSpec) for s in config.layers):
        label = MemoryDataLayer(net, "label", (1,))

    cur = data
    output = data
    loss = None
    for spec in config.layers:
        if isinstance(spec, ConvSpec):
            cur = ConvolutionLayer(spec.name, net, cur, spec.filters,
                                   spec.kernel, spec.stride, spec.pad, rng=rng)
        elif isinstance(spec, ReLUSpec):
            cur = ReLULayer(spec.name, net, cur)
        elif isinstance(spec, PoolSpec):
            fn = MaxPoolingLayer if spec.mode == "max" else MeanPoolingLayer
            cur = fn(spec.name, net, cur, spec.kernel, spec.stride, spec.pad)
        elif isinstance(spec, FCSpec):
            cur = FullyConnectedLayer(spec.name, net, cur, spec.outputs,
                                      rng=rng)
        elif isinstance(spec, DropoutSpec):
            cur = DropoutLayer(spec.name, net, cur, spec.ratio, rng=rng)
        elif isinstance(spec, LRNSpec):
            cur = LRNLayer(spec.name, net, cur, spec.local_size, spec.alpha,
                           spec.beta)
        elif isinstance(spec, SoftmaxLossSpec):
            output = cur
            loss = SoftmaxLossLayer(spec.name, net, cur, label)
            cur = loss
        else:  # pragma: no cover
            raise TypeError(f"unknown layer spec {type(spec).__name__}")
        if loss is None:
            output = cur
    return BuiltModel(config, net, data, label, output, loss)
