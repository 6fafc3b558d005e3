"""Fully connected (inner product) layers (§4, Fig. 4).

Construction follows the paper verbatim: an array of ``WeightedNeuron``
instances is built, each holding *column views* into shared weight and
bias matrices, and handed to the ensemble. The compiler's alias analysis
recovers the shared bases (see ``Ensemble.from_neurons``), so solver
updates through the ensemble are visible through every neuron's view.
"""

from __future__ import annotations

import numpy as np

from repro.core import Ensemble, Net, Param, all_to_all
from repro.layers.neurons import WeightedNeuron
from repro.utils import xavier_init, zeros_init


def FullyConnectedLayer(
    name: str,
    net: Net,
    input_ens,
    n_outputs: int,
    rng=None,
) -> Ensemble:
    """An ensemble of ``n_outputs`` WeightedNeurons, each connected to
    every neuron of ``input_ens`` (Fig. 4)."""
    fc = FullyConnectedEnsemble(name, net, len(input_ens), n_outputs, rng=rng)
    # Connect all source neurons to each sink neuron
    net.add_connections(input_ens, fc, all_to_all(input_ens.shape))
    return fc


def FullyConnectedEnsemble(
    name: str,
    net: Net,
    n_inputs: int,
    n_outputs: int,
    rng=None,
) -> Ensemble:
    """The unconnected variant used when the input does not exist yet —
    recurrent blocks connect it afterwards (Fig. 6 line 9)."""
    # Initialize parameters (their gradients belong to the runtime); a
    # lone neuron binds its one column (``from_neurons``), keyed as such
    lone = (n_outputs,) if n_outputs > 1 else ()
    weights = net.param_value(
        f"{name}.weights", (n_inputs,) + lone,
        lambda: xavier_init(n_inputs, n_outputs, rng=rng),
    ).reshape(n_inputs, n_outputs)
    bias = net.param_value(f"{name}.bias", (1,) + lone,
                           lambda: zeros_init((1, n_outputs))
                           ).reshape(1, n_outputs)
    # Instantiate each neuron with unique parameters (column views)
    neurons = np.empty(n_outputs, dtype=object)
    for i in range(n_outputs):
        neurons[i] = WeightedNeuron(weights=weights[:, i], bias=bias[:, i])
    # Construct the ensemble
    return Ensemble.from_neurons(
        net,
        name,
        neurons,
        params=[Param("weights", 1.0), Param("bias", 2.0)],
    )


#: the paper uses InnerProductLayer and FullyConnectedLayer interchangeably
InnerProductLayer = FullyConnectedLayer
