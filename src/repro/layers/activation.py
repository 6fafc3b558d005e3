"""Activation layers — built on :class:`ActivationEnsemble` so the
compiler may run them in place on the source's buffers (§3.2)."""

from __future__ import annotations

from repro.core import ActivationEnsemble, Net
from repro.layers.neurons import (
    DropoutNeuron,
    ReLUNeuron,
    SigmoidNeuron,
    TanhNeuron,
)
from repro.utils.rng import get_rng


def ReLULayer(name: str, net: Net, input_ens) -> ActivationEnsemble:
    """Rectified linear activation over ``input_ens``."""
    return ActivationEnsemble(net, name, ReLUNeuron, input_ens)


def SigmoidLayer(name: str, net: Net, input_ens) -> ActivationEnsemble:
    """Logistic activation over ``input_ens``."""
    return ActivationEnsemble(net, name, SigmoidNeuron, input_ens)


def TanhLayer(name: str, net: Net, input_ens) -> ActivationEnsemble:
    """Hyperbolic-tangent activation over ``input_ens``."""
    return ActivationEnsemble(net, name, TanhNeuron, input_ens)


def DropoutLayer(
    name: str, net: Net, input_ens, ratio: float = 0.5, rng=None
) -> ActivationEnsemble:
    """Inverted dropout with drop probability ``ratio``.

    The mask is the ``dropout`` intrinsic: a hash of each neuron's
    index, this layer's name, the time step and a key the executor
    draws from ``rng`` (the library RNG by default) once per training
    forward. Backward re-evaluates it; an eval forward draws nothing
    and masks nothing, and a forward-only compile has no dropout step.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError("dropout ratio must be in [0, 1)")
    ens = ActivationEnsemble(net, name, DropoutNeuron, input_ens)
    ens.keep = 1.0 - ratio
    ens.rng = rng or get_rng()
    return ens
