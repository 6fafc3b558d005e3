"""Connections between ensembles (§3.3).

A connection from ``source`` to ``sink`` carries a *mapping function* that,
given the index of a neuron in ``sink``, returns for each dimension of
``source`` either an ``int`` (a single neuron coordinate) or a ``range``
of coordinates. The flattened cross-product of those per-dimension ranges
is the neuron's input vector ``self.inputs[j]`` for this connection.

The mapping is an ordinary Python function — the paper's Fig. 5 example
becomes::

    def mapping(c, y, x):
        return (range(0, in_channels),
                range(y * stride - pad, y * stride - pad + kernel),
                range(x * stride - pad, x * stride - pad + kernel))

Connections are *introspected*, not executed per neuron: the compiler
probes the mapping at a few sink indices and fits an affine window model
(:mod:`repro.analysis.mapping`), which drives shared-variable analysis and
copy synthesis. Mappings that are not affine fall back to a general
gather.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional

from repro.core.ensemble import Ensemble


class Connection:
    """An edge in the ensemble-level data-flow graph. Its sink holds it
    (``sink.inputs``); it points only at its source, never back — and
    weakly when it is recurrent, since a recurrent source is the sink
    itself or downstream of it (the net holds every ensemble)."""

    def __init__(self, source: Ensemble, mapping: Callable,
                 recurrent: bool = False, index: int = -1):
        if not callable(mapping):
            raise TypeError("connection mapping must be callable")
        self._source = weakref.ref(source) if recurrent else source
        self.mapping = mapping
        #: Recurrent connections read the source's value at the
        #: *previous* time step (§4, Fig. 6) and so are not edges of the
        #: acyclic schedule.
        self.recurrent = recurrent
        #: Index of this connection within the sink's input list;
        #: assigned by ``Net.add_connections`` in the order connections
        #: are added.
        self.index = index
        #: Filled lazily by the compiler with the affine-window analysis.
        self.analysis: Optional[object] = None

    @property
    def source(self) -> Ensemble:
        src = self._source
        return src() if isinstance(src, weakref.ref) else src


def one_to_one(ndim: int) -> Callable:
    """Mapping connecting each sink neuron to the same-index source neuron
    (used by ActivationEnsembles and elementwise math ensembles)."""

    def mapping(*idx):
        if len(idx) != ndim:
            raise ValueError(f"expected {ndim} sink coordinates, got {len(idx)}")
        return idx

    mapping.__name__ = f"one_to_one_{ndim}d"
    return mapping


def all_to_all(source_shape) -> Callable:
    """Mapping connecting every source neuron to each sink neuron — the
    fully-connected pattern of the paper's Fig. 4."""
    source_shape = tuple(source_shape)

    def mapping(*_idx):
        return tuple(range(0, d) for d in source_shape)

    mapping.__name__ = "all_to_all"
    return mapping


def window_2d(kernel: int, stride: int, pad: int, in_channels: int) -> Callable:
    """The sparse spatially-local mapping of convolution/pooling layers
    over a (channel, y, x) source (paper Fig. 5), including all input
    channels."""

    def mapping(_c, y, x):
        in_y = y * stride - pad
        in_x = x * stride - pad
        return (
            range(0, in_channels),
            range(in_y, in_y + kernel),
            range(in_x, in_x + kernel),
        )

    mapping.__name__ = f"window_{kernel}x{kernel}_s{stride}_p{pad}"
    return mapping


def spatial_window_2d(kernel: int, stride: int, pad: int = 0) -> Callable:
    """Per-channel spatial window over a (channel, y, x) source — the
    pooling pattern: neighborhoods do not mix channels."""

    def mapping(c, y, x):
        in_y = y * stride - pad
        in_x = x * stride - pad
        return (c, range(in_y, in_y + kernel), range(in_x, in_x + kernel))

    mapping.__name__ = f"pool_window_{kernel}x{kernel}_s{stride}_p{pad}"
    return mapping
