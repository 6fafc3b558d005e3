"""Shared-variable analysis (§5.2).

The compiler determines which compute nodes share data dependencies and
maps shared values to the same memory region. Two kinds of sharing are
recovered:

* **Input sharing** — sink dimensions along which every neuron's
  adjacency list is identical. These dimensions are dropped from the
  input buffer, so e.g. all output channels of a convolution read one
  shared im2col buffer, and every neuron of an FC layer aliases the whole
  source activation vector (Fig. 8: the ``n`` index disappears from
  ``fc_inputs``).

* **Field sharing** — ensemble dimensions a field's index pattern does
  not mention (e.g. convolution filters are shared across the spatial
  dimensions). The SoA rewrite indexes the field without those
  dimensions.

The facts are produced by probing connection mappings
(:mod:`repro.analysis.mapping`) and reading
:class:`~repro.core.ensemble.FieldBinding` patterns; for ensembles built
with ``Ensemble.from_neurons`` the patterns themselves were recovered
from NumPy view aliasing, the paper's "compare adjacency lists /
field aliases along a dimension" in Python terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.analysis.mapping import MappingInfo, analyze_mapping
from repro.core.ensemble import Ensemble


@dataclass
class ConnectionFacts:
    """Analysis results for one incoming connection of an ensemble."""

    mapping: MappingInfo

    @property
    def fully_shared(self) -> bool:
        """True when every sink neuron consumes the identical input set —
        the input buffer can alias the (flattened) source values with no
        data copy at all (§5.3 'special cases')."""
        return len(self.mapping.shared_sink_dims) == len(self.mapping.sink_shape)

    @property
    def identity(self) -> bool:
        """True for one-to-one connections (ActivationEnsembles)."""
        return self.mapping.kind == "one_to_one"


@dataclass
class EnsembleFacts:
    """Shared-variable facts for one synthesized ensemble."""

    ensemble: Ensemble
    connections: Tuple[ConnectionFacts, ...]
    #: field name -> ensemble dims the field is shared across
    field_shared_dims: Dict[str, frozenset]


def analyze_ensemble(ens: Ensemble) -> EnsembleFacts:
    """Run shared-variable analysis for one ensemble."""
    conn_facts = []
    for conn in ens.inputs:
        if conn.analysis is None:
            conn.analysis = analyze_mapping(
                conn.mapping, conn.source.shape, ens.shape
            )
        conn_facts.append(ConnectionFacts(conn.analysis))
    field_shared = {
        fname: binding.shared_dims(ens.ndim)
        for fname, binding in ens.field_bindings.items()
    }
    return EnsembleFacts(ens, tuple(conn_facts), field_shared)
