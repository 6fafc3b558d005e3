"""Canonical *loop unit* form used between synthesis and code generation.

Latte's DSL semantics guarantee that the computation of one neuron never
depends on another neuron of the same ensemble (§5.4.3), and data-copy
iterations are independent by construction. Loop *fission* over the
batch/neuron dimensions is therefore always legal, so instead of one big
loop tree the middle-end represents each ensemble section as a list of
:class:`LoopUnit` — a perfect scalar loop nest around a single statement.
Passes (pattern matching, tiling, fusion, vectorization) manipulate these
units; fusion groups units back under shared tile loops
(:class:`FusedGroup`), recovering the paper's Fig. 12 structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.ir import Assign, Const, Expr, Gemm, Stmt, Var


@dataclass
class LoopSpec:
    """One scalar loop of a unit's nest: ``for var in range(start, stop)``.

    ``extent`` is the statically-known trip count (all Latte loops have
    compile-time trip counts; tiled inner loops have symbolic bounds but a
    known extent). ``role`` tags the loop's origin: ``'batch'``,
    ``'dim'`` (ensemble dimension), ``'window'`` (flattened or
    per-dimension window), ``'user'`` (a loop written in the neuron
    function), or ``'tile'``.
    """

    var: str
    start: Expr
    stop: Expr
    extent: int
    role: str = "dim"
    #: ensemble dimension index for role='dim' loops
    dim_index: Optional[int] = None

    @classmethod
    def simple(cls, var: str, extent: int, role: str = "dim", dim_index=None):
        return cls(var, Const(0), Const(extent), extent, role, dim_index)


@dataclass
class UnitTags:
    """Provenance metadata used by fusion and the runtime."""

    ensemble: str = ""
    #: 'fill' | 'copy' | 'compute' | 'scatter' | 'pad_fill' | 'pad' |
    #: 'unpad' | 'regather' | 'extern'
    kind: str = ""
    direction: str = "forward"  # 'forward' | 'backward'
    #: for copy/scatter units: the connection analysis driving them
    conn: Optional[object] = None
    #: for copy/scatter: connection index on the sink ensemble
    conn_index: Optional[int] = None
    #: buffer the unit gathers from / scatters to (for inlining)
    copy_source: Optional[str] = None
    #: buffer this unit touches at the *previous* time step (recurrent
    #: copies/scatters); such units become solo steps with shifted views
    recurrent_src: Optional[str] = None
    #: the input buffer a copy fills / a compute consumes
    note: str = ""
    #: the staging buffer whose batch-tiled chain the unit belongs to
    #: (:mod:`repro.optim.tiling`): fusion joins a chain to the group of
    #: the chain before it only as a whole
    chain: str = ""


@dataclass
class LoopUnit:
    """A perfect loop nest around one statement."""

    loops: List[LoopSpec]
    stmt: Stmt  # Assign or Gemm
    tags: UnitTags = field(default_factory=UnitTags)

    def loop_vars(self) -> List[str]:
        return [sp.var for sp in self.loops]

    def find_loop(self, var: str) -> Optional[LoopSpec]:
        for sp in self.loops:
            if sp.var == var:
                return sp
        return None


@dataclass
class ShardInfo:
    """Batch-sharding metadata attached by :mod:`repro.optim.parallel`.

    A group carrying this may be executed as several contiguous batch
    shards concurrently: the Python backend emits its step function with
    ``(_b0, _b1)`` batch-bound parameters, and the executor runs one call
    per shard. ``private_accums`` names the batch-invariant buffers the
    group accumulates into (weight/bias gradients); each maps to the
    combining mode — ``'add'`` (shard partials are summed into the real
    buffer) or ``'store'`` (a first-writer-forwarded overwrite; the shard
    partials replace the buffer's contents). A contracted staging buffer
    rides the same path with mode ``'tile'``: one private tile per
    shard, nothing to combine.
    """

    #: full batch extent — the default ``_b1`` of the emitted function
    batch: int
    #: buffer name -> 'add' | 'store' | 'tile'
    private_accums: Dict[str, str] = field(default_factory=dict)


@dataclass
class FusedGroup:
    """Units sharing an outer tile loop after cross-layer fusion.

    ``tile_loop`` is the shared scalar loop over tiles (``None`` when a
    group is a single unfused unit); the member units' loop lists do *not*
    include it.
    """

    units: List[LoopUnit]
    tile_loop: Optional[LoopSpec] = None
    label: str = ""
    #: buffers this group reads at the previous time step (recurrent nets)
    recurrent_reads: frozenset = frozenset()
    #: set by the parallel pass when the group is batch-shardable
    shard: Optional[ShardInfo] = None
    #: base buffers fusion contracted to this group's batch tile:
    #: allocated ``[tile, ...]`` and indexed relative to the tile's
    #: first row
    contracted: Tuple[str, ...] = ()


@dataclass
class Section:
    """All work for one ensemble in one direction, plus trailing
    communication calls (async gradient reduction insertion points)."""

    ensemble: str
    direction: str
    units: List[LoopUnit] = field(default_factory=list)
    comm: List = field(default_factory=list)  # CommCall statements
