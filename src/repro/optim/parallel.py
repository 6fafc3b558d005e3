"""Parallelization (§5.4.3): loop annotation + batch-shard marking.

The computation of an ensemble is data-parallel across batch items, and
inside a batch iteration each loop tile is data-parallel too; Latte
parallelizes the batch loop and, when present, the tile loop via loop
collapsing, with a compact static interleaved schedule::

    #pragma omp for collapse(2) schedule(static, 1)

This pass attaches those annotations to the outermost loops of every
schedule item. The C backend renders them verbatim. The Python backend
realizes them through the executor's thread pool: when compiled with
``num_threads > 1`` this pass additionally *marks* each shardable group
with a :class:`~repro.synthesis.units.ShardInfo`, and the executor splits
the corresponding step into contiguous batch shards run concurrently
(NumPy's BLAS/ufunc kernels release the GIL).

Sharding is sound only under the paper's shared-variable treatment: a
statement whose writes land at its own batch row touches disjoint memory
per shard, but a statement accumulating into a *batch-invariant* buffer
(a weight or bias gradient) would race. Such buffers are recorded in
``ShardInfo.private_accums`` and registered on the buffer plan
(:meth:`~repro.synthesis.plan.BufferPlan.mark_private`); the executor
hands each shard a private copy and combines them with a deterministic
tree reduction after the shard barrier. Groups containing extern calls,
non-``add`` batch reductions, or reads of a privatized buffer stay
serial.
"""

from __future__ import annotations

from typing import Optional

from repro.ir import (
    Assign,
    CommCall,
    Gemm,
    Index,
    free_vars,
    walk_exprs,
    write_target_vars,
)
from repro.synthesis.lower import BATCH_VAR
from repro.synthesis.units import FusedGroup, ShardInfo

SCHEDULE = "static, 1"


def run(items, plan=None, num_threads: int = 1) -> None:
    """Annotate outer batch/tile loops with the parallel schedule.

    With ``num_threads > 1`` and a buffer ``plan``, additionally mark
    batch-shardable groups (see module docstring) for the executor.
    """
    shard = (
        plan is not None and num_threads > 1 and plan.batch_size > 1
    )
    for item in items:
        if isinstance(item, CommCall):
            continue
        assert isinstance(item, FusedGroup)
        if item.tile_loop is not None:
            item.tile_loop.parallel = True
            # collapse needs one perfect nest under the tile loop
            item.tile_loop.collapse = 2 if len(item.units) == 1 else 0
            item.tile_loop.schedule = SCHEDULE
        else:
            for unit in item.units:
                if unit.loops and unit.loops[0].role == "batch":
                    sp = unit.loops[0]
                    sp.parallel = True
                    sp.collapse = 2 if len(unit.loops) > 1 else 0
                    sp.schedule = SCHEDULE
        if shard:
            item.shard = _mark_group(item, plan)


def count_sharded(items) -> int:
    """Number of schedule items marked batch-shardable."""
    return sum(
        1 for it in items
        if isinstance(it, FusedGroup) and it.shard is not None
    )


def _index_vars(expr) -> set:
    """Loop variables appearing inside buffer references of ``expr``."""
    out: set = set()
    for e in walk_exprs(expr):
        if isinstance(e, Index):
            out |= free_vars(e)
    return out


def _mark_group(group: FusedGroup, plan) -> Optional[ShardInfo]:
    """Decide shardability of one group; returns its ShardInfo or None.

    Every unit must either write at its own batch row (disjoint across
    shards) or be a pure sum accumulation / first-writer-forwarded store
    into an unbatched buffer, which is then privatized.
    """
    priv: dict = {}
    for unit in group.units:
        stmt = unit.stmt
        if isinstance(stmt, Assign):
            # indirect (materialized-index) targets can cross rows
            tgt_vars = write_target_vars(stmt)
            if tgt_vars is None:
                return None
            if not any(sp.role == "batch" for sp in unit.loops):
                return None
            if BATCH_VAR in tgt_vars:
                continue  # writes its own batch rows
            if stmt.reduce != "add":
                return None
            if BATCH_VAR not in _index_vars(stmt.value):
                # batch-invariant value: the vectorizer folds the batch
                # trip count into a constant factor, which would be the
                # full batch in every shard
                return None
            name, mode = stmt.target.buffer, "add"
        elif isinstance(stmt, Gemm):
            axes = stmt.var_axes.get(BATCH_VAR, ())
            if axes:
                if any(key == "c" for key, _ in axes):
                    continue  # batch is a free output axis
                name = stmt.c.buffer
                mode = "add" if stmt.accumulate else "store"
            else:
                # batch (if present at all) stayed a scalar loop; the
                # output must carry it for shards to write disjoint rows
                if not any(sp.role == "batch" for sp in unit.loops):
                    return None
                if BATCH_VAR not in (write_target_vars(stmt) or ()):
                    return None
                continue
        else:  # ExternOp etc. — opaque to the sharding analysis
            return None
        # privatize `name`: must be a real, unbatched, non-alias buffer
        spec = plan.buffers.get(name)
        if spec is None or spec.batched or plan.resolve_alias(name) != name:
            return None
        if priv.setdefault(name, mode) != mode:
            return None
    # no unit may consume a privatized buffer as data: each shard would
    # see only its own partial sums
    for unit in group.units:
        stmt = unit.stmt
        if isinstance(stmt, Gemm):
            data_reads = {stmt.a.buffer, stmt.b.buffer}
        else:
            data_reads = {
                e.buffer
                for e in walk_exprs(stmt.value)
                if isinstance(e, Index)
            }
        if data_reads & priv.keys():
            return None
    # each shard gathers into its own tile of a contracted buffer:
    # private like an accumulator, but neither zeroed nor reduced
    priv.update((name, "tile") for name in group.contracted)
    for name in priv:
        plan.mark_private(name)
    return ShardInfo(batch=plan.batch_size, private_accums=priv)
