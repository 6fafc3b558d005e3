"""Parallelization (§5.4.3): batch-shard marking.

The computation of an ensemble is data-parallel across batch items.
Where the paper parallelizes the batch (and tile) loop with
``#pragma omp for collapse(2) schedule(static, 1)``, this compiler
splits the batch across threads in the executor: when compiled with
``num_threads > 1`` this pass *marks* each shardable group with a
:class:`~repro.synthesis.units.ShardInfo`, and the executor splits the
corresponding step into contiguous batch shards run concurrently
(NumPy's BLAS/ufunc kernels release the GIL; native kernels run their
shard's rows). The shard is the one unit of parallelism on both
backends: a program this pass marks nothing in (batch 1) runs every
step whole on the calling thread, native kernels included.

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

from typing import Dict, Optional

from repro.ir import (
    Assign,
    Gemm,
    Index,
    free_vars,
    walk_exprs,
    write_target_vars,
)
from repro.runtime.threads import shard_bounds
from repro.synthesis.lower import BATCH_VAR
from repro.synthesis.units import FusedGroup, ShardInfo


def run(items, plan, num_threads: int = 1) -> Dict[str, int]:
    """Mark the batch-shardable groups of a schedule (see module
    docstring) for an executor running ``num_threads`` threads;
    returns how many were marked."""
    marked = 0
    if num_threads > 1 and plan.batch_size > 1:
        bounds = shard_bounds(plan.batch_size,
                              min(num_threads, plan.batch_size))
        rows = max(bounds, key=lambda b: b[1] - b[0])
        for item in items:
            item.shard = _mark_group(item, plan, rows)
            marked += item.shard is not None
    return {"steps_sharded": marked}


def _index_vars(expr) -> set:
    """Loop variables appearing inside buffer references of ``expr``."""
    out: set = set()
    for e in walk_exprs(expr):
        if isinstance(e, Index):
            out |= free_vars(e)
    return out


def _mark_group(group: FusedGroup, plan, rows) -> Optional[ShardInfo]:
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
    return ShardInfo(plan.batch_size, rows, priv)
