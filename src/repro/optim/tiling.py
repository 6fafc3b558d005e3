"""Loop tiling (§5.4.1).

Latte tiles the synthesized loop nests so that fusion can operate tile
by tile and a tile's intermediates stay cache-resident. The paper tiles
the second spatial dimension (``y``) of every layer with one trip count
per network; this repository tiles the *batch* loop of each conv layer's
staging chain — pad → im2col copy → GEMM → bias → ReLU → pool — where
its im2col buffer would not fit in cache for the whole batch (the paper
keeps the batch loop outside the tile loop and calls GEMM once per tile
under it, Figs 10–12; along the batch axis a tile of ``[n][c][y][x]``
storage is contiguous, independent by the DSL's semantics and
contractible). Forced y tiles measured slower on NumPy and flat on C
(EXPERIMENTS.md), so the batch is the one tile axis.

Pattern-matched :class:`~repro.ir.Gemm` units are tiled by re-splitting
the full slice their batch variable became (the per-tile ``gemm`` calls
of Fig. 10).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List

from repro.ir import (Assign, Const, ExternOp, Gemm, Index, SliceExpr, Var,
                      add, mul, walk_exprs)
from repro.synthesis.access import unit_rw
from repro.synthesis.lower import BATCH_TILE_VAR, BATCH_VAR
from repro.synthesis.units import LoopSpec, LoopUnit, Section

#: a staging (im2col / gradient-input) buffer larger than this is not
#: materialized for the whole batch: its chain is tiled along the batch
#: loop at the largest divisor of the batch whose rows fit, so a tile is
#: gathered, multiplied and consumed while it is cache-resident. Under
#: the budget a chain keeps its whole-batch tile — per-tile dispatch
#: costs more than it saves on small layers
STAGING_TILE_BYTES = 512 * 1024


def is_tiled(unit: LoopUnit) -> bool:
    return bool(unit.loops) and unit.loops[0].role == "tile"


def tile_unit(unit: LoopUnit, count: int) -> LoopUnit:
    """Split one unit's batch loop into ``count`` tiles (in place): an
    outer tile-index loop and the intra-tile remainder."""
    if is_tiled(unit):
        return unit
    if isinstance(unit.stmt, Gemm):
        return _tile_gemm(unit, count)
    idx = next((i for i, sp in enumerate(unit.loops) if sp.var == BATCH_VAR),
               None)
    if idx is None:
        return unit
    sp = unit.loops[idx]
    if not (isinstance(sp.start, Const) and sp.start.value == 0):
        return unit
    unit.loops[idx] = _inner(sp, count)
    unit.loops.insert(0, _tile_loop(count))
    return unit


def _tile_loop(count: int) -> LoopSpec:
    return LoopSpec(BATCH_TILE_VAR, Const(0), Const(count), count,
                    role="tile")


def _inner(sp: LoopSpec, count: int) -> LoopSpec:
    """The intra-tile remainder of loop ``sp`` split ``count`` ways."""
    size, tv = sp.extent // count, Var(BATCH_TILE_VAR)
    return replace(sp, start=mul(size, tv), stop=mul(size, add(tv, 1)),
                   extent=size)


def _tile_gemm(unit: LoopUnit, count: int) -> LoopUnit:
    gemm: Gemm = unit.stmt
    if BATCH_VAR not in gemm.var_axes:
        return unit
    # tiles of a contracted letter sum into the output: a store would
    # keep the last tile only
    contracted = not any(key == "c" for key, _ in gemm.var_axes[BATCH_VAR])
    if contracted and not gemm.accumulate:
        return unit
    inner = gemm.var_loops[BATCH_VAR] = _inner(gemm.var_loops[BATCH_VAR],
                                               count)
    new_slice = SliceExpr(inner.start, inner.stop)

    refs = {"a": gemm.a, "b": gemm.b, "c": gemm.c}
    for key, axis in gemm.var_axes[BATCH_VAR]:
        ref = refs[key]
        indices = list(ref.indices)
        indices[axis] = new_slice
        refs[key] = Index(ref.buffer, tuple(indices))
    gemm.a, gemm.b, gemm.c = refs["a"], refs["b"], refs["c"]
    unit.loops.insert(0, _tile_loop(count))
    return unit


def batch_rows(batch: int, row_bytes: int) -> int:
    """Images per batch tile of a staging buffer that takes
    ``row_bytes`` per image: the largest divisor of the batch that fits
    :data:`STAGING_TILE_BYTES` (the whole batch — no tiling — when that
    fits; one image when none does)."""
    return max(d for d in range(1, batch + 1) if batch % d == 0
               and (d == 1 or d * row_bytes <= STAGING_TILE_BYTES))


def at_batch_rows(unit: LoopUnit, buf: str, plan) -> bool:
    """Does every access ``unit`` makes to base buffer ``buf`` index its
    lead axis by the batch variable — so that a batch tile of the unit
    touches exactly that tile's rows of the buffer?"""
    rows = {Var(BATCH_VAR)}
    if isinstance(unit.stmt, Gemm):
        refs = {"a": unit.stmt.a, "b": unit.stmt.b, "c": unit.stmt.c}
        rows = {refs[key].indices[axis]
                for key, axis in unit.stmt.var_axes.get(BATCH_VAR, ())}
    return all(e.indices and e.indices[0] in rows
               for e in walk_exprs(unit.stmt) if isinstance(e, Index)
               and plan.resolve_alias(e.buffer) == buf)


def _row_wise(unit: LoopUnit, plan) -> bool:
    """May ``unit`` follow a batch-tiled chain tile by tile? A loop nest
    over the batch computing each image's rows of batched values from
    the same image's rows — a bias, an activation, a pooling layer's
    init and max. Copies, pads and GEMMs start (or are) another layer's
    chain, so they end this one."""
    if (unit.tags.kind not in ("compute", "fill") or is_tiled(unit)
            or not isinstance(unit.stmt, Assign)
            or unit.tags.recurrent_src is not None
            or unit.find_loop(BATCH_VAR) is None):
        return False
    for e in walk_exprs(unit.stmt):
        if not isinstance(e, Index):
            continue
        base = plan.buffers[plan.resolve_alias(e.buffer)]
        if plan.buffers[e.buffer].alias_reshape is not None or (
                base.batched and e.indices[:1] != (Var(BATCH_VAR),)):
            return False
    return all(plan.buffers[b].batched and plan.buffers[b].role == "value"
               for b in unit_rw(plan, unit)[1])


def _pads(units: List[LoopUnit], chain: List[LoopUnit], rw) -> List[LoopUnit]:
    """The units ahead of a chain that write the padded buffer it
    gathers from: the pad's zero-fill and its interior copy."""
    start = next(i for i, u in enumerate(units) if u is chain[0])
    reads = frozenset().union(*(rw[id(u)][0] for u in chain))
    return [u for u in units[:start] if u.tags.kind in ("pad_fill", "pad")
            and rw[id(u)][1] & reads]


def _consumers(sections: List[Section], at: int, chain: List[LoopUnit],
               rw, plan) -> List[LoopUnit]:
    """The row-wise units that follow a chain — in its section and the
    ones after — consuming what it wrote: bias, in-place ReLU, the
    pool's init and its max. A unit that reads nothing (an init) joins
    with the consumer after it."""
    units = (u for sec in sections[at:] for u in sec.units)
    next(u for u in units if u is chain[-1])
    written = frozenset().union(*(rw[id(u)][1] for u in chain))
    out: List[LoopUnit] = []
    pending: List[LoopUnit] = []
    for unit in units:
        if not _row_wise(unit, plan):
            break
        reads, writes = unit_rw(plan, unit)
        if not reads:
            pending.append(unit)
            continue
        if not reads & written:
            break
        out += pending + [unit]
        pending = []
        written |= writes
    return out


def run(sections: List[Section], plan) -> Dict[str, int]:
    """Batch-tile the chain of every staging buffer too large to stay
    whole: its layer's pad, the units that read or write it, and the
    row-wise units consuming what they wrote (:func:`_consumers`), made
    adjacent so that fusion can put them under one tile loop — one
    group per layer, or per run of layers whose chains fusion joins. A
    chain that cannot be tiled (its units are not all loop nests over
    one time step's batch) runs whole-batch, with the reason in
    ``plan.untiled``. Returns how many units were tiled."""
    tiled = 0
    staging = {
        name: spec.itemsize * math.prod(spec.shape)
        for name, spec in plan.buffers.items()
        if spec.role in ("input", "grad_input") and spec.batched
        and spec.alias_of is None}
    batch = plan.batch_size
    for at, sec in enumerate(sections):
        rw = {id(u): unit_rw(plan, u) for u in sec.units}
        for name in staging:
            chain = [u for u in sec.units
                     if name in rw[id(u)][0] | rw[id(u)][1]]
            if not chain:
                continue
            rows = batch_rows(batch, staging[name])
            if rows == batch:
                continue
            if plan.time_steps > 1:
                plan.untiled[name] = "time-unrolled"
            elif any(isinstance(u.stmt, ExternOp) for u in chain):
                plan.untiled[name] = "opaque"
            elif any(u.tags.recurrent_src is not None for u in chain):
                plan.untiled[name] = "recurrent"
            else:
                chain = _pads(sec.units, chain, rw) + chain
                _adjoin(sec.units, chain, rw)
                for u in chain + _consumers(sections, at, chain, rw, plan):
                    if not is_tiled(u):
                        tiled += is_tiled(tile_unit(u, batch // rows))
                    u.tags.chain = name
    return {"units_tiled": tiled}


def _adjoin(units: List[LoopUnit], chain: List[LoopUnit], rw) -> None:
    """Sink the chain's leading units down to each next member, past
    the units between, as far as those are independent of them."""

    def independent(a, b) -> bool:
        (ra, wa), (rb, wb) = rw[id(a)], rw[id(b)]
        return not (wa & (rb | wb) or ra & wb)

    at = {id(u): i for i, u in enumerate(units)}
    for n, nxt in enumerate(chain[1:], start=1):
        i, j = at[id(chain[0])], at[id(nxt)]
        block, between = units[i:i + n], units[i + n:j]
        if not all(independent(b, m) for b in block for m in between):
            return
        units[i:j] = between + block
        at = {id(u): i for i, u in enumerate(units)}
