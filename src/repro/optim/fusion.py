"""Cross-layer fusion (§5.4.2).

Three cooperating transformations:

1. **Copy inlining** — when an input buffer's only uses index it
   uniformly, the gather (and its reverse scatter) is folded into the
   consumer's compute: pooling stops materializing ``poolinput`` and
   reads the producer's output directly, which is exactly the
   Fig. 9 → Fig. 12 rewrite the paper shows (the ``poolinput`` copy on
   Fig. 9 line 11 disappears in Fig. 12 line 13). This both removes a
   full pass over the data and frees the buffer.

2. **Tile-loop fusion** — after tiling, consecutive units (within and
   across layers) whose tile loops have identical trip counts are merged
   under one shared tile loop, so a thread computes a convolution tile,
   applies ReLU in place, and pools it while it is hot. Fusion is legal
   only when every in-group value a unit reads is *tile-local*:
   one-to-one and input-buffer reads always are; window reads are when
   the window does not overlap between steps (extent ≤ stride along the
   tiled dimension) and the scales line up. Overlapping windows — e.g. a
   3×3 stride-1 convolution consuming another convolution — are
   fusion-preventing dependences, which is why the paper cannot fuse the
   conv+conv+pool group 4 of VGG (§7.1.2). A unit that touches nothing
   the group wrote starts a group of its own: fusing it would buy no
   locality and hold two chains' staging alive at once.

3. **Contraction** — a staging, value or padded buffer whose whole
   life is inside one *batch*-tiled group (see :mod:`repro.optim.tiling`:
   one group per conv layer, pad → im2col → GEMM → bias → ReLU → pool)
   holds one tile at a time, so it is allocated for one tile only
   (:func:`contract`).

NormalizationEnsembles, losses, untiled paddings and communication
calls are fusion barriers (§5.5).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.ir import (
    Assign,
    CommCall,
    Const,
    ExternOp,
    Index,
    Var,
    free_vars,
    substitute,
    substitute_stmt,
    walk_exprs,
)
from repro.synthesis.access import ProgramView, unit_rw
from repro.synthesis.liveness import buffer_nbytes, respelled
from repro.synthesis.lower import (
    BATCH_TILE_VAR,
    BATCH_VAR,
    _kflat_expr,
    _src_index,
    _window_vars,
    dim_var,
)
from repro.synthesis.plan import BufferSpec
from repro.synthesis.units import FusedGroup, LoopSpec, LoopUnit, Section
from repro.optim.tiling import TILE_DIM, at_batch_rows, is_tiled


# ---------------------------------------------------------------------------
# 1. Copy inlining
# ---------------------------------------------------------------------------


def inline_copies(fwd: List[Section], bwd: List[Section], plan) -> None:
    """Fold eligible gather/scatter copies into their consumers."""
    by_name_f = {s.ensemble: s for s in fwd}
    by_name_b = {s.ensemble: s for s in bwd}
    for (ens_name, j), cplan in list(plan.conn_plans.items()):
        if cplan.mode != "copy" or cplan.recurrent:
            continue
        facts = plan.facts[ens_name]
        info = facts.connections[j].mapping
        f_sec, b_sec = by_name_f[ens_name], by_name_b[ens_name]
        computes = [
            u
            for u in f_sec.units + b_sec.units
            if u.tags.kind == "compute"
        ]
        probe = _inline_probe(computes, cplan)
        if probe is None:
            continue
        sub_var = probe
        ens = facts.ensemble
        for u in computes:
            _rewrite_inlined(u, ens, j, info, cplan, sub_var)
        # drop the copy and scatter units
        f_sec.units = [
            u
            for u in f_sec.units
            if not (u.tags.kind == "copy" and u.tags.conn_index == j)
        ]
        b_sec.units = [
            u
            for u in b_sec.units
            if not (u.tags.kind == "scatter" and u.tags.conn_index == j)
        ]
        # free the now-unused buffers
        plan.buffers.pop(cplan.in_buf, None)
        plan.buffers.pop(cplan.grad_in_buf, None)
        cplan.mode = "inlined"


def _inline_probe(computes, cplan) -> Optional[Union[str, bool]]:
    """Check eligibility; returns the flat-window loop variable name,
    True for constant-index (window size 1) uses, or None if ineligible.
    """
    target_bufs = {cplan.in_buf, cplan.grad_in_buf}
    sub = None
    seen_use = False
    for u in computes:
        for ref in walk_exprs(u.stmt):
            if not isinstance(ref, Index):
                continue
            if ref.buffer in target_bufs:
                seen_use = True
                if len(ref.indices) < 2:
                    return None
                e = ref.indices[1]
                if isinstance(e, Const):
                    this = True
                elif isinstance(e, Var):
                    this = e.name
                else:
                    return None
                if sub is None:
                    sub = this
                elif sub != this:
                    return None
    if not seen_use or sub is None:
        return None
    if sub is True:
        return sub
    # the loop var must not appear anywhere except these buffer indices
    for u in computes:
        for ref in walk_exprs(u.stmt):
            if isinstance(ref, Index) and ref.buffer not in target_bufs:
                if sub in free_vars(ref):
                    return None
    return sub


def _rewrite_inlined(unit, ens, j, info, cplan, sub_var) -> None:
    """Substitute direct source accesses for buffer accesses in a unit."""
    target_bufs = {cplan.in_buf: False, cplan.grad_in_buf: True}
    if not any(
        isinstance(e, Index) and e.buffer in target_bufs
        for e in walk_exprs(unit.stmt)
    ):
        return
    wvars = [
        f"{ens.name}_c{j}iw{d}" if wd.length > 1 else None
        for d, wd in enumerate(info.dims)
    ]
    sidx = _src_index(ens, info, cplan, wvars)
    src_val = cplan.padded_value or cplan.src_value
    src_grd = cplan.padded_grad or cplan.src_grad

    from repro.ir import map_expr, transform_exprs

    def rewrite(e):
        if isinstance(e, Index) and e.buffer in target_bufs:
            is_grad = target_bufs[e.buffer]
            base = src_grd if is_grad else src_val
            return Index(base, (Var(BATCH_VAR),) + sidx)
        return None

    unit.stmt = transform_exprs(unit.stmt, lambda e: map_expr(rewrite, e))

    # replace the flat-window loop with per-dimension window loops
    new_loops: List[LoopSpec] = []
    for sp in unit.loops:
        if sub_var is not True and sp.var == sub_var:
            for d, wv in enumerate(wvars):
                if wv is not None:
                    new_loops.append(
                        LoopSpec.simple(wv, info.dims[d].length, role="window")
                    )
        else:
            new_loops.append(sp)
    unit.loops = new_loops
    unit.tags.conn = info
    unit.tags.copy_source = src_val
    unit.tags.note = "inlined"


# ---------------------------------------------------------------------------
# 2. Tile-loop fusion / schedule construction
# ---------------------------------------------------------------------------

ScheduleItem = Union[FusedGroup, CommCall]


def _window_tile_local(info, ens_shape, src_buf_shape) -> bool:
    """Can a window read be satisfied from the producer's current tile?

    Requires non-overlapping stepping (length ≤ coeff) and exact scale
    coverage along the tiled sink dimension.
    """
    td = TILE_DIM
    if len(ens_shape) <= td:
        return False
    any_dep = False
    for d, wd in enumerate(info.dims):
        c = wd.coeffs[td] if td < len(wd.coeffs) else 0
        if c == 0:
            continue
        any_dep = True
        if wd.length > c:
            return False
        if wd.offset < 0:
            return False
        if c * ens_shape[td] != info.source_shape[d]:
            return False
    return any_dep


def _reads_tile_local(unit: LoopUnit, buf: str, writer: LoopUnit, plan,
                      batch: bool = False) -> bool:
    """May ``unit`` read ``buf`` (written earlier in the group) within the
    shared tile? Under a ``batch`` tile, when both touch it row by row."""
    spec = plan.buffers.get(buf)
    if spec is not None and spec.alias_reshape is not None:
        return False  # reshaped alias views are not tile-decomposable
    if batch:
        return (spec is not None and spec.batched
                and at_batch_rows(unit, buf, plan)
                and at_batch_rows(writer, buf, plan))
    info = unit.tags.conn
    src = unit.tags.copy_source
    ens_shape = _ens_shape(unit, plan)
    if unit.tags.kind in ("copy",) or (
        unit.tags.kind == "compute" and src is not None
        and buf == plan.resolve_alias(src)
    ):
        if info is None or ens_shape is None:
            return False
        if info.kind == "one_to_one":
            return True
        if info.kind != "window":
            return False
        return _window_tile_local(info, ens_shape, None)
    if unit.tags.kind in ("compute", "fill", "scatter"):
        # input buffers and value/grad aliases are tile-aligned by
        # construction (same tiled dimension variable) — provided the
        # writer itself stayed inside its tile (a scatter through an
        # overlapping window would not)
        role = spec.role if spec is not None else ""
        if role not in ("input", "grad_input", "value", "grad", "padded",
                        "padded_grad"):
            return False
        if writer.tags.kind == "scatter" or (
            writer.tags.kind == "compute" and writer.tags.note == "inlined"
        ):
            w_info = writer.tags.conn
            w_shape = _ens_shape(writer, plan)
            if w_info is None or w_shape is None:
                return False
            if w_info.kind == "one_to_one":
                return True
            if w_info.kind != "window":
                return False
            return _window_tile_local(w_info, w_shape, None)
        return True
    return False


def _ens_shape(unit, plan):
    facts = plan.facts.get(unit.tags.ensemble)
    return facts.ensemble.shape if facts is not None else None


def build_schedule(
    sections: List[Section], plan, options
) -> List[ScheduleItem]:
    """Group units into fused groups and interleave communication calls."""
    items: List[ScheduleItem] = []
    group: Optional[FusedGroup] = None  # the open tiled group, if any
    written: Dict[str, LoopUnit] = {}  # base buffer -> its in-group writer

    def close():
        nonlocal group, written
        if group is not None and group.units:
            items.append(group)
        group = None
        written = {}

    for sec in sections:
        for unit in sec.units:
            fusable = (
                options.fusion
                and is_tiled(unit)
                and unit.tags.recurrent_src is None
                and not isinstance(unit.stmt, ExternOp)
            )
            if not fusable:
                close()
                rec = (
                    frozenset({unit.tags.recurrent_src})
                    if unit.tags.recurrent_src is not None
                    else frozenset()
                )
                items.append(
                    FusedGroup([unit], None, _label(unit),
                               recurrent_reads=rec)
                )
                continue
            reads, writes = unit_rw(plan, unit)
            tile = unit.loops.pop(0)
            batch = tile.var == BATCH_TILE_VAR
            if (
                group is not None
                and tile.extent == group.tile_loop.extent
                and batch == (group.tile_loop.var == BATCH_TILE_VAR)
                and all(_reads_tile_local(unit, b, written[b], plan, batch)
                        for b in reads & written.keys())
                # fusion keeps a producer's tile hot for its consumer: a
                # unit of another chain would only hold that chain's
                # staging alive beside this one's (a fill reads nothing
                # and joins the unit it initializes for) — and liveness
                # is per group, so two layers' chains never share one
                and (not reads or (reads | writes) & written.keys())
                and unit.tags.chain == group.units[-1].tags.chain
            ):
                if tile.var != group.tile_loop.var:
                    _rename_var(unit, tile.var, group.tile_loop.var)
                group.units.append(unit)
                group.label += f"+{_label(unit)}"
            else:
                close()
                group = FusedGroup([unit], tile, _label(unit))
            written.update((b, unit) for b in writes)
        if sec.comm:
            close()
            items.extend(sec.comm)
    close()
    return items


def contract(plan, fwd_items, bwd_items, keep=frozenset()) -> int:
    """Shrink to one tile every staging, value or padded buffer that
    lives inside one batch-tiled group; returns the bytes no longer
    allocated.

    A buffer whose every access in the program is in a single group —
    defined there before it is read, row by row of the batch — holds
    one tile's rows at a time, so ``[tile, …]`` is all it needs
    (``BufferSpec.tile``; its in-place aliases share the tile and the
    group's units are respelled to name the base). The code generators
    then spell its lead index relative to the tile's first row
    (``python_backend.lowered_units``). A value or padded buffer of a
    batch-tiled group stays whole — with the reason in
    ``plan.untiled`` — when it is in ``keep`` (the bases
    ``keep_alive`` keeps inspectable, :func:`~repro.synthesis.liveness.
    kept_buffers`), has a reshaped alias (not tile-decomposable), or is
    read by another item. A staging buffer read again later (a forward
    copy its backward pass was not allowed to re-gather) keeps the
    whole batch too; the memory plan says why.
    """
    view = ProgramView(plan, fwd_items, bwd_items)
    items = list(fwd_items) + list(bwd_items)
    aliases: Dict[str, List[BufferSpec]] = {}
    for spec in plan.buffers.values():
        if spec.alias_of is not None:
            aliases.setdefault(plan.resolve_alias(spec.name), []).append(spec)
    saved = 0
    for base, iv in view.intervals.items():
        spec = plan.buffers[base]
        if (spec.role not in ("input", "grad_input", "value", "padded")
                or not spec.batched or iv.first_kind != "w"):
            continue
        group = items[iv.first]
        if group.tile_loop is None or group.tile_loop.var != BATCH_TILE_VAR:
            continue
        reason = (
            "keep_alive" if base in keep
            else "reshaped-alias" if any(a.alias_reshape is not None
                                         for a in aliases.get(base, ()))
            else "read-by-next-group" if iv.first != iv.last
            else None)
        if reason is not None:
            if spec.role in ("value", "padded"):
                plan.untiled[base] = reason
            continue
        if not all(at_batch_rows(u, base, plan) for u in group.units):
            continue
        whole = buffer_nbytes(plan, spec)
        spec.tile = plan.batch_size // group.tile_loop.extent
        for alias in aliases.get(base, ()):
            alias.tile = spec.tile
        if base in aliases:
            names = {alias.name: base for alias in aliases[base]}
            for unit in group.units:
                unit.stmt = respelled(unit.stmt, names)
        group.contracted += (base,)
        plan.contracted[base] = group.label
        saved += whole - buffer_nbytes(plan, spec)
    return saved


def _label(unit: LoopUnit) -> str:
    return f"{unit.tags.ensemble}.{unit.tags.kind}"


def _rename_var(unit: LoopUnit, old: str, new: str) -> None:
    unit.stmt = substitute_stmt(unit.stmt, {old: Var(new)})
    for sp in unit.loops:
        sp.start = substitute(sp.start, {old: Var(new)})
        sp.stop = substitute(sp.stop, {old: Var(new)})
