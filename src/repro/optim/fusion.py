"""Cross-layer fusion (§5.4.2).

Three cooperating transformations:

1. **Copy inlining** — when an input buffer's only uses index it
   uniformly, the gather (and its reverse scatter) is folded into the
   consumer's compute: pooling stops materializing ``poolinput`` and
   reads the producer's output directly, which is exactly the
   Fig. 9 → Fig. 12 rewrite the paper shows (the ``poolinput`` copy on
   Fig. 9 line 11 disappears in Fig. 12 line 13). This both removes a
   full pass over the data and frees the buffer.

2. **Tile-loop fusion** — after tiling, consecutive units of one
   batch-tiled chain (:mod:`repro.optim.tiling`: one per conv layer)
   are merged under one shared tile loop, so a thread gathers a tile,
   multiplies it, applies bias and ReLU in place and pools it while it
   is hot. A unit joins when its tile loop has the group's trip count
   and every in-group buffer it reads is touched row by row of the
   batch, by it and by its writer; a unit that touches nothing the
   group wrote starts a group of its own. The next conv layer's chain
   joins as a whole, and only where that is what lets the buffer
   between the two layers contract: the same tile count, and a bridge
   that is neither kept nor read by anything outside the two chains.
   That is the paper's VGG grouping (§7.1.2) — whose group 4 it refuses
   for 3×3 windows overlapping along a tiled ``y``; the batch is the one
   tile axis here, and batch tiles are independent images. A training
   program's backward pass reads the values its forward pass wrote, so
   forward-only programs are the ones that merge layers.

3. **Contraction** — a staging, value or padded buffer whose whole
   life is inside one tiled group (pad → im2col → GEMM → bias → ReLU →
   pool, for one conv layer or several) holds one tile at a time, so it
   is allocated for one tile only (:func:`contract`). The memory
   planner then overlays two buffers contracted to one group wherever
   the units touching them do not overlap
   (:attr:`~repro.synthesis.access.Interval.units`), so a group of
   several layers needs no more arena than its largest layer.

NormalizationEnsembles and untiled paddings are fusion barriers
(§5.5).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Union

from repro.ir import Const, ExternOp, Index, Var, free_vars, walk_exprs
from repro.synthesis.access import ProgramView, unit_rw
from repro.synthesis.liveness import buffer_nbytes, respelled
from repro.synthesis.lower import BATCH_VAR, _src_index
from repro.synthesis.plan import BufferSpec
from repro.synthesis.units import FusedGroup, LoopSpec, LoopUnit, Section
from repro.optim.tiling import at_batch_rows, is_tiled


# ---------------------------------------------------------------------------
# 1. Copy inlining
# ---------------------------------------------------------------------------


def inline_copies(fwd: List[Section], bwd: List[Section],
                  plan) -> Dict[str, int]:
    """Fold eligible gather/scatter copies into their consumers; returns
    how many were folded."""
    inlined = 0
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
        inlined += 1
    return {"copies_inlined": inlined}


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

def _reads_tile_local(unit: LoopUnit, buf: str, writer: LoopUnit,
                      plan) -> bool:
    """May ``unit`` read ``buf`` (written earlier in the group) within the
    shared batch tile — do both touch it row by row?"""
    spec = plan.buffers.get(buf)
    if spec is None or spec.alias_reshape is not None:
        return False  # reshaped alias views are not tile-decomposable
    return (spec.batched and at_batch_rows(unit, buf, plan)
            and at_batch_rows(writer, buf, plan))


#: buffer roles :func:`contract` may shrink to one batch tile
CONTRACTIBLE = ("input", "grad_input", "value", "padded")


def _fits(unit: LoopUnit, reads, writes, written: Dict[str, LoopUnit],
          extent: int, plan) -> bool:
    """May tiled ``unit`` run under a tile loop of ``extent`` trips,
    after the units that wrote ``written``? Every in-group buffer it
    reads must be touched row by row of the batch, by it and by its
    writer; and a unit that touches nothing the group wrote would buy
    no locality (a fill reads nothing and joins the unit it initializes
    for)."""
    return (unit.loops[0].extent == extent
            and all(_reads_tile_local(unit, b, written[b], plan)
                    for b in reads & written.keys())
            and (not reads or bool((reads | writes) & written.keys())))


def build_schedule(sections: List[Section], plan, fuse: bool,
                   keep: Dict[str, str], later=()) -> List[FusedGroup]:
    """Group units into fused groups.

    With ``fuse`` off (below the fusion rung) every unit is its own
    step. ``keep`` maps the bases :func:`contract` must leave whole to
    why, and ``later`` are the sections that run after these (the
    backward program, for the forward schedule). Why a value or padded
    buffer a tiled group hands on to the next item stays whole goes
    into ``plan.untiled``.
    """
    items: List[FusedGroup] = []
    group: Optional[FusedGroup] = None  # the open tiled group, if any
    written: Dict[str, LoopUnit] = {}  # base buffer -> its in-group writer
    units = [u for sec in sections for u in sec.units]
    everywhere = units + [u for sec in later for u in sec.units]
    rw = {id(u): unit_rw(plan, u) for u in everywhere}
    readers: Dict[str, Set[int]] = {}  # base buffer -> units reading it
    for u in everywhere:
        for b in rw[id(u)][0]:
            readers.setdefault(b, set()).add(id(u))
    chains: Dict[str, List[LoopUnit]] = {}
    for u in filter(is_tiled, units):
        chains.setdefault(u.tags.chain, []).append(u)

    def refusal(chain: List[LoopUnit]) -> Optional[str]:
        """Why the next layer's ``chain`` may not join the open group;
        ``None`` when it may: its units fit the group's tile loop, and
        the bridge — what it reads of the group — is read nowhere else
        and may contract, so joining is exactly what lets it."""
        bridge = frozenset().union(
            *(rw[id(u)][0] for u in chain)) & written.keys()
        if not bridge:
            return "nothing-bridged"
        inside = {id(u) for u in group.units + chain}
        rows = plan.batch_size // group.tile_loop.extent
        its = plan.batch_size // chain[0].loops[0].extent
        if bridge & keep.keys():
            reason = keep[min(bridge & keep.keys())]
        elif any(readers[b] - inside for b in bridge):
            reason = "read-later"
        elif rows != its:
            reason = f"tile-mismatch ({rows} vs {its} rows)"
        elif any(plan.buffers[b].role not in CONTRACTIBLE for b in bridge):
            reason = "not-contractible"
        else:
            seen = dict(written)
            for u in chain:
                reads, writes = rw[id(u)]
                if not _fits(u, reads, writes, seen, group.tile_loop.extent,
                             plan):
                    break
                seen.update((b, u) for b in writes)
            else:
                return None
            reason = "not-tile-local"
        plan.untiled.update((b, reason) for b in bridge
                            if plan.buffers[b].role in ("value", "padded"))
        return reason

    def close():
        nonlocal group, written
        if group is not None and group.units:
            items.append(group)
        group = None
        written = {}

    for sec in sections:
        for unit in sec.units:
            reads, writes = rw[id(unit)]
            fusable = (
                fuse
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
            # the first unit of the next layer's chain joins the open
            # group only with the whole chain (the paper's VGG groups,
            # §7.1.2); per-unit liveness inside the group keeps the
            # layers' tiles from stacking up in the arena
            if (group is not None
                    and unit.tags.chain != group.units[-1].tags.chain
                    and refusal(chains[unit.tags.chain]) is not None):
                close()
            if group is not None and _fits(unit, reads, writes, written,
                                           group.tile_loop.extent, plan):
                unit.loops.pop(0)
                group.units.append(unit)
                group.label += f"+{_label(unit)}"
            else:
                close()
                group = FusedGroup([unit], unit.loops.pop(0), _label(unit))
            written.update((b, unit) for b in writes)
    close()
    return items


def contract(plan, fwd_items, bwd_items,
             keep: Dict[str, str]) -> Dict[str, int]:
    """Shrink to one tile every staging, value or padded buffer that
    lives inside one tiled group; returns the fusion pass's counters:
    the groups of the schedule, the buffers contracted by role, and the
    bytes no longer allocated.

    A buffer whose every access in the program is in a single group —
    defined there before it is read, row by row of the batch — holds
    one tile's rows at a time, so ``[tile, …]`` is all it needs
    (``BufferSpec.tile``; its in-place aliases share the tile and the
    group's units are respelled to name the base). The code generators
    then spell its lead index relative to the tile's first row
    (``python_backend.lowered_units``). A value or padded buffer of a
    batch-tiled group stays whole — with the reason in
    ``plan.untiled`` — when ``keep`` has it (with the reason there:
    :func:`~repro.synthesis.liveness.kept_buffers`' or ``int8``), has
    a reshaped alias (``reshaped-alias``: not
    tile-decomposable), or is read by another item: the reason
    :func:`build_schedule` refused the next chain for
    (``tile-mismatch (R vs S rows)``, ``read-later``, …), else
    ``barrier (<kind>)`` when an untiled step of its phase reads it
    next and ``read-later`` otherwise. A staging buffer read again
    later (a forward copy its backward pass was not allowed to
    re-gather) keeps the whole batch too; the memory plan says why.
    """
    view = ProgramView(plan, fwd_items, bwd_items)
    items = list(fwd_items) + list(bwd_items)
    aliases: Dict[str, List[BufferSpec]] = {}
    for spec in plan.buffers.values():
        if spec.alias_of is not None:
            aliases.setdefault(plan.resolve_alias(spec.name), []).append(spec)
    saved = 0
    roles: Counter = Counter()
    for base, iv in view.intervals.items():
        spec = plan.buffers[base]
        if (spec.role not in CONTRACTIBLE or not spec.batched
                or iv.first_kind != "w"):
            continue
        group = items[iv.first]
        if group.tile_loop is None:
            continue
        reason = (
            keep[base] if base in keep
            else "reshaped-alias" if any(a.alias_reshape is not None
                                         for a in aliases.get(base, ()))
            else plan.untiled.get(base) or _handed_on(view, items, base)
            if iv.first != iv.last else None)
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
        roles[spec.role] += 1
        saved += whole - buffer_nbytes(plan, spec)
    fused = [item for item in items if len(item.units) > 1]
    return {"fused_groups": len(fused),
            "fused_units": sum(len(g.units) for g in fused),
            "chains_joined": sum(len({u.tags.chain for u in g.units}) - 1
                                 for g in fused),
            "staging_contracted": roles["input"] + roles["grad_input"],
            "values_contracted": roles["value"],
            "padded_contracted": roles["padded"],
            "bytes_contracted": saved}


def _label(unit: LoopUnit) -> str:
    return f"{unit.tags.ensemble}.{unit.tags.kind}"


def _handed_on(view: ProgramView, items, base: str) -> str:
    """Why ``base``, which a tiled group hands on to a later item, stays
    whole when no chain was refused for it: an untiled step of the same
    phase reads it next (``barrier``), or a later group or the other
    phase does (``read-later``)."""
    first = view.intervals[base].first
    nxt = view.readers_after(first, base)[:1]
    if not nxt or view.phase(nxt[0]) != view.phase(first):
        return "read-later"
    item = items[nxt[0]]
    if getattr(item, "tile_loop", True) is not None:
        return "read-later"
    (unit,) = item.units
    kind = ("extern" if isinstance(unit.stmt, ExternOp)
            else "recurrent" if unit.tags.recurrent_src is not None
            else "untiled")
    return f"barrier ({kind})"
